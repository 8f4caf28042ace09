#include "serve/daemon.hpp"

#include <cstring>

#include "core/cost.hpp"
#include "core/resilience.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sora::serve {
namespace {

struct ServeMetrics {
  obs::Counter* ticks;
  obs::Counter* deadline_reroutes;
  obs::Counter* snapshots;
  obs::Gauge* next_slot;
  obs::Gauge* cumulative_cost;
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return ServeMetrics{
        &reg.counter("sora_serve_ticks_total", "Workload ticks served"),
        &reg.counter("sora_serve_deadline_reroutes_total",
                     "Slots re-routed to hold-and-repair after a deadline "
                     "miss"),
        &reg.counter("sora_serve_snapshots_total", "Snapshots written"),
        &reg.gauge("sora_serve_next_slot", "Next slot index to serve"),
        &reg.gauge("sora_serve_cumulative_cost",
                   "Cumulative P1 cost over the served stream"),
    };
  }();
  return metrics;
}

std::uint64_t fnv1a_doubles(std::uint64_t hash, const core::Vec& v) {
  for (const double x : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof bytes);
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

}  // namespace

ServeDaemon::ServeDaemon(const core::Instance& inst,
                         const ServeOptions& options)
    : inst_(inst),
      options_(options),
      workspace_(inst, options.roa),
      prev_(core::Allocation::zeros(inst.num_edges())),
      lambda_(inst.num_tier1(), 0.0) {
  SORA_CHECK_MSG(options_.requests_per_unit > 0.0,
                 "requests_per_unit must be positive");
}

std::uint64_t ServeDaemon::hash_allocation(const core::Allocation& alloc) {
  std::uint64_t hash = 1469598103934665603ull;
  hash = fnv1a_doubles(hash, alloc.x);
  hash = fnv1a_doubles(hash, alloc.y);
  hash = fnv1a_doubles(hash, alloc.z);
  return hash;
}

SlotResult ServeDaemon::step(const Tick& tick) {
  SORA_CHECK(tick.kind == Tick::Kind::kTick);
  SORA_CHECK(tick.requests.size() == inst_.num_tier1());

  for (std::size_t j = 0; j < lambda_.size(); ++j)
    lambda_[j] = tick.requests[j] / options_.requests_per_unit;

  // Prices cycle through the instance horizon so the stream can outlive the
  // trace the instance was built from.
  const std::size_t price_row = next_slot_ % inst_.horizon;
  core::SlotInputs in{next_slot_, &lambda_, &inst_.tier2_price[price_row],
                      inst_.has_tier1() ? &inst_.tier1_price[price_row]
                                        : nullptr};

  util::Timer timer;
  core::P2Solution p2 = workspace_.step(in, prev_);
  double latency = timer.seconds();

  const double budget = options_.roa.slo.budget_seconds;
  const bool miss = budget > 0.0 && latency > budget;
  if (miss && !p2.outcome.degraded) {
    // The solve finished after the slot boundary: the answer is worthless
    // (deploying it late would charge reconfiguration for a state the slot
    // is already past), so publish the held-and-repaired decision instead.
    SORA_LOG_WARN << "serve: slot " << next_slot_ << " missed budget ("
                  << latency * 1e3 << " ms > " << budget * 1e3
                  << " ms); degrading to hold-and-repair";
    p2 = workspace_.degrade(in, prev_);
    latency = timer.seconds();
    if (obs::metrics_enabled()) serve_metrics().deadline_reroutes->inc();
  }

  obs::record_slot(latency, budget);
  core::record_flight("serve_slot", next_slot_, p2.outcome, latency);

  SlotResult result;
  result.slot = next_slot_;
  result.backend = core::to_string(p2.outcome.backend);
  result.attempts = p2.outcome.attempts;
  result.degraded = p2.outcome.degraded;
  result.deadline_miss = miss;
  result.latency_seconds = latency;
  const double alloc_cost = core::slot_allocation_cost(inst_, in, p2.alloc);
  const double reconfig_cost =
      core::reconfiguration_cost(inst_, prev_, p2.alloc);
  result.slot_cost = alloc_cost + reconfig_cost;
  result.alloc_hash = hash_allocation(p2.alloc);

  stats_.slots += 1;
  if (p2.outcome.degraded) stats_.degraded_slots += 1;
  if (p2.outcome.fell_back()) stats_.fallback_slots += 1;
  if (miss) stats_.deadline_misses += 1;
  stats_.cost.allocation += alloc_cost;
  stats_.cost.reconfiguration += reconfig_cost;
  result.cumulative_cost = stats_.cost.total();

  prev_ = p2.alloc;
  result.alloc = std::move(p2.alloc);
  ++next_slot_;

  if (obs::metrics_enabled()) {
    const ServeMetrics& metrics = serve_metrics();
    metrics.ticks->inc();
    metrics.next_slot->set(static_cast<double>(next_slot_));
    metrics.cumulative_cost->set(result.cumulative_cost);
  }

  if (!options_.snapshot_path.empty() && options_.snapshot_every > 0 &&
      next_slot_ % options_.snapshot_every == 0) {
    std::string error;
    if (!write_snapshot_now(&error))
      SORA_LOG_ERROR << "serve: snapshot failed at slot " << next_slot_
                     << ": " << error;
  }
  return result;
}

bool ServeDaemon::write_snapshot_now(std::string* error) {
  if (options_.snapshot_path.empty()) {
    if (error != nullptr) *error = "no snapshot path configured";
    return false;
  }
  ServeSnapshot snap;
  snap.next_slot = next_slot_;
  snap.num_tier1 = inst_.num_tier1();
  snap.num_tier2 = inst_.num_tier2();
  snap.num_edges = inst_.num_edges();
  snap.prev = prev_;
  snap.has_warm = workspace_.export_warm_start(snap.warm);
  snap.cost = stats_.cost;
  snap.slots = stats_.slots;
  snap.degraded_slots = stats_.degraded_slots;
  snap.fallback_slots = stats_.fallback_slots;
  snap.deadline_misses = stats_.deadline_misses;
  if (!write_snapshot(options_.snapshot_path, snap, error)) return false;
  stats_.snapshots_written += 1;
  if (obs::metrics_enabled()) serve_metrics().snapshots->inc();
  SORA_LOG_INFO << "serve: snapshot @ slot " << next_slot_ << " -> "
                << options_.snapshot_path;
  return true;
}

bool ServeDaemon::restore(std::string* error) {
  ServeSnapshot snap;
  if (!read_snapshot(options_.snapshot_path, snap, error)) return false;
  if (snap.num_tier1 != inst_.num_tier1() ||
      snap.num_tier2 != inst_.num_tier2() ||
      snap.num_edges != inst_.num_edges()) {
    if (error != nullptr)
      *error = "snapshot topology (" + std::to_string(snap.num_tier1) + "x" +
               std::to_string(snap.num_tier2) + ", " +
               std::to_string(snap.num_edges) +
               " edges) does not match the instance (" +
               std::to_string(inst_.num_tier1()) + "x" +
               std::to_string(inst_.num_tier2()) + ", " +
               std::to_string(inst_.num_edges()) + " edges)";
    return false;
  }
  if (snap.prev.x.size() != inst_.num_edges() ||
      snap.prev.y.size() != inst_.num_edges() ||
      snap.prev.z.size() != inst_.num_edges()) {
    if (error != nullptr) *error = "snapshot allocation size mismatch";
    return false;
  }
  if (snap.has_warm) {
    if (!workspace_.import_warm_start(snap.warm)) {
      if (error != nullptr) *error = "snapshot warm-start size mismatch";
      return false;
    }
  } else {
    workspace_.reset_warm_start();
  }
  prev_ = snap.prev;
  next_slot_ = snap.next_slot;
  stats_.cost = snap.cost;
  stats_.slots = snap.slots;
  stats_.degraded_slots = snap.degraded_slots;
  stats_.fallback_slots = snap.fallback_slots;
  stats_.deadline_misses = snap.deadline_misses;
  SORA_LOG_INFO << "serve: restored snapshot, resuming at slot " << next_slot_;
  return true;
}

}  // namespace sora::serve
