#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace sora::obs {

namespace {

// log2(v / kMinValue) * 2 -> half-octave bucket index, clamped to the grid.
std::size_t bucket_of(double v) {
  if (!(v > SloDigest::kMinValue)) return 0;
  const double k = 2.0 * std::log2(v / SloDigest::kMinValue);
  if (k >= static_cast<double>(SloDigest::kBuckets - 1))
    return SloDigest::kBuckets - 1;
  return static_cast<std::size_t>(k);
}

double bucket_lower(std::size_t k) {
  return SloDigest::kMinValue * std::exp2(0.5 * static_cast<double>(k));
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed))
    ;
}

}  // namespace

SloDigest::SloDigest() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void SloDigest::observe(double v) {
  if (!std::isfinite(v)) return;
  if (v < 0.0) v = 0.0;
  counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  atomic_max(max_, v);
}

double SloDigest::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, nearest-rank with rounding).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5));
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    const std::uint64_t c = counts_[k].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (cumulative + c >= rank) {
      // Geometric interpolation across the bucket: fraction of the bucket's
      // observations at or below the target rank.
      const double frac =
          static_cast<double>(rank - cumulative) / static_cast<double>(c);
      const double lo = k == 0 ? kMinValue : bucket_lower(k);
      const double hi = bucket_lower(k + 1);
      const double v = lo * std::pow(hi / lo, frac);
      // Never report beyond the observed extreme (the top bucket is open).
      return std::min(v, max());
    }
    cumulative += c;
  }
  return max();
}

void SloDigest::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Process-global sora_slot_* metrics.

namespace {

struct SlotMetrics {
  Counter* slots;
  Counter* deadline_hits;
  Counter* deadline_misses;
  Gauge* budget;
};

SloDigest g_digest;

const SlotMetrics& slot_metrics() {
  static const SlotMetrics metrics = [] {
    auto& reg = Registry::global();
    const SlotMetrics m{
        &reg.counter("sora_slot_solves_total",
                     "Slot solves recorded by the SLO layer"),
        &reg.counter("sora_slot_deadline_hit_total",
                     "Slots that landed within the configured budget"),
        &reg.counter("sora_slot_deadline_miss_total",
                     "Slots that overran the configured budget"),
        &reg.gauge("sora_slot_budget_seconds",
                   "Configured per-slot deadline budget (0 = off)"),
    };
    reg.add_text_extension(render_slo_text);
    return m;
  }();
  return metrics;
}

}  // namespace

namespace detail {

void record_slot_impl(double latency_seconds, double budget_seconds) {
  const SlotMetrics& m = slot_metrics();
  g_digest.observe(latency_seconds);
  m.slots->inc();
  if (budget_seconds > 0.0) {
    m.budget->set(budget_seconds);
    (latency_seconds <= budget_seconds ? m.deadline_hits : m.deadline_misses)
        ->inc();
  }
}

}  // namespace detail

const SloDigest& global_slot_digest() { return g_digest; }

void reset_global_slot_slo() { g_digest.reset(); }

std::string render_slo_text() {
  const SloDigest& d = g_digest;
  if (d.count() == 0) return "";
  char buf[128];
  std::ostringstream os;
  os << "# HELP sora_slot_latency_seconds Per-slot solve latency "
        "(streaming digest)\n"
     << "# TYPE sora_slot_latency_seconds summary\n";
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    std::snprintf(buf, sizeof buf,
                  "sora_slot_latency_seconds{quantile=\"%g\"} %.9g\n", q,
                  d.quantile(q));
    os << buf;
  }
  std::snprintf(buf, sizeof buf, "sora_slot_latency_seconds_sum %.9g\n",
                d.sum());
  os << buf;
  os << "sora_slot_latency_seconds_count " << d.count() << "\n";
  std::snprintf(buf, sizeof buf, "sora_slot_latency_max_seconds %.9g\n",
                d.max());
  os << "# TYPE sora_slot_latency_max_seconds gauge\n" << buf;
  return os.str();
}

// ---------------------------------------------------------------------------
// Per-run tracker.

SlotSloTracker::SlotSloTracker(const SlotSloOptions& options)
    : options_(options) {}

void SlotSloTracker::record(double latency_seconds) {
  digest_.observe(latency_seconds);
  if (options_.budget_seconds > 0.0 &&
      latency_seconds > options_.budget_seconds)
    ++deadline_misses_;
  record_slot(latency_seconds, options_.budget_seconds);
}

SlotSloReport SlotSloTracker::report() const {
  SlotSloReport r;
  r.slots = digest_.count();
  r.deadline_misses = deadline_misses_;
  r.budget_seconds = options_.budget_seconds;
  r.p50_seconds = digest_.quantile(0.50);
  r.p95_seconds = digest_.quantile(0.95);
  r.p99_seconds = digest_.quantile(0.99);
  r.max_seconds = digest_.max();
  r.mean_seconds = digest_.mean();
  return r;
}

}  // namespace sora::obs
