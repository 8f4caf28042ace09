#include "obs/slo.hpp"

#include <algorithm>
#include <numeric>

namespace sora::obs {

namespace detail {

const SlotInstruments g_slot_instruments{
    Registry::global().histogram("sora_slot_latency_seconds", "seconds",
                                 "Per-slot solve latency",
                                 exponential_buckets(1e-6, 2.0, 27)),
    Registry::global().counter("sora_slot_deadline_hit_total",
                               "Slots that landed within the configured "
                               "budget"),
    Registry::global().counter("sora_slot_deadline_miss_total",
                               "Slots that overran the configured budget"),
    Registry::global().gauge("sora_slot_budget_seconds",
                             "Configured per-slot deadline budget (0 = off)"),
};

}  // namespace detail

SlotSloTracker::SlotSloTracker(const SlotSloOptions& options)
    : options_(options) {}

void SlotSloTracker::record(double latency_seconds) {
  latencies_.push_back(latency_seconds);
  record_slot(latency_seconds, options_.budget_seconds);
}

SlotSloReport SlotSloTracker::report() const {
  SlotSloReport r;
  r.slots = latencies_.size();
  r.budget_seconds = options_.budget_seconds;
  if (latencies_.empty()) return r;
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Nearest rank ceil(pct/100 * n), in integers so no rounding moves it.
  const auto quantile = [&](std::size_t pct) {
    return sorted[(pct * n + 99) / 100 - 1];
  };
  r.p50_seconds = quantile(50);
  r.p95_seconds = quantile(95);
  r.p99_seconds = quantile(99);
  r.max_seconds = sorted.back();
  r.mean_seconds =
      std::accumulate(latencies_.begin(), latencies_.end(), 0.0) /
      static_cast<double>(n);
  const double budget = options_.budget_seconds;
  if (budget > 0.0)
    r.deadline_misses = static_cast<std::size_t>(
        std::count_if(latencies_.begin(), latencies_.end(),
                      [budget](double v) { return v > budget; }));
  return r;
}

}  // namespace sora::obs
