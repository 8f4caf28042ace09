// Slot-level SLO telemetry: latency distribution and deadline accounting for
// the per-slot solve loop.
//
// The slotted pipelines (core::run_roa, the n-tier driver, the predictive
// controllers, the serving daemon) must land every decision before the next
// slot boundary; what operations cares about is the latency *distribution*
// (p50/p95/p99) and the deadline hit/miss ratio, not the mean. Those are the
// only facts this layer counts; a slot's health (fallbacks, degradation,
// producing stage) is core::ChainHealth's and the sora_resilience_* metrics'.
//
//   * record_slot() — one slot into the process-global registry: the
//     `sora_slot_latency_seconds` histogram (octave buckets, 1 us .. ~67 s),
//     the deadline hit/miss counters and the budget gauge, only while
//     metrics_enabled(). The handles are resolved when sora_obs loads, so
//     the call is inline and its disabled path is one relaxed load and a
//     branch.
//   * SlotSloTracker — per-run aggregation into the SlotSloReport attached
//     to RoaRun / ControlRun / NTierRoaHealth. Always live (the report is
//     functional data); keeps one double per slot of its horizon-bounded
//     run and reports exact quantiles; forwards each slot to record_slot().
//
// The budget is SlotSloOptions::budget_seconds (RoaOptions::slo; the CLIs'
// --slot-budget-ms); 0 = no deadline accounting. docs/OBSERVABILITY.md
// catalogues the metric families.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"

namespace sora::obs {

/// Per-run SLO rollup (attached to RoaRun and friends). Quantiles are
/// nearest-rank: the ceil(q * slots)-th smallest latency.
struct SlotSloReport {
  std::size_t slots = 0;
  std::size_t deadline_misses = 0;
  double budget_seconds = 0.0;  // 0 = deadline accounting off
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;

  bool met_slo() const { return deadline_misses == 0; }
};

struct SlotSloOptions {
  /// Per-slot latency budget in seconds; <= 0 disables deadline accounting.
  double budget_seconds = 0.0;
};

namespace detail {
struct SlotInstruments {
  Histogram& latency;
  Counter& deadline_hits;
  Counter& deadline_misses;
  Gauge& budget;
};
extern const SlotInstruments g_slot_instruments;
}  // namespace detail

/// Record one slot's latency into `sora_slot_latency_seconds`, and a
/// deadline hit or miss when budget_seconds > 0. No-op while metrics are
/// disabled — callers may invoke it unconditionally from the hot path.
inline void record_slot(double latency_seconds, double budget_seconds) {
  if (!metrics_enabled()) return;
  const detail::SlotInstruments& m = detail::g_slot_instruments;
  m.latency.observe(latency_seconds);
  if (budget_seconds > 0.0) {
    m.budget.set(budget_seconds);
    (latency_seconds <= budget_seconds ? m.deadline_hits : m.deadline_misses)
        .inc();
  }
}

/// Per-run tracker: always aggregates locally (reports work with metrics
/// off), forwards to the global metrics when enabled.
class SlotSloTracker {
 public:
  explicit SlotSloTracker(const SlotSloOptions& options = {});

  /// Record one slot against the tracker's budget.
  void record(double latency_seconds);

  SlotSloReport report() const;

 private:
  SlotSloOptions options_;
  std::vector<double> latencies_;
};

}  // namespace sora::obs
