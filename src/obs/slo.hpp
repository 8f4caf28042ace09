// Slot-level SLO telemetry: streaming latency quantiles and deadline
// accounting for the per-slot solve loop.
//
// The slotted pipelines (core::run_roa, the n-tier driver, the predictive
// controllers, the serving daemon) must land every decision before the next
// slot boundary; what operations cares about is the latency *distribution*
// (p50/p95/p99) and the deadline hit/miss ratio, not the mean. Those are the
// only facts this layer counts; a slot's health (fallbacks, degradation,
// producing stage) is core::ChainHealth's and the sora_resilience_* metrics'.
//
//   * SloDigest — a fixed-bucket log-histogram quantile digest. Lock-free
//     like the registry Histogram (relaxed atomic bumps), constant memory,
//     and quantiles with bounded relative error (half-octave buckets with
//     geometric interpolation: ~9% worst case). Covers 1us .. ~4.6 hours.
//   * record_slot() — one slot into the process-global `sora_slot_*`
//     metrics, only while metrics_enabled().
//   * SlotSloTracker — per-run aggregation into the SlotSloReport attached
//     to RoaRun / ControlRun / NTierRoaHealth. Always live (the report is
//     functional data); forwards each slot to record_slot().
//   * render_slo_text() — the global latency digest as a Prometheus summary
//     (`sora_slot_latency_seconds{quantile="..."}`), appended to
//     Registry::render_text() via the text-extension hook so any exporter
//     (file export, the scrape server) carries live quantiles.
//
// The budget is SlotSloOptions::budget_seconds (RoaOptions::slo; the CLIs'
// --slot-budget-ms); 0 = no deadline accounting. docs/OBSERVABILITY.md
// catalogues the metric families.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace sora::obs {

/// Streaming quantile digest over a fixed logarithmic bucket grid.
/// observe() is wait-free (one relaxed fetch_add + CAS sum); quantile() scans
/// the buckets and interpolates geometrically inside the winning bucket.
class SloDigest {
 public:
  // Half-octave buckets from kMinValue: bucket k covers
  // (kMinValue * 2^(k/2), kMinValue * 2^((k+1)/2)]. 68 buckets reach
  // ~1.6e4 s; everything above clamps into the last bucket.
  static constexpr std::size_t kBuckets = 68;
  static constexpr double kMinValue = 1e-6;

  SloDigest();

  void observe(double v);

  /// q in [0, 1]. Returns 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Per-run SLO rollup (attached to RoaRun and friends).
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
void record_slot_impl(double latency_seconds, double budget_seconds);
}  // namespace detail

/// Record one slot's latency into the process-global `sora_slot_*` metrics
/// and the global latency digest, and a deadline hit or miss when
/// budget_seconds > 0. No-op while metrics are disabled — callers may invoke
/// it unconditionally from the hot path.
inline void record_slot(double latency_seconds, double budget_seconds) {
  if (!metrics_enabled()) return;
  detail::record_slot_impl(latency_seconds, budget_seconds);
}

/// The global latency digest behind `sora_slot_latency_seconds` (exposed for
/// exporters and tests).
const SloDigest& global_slot_digest();
void reset_global_slot_slo();  // test isolation

/// Prometheus summary rendering of the global digest:
///   sora_slot_latency_seconds{quantile="0.5"} ...
///   sora_slot_latency_seconds_sum / _count
/// Empty string when no slot has been recorded yet.
std::string render_slo_text();

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
  SloDigest digest_;
  std::size_t deadline_misses_ = 0;
};

}  // namespace sora::obs
