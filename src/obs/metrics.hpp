// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with lock-free hot-path updates.
//
// Usage pattern: resolve a handle ONCE (function-local static) at the first
// use site, then hammer it from the hot path. Registration takes a mutex;
// updates are single relaxed atomic RMWs. The whole layer is gated on a
// process-global enable flag (SORA_METRICS env or set_metrics_enabled()):
// when disabled every update is one relaxed atomic load + branch, so
// instrumented code runs at effectively baseline speed.
//
//   static auto& h = obs::Registry::global().histogram(
//       "sora_ipm_newton_steps", "steps", "per-solve Newton steps",
//       obs::exponential_buckets(1.0, 2.0, 12));
//   h.observe(steps);
//
// Exporters: Prometheus-style text and JSON (docs/OBSERVABILITY.md has the
// metric-name catalogue). Snapshots expose exact values for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sora::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;

/// Lock-free add for doubles (CAS loop; atomic<double>::fetch_add is C++20
/// but not universally lock-free — keep the portable form).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed))
    ;
}
}  // namespace detail

/// Global collection toggle. Handles stay valid either way; updates become
/// near-free no-ops when disabled.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled);

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (plus add() for level-style gauges such
/// as queue depth).
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!metrics_enabled()) return;
    detail::atomic_add(value_, delta);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: cumulative-style export (bucket k counts
/// observations <= bounds[k]; one implicit +Inf bucket), exact sum and
/// count. Bucket bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) {
    if (!metrics_enabled()) return;
    std::size_t k = 0;
    while (k < bounds_.size() && v > bounds_[k]) ++k;
    counts_[k].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, v);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` bounds: start, start*factor, start*factor^2, ...
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);
/// `count` bounds: start, start+width, start+2*width, ...
std::vector<double> linear_buckets(double start, double width,
                                   std::size_t count);

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // per-bucket, last = +Inf overflow
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every instrument, keyed by metric name. Used by
/// tests (before/after deltas) and by the JSON exporter.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

enum class MetricsFormat { kText, kJson };

/// Parse "text"/"prom" or "json" (case-sensitive); unknown -> kJson.
MetricsFormat parse_metrics_format(const std::string& name);

/// Name -> instrument map. Registration is idempotent: a second call with
/// the same name and kind returns the existing instrument (a kind mismatch
/// throws CheckError). Instrument addresses are stable for the process
/// lifetime, so resolved handles never dangle.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (never destroyed, so atexit exporters and
  /// static-destruction-order are non-issues).
  static Registry& global();

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& unit,
                       const std::string& help, std::vector<double> bounds);

  RegistrySnapshot snapshot() const;

  /// Prometheus-style exposition text (HELP/TYPE comments, cumulative
  /// le-labelled histogram buckets) of every instrument.
  std::string render_text() const;
  /// {"metrics": [{"name": ..., "type": ..., ...}, ...]}
  std::string render_json() const;
  /// Render in `format` and write to `path`; throws CheckError on I/O error.
  void write_file(const std::string& path, MetricsFormat format) const;

  /// Zero every instrument (handles stay valid). Test isolation only.
  void reset_all();

 private:
  struct Impl;
  Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

}  // namespace sora::obs
