#include "obs/slo.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
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
  Counter* fallbacks;
  Counter* degraded;
  Histogram* fallback_depth;
  Gauge* budget;
  // Per-backend slot counters, registered on first sight of each name.
  std::mutex mu;
  std::map<std::string, Counter*> backend;
};

SloDigest g_digest;

SlotMetrics& slot_metrics() {
  static SlotMetrics* metrics = [] {
    auto& reg = Registry::global();
    auto* m = new SlotMetrics{
        &reg.counter("sora_slot_solves_total",
                     "Slot solves recorded by the SLO layer"),
        &reg.counter("sora_slot_deadline_hit_total",
                     "Slots that landed within the configured budget"),
        &reg.counter("sora_slot_deadline_miss_total",
                     "Slots that overran the configured budget"),
        &reg.counter("sora_slot_fallback_total",
                     "Slots the primary stage did not answer cleanly"),
        &reg.counter("sora_slot_degraded_total",
                     "Slots served by graceful degradation"),
        &reg.histogram("sora_slot_fallback_depth", "attempts",
                       "Fallback-chain depth per slot",
                       linear_buckets(1.0, 1.0, 8)),
        &reg.gauge("sora_slot_budget_seconds",
                   "Configured per-slot deadline budget (0 = off)"),
        {},
        {},
    };
    reg.add_text_extension(render_slo_text);
    return m;
  }();
  return *metrics;
}

Counter& backend_counter(SlotMetrics& m, const char* name) {
  std::lock_guard<std::mutex> lock(m.mu);
  auto it = m.backend.find(name);
  if (it != m.backend.end()) return *it->second;
  Counter& c = Registry::global().counter(
      std::string("sora_slot_backend_") + name + "_total",
      "Slots whose decision came from this backend");
  m.backend.emplace(name, &c);
  return c;
}

}  // namespace

double default_slot_budget_seconds() {
  static const double budget = [] {
    const char* env = std::getenv("SORA_SLOT_BUDGET_MS");
    if (env == nullptr) return 0.0;
    const double ms = std::atof(env);
    return ms > 0.0 ? ms * 1e-3 : 0.0;
  }();
  return budget;
}

namespace detail {

void record_slot_sample_impl(const SlotSample& sample) {
  SlotMetrics& m = slot_metrics();
  g_digest.observe(sample.latency_seconds);
  m.slots->inc();
  m.fallback_depth->observe(static_cast<double>(sample.attempts));
  if (sample.fell_back) m.fallbacks->inc();
  if (sample.degraded) m.degraded->inc();
  if (sample.budget_seconds > 0.0) {
    m.budget->set(sample.budget_seconds);
    (sample.latency_seconds <= sample.budget_seconds ? m.deadline_hits
                                                     : m.deadline_misses)
        ->inc();
  }
  if (sample.backend_name != nullptr && sample.backend_name[0] != '\0')
    backend_counter(m, sample.backend_name).inc();
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

void SlotSloTracker::record(SlotSample sample) {
  sample.budget_seconds = options_.budget_seconds;
  digest_.observe(sample.latency_seconds);
  ++slots_;
  if (options_.budget_seconds > 0.0 &&
      sample.latency_seconds > options_.budget_seconds)
    ++deadline_misses_;
  if (sample.fell_back) ++fallback_slots_;
  if (sample.degraded) ++degraded_slots_;
  record_slot_sample(sample);  // global metrics; gated on metrics_enabled()
}

SlotSloReport SlotSloTracker::report() const {
  SlotSloReport r;
  r.slots = slots_;
  r.deadline_misses = deadline_misses_;
  r.fallback_slots = fallback_slots_;
  r.degraded_slots = degraded_slots_;
  r.budget_seconds = options_.budget_seconds;
  r.p50_seconds = digest_.quantile(0.50);
  r.p95_seconds = digest_.quantile(0.95);
  r.p99_seconds = digest_.quantile(0.99);
  r.max_seconds = digest_.max();
  r.mean_seconds = digest_.mean();
  return r;
}

}  // namespace sora::obs
