// Measures the cost of the sora_obs layer and asserts the disabled path is
// free in the sense that matters: instrumented code with metrics off must run
// within a small tolerance of the same code with no obs calls at all.
//
// Methodology
//   1. Micro: a kernel doing ~1k flops per iteration is timed plain, then with
//      a disabled gated observe per iteration (the real instrumentation
//      density: obs calls sit at slot/solve granularity, not per flop). Both
//      take the min over many repetitions to strip scheduler noise; the
//      assertion is min(gated) <= (1 + tol) * min(plain), tol 2% by default
//      (override: SORA_OBS_OVERHEAD_TOL_PCT).
//   2. Macro: core::run_roa on a generated instance, interleaved A/B/C reps
//      with obs off / metrics on / metrics+trace on. Reported for telemetry
//      only — enabled-mode cost is allowed, the disabled path is not.
//
// Exit status: 0 when the disabled-path assertion holds, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/roa.hpp"
#include "obs/obs.hpp"
#include "testing/generator.hpp"
#include "util/timer.hpp"

namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

// ~1k flops of un-vectorizable work; returns a value so nothing folds away.
double kernel_chunk(double seed) {
  double acc = seed;
  for (int i = 0; i < 1000; ++i) acc = acc * 0.999999 + 1e-9 * i;
  return acc;
}

double min_seconds(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

double median_seconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main() {
  using sora::util::Timer;
  namespace obs = sora::obs;

  const double tol = env_double("SORA_OBS_OVERHEAD_TOL_PCT", 2.0) / 100.0;
  constexpr int kReps = 9;
  constexpr int kChunks = 20000;

  // --- micro: plain kernel vs disabled-gated kernel ---------------------
  obs::set_metrics_enabled(false);
  obs::Histogram& hist = obs::Registry::global().histogram(
      "bench_obs_overhead_kernel", "x", "overhead harness instrument",
      obs::exponential_buckets(1e-3, 10.0, 8));

  volatile double guard = 0.0;
  std::vector<double> plain, gated, slo_gated;
  for (int r = 0; r < kReps; ++r) {
    {
      Timer t;
      double acc = 1.0;
      for (int c = 0; c < kChunks; ++c) acc = kernel_chunk(acc);
      guard = guard + acc;
      plain.push_back(t.seconds());
    }
    {
      Timer t;
      double acc = 1.0;
      for (int c = 0; c < kChunks; ++c) {
        acc = kernel_chunk(acc);
        if (obs::metrics_enabled()) hist.observe(acc);
      }
      guard = guard + acc;
      gated.push_back(t.seconds());
    }
    {
      // The slot-SLO hot path: the gated global record, exactly what a
      // slot loop pays per slot when metrics are off. Held to the same
      // disabled-path tolerance.
      Timer t;
      double acc = 1.0;
      for (int c = 0; c < kChunks; ++c) {
        acc = kernel_chunk(acc);
        obs::record_slot(acc, 0.0);
      }
      guard = guard + acc;
      slo_gated.push_back(t.seconds());
    }
  }
  const double plain_s = min_seconds(plain);
  const double gated_s = min_seconds(gated);
  const double slo_s = min_seconds(slo_gated);
  const double micro_overhead = gated_s / plain_s - 1.0;
  const double slo_overhead = slo_s / plain_s - 1.0;
  std::printf("micro  plain        %.6f s\n", plain_s);
  std::printf("micro  gated-off    %.6f s  (%+.3f%%)\n", gated_s,
              100.0 * micro_overhead);
  std::printf("micro  slo-off      %.6f s  (%+.3f%%)\n", slo_s,
              100.0 * slo_overhead);

  // --- macro: run_roa off vs metrics vs metrics+trace -------------------
  sora::testing::GeneratorConfig cfg;
  cfg.regime = sora::testing::Regime::kSmooth;
  cfg.seed = 11;
  const sora::core::Instance inst = sora::testing::generate_instance(cfg);

  std::vector<double> off, metrics, full;
  for (int r = 0; r < kReps; ++r) {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    {
      Timer t;
      (void)sora::core::run_roa(inst);
      off.push_back(t.seconds());
    }
    obs::set_metrics_enabled(true);
    {
      Timer t;
      (void)sora::core::run_roa(inst);
      metrics.push_back(t.seconds());
    }
    obs::set_trace_enabled(true);
    {
      Timer t;
      (void)sora::core::run_roa(inst);
      full.push_back(t.seconds());
    }
    obs::trace_clear();
  }
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const double off_s = median_seconds(off);
  std::printf("macro  obs off      %.6f s\n", off_s);
  std::printf("macro  metrics on   %.6f s  (%+.3f%%)\n",
              median_seconds(metrics),
              100.0 * (median_seconds(metrics) / off_s - 1.0));
  std::printf("macro  +trace on    %.6f s  (%+.3f%%)\n", median_seconds(full),
              100.0 * (median_seconds(full) / off_s - 1.0));

  const double worst = std::max(micro_overhead, slo_overhead);
  if (worst > tol) {
    std::fprintf(stderr,
                 "FAIL: disabled-path overhead %.3f%% exceeds %.1f%%\n",
                 100.0 * worst, 100.0 * tol);
    return 1;
  }
  std::printf("OK: disabled-path overhead %.3f%% within %.1f%%\n",
              100.0 * worst, 100.0 * tol);
  return 0;
}
