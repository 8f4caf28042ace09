#include "core/roa.hpp"

#include <algorithm>

#include "core/cost.hpp"
#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace sora::core {
namespace {

// Handles resolved once at first use; the per-slot loop only touches
// atomics (and nothing at all when metrics are disabled).
struct RoaMetrics {
  obs::Counter* runs;
  obs::Counter* slots;
  obs::Histogram* reconfig_magnitude;
  obs::Gauge* last_reconfig_magnitude;
};

const RoaMetrics& roa_metrics() {
  static const RoaMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return RoaMetrics{
        &reg.counter("sora_roa_runs_total", "Completed ROA runs"),
        &reg.counter("sora_roa_slots_total", "ROA slots solved"),
        &reg.histogram("sora_roa_reconfig_magnitude", "units",
                       "Per-slot reconfiguration magnitude sum_e [x_t-x_{t-1}]^+",
                       obs::exponential_buckets(1e-4, 4.0, 16)),
        &reg.gauge("sora_roa_last_reconfig_magnitude",
                   "Reconfiguration magnitude of the most recent slot"),
    };
  }();
  return metrics;
}

// sum_e [x_t - x_{t-1}]^+ — the quantity the paper's switching cost charges.
double reconfig_magnitude(const Allocation& prev, const Allocation& cur) {
  double total = 0.0;
  for (std::size_t e = 0; e < cur.x.size(); ++e)
    total += std::max(0.0, cur.x[e] - prev.x[e]);
  return total;
}

}  // namespace

RoaRun run_roa(const Instance& inst, const RoaOptions& options) {
  RoaRun run;
  {
    SORA_TRACE_SPAN("roa/run");
    // Scoped so the timer flushes into run.solve_seconds before the return
    // statement reads it.
    util::ScopedTimer run_timer(&run.solve_seconds);
    const bool obs_on = obs::metrics_enabled();
    run.trajectory.slots.reserve(inst.horizon);
    run.slot_timings.reserve(inst.horizon);
    run.slot_health.reserve(inst.horizon);
    P2Workspace workspace(inst, options);
    const InputSeries truth = InputSeries::truth(inst);
    obs::SlotSloTracker slo(options.slo);
    Allocation prev = Allocation::zeros(inst.num_edges());
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      SORA_TRACE_SPAN("roa/slot");
      util::Timer slot_timer;
      // The batch loop drives the same re-entrant streaming entry point as
      // the serving daemon: one SlotInputs row view per slot.
      P2Solution p2 = workspace.step(SlotInputs::at(inst, truth, t), prev);
      const double slot_seconds = slot_timer.seconds();
      slo.record(slot_seconds);
      record_flight("p2_slot", t, p2.outcome, slot_seconds);
      run.newton_steps += p2.newton_steps;
      run.build_seconds += p2.timing.build_seconds;
      run.barrier_seconds += p2.timing.solve_seconds;
      run.slot_timings.push_back(p2.timing);
      run.record(t, p2.outcome);
      if (obs_on) {
        const RoaMetrics& metrics = roa_metrics();
        metrics.slots->inc();
        const double magnitude = reconfig_magnitude(prev, p2.alloc);
        metrics.reconfig_magnitude->observe(magnitude);
        metrics.last_reconfig_magnitude->set(magnitude);
      }
      prev = p2.alloc;
      run.trajectory.slots.push_back(std::move(p2.alloc));
    }
    {
      SORA_TRACE_SPAN("roa/cost_eval");
      run.cost = total_cost(inst, run.trajectory);
    }
    run.slo = slo.report();
    if (obs_on) roa_metrics().runs->inc();
  }
  return run;
}

}  // namespace sora::core
