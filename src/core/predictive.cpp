#include "core/predictive.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/cost.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sora::core {
namespace {

double series_mean(const std::vector<std::vector<double>>& series,
                   std::size_t index) {
  double sum = 0.0;
  for (const auto& row : series) sum += row[index];
  return sum / static_cast<double>(series.size());
}

}  // namespace

void PredictedInputs::observe(const Instance& inst, std::size_t t) {
  SORA_CHECK(t < inst.horizon);
  demand[t] = inst.demand[t];
  tier2_price[t] = inst.tier2_price[t];
}

PredictedInputs make_predictions(const Instance& inst,
                                 const PredictionModel& model) {
  SORA_CHECK(model.error_pct >= 0.0);
  PredictedInputs pred;
  pred.demand = inst.demand;
  pred.tier2_price = inst.tier2_price;
  if (model.error_pct == 0.0) return pred;

  util::Rng rng(model.seed);
  // Per-entity noise scale: error_pct of the temporal mean (paper Sec. V-B).
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    const double sd = model.error_pct * series_mean(inst.demand, j);
    for (std::size_t t = 0; t < inst.horizon; ++t)
      pred.demand[t][j] = std::max(0.0, pred.demand[t][j] + rng.normal(0.0, sd));
  }
  for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
    const double sd = model.error_pct * series_mean(inst.tier2_price, i);
    for (std::size_t t = 0; t < inst.horizon; ++t)
      pred.tier2_price[t][i] =
          std::max(1e-3, pred.tier2_price[t][i] + rng.normal(0.0, sd));
  }
  return pred;
}

namespace {

// Shared driver plumbing: apply one slot's planned decision (repairing if
// the true demand is under-covered) and account it.
struct Applier {
  const Instance& inst;
  const solver::LpSolveOptions& lp;
  ControlRun run;
  Allocation prev;
  obs::SlotSloTracker slo;
  double window_share_seconds = 0.0;  // per-slot share of the plan solve
  std::size_t window_slots_left = 0;

  explicit Applier(const Instance& inst_, const solver::LpSolveOptions& lp_,
                   std::string name, const obs::SlotSloOptions& slo_opts = {})
      : inst(inst_), lp(lp_), prev(Allocation::zeros(inst_.num_edges())),
        slo(slo_opts) {
    run.algorithm = std::move(name);
  }

  /// Amortize one window/chain planning solve over the `nslots` decisions it
  /// produced; the next `nslots` apply() calls each carry an equal share.
  void charge_window(double seconds, std::size_t nslots) {
    if (nslots == 0) return;
    window_share_seconds = seconds / static_cast<double>(nslots);
    window_slots_left = nslots;
  }

  void apply(std::size_t t, const Allocation& planned) {
    SORA_TRACE_SPAN("predictive/apply_slot");
    util::Timer timer;
    CoverageRepair rep = repair_coverage(
        inst, SlotInputs::at(inst, InputSeries::truth(inst), t), planned, lp);
    const bool repaired = rep.repaired;
    if (!rep.outcome.ok()) {
      ++run.failed_repairs;
      SORA_LOG_WARN << "predictive: repair LP failed at t=" << t << " ("
                    << rep.outcome.detail << "); applying the plan unrepaired";
    }
    if (repaired) {
      ++run.repairs;
      if (obs::metrics_enabled()) {
        static obs::Counter* repairs = &obs::Registry::global().counter(
            "sora_predictive_repairs_total",
            "Slots whose planned allocation needed an LP repair");
        repairs->inc();
      }
    }
    double latency = timer.seconds();
    if (window_slots_left > 0) {
      latency += window_share_seconds;
      --window_slots_left;
    }
    obs::SlotSample sample;
    sample.latency_seconds = latency;
    sample.backend_name = "window_lp";
    sample.attempts = repaired ? 2 : 1;
    sample.fell_back = repaired;
    sample.degraded = !rep.outcome.ok();  // plan applied unrepaired
    slo.record(sample);
    if (repaired || !rep.outcome.ok())
      record_flight("predictive_repair", t, rep.outcome, latency);
    prev = rep.alloc;
    run.trajectory.slots.push_back(std::move(rep.alloc));
  }

  /// Apply slots [t0, t0 + n) of a window plan, or — when the window LP
  /// failed — hold the applied decision over them.
  void apply_window(std::size_t t0, std::size_t n,
                    const std::optional<Trajectory>& plan) {
    if (!plan) run.degraded_slots += n;
    for (std::size_t rel = 0; rel < n; ++rel) {
      if (plan) {
        apply(t0 + rel, plan->slots[rel]);
        continue;
      }
      const Allocation held = prev;  // apply() overwrites prev
      apply(t0 + rel, held);
    }
  }

  ControlRun finish() {
    run.cost = total_cost(inst, run.trajectory);
    run.slo = slo.report();
    return std::move(run);
  }
};

}  // namespace

ControlRun run_fhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  PredictedInputs pred = make_predictions(inst, options.prediction);
  Applier applier(inst, options.lp, "FHC", options.roa.slo);
  for (std::size_t t0 = 0; t0 < inst.horizon; t0 += options.window) {
    const std::size_t t1 = std::min(inst.horizon, t0 + options.window);
    pred.observe(inst, t0);  // the block's first slot is current
    util::Timer plan_timer;
    const auto block = solve_p1_window(inst, pred.view(), t0, t1,
                                       applier.prev, nullptr, options.lp);
    applier.charge_window(plan_timer.seconds(), t1 - t0);
    applier.apply_window(t0, t1 - t0, block);
  }
  return applier.finish();
}

ControlRun run_rhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  PredictedInputs pred = make_predictions(inst, options.prediction);
  Applier applier(inst, options.lp, "RHC", options.roa.slo);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const std::size_t t1 = std::min(inst.horizon, t + options.window);
    pred.observe(inst, t);
    util::Timer plan_timer;
    const auto window = solve_p1_window(inst, pred.view(), t, t1,
                                        applier.prev, nullptr, options.lp);
    applier.charge_window(plan_timer.seconds(), 1);
    applier.apply_window(t, 1, window);
  }
  return applier.finish();
}

ControlRun run_rfhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  PredictedInputs pred = make_predictions(inst, options.prediction);
  Applier applier(inst, options.lp, "RFHC", options.roa.slo);
  // One workspace for all blocks: the constraint pattern is per-Instance and
  // consecutive chain solves warm-start each other across block boundaries.
  P2Workspace workspace(inst, options.roa);
  for (std::size_t t0 = 0; t0 < inst.horizon; t0 += options.window) {
    const std::size_t t1 = std::min(inst.horizon, t0 + options.window);
    pred.observe(inst, t0);
    util::Timer plan_timer;
    // Regularized chain P2(t0)..P2(t1-1) from the applied decision.
    std::vector<Allocation> chain;
    Allocation chain_prev = applier.prev;
    for (std::size_t t = t0; t < t1; ++t) {
      P2Solution p2 = workspace.solve(pred.view(), t, chain_prev);
      chain_prev = p2.alloc;
      chain.push_back(std::move(p2.alloc));
    }
    if (t1 - t0 == 1) {
      applier.charge_window(plan_timer.seconds(), 1);
      applier.apply(t0, chain[0]);
      continue;
    }
    // Pin the chain's final decision and re-optimise the interior exactly.
    const auto block = solve_p1_window(inst, pred.view(), t0, t1,
                                       applier.prev, &chain.back(), options.lp);
    applier.charge_window(plan_timer.seconds(), t1 - t0);
    applier.apply_window(t0, t1 - t0, block);
  }
  return applier.finish();
}

ControlRun run_rrhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  const std::size_t w = options.window;
  PredictedInputs pred = make_predictions(inst, options.prediction);
  pred.observe(inst, 0);

  // The regularized chain is global (Theorem 4): chain[tau] = P2(tau) fed by
  // chain[tau-1], computed on the forecast available when first needed.
  std::vector<Allocation> chain;
  chain.reserve(inst.horizon);
  Allocation chain_prev = Allocation::zeros(inst.num_edges());
  P2Workspace workspace(inst, options.roa);
  auto extend_chain_to = [&](std::size_t tau) {
    while (chain.size() <= tau) {
      P2Solution p2 =
          workspace.solve(pred.view(), chain.size(), chain_prev);
      chain_prev = p2.alloc;
      chain.push_back(std::move(p2.alloc));
    }
  };

  Applier applier(inst, options.lp, "RRHC", options.roa.slo);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    pred.observe(inst, t);
    const std::size_t t1 = std::min(inst.horizon, t + w);
    util::Timer plan_timer;
    extend_chain_to(t1 - 1);
    if (t1 - t == 1) {
      applier.charge_window(plan_timer.seconds(), 1);
      applier.apply(t, chain[t]);
      continue;
    }
    const auto window = solve_p1_window(inst, pred.view(), t, t1,
                                        applier.prev, &chain[t1 - 1],
                                        options.lp);
    applier.charge_window(plan_timer.seconds(), 1);
    applier.apply_window(t, 1, window);
  }
  return applier.finish();
}

ControlRun run_afhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  const std::size_t w = options.window;
  // Run the w phase-shifted FHC controllers, then average their decisions.
  std::vector<Trajectory> phases;
  phases.reserve(w);
  for (std::size_t phase = 0; phase < w; ++phase) {
    PredictedInputs pred = make_predictions(inst, options.prediction);
    Applier applier(inst, options.lp, "FHC-phase");
    std::size_t t0 = 0;
    while (t0 < inst.horizon) {
      const std::size_t block_end =
          std::min(inst.horizon,
                   t0 == 0 && phase > 0 ? phase : t0 + w);
      pred.observe(inst, t0);
      const auto block = solve_p1_window(inst, pred.view(), t0, block_end,
                                         applier.prev, nullptr, options.lp);
      applier.apply_window(t0, block_end - t0, block);
      t0 = block_end;
    }
    phases.push_back(applier.finish().trajectory);
  }

  Applier applier(inst, options.lp, "AFHC", options.roa.slo);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    Allocation avg = Allocation::zeros(inst.num_edges());
    for (const auto& traj : phases) {
      linalg::axpy(1.0 / static_cast<double>(w), traj.slots[t].x, avg.x);
      linalg::axpy(1.0 / static_cast<double>(w), traj.slots[t].y, avg.y);
      if (inst.has_tier1())
        linalg::axpy(1.0 / static_cast<double>(w), traj.slots[t].z, avg.z);
    }
    applier.apply(t, avg);
  }
  return applier.finish();
}

}  // namespace sora::core
