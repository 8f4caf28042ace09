#include "core/predictive.hpp"

#include <algorithm>
#include <optional>

#include "core/control_loop.hpp"
#include "core/cost.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::core {

void PredictedInputs::observe(const Instance& inst, std::size_t t) {
  SORA_CHECK(t < inst.horizon);
  demand[t] = inst.demand[t];
  tier2_price[t] = inst.tier2_price[t];
}

void add_forecast_noise(const PredictionModel& model,
                        std::vector<std::vector<double>>& demand,
                        std::vector<std::vector<double>>& price) {
  SORA_CHECK(model.error_pct >= 0.0);
  if (model.error_pct == 0.0) return;
  util::Rng rng(model.seed);
  // Per-entity noise scale: error_pct of the temporal mean (paper Sec. V-B).
  const auto perturb = [&](std::vector<std::vector<double>>& series,
                           double floor) {
    const std::size_t entities = series.empty() ? 0 : series[0].size();
    for (std::size_t k = 0; k < entities; ++k) {
      double mean = 0.0;
      for (const auto& row : series) mean += row[k];
      mean /= static_cast<double>(series.size());
      const double sd = model.error_pct * mean;
      for (auto& row : series)
        row[k] = std::max(floor, row[k] + rng.normal(0.0, sd));
    }
  };
  perturb(demand, 0.0);
  perturb(price, 1e-3);
}

PredictedInputs make_predictions(const Instance& inst,
                                 const PredictionModel& model) {
  PredictedInputs pred{inst.demand, inst.tier2_price};
  add_forecast_noise(model, pred.demand, pred.tier2_price);
  return pred;
}

namespace {

// The two-tier model's pieces for the Sec.-IV loops (control_loop.hpp).
class TwoTierModel {
 public:
  using Alloc = Allocation;
  using Plan = Trajectory;
  using Run = ControlRun;

  TwoTierModel(const Instance& inst, const ControlOptions& options)
      : inst_(inst), options_(options),
        pred_(make_predictions(inst, options.prediction)) {}

  std::size_t horizon() const { return inst_.horizon; }
  Allocation zeros() const { return Allocation::zeros(inst_.num_edges()); }
  void observe(std::size_t t) { pred_.observe(inst_, t); }

  std::optional<Trajectory> window(std::size_t t0, std::size_t t1,
                                   const Allocation& prev,
                                   const Allocation* pin) const {
    return solve_p1_window(inst_, pred_.view(), t0, t1, prev, pin,
                           options_.lp);
  }

  // One workspace for the run: the constraint pattern is per-Instance and
  // consecutive chain solves warm-start each other across block boundaries.
  Allocation chain_step(std::size_t t, const Allocation& prev) {
    if (!workspace_) workspace_.emplace(inst_, options_.roa);
    return workspace_->solve(pred_.view(), t, prev).alloc;
  }

  AppliedSlot<Allocation> apply(std::size_t t,
                                const Allocation& planned) const {
    CoverageRepair rep = repair_coverage(
        inst_, SlotInputs::at(inst_, InputSeries::truth(inst_), t), planned,
        options_.lp);
    return {std::move(rep.alloc), rep.repaired, std::move(rep.outcome)};
  }

  void finish(ControlRun& run) const {
    run.cost = total_cost(inst_, run.trajectory);
  }

 private:
  const Instance& inst_;
  const ControlOptions& options_;
  PredictedInputs pred_;
  std::optional<P2Workspace> workspace_;
};

}  // namespace

ControlRun run_fhc(const Instance& inst, const ControlOptions& options) {
  TwoTierModel model(inst, options);
  return run_window_loop(model, "FHC", options.window, options.window,
                         options.roa.slo);
}

ControlRun run_rhc(const Instance& inst, const ControlOptions& options) {
  TwoTierModel model(inst, options);
  return run_window_loop(model, "RHC", options.window, 1, options.roa.slo);
}

ControlRun run_rfhc(const Instance& inst, const ControlOptions& options) {
  TwoTierModel model(inst, options);
  return run_rfhc_loop(model, options.window, options.roa.slo);
}

ControlRun run_rrhc(const Instance& inst, const ControlOptions& options) {
  TwoTierModel model(inst, options);
  return run_rrhc_loop(model, options.window, options.roa.slo);
}

ControlRun run_afhc(const Instance& inst, const ControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  const std::size_t w = options.window;
  // Run the w phase-shifted FHC controllers, then average their decisions.
  std::vector<Trajectory> phases;
  phases.reserve(w);
  for (std::size_t phase = 0; phase < w; ++phase) {
    TwoTierModel model(inst, options);
    Applier<TwoTierModel> applier(model, "FHC-phase");
    std::size_t t0 = 0;
    while (t0 < inst.horizon) {
      const std::size_t block_end =
          std::min(inst.horizon,
                   t0 == 0 && phase > 0 ? phase : t0 + w);
      model.observe(t0);
      applier.apply_window(
          t0, block_end - t0,
          model.window(t0, block_end, applier.prev(), nullptr));
      t0 = block_end;
    }
    phases.push_back(applier.finish().trajectory);
  }

  TwoTierModel model(inst, options);  // apply() and finish() read the truth
  Applier<TwoTierModel> applier(model, "AFHC", options.roa.slo);
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
