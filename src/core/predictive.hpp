// Prediction-based control algorithms (Sec. IV).
//
// Standard controllers:
//   * FHC  — fixed horizon: solve P1 over non-overlapping w-slot blocks and
//            apply the whole block.
//   * RHC  — receding horizon: solve P1 over [t, t+w) each slot, apply the
//            first decision.
// Regularized controllers (the paper's contribution, Theorem 4):
//   * RFHC — run the regularized chain P2(t)..P2(t+w-1) over the block, pin
//            the chain's final decision, re-solve the interior with the
//            exact P1 window LP, apply the block.
//   * RRHC — maintain the regularized chain incrementally; each slot pin
//            chain[t+w-1], re-solve P1 over the window, apply slot t only.
//
// Predictions: a noisy copy of the demand and tier-2 price series (zero-mean
// Gaussian, sd = error_pct * the series' temporal mean, the paper's noise
// model). The slot that is current when a plan is made is always observed
// exactly. Decisions are evaluated against the TRUE inputs; if noisy
// planning under-covers the true demand, core::repair_coverage adds just
// enough resources (the practical "reactive scaling" step; exact
// predictions never trigger it). A window LP that fails (a forecast no
// allocation can cover) plans nothing: the controller holds its latest
// applied decision over the slots that window was to plan, slot by slot,
// repairing each against the truth.
//
// Each controller is one loop in control_loop.hpp over a model adapter;
// the n-tier controllers (ntier.hpp) run the same loops.
#pragma once

#include <string>

#include "core/forecast.hpp"
#include "core/p1_model.hpp"
#include "core/p2_subproblem.hpp"
#include "core/types.hpp"

namespace sora::core {

/// Materialized (possibly noisy) forecast series.
struct PredictedInputs {
  std::vector<std::vector<double>> demand;       // [t][j]
  std::vector<std::vector<double>> tier2_price;  // [t][i]

  InputSeries view() const { return {&demand, &tier2_price}; }
  /// Overwrite slot t with the true inputs (called when t becomes current).
  void observe(const Instance& inst, std::size_t t);
};

PredictedInputs make_predictions(const Instance& inst,
                                 const PredictionModel& model);

struct ControlOptions {
  std::size_t window = 4;       // w >= 1
  PredictionModel prediction;   // error_pct == 0 -> exact predictions
  RoaOptions roa;               // inner regularized solves (RFHC/RRHC)
  solver::LpSolveOptions lp;    // window LP solves
};

struct ControlRun {
  std::string algorithm;
  Trajectory trajectory;
  CostBreakdown cost;         // against true inputs
  std::size_t repairs = 0;    // slots where the repair LP had to add capacity
  // Slots whose repair LP itself failed on every backend: the planned
  // allocation was applied unrepaired (possibly under-covered) instead of
  // killing the run. Always 0 on a healthy solver.
  std::size_t failed_repairs = 0;
  // Slots planned by holding the applied decision after a failed window LP.
  std::size_t degraded_slots = 0;
  // Slot-level SLO rollup: latency quantiles and deadline misses. Per-slot
  // latency = repair/apply time plus the window-LP (or chain) planning time
  // amortized over the block it planned; budget from
  // ControlOptions::roa.slo. The counters above are the slots' health. See
  // obs/slo.hpp.
  obs::SlotSloReport slo;
};

ControlRun run_fhc(const Instance& inst, const ControlOptions& options);
ControlRun run_rhc(const Instance& inst, const ControlOptions& options);
ControlRun run_rfhc(const Instance& inst, const ControlOptions& options);
ControlRun run_rrhc(const Instance& inst, const ControlOptions& options);

/// AFHC (Averaging FHC, Lin et al. [11]) — the classic multi-cloud
/// prediction-based baseline: average the decisions of the w phase-shifted
/// FHC controllers. Provided as an extension baseline.
ControlRun run_afhc(const Instance& inst, const ControlOptions& options);

}  // namespace sora::core
