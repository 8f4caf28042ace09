// The prediction-free Regularized Online Allocation algorithm (Sec. III).
//
// At each slot t the algorithm solves the regularized subproblem P2(t),
// whose only inputs are the previous slot's decision and the current slot's
// workload and prices — the paper's online decoupling. The resulting
// decision sequence is feasible for P1 (Lemma 1) and r-competitive
// (Theorem 1).
#pragma once

#include "core/p2_subproblem.hpp"
#include "core/types.hpp"

namespace sora::core {

/// A ROA run: the trajectory, its cost and timing, and (ChainHealth) the
/// per-slot solver health from the resilience chain.
struct RoaRun : ChainHealth {
  Trajectory trajectory;
  CostBreakdown cost;       // evaluated against the TRUE instance inputs
  double solve_seconds = 0.0;
  std::size_t newton_steps = 0;

  // Per-slot timing breakdown from the P2 solver pipeline, plus its
  // horizon-level aggregates: constraint patch + start construction
  // (build_seconds) vs time inside the barrier solve (barrier_seconds).
  std::vector<P2Timing> slot_timings;
  double build_seconds = 0.0;
  double barrier_seconds = 0.0;
};

/// Run ROA over the whole horizon with true inputs.
RoaRun run_roa(const Instance& inst, const RoaOptions& options = {});

}  // namespace sora::core
