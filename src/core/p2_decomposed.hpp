// Block-decomposed solver for the per-slot subproblem P2(t).
//
// P2 is nearly block-separable: grouping variables by SLA group (tier-1 site
// j with its admissible cloud set I_j), every constraint except the tier-2
// capacity rows sum_{e in i} x_e <= C_i is local to one group, and every
// objective term except the tier-2 entropic aggregates
// (b_i/eta_i) * entropic(X_i) is a sum of per-group terms. Consensus ADMM
// exploits that structure: per-edge consensus copies c_e of the x variables
// carry the coupling. Each iteration solves every group's augmented
// subproblem (each group owning a solver::BlockBarrier whose warm start
// carries across both ADMM iterations and slots) in one
// solver::solve_barrier_batch call, then solves the consensus step in closed
// form per tier-2 cloud: a 1-D strictly convex problem over the aggregate
// S_i in [0, C_i] (entropic + quadratic), distributed back to the edges
// evenly. Scaled duals u_e follow, with Boyd's residual-based stopping and
// residual-balancing adaptive rho.
//
// The solve ends with a feasibility restoration (per-cloud capacity
// scaling, s <= min(x, y[, z]), greedy coverage repair from headroom); a
// stall or failed restoration reports failure so the caller's resilience
// chain can demote to the monolithic sparse IPM instead of crashing.
//
// Metrics: sora_admm_iterations, sora_admm_primal_residual,
// sora_admm_dual_residual, sora_admm_block_solves_total,
// sora_admm_stalls_total (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/p1_model.hpp"
#include "core/types.hpp"

namespace sora::core {

struct RoaOptions;  // p2_subproblem.hpp (which includes this header)

/// Controls whether and how P2(t) is solved by block decomposition.
/// Carried inside RoaOptions / NTierRoaOptions.
struct DecompositionOptions {
  enum class Mode {
    kAuto,   // decompose when the instance clears the size thresholds
    kForce,  // always decompose (tests / benchmarks)
    kOff,    // never decompose
  };
  Mode mode = Mode::kAuto;

  // kAuto thresholds: decomposition pays once the monolithic Newton systems
  // dwarf the per-iteration ADMM overhead. Below these the monolithic
  // symbolic-once sparse IPM wins outright.
  std::size_t min_edges = 512;
  std::size_t min_blocks = 32;  // tier-1 sites (= blocks)

  // ADMM stopping: an iteration cap and Boyd's per-iteration residual test.
  // The default eps_rel is Boyd's moderate 1e-3: the feasibility
  // restoration closes the residual primal gap exactly, and the monolithic
  // sparse IPM remains the high-accuracy reference, so tighter stopping here
  // only buys iterations. Tests that assert decomposed-vs-monolithic
  // agreement tighten it explicitly.
  std::size_t max_iterations = 200;
  double eps_abs = 1e-6;
  double eps_rel = 1e-3;
};

/// The kAuto selection heuristic (kForce/kOff short-circuit): true when the
/// instance is large enough for decomposition to pay and has at least two
/// blocks to split.
bool decomposition_selected(const Instance& inst,
                            const DecompositionOptions& options);

/// What a decomposed solve hands back to the P2 pipeline: the packed
/// [x|y|s(|z)] point (feasibility-restored), the named block-local KKT
/// multipliers, and convergence accounting.
struct DecomposedResult {
  Vec packed;
  Vec rho, phi, gamma, sigma;  // named duals, monolithic layout
  std::size_t iterations = 0;
  std::size_t newton_steps = 0;  // summed over all block solves
  double primal_residual = 0.0;
  double dual_residual = 0.0;
};

/// Reusable per-instance decomposed solver. Owns one BlockBarrier per SLA
/// group (structure built once; warm starts persist across slots) plus the
/// consensus state. Not thread-safe; the internal fan-out is.
class P2DecomposedSolver {
 public:
  P2DecomposedSolver(const Instance& inst, const RoaOptions& options);
  ~P2DecomposedSolver();
  P2DecomposedSolver(const P2DecomposedSolver&) = delete;
  P2DecomposedSolver& operator=(const P2DecomposedSolver&) = delete;

  /// Solve P2 for one slot's inputs. Returns false on stall / failed
  /// restoration (detail says why); the caller is expected to fall back to
  /// the monolithic path. Never throws for solver-side failures.
  bool solve(const SlotInputs& in, const Allocation& prev,
             DecomposedResult& out, std::string& detail);

  /// Drop the blocks' warm starts: the next solve starts cold.
  void reset_warm_start();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sora::core
