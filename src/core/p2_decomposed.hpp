// Block-decomposed solvers for the per-slot subproblem P2(t).
//
// P2 is nearly block-separable: grouping variables by SLA group (tier-1 site
// j with its admissible cloud set I_j), every constraint except the tier-2
// capacity rows sum_{e in i} x_e <= C_i is local to one group, and every
// objective term except the tier-2 entropic aggregates
// (b_i/eta_i) * entropic(X_i) is a sum of per-group terms. Two decomposed
// methods exploit that structure behind one interface:
//
//   * Consensus ADMM (the default): per-edge consensus copies c_e of the x
//     variables carry the coupling. Each iteration fans the per-group
//     augmented subproblems out on util::thread_pool (each group owning a
//     re-entrant solver::BlockBarrier with warm starts carried across both
//     ADMM iterations and slots), then solves the consensus step in closed
//     form per tier-2 cloud: a 1-D strictly convex problem over the
//     aggregate S_i in [0, C_i] (entropic + quadratic), distributed back to
//     the edges evenly. Scaled duals u_e follow, with Boyd's residual-based
//     stopping and residual-balancing adaptive rho.
//
//   * Dual decomposition: prices the capacity rows with multipliers
//     nu_i >= 0 and linearizes the tier-2 entropic around a smoothed
//     aggregate estimate; groups minimize price-adjusted local objectives
//     with a small proximal term, then nu takes a projected subgradient
//     step. Kept as the cross-checking variant — weaker convergence, same
//     interface.
//
// Both paths end with a feasibility restoration (per-cloud capacity
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
  enum class Method {
    kConsensusAdmm,
    kDualDecomposition,
  };
  Mode mode = Mode::kAuto;
  Method method = Method::kConsensusAdmm;

  // kAuto thresholds: decomposition pays once the monolithic Newton systems
  // dwarf the per-iteration ADMM overhead. Below these the monolithic
  // symbolic-once sparse IPM wins outright.
  std::size_t min_edges = 512;
  std::size_t min_blocks = 32;  // tier-1 sites (= blocks)

  // ADMM controls. rho scales the curvature-matched initial penalty (the
  // solver starts each slot at rho times the geometric-mean tier-2 entropic
  // curvature; residual balancing adapts it from there when adaptive_rho is
  // set, rescaling the scaled duals); eps_abs/eps_rel feed Boyd's
  // per-iteration stopping test. The
  // default eps_rel is Boyd's moderate 1e-3: the feasibility restoration
  // closes the residual primal gap exactly, and the monolithic sparse IPM
  // remains the high-accuracy reference, so tighter stopping here only buys
  // iterations. Tests that assert decomposed-vs-monolithic agreement
  // tighten it explicitly.
  double rho = 1.0;
  bool adaptive_rho = true;
  // Over-relaxation alpha in [1, 1.8]. Default 1.0 (off): alpha > 1 speeds
  // up cold solves slightly but amplifies the slot-to-slot perturbation of
  // the carried consensus/dual state — on capacity-tight instances it slams
  // the aggregates into their bounds and wipes out the warm start (the
  // residual re-starts two orders of magnitude higher).
  double relaxation = 1.0;
  std::size_t max_iterations = 200;
  double eps_abs = 1e-6;
  double eps_rel = 1e-3;

  // Dual-decomposition controls: subgradient step scale and aggregate
  // smoothing factor.
  double dual_step = 0.5;
  double dual_smoothing = 0.5;

  // 0 = fan blocks out on the shared pool (guided chunking); 1 = strictly
  // serial block loop (bitwise-reproducible baseline for determinism
  // tests); k > 1 currently behaves like 0.
  std::size_t max_parallel_blocks = 0;

  // Batch the per-iteration block solves through solver::solve_barrier_batch:
  // same-dimension dense Newton systems factor in lockstep across blocks
  // (structure-of-arrays kernel the compiler vectorizes across the batch),
  // and sparse blocks share one symbolic analysis per structure signature.
  // Per-block results are bitwise identical to one-solve-per-block, so this
  // composes with the max_parallel_blocks == 1 determinism baseline; disable
  // only to time the sequential path.
  bool batch_block_solves = true;
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
/// group (structure built once; symbolic state and warm starts persist) plus
/// the consensus/dual state carried across slots. Not thread-safe; the
/// internal fan-out is.
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

  /// Drop consensus/dual/warm-start state: the next solve starts cold.
  void reset_warm_start();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sora::core
