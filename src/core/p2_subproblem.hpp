// The regularized per-slot subproblem P2(t) (paper eq. (3a)-(3f)) and its
// solvers.
//
// Variables (per admissible edge e = (j, i)): x_e, y_e, s_e. Objective:
//
//   sum_e a_{i(e),t} x_e + sum_e c_e y_e
//   + sum_i (b_i/eta_i)   * entropic(X_i | X_i^{t-1}, eps)     (X_i = sum x)
//   + sum_e (d_e/eta'_e)  * entropic(y_e | y_e^{t-1}, eps')
//
// subject to the coverage constraints (3a)-(3c), nonnegativity (3f), and
// the explicit capacity constraints (1b)/(1c) (Lemma 1 shows they are slack
// at the optimum; keeping them keeps interior-point iterates physical).
//
// The paper's feasibility-transfer rows (3d)/(3e) are not generated: with
// (1b)/(1c) present each is a sum of rows P2 already has,
//   (3d)_i = sum_e (3a)_e + sum_j (3c)_j + (1b)_i,
//   (3e)_e = sum_{e' in j} (3b)_{e'} + (3c)_j + (1c)_e   (e = (j, i)),
// so they constrain nothing, while each (3d) row would couple every x
// outside cloud i and make the Newton system dense.
//
// One model, one pipeline: P2Workspace builds the CSR constraint matrix
// ONCE per Instance with row bookkeeping; each slot only patches the
// coverage right-hand sides and runs the barrier IPM with preallocated
// scratch (zero heap allocation in the Newton loop). Every slot, at every
// scale, takes the same chain (docs/ROBUSTNESS.md):
//   1. warm IPM, from the previous optimum pulled into the strict interior;
//   2. cold IPM, from the even split, else the phase-I LP's point — skipped
//      when the slot's polyhedron has no strict interior;
//   3. hold x_{t-1} + coverage repair (repair_coverage below), which never
//      throws: a failed repair publishes x_{t-1} with !outcome.ok().
// The tests' cross-validation reference is a configuration of the same
// workspace (testing::reference_roa_options(): cold, fail-fast, IPM pinned
// to its dense Newton path), not a second model.
#pragma once

#include <memory>

#include "core/p1_model.hpp"
#include "core/resilience.hpp"
#include "core/types.hpp"
#include "solver/ipm.hpp"

namespace sora::core {

struct RoaOptions {
  double eps = 1e-2;        // the paper's epsilon (tier-2 aggregates)
  double eps_prime = 1e-2;  // the paper's epsilon' (edges)
  solver::IpmOptions ipm;   // inner solver controls

  // Warm-start each P2Workspace solve from the previous slot's optimum,
  // pulled into the strict interior by a convex combination with the
  // even-split anchor (kWarmStartBlends in p2_subproblem.cpp). The first
  // solve of a fresh workspace cold-starts.
  bool warm_start = true;

  // Chain configuration: a failed warm solve restarts cold, and a slot the
  // barrier cannot produce holds x_{t-1} + the cheapest coverage repair
  // instead of aborting. resilience.enabled = false makes the first failure
  // throw (the tests' fail-fast reference configuration).
  ResilienceOptions resilience;

  // Slot-SLO accounting (obs/slo.hpp): per-slot latency quantiles and
  // deadline hit/miss against `slo.budget_seconds`, which the CLIs set from
  // --slot-budget-ms. The default zero budget collects latency quantiles
  // only.
  obs::SlotSloOptions slo;

  RoaOptions() { ipm.tol = 1e-6; }
};

/// Per-solve timing breakdown, aggregated into RoaRun by the drivers.
struct P2Timing {
  double build_seconds = 0.0;  // constraint patch + start-point construction
  double solve_seconds = 0.0;  // inside the barrier solve
  bool warm_started = false;   // start derived from the previous optimum
};

struct P2Solution {
  Allocation alloc;
  Vec s;                 // the auxiliary s_e at the optimum
  double objective = 0.0;  // P2 objective (regularized)
  std::size_t newton_steps = 0;
  P2Timing timing;

  // How this slot's decision was produced: final status, backend, chain
  // depth, and (for degraded slots) the repair's cost delta.
  SolveOutcome outcome;

  // KKT multipliers of P2(t)'s constraints (the paper's Step 3 notation),
  // recovered from the barrier solve; zero when hold + repair produced the
  // slot. Used by the competitive-certificate construction.
  Vec rho;    // per edge, for (3a) x >= s
  Vec phi;    // per edge, for (3b) y >= s
  Vec gamma;  // per tier-1 cloud, for (3c) coverage
  Vec sigma;  // per edge, for z >= s (only with the tier-1 term)
};

/// Reusable per-instance solver state for the P2(t) chain: the CSR
/// constraint pattern, objective weight vectors, IPM scratch buffers, and
/// the previous optimum for warm starting. Create one per Instance and call
/// solve() slot by slot.
class P2Workspace {
 public:
  P2Workspace(const Instance& inst, const RoaOptions& options = {});
  ~P2Workspace();
  P2Workspace(const P2Workspace&) = delete;
  P2Workspace& operator=(const P2Workspace&) = delete;

  /// Solve P2(t) given the previous slot's decision. Batch wrapper over
  /// step(): requires t < inst.horizon.
  P2Solution solve(const InputSeries& inputs, std::size_t t,
                   const Allocation& prev);

  /// Re-entrant streaming entry point: run one slot's chain from raw
  /// per-slot rows. `in.slot` is attribution only (fault hooks, error
  /// messages) — nothing indexes the instance horizon, so a daemon can run
  /// forever. All per-slot state (RHS patch, objective prices, start point)
  /// is fully rewritten on entry; no heap allocation in the Newton loop.
  /// Throws only on structural errors (positive demand at an edgeless
  /// cloud) and, with resilience disabled, on the first failed stage; an
  /// exhausted chain publishes x_{t-1} with !outcome.ok().
  P2Solution step(const SlotInputs& in, const Allocation& prev);

  /// The chain's terminal stage alone (the live deadline-miss path): no
  /// barrier attempt, just hold x_{t-1} + the cheapest coverage repair.
  /// Never throws on repair failure — the outcome reports it.
  P2Solution degrade(const SlotInputs& in, const Allocation& prev);

  /// Forget the previous optimum: the next solve cold-starts. Use when the
  /// chain is broken (e.g. re-planning from a different state).
  void reset_warm_start();

  /// Snapshot/restore of the warm-start state (the packed [x|y|s|z]
  /// previous optimum). export_warm_start returns false when the workspace
  /// is cold (nothing to save); import_warm_start returns false (and leaves
  /// the workspace cold) when the vector's size does not match the
  /// instance's variable layout.
  bool export_warm_start(Vec& out) const;
  bool import_warm_start(const Vec& state);

  const RoaOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The coverage repair behind the chain's terminal stage, degrade(), the
/// predictive controllers' reactive scaling and LCP-M: hold `held` (clamped
/// to the nonnegative orthant, with s_e = min(x_e, y_e[, z_e])) and, where
/// coverage (3c) at `in` falls short by more than 1e-12, push the cheapest
/// additive (dx, dy, ds[, dz]) >= 0 that keeps (3a)/(3b) and the capacities
/// (1b)-(1d), paying allocation plus reconfiguration on the push. Never
/// throws: a failed LP leaves the held point in `alloc`/`s` and reports its
/// status in `outcome`.
struct CoverageRepair {
  Allocation alloc;
  Vec s;                  // per-edge coverage, <= min(x, y[, z])
  SolveOutcome outcome;   // backend kHoldRepair; repair_cost_delta = LP cost
  bool repaired = false;  // coverage was short, so the LP ran
};
CoverageRepair repair_coverage(const Instance& inst, const SlotInputs& in,
                               const Allocation& held,
                               const solver::LpSolveOptions& lp = {});

/// Solve P2(t) given the previous slot's decision through a fresh
/// (cold-started) P2Workspace. Throws CheckError when the chain cannot
/// produce a feasible slot (the instance is infeasible at slot t).
P2Solution solve_p2(const Instance& inst, const InputSeries& inputs,
                    std::size_t t, const Allocation& prev,
                    const RoaOptions& options = {});

/// A strictly feasible (x, y, s) for P2(t)'s constraint polyhedron, packed
/// as [x | y | s] (the workspace's rows; even split, else phase-I). Throws
/// CheckError when the polyhedron has no strict interior. Exposed for tests.
Vec p2_strictly_feasible_point(const Instance& inst, const InputSeries& inputs,
                               std::size_t t);

/// The P2(t) objective the workspace minimizes at slot `in` after decision
/// `prev`, over the packed [x | y | s (| z)] layout: value, gradient, and
/// the Hessian in dense and sparse lower-triangle form. Exposed for tests;
/// `inst` must outlive the returned object.
std::unique_ptr<solver::ConvexObjective> make_p2_objective(
    const Instance& inst, const RoaOptions& options, const SlotInputs& in,
    const Allocation& prev);

}  // namespace sora::core
