// First-order LP solver: primal-dual hybrid gradient (Chambolle–Pock) with
// the standard large-scale-LP refinements popularized by PDLP:
//   * Ruiz equilibration of the constraint matrix,
//   * Pock–Chambolle diagonal preconditioning (per-column primal and per-row
//     dual steps from the absolute row/column sums — no spectral estimate),
//   * iterate averaging with adaptive restarts (restart to the better of the
//     current iterate and the running average when the KKT error halves),
//   * adaptive primal-weight rebalancing between the primal and dual step
//     diagonals, driven by the movement ratio between restarts,
//   * an explicit CSR transpose so both matvecs are row-gather loops.
//
// Solves the same canonical form as the simplex:
//   min c^T x   s.t.  row_lower <= A x <= row_upper, var_lower <= x <= var_upper.
//
// This is the workhorse for the multi-slot offline optimum P1 (10^5+
// variables at paper scale), where a dense simplex basis would not fit.
// Accuracy is controlled by relative KKT tolerances; tests cross-validate
// its optima against the simplex on small instances.
#pragma once

#include "solver/lp.hpp"
#include "solver/solution.hpp"

namespace sora::solver {

struct PdhgOptions {
  std::size_t max_iterations = 200000;
  double eps_rel = 1e-6;        // relative KKT tolerance
  double eps_abs = 1e-8;
  // On hitting the iteration limit, a point whose KKT error is within
  // accept_factor * eps_rel is still reported optimal (with the achieved
  // error in `detail`). PDHG's tail convergence on degenerate LPs can stall
  // a small factor above the target; callers that only need a few digits
  // (cost ratios) set this > 1.
  double accept_factor = 1.0;
  std::size_t restart_check_interval = 160;
};

LpSolution solve_pdhg(const LpModel& model, const PdhgOptions& options = {});

}  // namespace sora::solver
