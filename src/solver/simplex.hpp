// Revised primal simplex with bounded variables.
//
// The model (two-sided rows, two-sided bounds) is standardized to
//   A x - s = 0,  var_lower <= x <= var_upper,  row_lower <= s <= row_upper,
// i.e. slacks carry the row activity. Phase 1 introduces artificial columns
// only for rows whose slack cannot start within its bounds, and minimizes
// their sum; phase 2 optimizes the true objective with artificials fixed to
// zero. The basis inverse is kept explicitly (dense m x m) and updated with
// product-form pivots; it is refreshed from an LU factorization of the basis
// every `refactor_interval` pivots to bound error growth.
//
// Intended for small/medium LPs (a few thousand rows): per-slot one-shot
// problems, window re-optimizations, phase-I feasibility for the IPM, and
// cross-validation of the first-order solver. Use solve_pdhg for the big
// multi-slot offline LPs.
#pragma once

#include "solver/lp.hpp"
#include "solver/solution.hpp"

namespace sora::solver {

struct SimplexOptions {
  std::size_t max_iterations = 50000;
  std::size_t refactor_interval = 500;
};

LpSolution solve_simplex(const LpModel& model, const SimplexOptions& options = {});

}  // namespace sora::solver
