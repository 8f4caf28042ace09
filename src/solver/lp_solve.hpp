// Options for one LP solve (the backend size rule and each backend's
// budgets), and the cross-validation helper tests use to keep the simplex
// and PDHG honest against each other. Code outside solver/ solves LPs
// through core::solve_lp_with_fallback, which picks the backend by size.
#pragma once

#include "solver/pdhg.hpp"
#include "solver/simplex.hpp"

namespace sora::solver {

struct LpSolveOptions {
  /// The simplex answers first when rows+vars is at most this; PDHG above.
  std::size_t simplex_size_limit = 3000;
  SimplexOptions simplex;
  PdhgOptions pdhg;
};

/// Both backends' answers on one model, for differential comparison.
struct LpCrossCheck {
  LpSolution simplex;
  LpSolution pdhg;
  /// |obj_simplex - obj_pdhg| / (1 + |obj_simplex| + |obj_pdhg|).
  double objective_gap = 0.0;
};

/// Solve with both methods (throws if either fails). The testing
/// differential oracle compares the full solutions; cross_check_gap below
/// remains the scalar convenience wrapper.
LpCrossCheck cross_check(const LpModel& model,
                         const LpSolveOptions& options = {});

/// Solve with both methods and return the worse relative objective gap
/// between them (used by tests; throws if either solver fails).
double cross_check_gap(const LpModel& model, const LpSolveOptions& options = {});

}  // namespace sora::solver
