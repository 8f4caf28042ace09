#include "solver/lp_solve.hpp"

#include <cmath>

#include "util/check.hpp"

namespace sora::solver {

LpCrossCheck cross_check(const LpModel& model, const LpSolveOptions& options) {
  LpCrossCheck out;
  out.simplex = solve_simplex(model, options.simplex);
  out.pdhg = solve_pdhg(model, options.pdhg);
  SORA_CHECK_MSG(out.simplex.ok(), "simplex failed: " + out.simplex.detail);
  SORA_CHECK_MSG(out.pdhg.ok(), "pdhg failed: " + out.pdhg.detail);
  const double scale = 1.0 + std::fabs(out.simplex.objective) +
                       std::fabs(out.pdhg.objective);
  out.objective_gap =
      std::fabs(out.simplex.objective - out.pdhg.objective) / scale;
  return out;
}

double cross_check_gap(const LpModel& model, const LpSolveOptions& options) {
  return cross_check(model, options).objective_gap;
}

}  // namespace sora::solver
