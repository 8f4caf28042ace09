// Dense Cholesky factorization for the symmetric positive-definite Newton
// systems of the interior-point solver's dense path (the tests' reference
// and objectives without a Hessian pattern). The factor escalates a
// diagonal shift when the matrix is only positive semi-definite
// numerically.
#pragma once

#include "linalg/matrix.hpp"

namespace sora::linalg {

/// Copy `a` (symmetric; only the lower triangle is read) into the factor
/// buffer `l` and factor it in place, first plain, then escalating a
/// diagonal shift by 10x (from initial_shift up to max_shift) until the
/// factorization succeeds. Returns the applied shift; throws CheckError if
/// even max_shift fails. No heap allocation when `l` already has a's shape.
double cholesky_factor_regularized_into(const Matrix& a, Matrix& l,
                                        double initial_shift,
                                        double max_shift);

/// Solve L L^T x = b in place: `x` holds b on entry, the solution on exit.
void cholesky_solve_in_place(const Matrix& l, Vec& x);

}  // namespace sora::linalg
