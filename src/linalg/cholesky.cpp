#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sora::linalg {
namespace {

// In-place lower Cholesky, blocked right-looking with kBlock-wide panels so
// the trailing update runs as contiguous row dot products (rank-k syrk over
// the lower triangle only). Touches only the lower triangle; returns false
// on a non-positive pivot.
bool cholesky_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  constexpr std::size_t kBlock = 64;
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t jend = std::min(j0 + kBlock, n);
    // Diagonal block: unblocked factor of A[j0:jend, j0:jend]. Columns to
    // the left of j0 were already eliminated by earlier trailing updates.
    for (std::size_t j = j0; j < jend; ++j) {
      double* jrow = a.row_ptr(j);
      double diag = jrow[j];
      for (std::size_t k = j0; k < j; ++k) diag -= jrow[k] * jrow[k];
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      jrow[j] = ljj;
      const double inv = 1.0 / ljj;
      for (std::size_t i = j + 1; i < jend; ++i) {
        double* irow = a.row_ptr(i);
        double v = irow[j];
        for (std::size_t k = j0; k < j; ++k) v -= irow[k] * jrow[k];
        irow[j] = v * inv;
      }
    }
    // Panel: rows below the block solve L21 L11^T = A21.
    for (std::size_t i = jend; i < n; ++i) {
      double* irow = a.row_ptr(i);
      for (std::size_t j = j0; j < jend; ++j) {
        const double* jrow = a.row_ptr(j);
        double v = irow[j];
        for (std::size_t k = j0; k < j; ++k) v -= irow[k] * jrow[k];
        irow[j] = v / jrow[j];
      }
    }
    // Trailing update: A22 -= L21 L21^T, lower triangle only, one
    // contiguous panel-row dot product per entry.
    for (std::size_t i = jend; i < n; ++i) {
      double* irow = a.row_ptr(i);
      for (std::size_t c = jend; c <= i; ++c) {
        const double* crow = a.row_ptr(c);
        double s = 0.0;
        for (std::size_t k = j0; k < jend; ++k) s += irow[k] * crow[k];
        irow[c] -= s;
      }
    }
  }
  // Zero the strict upper triangle so the factor is clean.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j2 = i + 1; j2 < n; ++j2) a(i, j2) = 0.0;
  return true;
}

}  // namespace

double cholesky_factor_regularized_into(const Matrix& a, Matrix& l,
                                        double initial_shift,
                                        double max_shift) {
  SORA_CHECK(a.rows() == a.cols());
  for (double v : a.data())
    SORA_CHECK_MSG(std::isfinite(v), "non-finite entry in Cholesky input");
  l = a;
  if (cholesky_in_place(l)) return 0.0;
  for (double shift = initial_shift; shift <= max_shift; shift *= 10.0) {
    l = a;
    for (std::size_t i = 0; i < l.rows(); ++i) l(i, i) += shift;
    if (cholesky_in_place(l)) return shift;
  }
  SORA_CHECK_MSG(false, "Cholesky failed even with maximum diagonal shift");
}

void cholesky_solve_in_place(const Matrix& l, Vec& x) {
  const std::size_t n = l.rows();
  SORA_CHECK(x.size() == n);
  // Forward: L y = b (y overwrites x).
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    const double* row = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) v -= row[k] * x[k];
    x[i] = v / row[i];
  }
  // Backward: L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
}

}  // namespace sora::linalg
