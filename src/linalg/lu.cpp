#include "linalg/lu.hpp"

#include <cmath>

#include "util/check.hpp"

namespace sora::linalg {

std::optional<Lu> Lu::factor(const Matrix& a) {
  SORA_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Pivot: largest |value| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best < 1e-13 || !std::isfinite(best)) return std::nullopt;
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(pivot, c));
      std::swap(perm[k], perm[pivot]);
    }
    const double inv = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu(i, k) * inv;
      lu(i, k) = m;
      if (m == 0.0) continue;
      double* irow = lu.row_ptr(i);
      const double* krow = lu.row_ptr(k);
      for (std::size_t c = k + 1; c < n; ++c) irow[c] -= m * krow[c];
    }
  }
  return Lu(std::move(lu), std::move(perm));
}

Vec Lu::solve(const Vec& b) const {
  const std::size_t n = dim();
  SORA_CHECK(b.size() == n);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    const double* row = lu_.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) v -= row[k] * y[k];
    y[i] = v;
  }
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    const double* row = lu_.row_ptr(ii);
    for (std::size_t k = ii + 1; k < n; ++k) v -= row[k] * x[k];
    x[ii] = v / row[ii];
  }
  return x;
}

}  // namespace sora::linalg
