#include "linalg/matrix.hpp"

#include "util/check.hpp"

namespace sora::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vec Matrix::multiply(const Vec& x) const {
  SORA_CHECK(x.size() == cols_);
  Vec y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_ptr(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vec Matrix::multiply_transpose(const Vec& x) const {
  SORA_CHECK(x.size() == rows_);
  Vec y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_ptr(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& b) const {
  SORA_CHECK(cols_ == b.rows_);
  Matrix c(rows_, b.cols_);
  // ikj order: streams through b rows, cache-friendly for row-major data.
  for (std::size_t i = 0; i < rows_; ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

void mirror_lower(Matrix& a) {
  SORA_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  for (std::size_t r = 1; r < n; ++r) {
    const double* arow = a.row_ptr(r);
    for (std::size_t c = 0; c < r; ++c) a(c, r) = arow[c];
  }
}

void add_AtDA(const Matrix& g, const Vec& w, Matrix& out) {
  const std::size_t n = g.cols();
  SORA_CHECK(w.size() == g.rows());
  SORA_CHECK(out.rows() == n && out.cols() == n);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    const double wi = w[i];
    if (wi == 0.0) continue;
    const double* grow = g.row_ptr(i);
    for (std::size_t r = 0; r < n; ++r) {
      const double gr = grow[r];
      if (gr == 0.0) continue;
      double* hrow = out.row_ptr(r);
      const double wgr = wi * gr;
      for (std::size_t c = 0; c <= r; ++c) hrow[c] += wgr * grow[c];
    }
  }
  mirror_lower(out);
}

}  // namespace sora::linalg
