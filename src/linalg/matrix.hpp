// Dense row-major matrix with the level-2/3 operations the interior-point
// and simplex solvers need. Sizes in this library are small (hundreds to a
// few thousands), so straightforward loops with good locality suffice.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace sora::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    SORA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    SORA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  /// y = A x
  Vec multiply(const Vec& x) const;
  /// y = A^T x
  Vec multiply_transpose(const Vec& x) const;
  /// C = A B
  Matrix multiply(const Matrix& b) const;
  Matrix transpose() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Copy the lower triangle of a square matrix onto the strict upper
/// triangle, making it symmetric.
void mirror_lower(Matrix& a);

/// out += G^T diag(w) G for a dense G (rows are constraints). `out` must be
/// cols x cols and symmetric on entry: the update accumulates the lower
/// triangle only and mirrors it once at the end, halving the flops of the
/// full-square version. Zero entries of G are skipped.
void add_AtDA(const Matrix& g, const Vec& w, Matrix& out);

}  // namespace sora::linalg
