// Compressed sparse row (CSR) matrix for the large, structured LPs (offline
// optimum over hundreds of time slots) and for the interior-point Newton
// assembly on the per-slot subproblems. Built from triplets or a dense
// matrix; supports the operations the first-order PDHG solver and the
// barrier IPM need: A x, A^T y, A^T diag(w) A accumulation, row iteration,
// row/column absolute sums (diagonal preconditioning), and Ruiz
// equilibration.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace sora::linalg {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Read-only view of one CSR row: parallel column-index/value arrays.
struct SparseRowView {
  const std::size_t* cols = nullptr;
  const double* vals = nullptr;
  std::size_t size = 0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed. Zeros are
  /// dropped unless `keep_explicit_zeros` is set (patchable sparsity
  /// patterns need stable slots).
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets,
                                    bool keep_explicit_zeros = false);

  /// Build from a dense matrix, keeping entries with |a_ij| > drop_tol.
  static SparseMatrix from_dense(const Matrix& dense, double drop_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// A^T as its own CSR matrix. One counting pass + one scatter pass over
  /// the nonzeros; column indices within each output row come out sorted.
  /// The first-order solvers keep an explicit transpose so both A x and
  /// A^T y run as sequential row-gather loops instead of a scatter.
  SparseMatrix transpose() const;

  /// y = A x
  Vec multiply(const Vec& x) const;
  /// y = A^T x
  Vec multiply_transpose(const Vec& x) const;

  /// y = A x into a preallocated buffer (no heap allocation).
  void multiply_into(const Vec& x, Vec& y) const;
  /// y = A^T x into a preallocated buffer (no heap allocation).
  void multiply_transpose_into(const Vec& x, Vec& y) const;

  /// out += A^T diag(w) A, iterating only the nonzeros of each row — the
  /// IPM's Newton-system assembly kernel. `out` must be cols x cols and
  /// symmetric on entry: the update accumulates the lower triangle only
  /// (sum_r w_r * nnz(row r)^2 / 2 flops) and mirrors it once at the end.
  void add_AtDA(const Vec& w, Matrix& out) const;

  /// Row r as a (cols, vals, size) view for custom kernels.
  SparseRowView row(std::size_t r) const {
    SORA_DCHECK(r < rows_);
    const std::size_t begin = row_offsets_[r];
    return {col_indices_.data() + begin, values_.data() + begin,
            row_offsets_[r + 1] - begin};
  }

  /// Per-row sum of |a_ij|^p (p in {1, 2, inf-as-0: max}).
  Vec row_abs_sums(double p) const;
  /// Per-column sum of |a_ij|^p.
  Vec col_abs_sums(double p) const;

  /// Largest |a_ij|.
  double max_abs() const;

  /// Scale rows by dr and columns by dc in place: A <- diag(dr) A diag(dc).
  void scale(const Vec& dr, const Vec& dc);

  /// CSR internals (exposed for tests and custom kernels).
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Mutable access to the stored values (the sparsity pattern is fixed).
  /// Used by per-slot patching of a structure-once constraint matrix.
  std::vector<double>& mutable_values() { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

/// Incremental builder used by the LP model assembler.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  void add(std::size_t row, std::size_t col, double value) {
    SORA_DCHECK(row < rows_ && col < cols_);
    if (value != 0.0) triplets_.push_back({row, col, value});
  }

  /// Add a structural entry that survives even when value == 0 (patchable
  /// patterns).
  void add_pattern(std::size_t row, std::size_t col, double value) {
    SORA_DCHECK(row < rows_ && col < cols_);
    triplets_.push_back({row, col, value});
    keep_zeros_ = true;
  }

  SparseMatrix build() && {
    return SparseMatrix::from_triplets(rows_, cols_, std::move(triplets_),
                                       keep_zeros_);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  bool keep_zeros_ = false;
  std::vector<Triplet> triplets_;
};

}  // namespace sora::linalg
