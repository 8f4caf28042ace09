// Sparse Cholesky factorization with a symbolic/numeric split for the
// interior-point Newton systems whose sparsity pattern is fixed across
// solves (the P2(t) chain: only the diagonal weights of G^T diag(w) G and
// the entropic curvature change per Newton step).
//
//   SymSparse a = SymSparse::from_lower_triplets(n, trips);
//   SparseCholesky chol;
//   chol.analyze(a);                    // once per pattern: ordering
//                                       // (minimum degree), elimination
//                                       // tree, pattern of L
//   for each Newton step:
//     /* rewrite a.values in place */
//     chol.factor_regularized(a, 1e-12, 1e16);   // numeric only
//     chol.solve_in_place(dx);
//
// The analysis applies a minimum-degree fill-reducing ordering, builds the
// elimination tree of the permuted matrix, and computes the full nonzero
// pattern of L. factor() is an up-looking numeric factorization
// over that fixed pattern (CSparse-style), so its cost is O(|L| row
// lengths), with no per-step allocation or symbolic work.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace sora::linalg {

/// Lower triangle of a symmetric n x n matrix, row-compressed: row r holds
/// the entries (r, c) with c <= r, column indices strictly ascending. Since
/// the matrix is symmetric this is simultaneously the upper triangle in
/// compressed-sparse-column form — the orientation the up-looking
/// factorization consumes. The pattern is fixed after construction; values
/// may be rewritten in place between factorizations.
struct SymSparse {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;  // n + 1
  std::vector<std::size_t> cols;     // c <= r, ascending within a row
  std::vector<double> values;

  /// Build from triplets. Entries are folded into the lower triangle
  /// ((r, c) and (c, r) address the same slot); duplicates are summed.
  /// Structural zeros are kept — the pattern is what matters here.
  static SymSparse from_lower_triplets(std::size_t n,
                                       std::vector<Triplet> triplets);

  /// Lower triangle of a dense symmetric matrix (entries with
  /// |a_ij| > drop_tol).
  static SymSparse from_dense_lower(const Matrix& a, double drop_tol = 0.0);

  std::size_t nonzeros() const { return cols.size(); }

  /// Reconstruct the full dense symmetric matrix (tests / oracles).
  Matrix to_dense() const;
};

/// Fill-reducing symmetric permutation: minimum degree on the explicit
/// elimination graph of the lower-triangle pattern, ties broken by lowest
/// index, so the result depends on the pattern alone. Returns perm with
/// perm[k] = original index placed at position k. Exposed for tests.
std::vector<std::size_t> minimum_degree_ordering(const SymSparse& a);

/// Sparse LL^T with the symbolic analysis (ordering + elimination tree +
/// pattern of L) computed once by analyze() and reused by every factor().
class SparseCholesky {
 public:
  /// Symbolic phase. `a`'s values are ignored; only the pattern matters.
  /// Invalidates any previous factorization.
  void analyze(const SymSparse& a);

  bool analyzed() const { return n_ > 0; }
  std::size_t dim() const { return n_; }

  /// Number of stored nonzeros of L (fill-in indicator; valid after
  /// analyze()).
  std::size_t factor_nonzeros() const { return li_.size(); }

  /// perm[k] = original index at permuted position k (valid after
  /// analyze()).
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Numeric factorization of `a` + shift*I over the analyzed pattern
  /// (`a` must have exactly the pattern passed to analyze()). Returns false
  /// on a non-positive pivot; no allocation on the repeat path.
  bool factor(const SymSparse& a, double shift = 0.0);

  /// factor() escalating the shift by 10x from initial_shift up to
  /// max_shift until it succeeds; returns the applied shift. Throws
  /// CheckError when even max_shift fails. Mirrors the dense
  /// cholesky_factor_regularized_into contract.
  double factor_regularized(const SymSparse& a, double initial_shift,
                            double max_shift);

  /// The diagonal shift applied by the last successful factor().
  double applied_shift() const { return shift_; }

  /// Solve A x = b in place (handles the permutation internally). Requires
  /// a successful factor().
  void solve_in_place(Vec& x) const;
  Vec solve(const Vec& b) const;

 private:
  std::size_t n_ = 0;
  bool factored_ = false;
  double shift_ = 0.0;

  // Ordering: perm_[k] = original index at position k; iperm_ its inverse.
  std::vector<std::size_t> perm_, iperm_;

  // Permuted input (lower CSR). entry_map_[k] sends entry k of the analyzed
  // input pattern to its slot in ap_vals_, so factor() is a gather + sweep.
  std::vector<std::size_t> ap_ptr_, ap_cols_, entry_map_;
  std::vector<double> ap_vals_;

  // Elimination tree of the permuted matrix (n_ meaning "no parent").
  std::vector<std::size_t> parent_;

  // L in compressed-sparse-column form, fixed pattern from analyze().
  std::vector<std::size_t> lp_, li_;
  std::vector<double> lx_;

  // Scratch reused across factor()/solve() calls.
  std::vector<std::size_t> head_;     // next free slot per column of L
  std::vector<std::size_t> mark_;     // ereach visited stamps
  std::vector<std::size_t> stack_, pattern_;
  Vec xwork_;                         // dense accumulator row / permuted rhs
};

}  // namespace sora::linalg
