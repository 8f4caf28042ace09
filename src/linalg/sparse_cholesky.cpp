#include "linalg/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "util/check.hpp"

namespace sora::linalg {

SymSparse SymSparse::from_lower_triplets(std::size_t n,
                                         std::vector<Triplet> triplets) {
  for (Triplet& t : triplets) {
    SORA_CHECK(t.row < n && t.col < n);
    if (t.col > t.row) std::swap(t.row, t.col);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SymSparse m;
  m.n = n;
  m.row_ptr.assign(n + 1, 0);
  m.cols.reserve(triplets.size());
  m.values.reserve(triplets.size());
  std::size_t k = 0;
  for (std::size_t r = 0; r < n; ++r) {
    m.row_ptr[r] = m.cols.size();
    while (k < triplets.size() && triplets[k].row == r) {
      const std::size_t c = triplets[k].col;
      double v = 0.0;
      while (k < triplets.size() && triplets[k].row == r &&
             triplets[k].col == c) {
        v += triplets[k].value;
        ++k;
      }
      m.cols.push_back(c);
      m.values.push_back(v);
    }
  }
  m.row_ptr[n] = m.cols.size();
  return m;
}

SymSparse SymSparse::from_dense_lower(const Matrix& a, double drop_tol) {
  SORA_CHECK(a.rows() == a.cols());
  SymSparse m;
  m.n = a.rows();
  m.row_ptr.assign(m.n + 1, 0);
  for (std::size_t r = 0; r < m.n; ++r) {
    m.row_ptr[r] = m.cols.size();
    const double* row = a.row_ptr(r);
    for (std::size_t c = 0; c <= r; ++c) {
      if (std::fabs(row[c]) > drop_tol) {
        m.cols.push_back(c);
        m.values.push_back(row[c]);
      }
    }
  }
  m.row_ptr[m.n] = m.cols.size();
  return m;
}

Matrix SymSparse::to_dense() const {
  Matrix a(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      a(r, cols[k]) = values[k];
      a(cols[k], r) = values[k];
    }
  return a;
}

std::vector<std::size_t> minimum_degree_ordering(const SymSparse& a) {
  const std::size_t n = a.n;
  // Neighbor lists of the symmetric pattern, no self-loops. Rows are
  // visited in ascending order, so each list comes out sorted: first the
  // node's own lower-triangle columns, then the later rows that name it.
  std::vector<std::vector<std::size_t>> nbrs(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const std::size_t c = a.cols[k];
      if (c == r) continue;
      nbrs[r].push_back(c);
      nbrs[c].push_back(r);
    }

  // Eliminate a node of least current degree, lowest index first among
  // ties, and join its neighbors into a clique: the fill that eliminating
  // it would create. Each list holds only uneliminated nodes.
  std::set<std::pair<std::size_t, std::size_t>> queue;  // (degree, node)
  for (std::size_t v = 0; v < n; ++v) queue.insert({nbrs[v].size(), v});
  std::vector<std::size_t> perm, merged;
  perm.reserve(n);
  while (!queue.empty()) {
    const std::size_t v = queue.begin()->second;
    queue.erase(queue.begin());
    perm.push_back(v);
    const std::vector<std::size_t> clique = std::move(nbrs[v]);
    for (const std::size_t u : clique) {
      queue.erase({nbrs[u].size(), u});
      merged.clear();
      std::set_union(nbrs[u].begin(), nbrs[u].end(), clique.begin(),
                     clique.end(), std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [u, v](std::size_t w) {
                                    return w == u || w == v;
                                  }),
                   merged.end());
      nbrs[u].swap(merged);
      queue.insert({nbrs[u].size(), u});
    }
  }
  return perm;
}

void SparseCholesky::analyze(const SymSparse& a) {
  const std::size_t n = a.n;
  n_ = n;
  factored_ = false;
  shift_ = 0.0;

  perm_ = minimum_degree_ordering(a);
  iperm_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) iperm_[perm_[k]] = k;

  // Permute the pattern: original entry (r, c) lands at (max, min) of the
  // permuted indices; entry_map_ lets factor() gather values straight into
  // the permuted layout.
  struct PermEntry {
    std::size_t row, col, src;
  };
  std::vector<PermEntry> entries;
  entries.reserve(a.nonzeros());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      std::size_t pr = iperm_[r], pc = iperm_[a.cols[k]];
      if (pc > pr) std::swap(pr, pc);
      entries.push_back({pr, pc, k});
    }
  std::sort(entries.begin(), entries.end(),
            [](const PermEntry& x, const PermEntry& y) {
              return x.row != y.row ? x.row < y.row : x.col < y.col;
            });
  ap_ptr_.assign(n + 1, 0);
  ap_cols_.resize(entries.size());
  ap_vals_.assign(entries.size(), 0.0);
  entry_map_.resize(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    ++ap_ptr_[entries[k].row + 1];
    ap_cols_[k] = entries[k].col;
    entry_map_[entries[k].src] = k;
  }
  for (std::size_t r = 0; r < n; ++r) ap_ptr_[r + 1] += ap_ptr_[r];

  // Elimination tree of the permuted matrix (Liu's algorithm with path
  // compression through `ancestor`).
  parent_.assign(n, n);
  std::vector<std::size_t> ancestor(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = ap_ptr_[k]; p < ap_ptr_[k + 1]; ++p) {
      std::size_t i = ap_cols_[p];
      while (i != n && i < k) {
        const std::size_t next = ancestor[i];
        ancestor[i] = k;
        if (next == n) parent_[i] = k;
        i = next;
      }
    }
  }

  // Column counts of L via one symbolic sweep of ereach, then the fixed
  // row-index array li_ via a second sweep in the exact order the numeric
  // factorization will revisit (so value slots line up with head_ pointers).
  mark_.assign(n, 0);
  stack_.resize(n);
  pattern_.resize(n);
  std::vector<std::size_t> colcount(n, 1);  // the diagonal of every column
  const auto ereach = [this](std::size_t k, std::size_t stamp) {
    std::size_t top = n_;
    mark_[k] = stamp;
    for (std::size_t p = ap_ptr_[k]; p < ap_ptr_[k + 1]; ++p) {
      std::size_t i = ap_cols_[p];
      if (i >= k) continue;
      std::size_t len = 0;
      while (mark_[i] != stamp) {
        stack_[len++] = i;
        mark_[i] = stamp;
        i = parent_[i];
      }
      while (len > 0) pattern_[--top] = stack_[--len];
    }
    return top;
  };

  std::size_t stamp = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t top = ereach(k, ++stamp);
    for (std::size_t t = top; t < n; ++t) ++colcount[pattern_[t]];
  }
  lp_.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) lp_[j + 1] = lp_[j] + colcount[j];
  li_.assign(lp_[n], 0);
  lx_.assign(lp_[n], 0.0);
  head_.assign(n, 0);
  for (std::size_t j = 0; j < n; ++j) head_[j] = lp_[j];
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t top = ereach(k, ++stamp);
    for (std::size_t t = top; t < n; ++t) li_[head_[pattern_[t]]++] = k;
    li_[head_[k]++] = k;  // the diagonal, stored first within column k
  }

  xwork_.assign(n, 0.0);
}

bool SparseCholesky::factor(const SymSparse& a, double shift) {
  SORA_CHECK_MSG(analyzed() && a.n == n_ &&
                     a.nonzeros() == entry_map_.size(),
                 "SparseCholesky::factor: pattern does not match analyze()");
  factored_ = false;
  for (std::size_t k = 0; k < entry_map_.size(); ++k)
    ap_vals_[entry_map_[k]] = a.values[k];
  for (std::size_t j = 0; j < n_; ++j) head_[j] = lp_[j];

  // Up-looking factorization (CSparse cs_chol over the fixed pattern): row
  // k of L solves L(0:k,0:k) l = A(0:k,k) by walking the elimination-tree
  // reach in topological order, accumulating in the dense xwork_ row.
  std::size_t stamp = 0;
  const auto ereach = [this](std::size_t k, std::size_t s) {
    std::size_t top = n_;
    mark_[k] = s;
    for (std::size_t p = ap_ptr_[k]; p < ap_ptr_[k + 1]; ++p) {
      std::size_t i = ap_cols_[p];
      if (i >= k) continue;
      std::size_t len = 0;
      while (mark_[i] != s) {
        stack_[len++] = i;
        mark_[i] = s;
        i = parent_[i];
      }
      while (len > 0) pattern_[--top] = stack_[--len];
    }
    return top;
  };
  // Distinct stamps from the symbolic phase: restart the counter but clear
  // marks first so stale symbolic stamps cannot collide.
  std::fill(mark_.begin(), mark_.end(), 0);

  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t top = ereach(k, ++stamp);
    double d = shift;
    for (std::size_t p = ap_ptr_[k]; p < ap_ptr_[k + 1]; ++p) {
      const std::size_t i = ap_cols_[p];
      if (i == k)
        d += ap_vals_[p];
      else
        xwork_[i] = ap_vals_[p];
    }
    for (std::size_t t = top; t < n_; ++t) {
      const std::size_t i = pattern_[t];
      const double lki = xwork_[i] / lx_[lp_[i]];
      xwork_[i] = 0.0;
      const std::size_t pend = head_[i];
      for (std::size_t p = lp_[i] + 1; p < pend; ++p)
        xwork_[li_[p]] -= lx_[p] * lki;
      d -= lki * lki;
      SORA_DCHECK(li_[head_[i]] == k);
      lx_[head_[i]++] = lki;
    }
    if (!(d > 0.0) || !std::isfinite(d)) {
      // Clear any pending xwork entries of later rows before bailing.
      std::fill(xwork_.begin(), xwork_.end(), 0.0);
      return false;
    }
    SORA_DCHECK(li_[head_[k]] == k);
    lx_[head_[k]++] = std::sqrt(d);
  }
  factored_ = true;
  shift_ = shift;
  return true;
}

double SparseCholesky::factor_regularized(const SymSparse& a,
                                          double initial_shift,
                                          double max_shift) {
  for (const double v : a.values)
    SORA_CHECK_MSG(std::isfinite(v),
                   "non-finite entry in SparseCholesky input");
  if (factor(a, 0.0)) return 0.0;
  for (double shift = initial_shift; shift <= max_shift; shift *= 10.0)
    if (factor(a, shift)) return shift;
  SORA_CHECK_MSG(false,
                 "SparseCholesky failed even with maximum diagonal shift");
}

void SparseCholesky::solve_in_place(Vec& x) const {
  SORA_CHECK_MSG(factored_, "SparseCholesky::solve before factor()");
  SORA_CHECK(x.size() == n_);
  // Work in a local permuted copy; the factor scratch xwork_ must stay
  // zeroed between factor() calls, so it is not reused here.
  thread_local Vec b;
  b.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) b[k] = x[perm_[k]];
  // Forward: L y = b, column sweep.
  for (std::size_t j = 0; j < n_; ++j) {
    const double yj = b[j] / lx_[lp_[j]];
    b[j] = yj;
    for (std::size_t p = lp_[j] + 1; p < lp_[j + 1]; ++p)
      b[li_[p]] -= lx_[p] * yj;
  }
  // Backward: L^T z = y, dot-product sweep.
  for (std::size_t jj = n_; jj-- > 0;) {
    double v = b[jj];
    for (std::size_t p = lp_[jj] + 1; p < lp_[jj + 1]; ++p)
      v -= lx_[p] * b[li_[p]];
    b[jj] = v / lx_[lp_[jj]];
  }
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = b[k];
}

Vec SparseCholesky::solve(const Vec& b) const {
  Vec x = b;
  solve_in_place(x);
  return x;
}

}  // namespace sora::linalg
