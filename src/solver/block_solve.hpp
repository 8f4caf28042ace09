// Per-block barrier state for the decomposed (consensus ADMM) P2.
//
// A BlockBarrier bundles everything one block of a decomposed problem needs
// to solve its subproblem repeatedly — across ADMM iterations within a slot
// and across slots — without reallocating or re-analysing:
//
//   * the block's CSR constraint matrix and rhs (structure fixed once, values
//     patchable between solves);
//   * an IpmScratch that keeps the Newton buffers (and, for a block large
//     enough for the sparse path, the symbolic Cholesky analysis) alive;
//   * warm-start state (the previous block optimum) with the same
//     pull-to-interior blend escalation (kWarmStartBlends) the monolithic P2
//     workspace uses.
//
// A round of block solves is prepare() per block, one solve_barrier_batch
// call over all of them, and commit() per block. One BlockBarrier must not
// be used from two threads at once.
#pragma once

#include <cstddef>

#include "linalg/sparse.hpp"
#include "solver/ipm.hpp"

namespace sora::solver {

struct BlockSolveOptions {
  IpmOptions ipm;
  bool warm_start = true;
};

class BlockBarrier {
 public:
  BlockBarrier() = default;

  BlockBarrier(const BlockBarrier&) = delete;
  BlockBarrier& operator=(const BlockBarrier&) = delete;
  BlockBarrier(BlockBarrier&&) = default;
  BlockBarrier& operator=(BlockBarrier&&) = default;

  /// Install the block's constraints G x <= h. The CSR STRUCTURE must stay
  /// fixed across the block's lifetime for the symbolic cache to pay off;
  /// use mutable_rhs() to patch right-hand sides between solves.
  /// Calling set_problem again drops warm-start state and the cache.
  void set_problem(linalg::SparseMatrix g, linalg::Vec h);

  const linalg::SparseMatrix& constraints() const { return g_; }
  const linalg::Vec& rhs() const { return h_; }
  /// In-place right-hand-side patching between solves (same row count).
  linalg::Vec& mutable_rhs() { return h_; }

  /// min_r (h - G v)_r : positive iff v is strictly interior.
  double min_slack(const linalg::Vec& v);

  /// Stage a solve of min f(x) s.t. G x <= h: the starting point is the
  /// previous optimum blended toward `anchor` until strictly interior, else
  /// `anchor` itself, and `effective` gets the IpmOptions (warm t0 boost).
  /// Returns false, with `failure` reporting kNumericalError, when neither
  /// the blend nor the anchor is strictly interior. On true, feed
  /// start()/scratch() to solve_barrier_batch and finish with commit().
  bool prepare(const linalg::Vec& anchor, const BlockSolveOptions& options,
               IpmOptions& effective, IpmResult& failure);
  /// Starting point staged by the last successful prepare().
  const linalg::Vec& start() const { return start_; }
  /// The block-private scratch (symbolic cache lives here across solves).
  IpmScratch* scratch() { return &scratch_; }
  /// Retain a successful result as the next warm-start seed.
  void commit(const IpmResult& result);

  bool has_warm_start() const { return has_last_; }
  const linalg::Vec& last_optimum() const { return last_opt_; }
  /// Drop warm-start state (keeps the symbolic cache, which depends only on
  /// structure).
  void reset_warm_start() { has_last_ = false; }

 private:
  linalg::SparseMatrix g_;
  linalg::Vec h_;
  linalg::Vec last_opt_, start_, slack_buf_;
  bool has_last_ = false;
  IpmScratch scratch_;
};

}  // namespace sora::solver
