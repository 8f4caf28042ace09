// Barrier (path-following) interior-point method for smooth convex programs
// over polyhedra:
//
//   minimize    f(x)            (f smooth, convex; value/gradient/Hessian)
//   subject to  G x <= h        (dense or CSR constraint matrix)
//
// This solves the paper's regularized subproblem P2(t): f is linear
// allocation cost plus the relative-entropy reconfiguration terms, and G/h
// collect the coverage (3a)-(3c), capacity (1b)-(1d), and nonnegativity
// constraints. The paper's transfer rows (3d)/(3e) are left out: with the
// capacity rows present each one is a sum of rows G already holds
// ((3d)_i = sum_e (3a)_e + sum_j (3c)_j + (1b)_i, and likewise for (3e)),
// so G keeps one sparse pattern per instance (core/p2_subproblem.hpp).
//
// Classic primal barrier with Newton steps: minimize t f(x) - sum log(h-Gx),
// backtracking line search that maintains strict feasibility, and outer
// updates t <- mu t until the duality-gap bound m/t is below tolerance. The
// caller must supply a strictly feasible starting point (see
// core/p2_subproblem.cpp for the even-split construction + phase-I LP
// fallback).
//
// Two constraint-matrix representations share one implementation:
//   * CSR SparseMatrix — what every caller uses; the Newton system
//     G^T diag(w) G is accumulated row by row over nonzeros only, and an
//     IpmScratch keeps the inner Newton loop free of heap allocation across
//     repeated solves;
//   * dense Matrix — O(m n^2) Newton assembly, kept as the tests' reference
//     for the CSR assembly (BarrierIpm.SparseMatchesDenseOverload).
// Independently of G's form, the Newton matrix is factored densely below
// IpmOptions::sparse_min_dim and by the sparse Cholesky (minimum-degree
// ordering, symbolic analysis once per pattern) above it; the P2 tests'
// reference configuration pins the dense factor at every size. One solve
// runs one Newton loop (ipm.cpp's BarrierState) from start to finish.
#pragma once

#include <cstdint>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "solver/solution.hpp"

namespace sora::solver {

/// Smooth convex objective interface: callers implement value/gradient/
/// Hessian at a point. Hessian must be symmetric PSD on the feasible set.
class ConvexObjective {
 public:
  virtual ~ConvexObjective() = default;
  virtual double value(const linalg::Vec& x) const = 0;
  virtual linalg::Vec gradient(const linalg::Vec& x) const = 0;
  virtual linalg::Matrix hessian(const linalg::Vec& x) const = 0;

  /// Allocation-free variants for the hot Newton loop; `g`/`h` are
  /// preallocated to the right shape and must be fully overwritten.
  /// Defaults fall back to the allocating calls.
  virtual void gradient_into(const linalg::Vec& x, linalg::Vec& g) const {
    g = gradient(x);
  }
  virtual void hessian_into(const linalg::Vec& x, linalg::Matrix& h) const {
    h = hessian(x);
  }

  /// Optional sparse-Hessian interface for the sparse normal-equations path.
  /// hessian_lower_structure appends the Hessian's sparsity pattern as
  /// (row, col) triplets (values ignored; upper-triangle entries are folded
  /// onto the lower triangle, duplicates allowed). The pattern must be FIXED
  /// for the lifetime of the objective — only values may change with x.
  /// Returning false (the default) pins the solver to the dense path.
  virtual bool hessian_lower_structure(
      std::vector<linalg::Triplet>& pattern) const {
    (void)pattern;
    return false;
  }

  /// Write one Hessian value per hessian_lower_structure() entry, in the
  /// same order, into the preallocated `values`. Only called when
  /// hessian_lower_structure() returned true.
  virtual void hessian_lower_values_into(const linalg::Vec& x,
                                         linalg::Vec& values) const {
    (void)x;
    (void)values;
  }
};

struct IpmOptions {
  double tol = 1e-8;            // target duality-gap bound m/t
  double mu = 20.0;             // barrier multiplier growth per outer step
  double t0 = 1.0;              // initial barrier multiplier
  std::size_t max_newton_steps = 4000;  // total across all outer iterations
  // Per-centering cap: the entropic subproblems converge linearly near the
  // center (singular objective blocks), so instead of polishing each center
  // we cap the inner loop and advance t — a long-step barrier scheme.
  std::size_t max_steps_per_center = 40;
  // Budget exhaustion with a gap below this is still reported optimal: the
  // entropic subproblems have singular objective blocks (s-directions), so
  // Newton converges linearly near the end and a slightly relaxed gap is the
  // pragmatic stopping rule.
  double acceptable_gap = 1e-3;
  double newton_tol = 1e-9;     // Newton decrement^2 / 2 threshold
  double line_search_alpha = 0.25;
  double line_search_beta = 0.5;
  // Slack floor shared by derivative assembly AND dual recovery. A slack
  // driven to ~1e-14 would otherwise produce ~1e28 Hessian entries, and a
  // different floor in dual recovery would make near-active rows report
  // inconsistent multipliers to the certificate machinery.
  double slack_floor = 1e-12;
  // Sparse normal-equations switch (docs/SOLVERS.md "Normal-equations
  // pipeline"): the symbolic-once sparse Cholesky takes over when the
  // problem has at least sparse_min_dim variables, the CSR overload is in
  // use, the objective implements hessian_lower_structure(), and the
  // assembled normal matrix has density at most sparse_max_density. Below
  // either threshold the blocked dense kernel wins on constant factors.
  // Tests force the sparse path by dropping sparse_min_dim to 1.
  std::size_t sparse_min_dim = 48;
  double sparse_max_density = 0.45;
};

struct IpmResult {
  SolveStatus status = SolveStatus::kNumericalError;
  linalg::Vec x;
  linalg::Vec ineq_dual;  // lambda_i ≈ 1/(t s_i) at the final center
  double objective = 0.0;
  std::size_t newton_steps = 0;
  std::string detail;

  bool ok() const { return status == SolveStatus::kOptimal; }
};

/// Symbolic-once cache for the sparse normal-equations path, owned by
/// IpmScratch so it survives the per-slot P2 chain. The cache is keyed by a
/// structure signature over the constraint pattern and the objective's
/// Hessian pattern; while the signature holds, every Newton step reuses the
/// fill-reducing ordering, elimination tree, and pattern of L, and assembly
/// scatters through precomputed index maps with no allocation.
struct SparseNormalCache {
  std::uint64_t signature = 0;
  bool valid = false;       // maps below match `signature`
  bool use_sparse = false;  // the cached density-switch decision
  linalg::SymSparse normal;      // t*H_f + G^T diag(w) G, lower triangle
  linalg::SparseCholesky chol;
  std::vector<linalg::Triplet> obj_pattern;  // objective Hessian pattern
  linalg::Vec obj_vals;                      // objective Hessian values
  std::vector<std::size_t> obj_target;   // obj entry k -> normal entry
  std::vector<std::size_t> pair_target;  // per G row, pairs k2 <= k1
};

/// Reusable scratch buffers for solve_barrier. Passing the same instance to
/// repeated solves of same-shaped problems (the per-slot P2 chain) keeps the
/// inner Newton loop free of heap allocation; buffers are (re)sized on entry.
struct IpmScratch {
  linalg::Vec s, inv_s, hess_w, gt_inv_s, s_try, gdx;  // m- and n-sized
  linalg::Vec grad, dx, x_try, centered_x;
  linalg::Matrix hess, chol;
  SparseNormalCache normal;
};

/// x0 must satisfy G x0 < h strictly (checked). G is dense: rows are
/// constraints. Only tests call it, as the reference for the CSR overload.
IpmResult solve_barrier(const ConvexObjective& objective,
                        const linalg::Matrix& g, const linalg::Vec& h,
                        const linalg::Vec& x0, const IpmOptions& options = {},
                        IpmScratch* scratch = nullptr);

/// CSR fast path: identical semantics, Newton assembly over nonzeros only.
IpmResult solve_barrier(const ConvexObjective& objective,
                        const linalg::SparseMatrix& g, const linalg::Vec& h,
                        const linalg::Vec& x0, const IpmOptions& options = {},
                        IpmScratch* scratch = nullptr);

}  // namespace sora::solver
