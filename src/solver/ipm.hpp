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
// barrier's fixed parameters (mu = 20, 40 steps per centering, the Newton
// decrement threshold, the Armijo constants and the slack floor) are named
// constants in ipm.cpp; IpmOptions holds only what callers set. The caller
// must supply a strictly feasible starting point: both P2 models try their
// own anchor (the even split / even spread) and fall back to
// phase1_feasible_point below, which reports a polyhedron without a strict
// interior instead of throwing.
//
// Two constraint-matrix representations share one implementation:
//   * CSR SparseMatrix — what every caller uses. When the objective supplies
//     its Hessian pattern (both P2 models do), the Newton matrix is scattered
//     into a fixed lower-CSR pattern and factored by the sparse Cholesky
//     (minimum-degree ordering, symbolic analysis once per pattern), and an
//     IpmScratch keeps the inner Newton loop free of heap allocation across
//     repeated solves;
//   * dense Matrix — O(m n^2) Newton assembly, kept as the tests' reference
//     for the CSR assembly (BarrierIpm.SparseMatchesDenseOverload).
// The dense Newton system (dense Hessian, G^T diag(w) G accumulated into it,
// blocked dense Cholesky) serves the dense overload, objectives without a
// Hessian pattern, and the P2 tests' reference configuration, which sets
// IpmOptions::dense_newton. One solve runs one Newton loop (ipm.cpp's
// BarrierState) from start to finish.
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

  /// Gradient and dense Hessian at x, written into `g`/`h`, which are
  /// preallocated to the right shape and must be fully overwritten.
  virtual void gradient_into(const linalg::Vec& x, linalg::Vec& g) const = 0;
  virtual void hessian_into(const linalg::Vec& x,
                            linalg::Matrix& h) const = 0;

  /// Optional sparse-Hessian interface for the sparse normal-equations path.
  /// hessian_lower_structure appends the Hessian's sparsity pattern as
  /// (row, col) triplets (values ignored; upper-triangle entries are folded
  /// onto the lower triangle, duplicates allowed). The pattern must be FIXED
  /// for the lifetime of the objective — only values may change with x.
  /// Returning false (the default) pins the solver to the dense Newton
  /// system.
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
  double t0 = 1.0;              // initial barrier multiplier
  std::size_t max_newton_steps = 4000;  // total across all outer iterations
  // Budget exhaustion with a gap below this is still reported optimal: the
  // entropic subproblems have singular objective blocks (s-directions), so
  // Newton converges linearly near the end and a slightly relaxed gap is the
  // pragmatic stopping rule.
  double acceptable_gap = 1e-3;
  // Assemble and factor the Newton system densely even where the sparse
  // Cholesky applies. Only the tests' reference configuration
  // (testing::reference_roa_options) sets it.
  bool dense_newton = false;
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
  bool valid = false;  // maps below match `signature`
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

/// A start for solve_barrier: the phase-I LP  max m  s.t.  G x + m <= h,
/// 0 <= m <= 1, solved by the simplex. ok() (status kOptimal) when its
/// margin exceeds 1e-9, and then G x < h strictly. Otherwise the
/// polyhedron has no strict interior and the barrier cannot start: status
/// is kPrimalInfeasible for a margin at or below 1e-9, else the LP's own
/// failure, and `detail` says which. Never throws.
struct StrictStart {
  SolveStatus status = SolveStatus::kNumericalError;
  linalg::Vec x;
  std::string detail;

  bool ok() const { return status == SolveStatus::kOptimal; }
};
StrictStart phase1_feasible_point(const linalg::SparseMatrix& g,
                                  const linalg::Vec& h);

}  // namespace sora::solver
