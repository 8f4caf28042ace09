// Differential oracle: one instance, every backend, asserted agreement.
//
// Two comparison planes:
//   * differential_roa — the regularized online chain through three
//     configurations of the one P2 workspace: the reference configuration
//     (reference_roa_options: cold, fail-fast, dense Newton path), the
//     production configuration cold-started, and the production
//     configuration warm-started. All three must produce the same
//     trajectory to tolerance (they solve the same strictly convex
//     subproblems), and each trajectory must pass the P1 invariant checker.
//   * differential_lp — the P1 window LP through the simplex and PDHG
//     backends (solver::cross_check): objective agreement plus primal
//     feasibility of both answers.
//
// On any mismatch the offending instance is dumped to a sora-repro file
// (see repro.hpp) and the dump path is embedded in the report, so a CI
// failure ships its own reproducer.
#pragma once

#include <string>
#include <vector>

#include "cloudnet/instance.hpp"
#include "core/p2_subproblem.hpp"
#include "solver/lp_solve.hpp"

namespace sora::testing {

/// The tests' reference configuration of the one P2 model: every slot
/// cold-started, the fallback chain off (a failed solve throws instead of
/// being masked), and the IPM pinned to its dense Newton system (Hessian
/// through hessian_into, dense Cholesky) by IpmOptions::dense_newton. The
/// cross-checks compare production configurations, which factor sparse,
/// against it.
core::RoaOptions reference_roa_options();

struct DiffOptions {
  // Inner-solver accuracy for the ROA backends. Tight, so all backends
  // converge to the unique optimum of each strictly convex subproblem.
  double ipm_tol = 1e-9;
  // Max per-edge |x_a - x_b| (and |y_a - y_b|) across backend pairs.
  double primal_tol = 2e-4;
  // Relative total-cost agreement across backends.
  double cost_tol = 1e-4;
  // Relative simplex-vs-PDHG objective gap on the window LP.
  double lp_gap_tol = 1e-5;
  // Max constraint violation allowed for each LP backend's primal answer.
  double lp_feas_tol = 1e-5;
  bool dump_on_failure = true;
};

struct DiffMismatch {
  std::string what;        // "reference-vs-warm x@t0", "lp objective gap", ...
  double magnitude = 0.0;  // observed disagreement
  std::string repro_path;  // "" when dumping is disabled or failed
};

struct DiffReport {
  std::vector<DiffMismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string summary() const;
};

/// Compare the three ROA configurations (reference / cold / warm) on `inst`
/// and invariant-check each trajectory. `label` keys the repro dump.
DiffReport differential_roa(const cloudnet::Instance& inst,
                            const std::string& label,
                            const DiffOptions& options = {});

/// Cross-check the P1 LP over [0, min(2, T)) between simplex and PDHG.
DiffReport differential_lp(const cloudnet::Instance& inst,
                           const std::string& label,
                           const DiffOptions& options = {});

}  // namespace sora::testing
