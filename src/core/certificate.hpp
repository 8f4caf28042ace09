// Numerical competitive certificate — the paper's Steps 2-4 made executable.
//
// The competitive analysis works by (Step 2) relaxing P1 to P3 (capacity
// constraints replaced by the transfer constraints (7d)/(7e), [.]^+
// linearised), taking P3's Lagrange dual P4, and (Step 3) mapping the KKT
// multipliers of each regularized subproblem P2(t) to a feasible point of
// P4. Weak duality then gives a LOWER bound D on the offline optimum without
// ever solving the offline problem, and Step 4 shows
// cost(ROA) <= r * D <= r * OPT(P1).
//
// This repo's P2 keeps the capacity rows (1b)/(1c) and leaves out the
// transfer rows (3d)/(3e), which are sums of (3a)-(3c) and (1b)/(1c) (see
// core/p2_subproblem.hpp). With no (3d)/(3e) multipliers to carry, the
// matching (7d)/(7e) rows of P3 would get zero duals, so they are left out
// as well: D and A^T y are unchanged, and a P3 with fewer rows is still a
// relaxation of P1, so D <= OPT(P1) holds as before.
//
// This module reconstructs that pipeline numerically: it builds P3 as an LP
// over the whole horizon, assembles the dual point from the per-slot P2
// multipliers plus the closed forms
//     alpha_it = (b_i/eta_i)  ln((C_i + eps )/(X*_{i,t-1} + eps )),
//     beta_et  = (d_e/eta'_e) ln((B_e + eps')/(y*_{e,t-1} + eps')),
// verifies dual feasibility (reduced costs and sign constraints, up to the
// barrier solver's accuracy), and reports the certified bound. Instances
// with the tier-1 term get the mirrored z construction.
#pragma once

#include "core/roa.hpp"
#include "core/types.hpp"

namespace sora::core {

struct CertificateReport {
  double online_cost = 0.0;       // P1 objective of the ROA trajectory
  double dual_objective = 0.0;    // D: the constructed P4 value
  double max_dual_violation = 0.0;  // worst RELATIVE reduced-cost/sign
                                    // violation (scales with the barrier
                                    // solver's gap, not with b)
  double certified_ratio = 0.0;   // online_cost / D  (>= the true ratio)
  double theorem1_ratio = 0.0;    // r from Theorem 1

  /// The certificate numerically supports Theorem 1 when the dual point is
  /// (nearly) feasible and the cost is within r * D.
  bool consistent(double feasibility_tol = 1e-4) const {
    return max_dual_violation <= feasibility_tol &&
           online_cost <= theorem1_ratio * dual_objective *
                              (1.0 + feasibility_tol);
  }
};

/// Run ROA on the instance and construct + check the dual certificate.
CertificateReport verify_competitive_certificate(
    const Instance& inst, const RoaOptions& options = {});

}  // namespace sora::core
