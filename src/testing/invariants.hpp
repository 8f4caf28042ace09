// Invariant checking for ROA trajectories and P2 solutions.
//
// The checks are the paper's guarantees, mechanically enforced on arbitrary
// instances (equation numbers follow the paper):
//   * coverage (1a): per tier-1 cloud, sum_e min(x_e, y_e[, z_e]) >= lambda
//   * capacities (1b)/(1c) (+ (1d) with the tier-1 term)
//   * P2 rows (3a)-(3c): x >= s, y >= s, per-cloud sum s >= lambda
//   * feasibility transfer (3d)/(3e): the Lemma-1 rows that make the P2
//     chain feasible for P1. P2 does not generate them (each is a sum of
//     (3a)-(3c) and a capacity row), so these checks test that identity on
//     every solved slot
//   * nonnegativity (3f)
//   * Theorem 1: total online cost <= r * offline P1 optimum, and the
//     offline optimum is a true lower bound for every feasible trajectory.
//
// Reports name the violated invariant, the slot, and the magnitude so a
// property-test failure reads like a paper reference, not a solver dump.
#pragma once

#include <string>
#include <vector>

#include "core/p2_subproblem.hpp"
#include "core/roa.hpp"
#include "core/types.hpp"

namespace sora::testing {

struct InvariantViolation {
  std::string invariant;  // e.g. "coverage(1a)", "transfer(3d)"
  std::size_t slot = 0;
  double magnitude = 0.0;  // how far past the tolerance
  std::string detail;
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  /// One line per violation, worst first.
  std::string summary() const;
};

struct InvariantOptions {
  double feas_tol = 1e-6;  // absolute slack allowed on every constraint
};

/// P1 feasibility of a whole trajectory: coverage (1a), capacities
/// (1b)/(1c)/(1d), nonnegativity, per slot.
InvariantReport check_trajectory(const cloudnet::Instance& inst,
                                 const core::Trajectory& traj,
                                 const InvariantOptions& options = {});

/// P2(t) constraint satisfaction of one solution: (3a)-(3f), the capacity
/// rows the solver keeps explicit, and the transfer rows (3d)/(3e) they
/// imply.
InvariantReport check_p2_solution(const cloudnet::Instance& inst,
                                  const core::InputSeries& inputs,
                                  std::size_t t, const core::P2Solution& sol,
                                  const InvariantOptions& options = {});

/// Theorem-1 check data: the realized online cost must sit inside
/// [offline, r * offline] (up to rel_slack) where r is the theoretical
/// competitive ratio for the instance's capacities.
struct RatioCheck {
  double online_cost = 0.0;
  double offline_cost = 0.0;
  double empirical_ratio = 0.0;
  double theoretical_ratio = 0.0;
  bool within_bound = false;      // online <= r * offline (Theorem 1)
  bool offline_is_lower = false;  // online >= offline (offline optimality)
  bool ok() const { return within_bound && offline_is_lower; }
};

RatioCheck check_theorem1(const cloudnet::Instance& inst,
                          const core::RoaRun& run, double eps,
                          double eps_prime, double rel_slack = 1e-4);

}  // namespace sora::testing
