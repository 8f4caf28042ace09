#include "testing/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "core/competitive.hpp"
#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "util/check.hpp"

namespace sora::testing {
namespace {

using cloudnet::Instance;
using core::Allocation;
using core::InputSeries;
using linalg::Vec;

class Collector {
 public:
  Collector(InvariantReport& report, double tol, std::size_t slot)
      : report_(report), tol_(tol), slot_(slot) {}

  /// Requires value >= bound - tol; records `name` otherwise.
  void require_ge(const char* name, double value, double bound,
                  const std::string& detail) {
    if (value >= bound - tol_) return;
    report_.violations.push_back(
        {name, slot_, (bound - tol_) - value, detail});
  }

  /// Requires value <= bound + tol.
  void require_le(const char* name, double value, double bound,
                  const std::string& detail) {
    require_ge(name, bound, value, detail);
  }

 private:
  InvariantReport& report_;
  double tol_;
  std::size_t slot_;
};

std::string at_edge(std::size_t e) { return "edge " + std::to_string(e); }
std::string at_tier1(std::size_t j) { return "tier-1 " + std::to_string(j); }
std::string at_tier2(std::size_t i) { return "tier-2 " + std::to_string(i); }

void check_slot(const Instance& inst, std::size_t t, const Allocation& a,
                const InvariantOptions& options, InvariantReport& report) {
  core::for_each_p1_row(inst, t, a, [&](const core::P1Row& row) {
    if (row.excess <= options.feas_tol) return;
    report.violations.push_back(
        {row.name, t, row.excess - options.feas_tol,
         std::string(row.scope) + " " + std::to_string(row.index)});
  });
}

}  // namespace

std::string InvariantReport::summary() const {
  std::vector<const InvariantViolation*> sorted;
  sorted.reserve(violations.size());
  for (const auto& v : violations) sorted.push_back(&v);
  std::sort(sorted.begin(), sorted.end(),
            [](const InvariantViolation* a, const InvariantViolation* b) {
              return a->magnitude > b->magnitude;
            });
  std::ostringstream os;
  for (const auto* v : sorted)
    os << v->invariant << " violated at slot " << v->slot << " by "
       << v->magnitude << " (" << v->detail << ")\n";
  return os.str();
}

InvariantReport check_trajectory(const Instance& inst,
                                 const core::Trajectory& traj,
                                 const InvariantOptions& options) {
  InvariantReport report;
  if (traj.horizon() != inst.horizon) {
    report.violations.push_back(
        {"horizon", 0,
         static_cast<double>(traj.horizon() > inst.horizon
                                 ? traj.horizon() - inst.horizon
                                 : inst.horizon - traj.horizon()),
         "trajectory has " + std::to_string(traj.horizon()) + " slots, " +
             "instance horizon is " + std::to_string(inst.horizon)});
    return report;
  }
  for (std::size_t t = 0; t < traj.horizon(); ++t)
    check_slot(inst, t, traj.slots[t], options, report);
  return report;
}

InvariantReport check_p2_solution(const Instance& inst,
                                  const InputSeries& inputs, std::size_t t,
                                  const core::P2Solution& sol,
                                  const InvariantOptions& options) {
  InvariantReport report;
  Collector c(report, options.feas_tol, t);
  const Allocation& a = sol.alloc;
  const bool with_z = inst.has_tier1();
  const std::size_t E = inst.num_edges();
  SORA_CHECK(sol.s.size() == E && a.x.size() == E && a.y.size() == E);

  double total_demand = 0.0;
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    total_demand += inputs.lambda(t, j);

  for (std::size_t e = 0; e < E; ++e) {
    c.require_ge("(3a) x>=s", a.x[e], sol.s[e], at_edge(e));
    c.require_ge("(3b) y>=s", a.y[e], sol.s[e], at_edge(e));
    if (with_z) c.require_ge("(3f') z>=s", a.z[e], sol.s[e], at_edge(e));
    c.require_ge("nonnegativity(3f)", sol.s[e], 0.0, "s " + at_edge(e));
    c.require_ge("nonnegativity(3f)", a.x[e], 0.0, "x " + at_edge(e));
    c.require_ge("nonnegativity(3f)", a.y[e], 0.0, "y " + at_edge(e));
    c.require_le("edge-capacity(1c)", a.y[e], inst.edge_capacity[e],
                 at_edge(e));
  }

  // (3c): per tier-1 cloud, the auxiliaries cover demand.
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double covered = 0.0;
    for (const std::size_t e : inst.edges_of_tier1[j]) covered += sol.s[e];
    c.require_ge("(3c) coverage", covered, inputs.lambda(t, j), at_tier1(j));
  }

  // (3d): when total demand exceeds C_i, the other clouds' x must absorb
  // the excess — the Lemma-1 feasibility-transfer row, which P2 leaves out
  // because (3a), (3c) and (1b) imply it.
  const Vec totals = core::tier2_totals(inst, a.x);
  const double grand_total = linalg::sum(totals);
  for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
    c.require_le("tier2-capacity(1b)", totals[i], inst.tier2_capacity[i],
                 at_tier2(i));
    const double rhs = total_demand - inst.tier2_capacity[i];
    if (rhs <= 0.0) continue;
    c.require_ge("transfer(3d)", grand_total - totals[i], rhs, at_tier2(i));
  }

  // (3e): per edge e of cloud j, the other edges of j must be able to carry
  // lambda_j - B_e (implied by (3b), (3c) and (1c)).
  for (std::size_t e = 0; e < E; ++e) {
    const std::size_t j = inst.edges[e].tier1;
    const double rhs = inputs.lambda(t, j) - inst.edge_capacity[e];
    if (rhs <= 0.0) continue;
    double others = 0.0;
    for (const std::size_t e2 : inst.edges_of_tier1[j])
      if (e2 != e) others += a.y[e2];
    c.require_ge("transfer(3e)", others, rhs, at_edge(e));
  }

  if (with_z) {
    const Vec z_totals = core::tier1_totals(inst, a.z);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      c.require_le("tier1-capacity(1d)", z_totals[j], inst.tier1_capacity[j],
                   at_tier1(j));
  }
  return report;
}

RatioCheck check_theorem1(const Instance& inst, const core::RoaRun& run,
                          double eps, double eps_prime, double rel_slack) {
  RatioCheck check;
  const core::Trajectory offline = core::solve_offline(inst);
  check.online_cost = run.cost.total();
  check.offline_cost = core::total_cost(inst, offline).total();
  check.theoretical_ratio = core::theoretical_ratio(inst, eps, eps_prime);
  if (check.offline_cost > 0.0)
    check.empirical_ratio =
        core::empirical_ratio(check.online_cost, check.offline_cost);
  const double slack = rel_slack * (1.0 + check.offline_cost);
  check.within_bound =
      check.online_cost <=
      check.theoretical_ratio * check.offline_cost + slack;
  // The offline LP is a relaxation-free optimum: any feasible online
  // trajectory (Lemma 1 guarantees ROA's is) can never cost less. A cheaper
  // online run means the offline solver (or the cost accounting) is broken.
  check.offline_is_lower = check.online_cost >= check.offline_cost - slack;
  return check;
}

}  // namespace sora::testing
