#include "baselines/lcp_m.hpp"

#include <algorithm>
#include <string>

#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "core/p2_subproblem.hpp"
#include "core/resilience.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sora::baselines {
namespace {

using core::Allocation;
using core::Instance;
using solver::kInf;
using solver::LinTerm;
using solver::LpBuilder;

// One-shot optimum with the reconfiguration cost reversed in time: charges
// b_i [X_prev - X]^+ and d_e [y_prev - y]^+ (decreases), so the solution
// stays high while operating prices are below the reconfiguration prices.
Allocation reversed_one_shot(const Instance& inst, std::size_t t,
                             const Allocation& prev,
                             const solver::LpSolveOptions& lp) {
  const std::size_t E = inst.num_edges();
  const bool with_z = inst.has_tier1();
  LpBuilder b;
  for (std::size_t e = 0; e < E; ++e)  // x
    b.add_variable(0.0, kInf, inst.tier2_price[t][inst.edges[e].tier2]);
  for (std::size_t e = 0; e < E; ++e)  // y
    b.add_variable(0.0, inst.edge_capacity[e], inst.edge_price[e]);
  for (std::size_t e = 0; e < E; ++e)  // s
    b.add_variable(0.0, kInf, 0.0);
  for (std::size_t i = 0; i < inst.num_tier2(); ++i)  // u (reversed)
    b.add_variable(0.0, kInf, inst.tier2_reconfig[i]);
  for (std::size_t e = 0; e < E; ++e)  // w (reversed)
    b.add_variable(0.0, kInf, inst.edge_reconfig[e]);
  const auto xv = [](std::size_t e) { return e; };
  const auto yv = [E](std::size_t e) { return E + e; };
  const auto sv = [E](std::size_t e) { return 2 * E + e; };
  const auto uv = [E](std::size_t i) { return 3 * E + i; };
  const auto wv = [E, &inst](std::size_t e) {
    return 3 * E + inst.num_tier2() + e;
  };
  const std::size_t z_base = 4 * E + inst.num_tier2();
  if (with_z) {
    for (std::size_t e = 0; e < E; ++e)  // z
      b.add_variable(0.0, kInf, inst.tier1_price[t][inst.edges[e].tier1]);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)  // v (reversed)
      b.add_variable(0.0, kInf, inst.tier1_reconfig[j]);
  }
  const auto zv = [z_base](std::size_t e) { return z_base + e; };
  const auto vv = [z_base, E](std::size_t j) { return z_base + E + j; };

  for (std::size_t e = 0; e < E; ++e) {
    b.add_ge({{xv(e), 1.0}, {sv(e), -1.0}}, 0.0);
    b.add_ge({{yv(e), 1.0}, {sv(e), -1.0}}, 0.0);
    if (with_z) b.add_ge({{zv(e), 1.0}, {sv(e), -1.0}}, 0.0);
    // w_e >= prev_y - y_e.
    b.add_ge({{wv(e), 1.0}, {yv(e), 1.0}}, prev.y[e]);
  }
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    std::vector<LinTerm> terms;
    for (const std::size_t e : inst.edges_of_tier1[j])
      terms.push_back({sv(e), 1.0});
    b.add_ge(terms, inst.demand[t][j]);
  }
  const auto prev_totals = core::tier2_totals(inst, prev.x);
  for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
    std::vector<LinTerm> cap_terms;
    std::vector<LinTerm> rev_terms{{uv(i), 1.0}};
    for (const std::size_t e : inst.edges_of_tier2[i]) {
      cap_terms.push_back({xv(e), 1.0});
      rev_terms.push_back({xv(e), 1.0});
    }
    if (!cap_terms.empty()) b.add_le(cap_terms, inst.tier2_capacity[i]);
    // u_i >= prevX_i - X_i.
    b.add_ge(rev_terms, prev_totals[i]);
  }
  if (with_z) {
    const auto prev_t1 = core::tier1_totals(inst, prev.z);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      std::vector<LinTerm> cap_terms;
      std::vector<LinTerm> rev_terms{{vv(j), 1.0}};
      for (const std::size_t e : inst.edges_of_tier1[j]) {
        cap_terms.push_back({zv(e), 1.0});
        rev_terms.push_back({zv(e), 1.0});
      }
      if (!cap_terms.empty()) b.add_le(cap_terms, inst.tier1_capacity[j]);
      b.add_ge(rev_terms, prev_t1[j]);
    }
  }

  const auto sol = core::solve_lp_with_fallback(b.build(), lp);
  SORA_CHECK_MSG(sol.ok(), "LCP-M reversed one-shot failed: " + sol.detail);
  Allocation out = Allocation::zeros(E);
  for (std::size_t e = 0; e < E; ++e) {
    out.x[e] = std::max(0.0, sol.x[xv(e)]);
    out.y[e] = std::max(0.0, sol.x[yv(e)]);
    if (with_z) out.z[e] = std::max(0.0, sol.x[zv(e)]);
  }
  return out;
}

}  // namespace

BaselineRun run_lcp_m(const Instance& inst, const solver::LpSolveOptions& lp) {
  util::Timer timer;
  BaselineRun run;
  const auto inputs = core::InputSeries::truth(inst);

  // "Infinite previous" allocation: with prev at the capacities, increases
  // are never charged, so the one-shot solve returns the pure allocation
  // minimum — the lazy band's lower target.
  Allocation at_capacity = Allocation::zeros(inst.num_edges());
  {
    // Spread each tier-2 capacity across its edges.
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      const auto& ids = inst.edges_of_tier2[i];
      for (const std::size_t e : ids)
        at_capacity.x[e] =
            inst.tier2_capacity[i] / static_cast<double>(ids.size());
    }
    for (std::size_t e = 0; e < inst.num_edges(); ++e)
      at_capacity.y[e] = inst.edge_capacity[e];
    if (inst.has_tier1()) {
      for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
        const auto& ids = inst.edges_of_tier1[j];
        for (const std::size_t e : ids)
          at_capacity.z[e] =
              inst.tier1_capacity[j] / static_cast<double>(ids.size());
      }
    }
  }

  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const Allocation lower = core::solve_one_shot(inst, inputs, t, at_capacity, lp);
    const Allocation upper = reversed_one_shot(inst, t, prev, lp);

    // Per-variable lazy principle.
    Allocation next = Allocation::zeros(inst.num_edges());
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      const double lo_x = std::min(lower.x[e], upper.x[e]);
      const double hi_x = std::max(lower.x[e], upper.x[e]);
      next.x[e] = std::clamp(prev.x[e], lo_x, hi_x);
      const double lo_y = std::min(lower.y[e], upper.y[e]);
      const double hi_y = std::max(lower.y[e], upper.y[e]);
      next.y[e] = std::clamp(prev.y[e], lo_y, hi_y);
      if (inst.has_tier1()) {
        const double lo_z = std::min(lower.z[e], upper.z[e]);
        const double hi_z = std::max(lower.z[e], upper.z[e]);
        next.z[e] = std::clamp(prev.z[e], lo_z, hi_z);
      }
    }
    // The per-variable combination can break the coupled coverage
    // constraint; patch with the minimal additive repair (this decoupling is
    // exactly why LCP-M underperforms in the multi-tier setting).
    core::CoverageRepair rep = core::repair_coverage(
        inst, core::SlotInputs::at(inst, inputs, t), next, lp);
    SORA_CHECK_MSG(rep.outcome.ok(), "LCP-M repair LP failed at t=" +
                                         std::to_string(t) + ": " +
                                         rep.outcome.detail);
    prev = rep.alloc;
    run.trajectory.slots.push_back(std::move(rep.alloc));
  }
  run.cost = core::total_cost(inst, run.trajectory);
  run.solve_seconds = timer.seconds();
  return run;
}

}  // namespace sora::baselines
