#include "core/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/p1_model.hpp"
#include "util/check.hpp"

namespace sora::core {

Vec tier2_totals(const Instance& inst, const Vec& x) {
  SORA_CHECK(x.size() == inst.num_edges());
  Vec totals(inst.num_tier2(), 0.0);
  for (std::size_t e = 0; e < inst.num_edges(); ++e)
    totals[inst.edges[e].tier2] += x[e];
  return totals;
}

Vec tier1_totals(const Instance& inst, const Vec& z) {
  SORA_CHECK(z.size() == inst.num_edges());
  Vec totals(inst.num_tier1(), 0.0);
  for (std::size_t e = 0; e < inst.num_edges(); ++e)
    totals[inst.edges[e].tier1] += z[e];
  return totals;
}

double slot_allocation_cost(const Instance& inst, const SlotInputs& in,
                            const Allocation& alloc) {
  SORA_CHECK(alloc.x.size() == inst.num_edges());
  double cost = 0.0;
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    cost += in.price(inst.edges[e].tier2) * alloc.x[e];
    cost += inst.edge_price[e] * alloc.y[e];
  }
  if (inst.has_tier1()) {
    SORA_CHECK(alloc.z.size() == inst.num_edges());
    for (std::size_t e = 0; e < inst.num_edges(); ++e)
      cost += in.t1_price(inst.edges[e].tier1) * alloc.z[e];
  }
  return cost;
}

double reconfiguration_cost(const Instance& inst, const Allocation& prev,
                            const Allocation& cur) {
  const Vec prev_totals = tier2_totals(inst, prev.x);
  const Vec cur_totals = tier2_totals(inst, cur.x);
  double cost = 0.0;
  for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
    const double inc = cur_totals[i] - prev_totals[i];
    if (inc > 0.0) cost += inst.tier2_reconfig[i] * inc;
  }
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    const double inc = cur.y[e] - prev.y[e];
    if (inc > 0.0) cost += inst.edge_reconfig[e] * inc;
  }
  if (inst.has_tier1()) {
    const Vec prev_t1 = tier1_totals(inst, prev.z);
    const Vec cur_t1 = tier1_totals(inst, cur.z);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      const double inc = cur_t1[j] - prev_t1[j];
      if (inc > 0.0) cost += inst.tier1_reconfig[j] * inc;
    }
  }
  return cost;
}

CostBreakdown total_cost(const Instance& inst, const Trajectory& traj) {
  SORA_CHECK(traj.horizon() <= inst.horizon);
  const InputSeries truth = InputSeries::truth(inst);
  CostBreakdown cost;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < traj.horizon(); ++t) {
    cost.allocation += slot_allocation_cost(
        inst, SlotInputs::at(inst, truth, t), traj.slots[t]);
    cost.reconfiguration += reconfiguration_cost(inst, prev, traj.slots[t]);
    prev = traj.slots[t];
  }
  return cost;
}

std::vector<double> cumulative_cost(const Instance& inst,
                                    const Trajectory& traj) {
  SORA_CHECK(traj.horizon() <= inst.horizon);
  const InputSeries truth = InputSeries::truth(inst);
  std::vector<double> curve;
  curve.reserve(traj.horizon());
  double acc = 0.0;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < traj.horizon(); ++t) {
    acc += slot_allocation_cost(inst, SlotInputs::at(inst, truth, t),
                                traj.slots[t]) +
           reconfiguration_cost(inst, prev, traj.slots[t]);
    curve.push_back(acc);
    prev = traj.slots[t];
  }
  return curve;
}

void for_each_p1_row(const Instance& inst, std::size_t t,
                     const Allocation& alloc,
                     const std::function<void(const P1Row&)>& visit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Every comparison with NaN is false, so a row that read one must say so.
  const auto row = [&visit](const char* name, const char* scope,
                            std::size_t index, double excess) {
    visit({name, scope, index, std::isnan(excess) ? kInf : excess});
  };
  const auto entry = [&row](const char* scope, std::size_t e, double v) {
    row("finite", scope, e, std::isfinite(v) ? 0.0 : kInf);
    row("nonnegativity(1e)", scope, e, -v);
  };
  const bool with_z = inst.has_tier1();
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    entry("x edge", e, alloc.x[e]);
    entry("y edge", e, alloc.y[e]);
    if (with_z) entry("z edge", e, alloc.z[e]);
    row("edge-capacity(1c)", "edge", e, alloc.y[e] - inst.edge_capacity[e]);
  }
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double covered = 0.0;
    for (const std::size_t e : inst.edges_of_tier1[j]) {
      double m = std::min(alloc.x[e], alloc.y[e]);
      if (with_z) m = std::min(m, alloc.z[e]);
      covered += m;
    }
    row("coverage(1a)", "tier-1", j, inst.demand[t][j] - covered);
  }
  const Vec totals = tier2_totals(inst, alloc.x);
  for (std::size_t i = 0; i < inst.num_tier2(); ++i)
    row("tier2-capacity(1b)", "tier-2", i, totals[i] - inst.tier2_capacity[i]);
  if (with_z) {
    const Vec t1 = tier1_totals(inst, alloc.z);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      row("tier1-capacity(1d)", "tier-1", j, t1[j] - inst.tier1_capacity[j]);
  }
}

double slot_violation(const Instance& inst, std::size_t t,
                      const Allocation& alloc) {
  double worst = 0.0;
  for_each_p1_row(inst, t, alloc, [&worst](const P1Row& row) {
    worst = std::max(worst, row.excess);
  });
  return worst;
}

bool is_feasible(const Instance& inst, const Trajectory& traj, double tol) {
  for (std::size_t t = 0; t < traj.horizon(); ++t)
    if (slot_violation(inst, t, traj.slots[t]) > tol) return false;
  return true;
}

}  // namespace sora::core
