// Cost accounting + P1 window LP tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;

Instance tiny_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed = 1, std::size_t k = 2) {
  util::Rng rng(seed);
  const WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 4;
  cfg.num_tier1 = 6;
  cfg.sla_k = k;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  return cloudnet::build_instance(cfg, trace);
}

TEST(Cost, Tier2TotalsAggregateByCloud) {
  const Instance inst = tiny_instance(4, 10.0);
  Vec x(inst.num_edges(), 1.0);
  const Vec totals = tier2_totals(inst, x);
  double sum = 0.0;
  for (double v : totals) sum += v;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(inst.num_edges()));
  for (std::size_t i = 0; i < inst.num_tier2(); ++i)
    EXPECT_DOUBLE_EQ(totals[i],
                     static_cast<double>(inst.edges_of_tier2[i].size()));
}

TEST(Cost, ReconfigurationChargesOnlyIncreases) {
  const Instance inst = tiny_instance(4, 7.0);
  Allocation a = Allocation::zeros(inst.num_edges());
  Allocation b = Allocation::zeros(inst.num_edges());
  // Increase edge 0's x by 2 and decrease edge 1's y (no charge for y drop).
  b.x[0] = 2.0;
  a.y[1] = 3.0;
  const std::size_t i0 = inst.edges[0].tier2;
  EXPECT_NEAR(reconfiguration_cost(inst, a, b),
              inst.tier2_reconfig[i0] * 2.0, 1e-12);
  // Reverse direction: y grows by 3, x drops by 2 (x drop free).
  EXPECT_NEAR(reconfiguration_cost(inst, b, a), inst.edge_reconfig[1] * 3.0,
              1e-12);
}

TEST(Cost, ReconfigurationAggregatesXWithinCloud) {
  // Moving x between two edges of the SAME tier-2 cloud is free (the paper
  // charges the aggregate sum per cloud).
  const Instance inst = tiny_instance(4, 5.0);
  std::size_t cloud = inst.num_tier2();
  std::size_t e1 = 0, e2 = 0;
  for (std::size_t i = 0; i < inst.num_tier2(); ++i)
    if (inst.edges_of_tier2[i].size() >= 2) {
      cloud = i;
      e1 = inst.edges_of_tier2[i][0];
      e2 = inst.edges_of_tier2[i][1];
      break;
    }
  ASSERT_LT(cloud, inst.num_tier2()) << "need a cloud with 2+ edges";
  Allocation a = Allocation::zeros(inst.num_edges());
  Allocation b = Allocation::zeros(inst.num_edges());
  a.x[e1] = 2.0;
  b.x[e2] = 2.0;
  EXPECT_DOUBLE_EQ(reconfiguration_cost(inst, a, b), 0.0);
}

TEST(Cost, TotalIsSumOfSlots) {
  const Instance inst = tiny_instance(3, 10.0);
  Trajectory traj;
  for (std::size_t t = 0; t < 3; ++t) {
    Allocation a = Allocation::zeros(inst.num_edges());
    const auto split = inst.even_split(t);
    a.x = split;
    a.y = split;
    traj.slots.push_back(a);
  }
  const CostBreakdown cost = total_cost(inst, traj);
  const auto curve = cumulative_cost(inst, traj);
  EXPECT_NEAR(curve.back(), cost.total(), 1e-9);
  EXPECT_EQ(curve.size(), 3u);
  EXPECT_GT(cost.allocation, 0.0);
  EXPECT_GT(cost.reconfiguration, 0.0);  // first slot ramps up from zero
}

TEST(Cost, EvenSplitIsFeasible) {
  const Instance inst = tiny_instance(5, 10.0);
  Trajectory traj;
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    Allocation a = Allocation::zeros(inst.num_edges());
    a.x = inst.even_split(t);
    a.y = a.x;
    traj.slots.push_back(a);
  }
  EXPECT_TRUE(is_feasible(inst, traj, 1e-9));
}

// Every comparison with NaN is false, so a max-fold over the rows would
// skip a NaN entry: the one P1 slot check reports it as infinitely violated.
TEST(Cost, ViolationIsInfiniteOnNonFiniteEntry) {
  const Instance inst = tiny_instance(3, 10.0);
  Trajectory traj;
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    Allocation a = Allocation::zeros(inst.num_edges());
    a.x = inst.even_split(t);
    a.y = a.x;
    traj.slots.push_back(a);
  }
  ASSERT_TRUE(is_feasible(inst, traj));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (Vec Allocation::*entries : {&Allocation::x, &Allocation::y}) {
      Trajectory poisoned = traj;
      (poisoned.slots[1].*entries)[0] = bad;
      EXPECT_EQ(slot_violation(inst, 1, poisoned.slots[1]), inf) << bad;
      EXPECT_FALSE(is_feasible(inst, poisoned)) << bad;
    }
  }
}

TEST(Cost, ViolationDetectsUnderCoverage) {
  const Instance inst = tiny_instance(2, 10.0);
  Allocation a = Allocation::zeros(inst.num_edges());
  const double v = slot_violation(inst, 0, a);
  EXPECT_NEAR(v, 1.0, 0.5);  // roughly the per-tier-1 demand (peak-1 trace)
}

TEST(P1Model, OneShotCoversDemandExactly) {
  const Instance inst = tiny_instance(6, 10.0);
  const Allocation zero = Allocation::zeros(inst.num_edges());
  const Allocation a =
      solve_one_shot(inst, InputSeries::truth(inst), 0, zero);
  EXPECT_LE(slot_violation(inst, 0, a), 1e-7);
  // Greedy allocates no more than demand in aggregate coverage terms: the
  // min(x, y) coverage should match demand almost exactly.
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double covered = 0.0;
    for (const std::size_t e : inst.edges_of_tier1[j])
      covered += std::min(a.x[e], a.y[e]);
    EXPECT_NEAR(covered, inst.demand[0][j], 1e-6);
  }
}

TEST(P1Model, OfflineBeatsGreedySequence) {
  const Instance inst = tiny_instance(10, 100.0, /*seed=*/3);
  Trajectory greedy;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    prev = solve_one_shot(inst, InputSeries::truth(inst), t, prev);
    greedy.slots.push_back(prev);
  }
  const Trajectory offline = solve_offline(inst);
  EXPECT_TRUE(is_feasible(inst, offline, 1e-6));
  EXPECT_LE(total_cost(inst, offline).total(),
            total_cost(inst, greedy).total() + 1e-6);
}

TEST(P1Model, OfflineMatchesBruteWindowCombination) {
  // Offline over [0, T) must cost no more than any greedy/window hybrid.
  const Instance inst = tiny_instance(6, 50.0, /*seed=*/4);
  const Trajectory offline = solve_offline(inst);
  const Trajectory two_blocks = [&] {
    const Trajectory first =
        solve_p1_window(inst, InputSeries::truth(inst), 0, 3,
                        Allocation::zeros(inst.num_edges()))
            .value();
    Trajectory combined = first;
    const Trajectory second =
        solve_p1_window(inst, InputSeries::truth(inst), 3, 6,
                        first.slots.back())
            .value();
    for (const auto& s : second.slots) combined.slots.push_back(s);
    return combined;
  }();
  EXPECT_LE(total_cost(inst, offline).total(),
            total_cost(inst, two_blocks).total() + 1e-6);
}

TEST(P1Model, PinnedTerminalIsRespected) {
  const Instance inst = tiny_instance(5, 20.0, /*seed=*/5);
  const Allocation zero = Allocation::zeros(inst.num_edges());
  // Pin the final slot to the even split.
  Allocation pin = Allocation::zeros(inst.num_edges());
  pin.x = inst.even_split(4);
  pin.y = pin.x;
  const Trajectory traj =
      solve_p1_window(inst, InputSeries::truth(inst), 0, 5, zero, &pin)
          .value();
  ASSERT_EQ(traj.horizon(), 5u);
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    EXPECT_NEAR(traj.slots[4].x[e], pin.x[e], 1e-7);
    EXPECT_NEAR(traj.slots[4].y[e], pin.y[e], 1e-7);
  }
  EXPECT_TRUE(is_feasible(inst, traj, 1e-6));
}

TEST(P1Model, HigherReconfigWeightSmoothsOffline) {
  // With a huge reconfiguration price the offline optimum's aggregate
  // allocation becomes flatter (fewer ups and downs) than with a tiny one.
  const Instance cheap = tiny_instance(12, 0.1, /*seed=*/6);
  const Instance dear = tiny_instance(12, 1000.0, /*seed=*/6);
  auto variation = [](const Instance& inst, const Trajectory& traj) {
    double var = 0.0;
    Vec prev(inst.num_tier2(), 0.0);
    for (const auto& slot : traj.slots) {
      const Vec totals = tier2_totals(inst, slot.x);
      for (std::size_t i = 0; i < totals.size(); ++i)
        var += std::fabs(totals[i] - prev[i]);
      prev = totals;
    }
    return var;
  };
  const double v_cheap = variation(cheap, solve_offline(cheap));
  const double v_dear = variation(dear, solve_offline(dear));
  EXPECT_LT(v_dear, v_cheap);
}

}  // namespace
}  // namespace sora::core
