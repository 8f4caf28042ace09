// The full three-term model (F_1 + F_12 + F_2): the paper's tier-1
// processing dimension z, which the paper drops from P1 "for ease of
// presentation" and notes all techniques carry over to. These tests verify
// the carry-over: accounting, feasibility semantics (min over x, y, z),
// Lemma-1-style per-slot feasibility of the regularized subproblem, the
// online-vs-offline ordering, predictive repair, and the regression that a
// z-free instance behaves exactly as before.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/lcp_m.hpp"
#include "baselines/offline.hpp"
#include "baselines/oneshot.hpp"
#include "core/competitive.hpp"
#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "core/predictive.hpp"
#include "core/roa.hpp"
#include "core/single_resource.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;

Instance make_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed, bool with_tier1 = true) {
  util::Rng rng(seed);
  const auto trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 3;
  cfg.num_tier1 = 5;
  cfg.sla_k = 2;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  cfg.model_tier1 = with_tier1;
  return cloudnet::build_instance(cfg, trace);
}

TEST(Tier1, InstanceCarriesTheDimension) {
  const Instance inst = make_instance(6, 10.0, 1);
  EXPECT_TRUE(inst.has_tier1());
  EXPECT_EQ(inst.tier1_capacity.size(), inst.num_tier1());
  EXPECT_EQ(inst.tier1_price.size(), inst.horizon);
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    EXPECT_NEAR(inst.tier1_capacity[j], 1.25, 1e-9);  // margin * peak(=1)
  const auto report = cloudnet::validate_instance(inst);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? ""
                                                     : report.problems[0]);
}

TEST(Tier1, DisabledInstanceHasNoDimension) {
  const Instance inst = make_instance(6, 10.0, 1, /*with_tier1=*/false);
  EXPECT_FALSE(inst.has_tier1());
}

TEST(Tier1, AllocationCostIncludesZ) {
  const Instance inst = make_instance(3, 10.0, 2);
  Allocation a = Allocation::zeros(inst.num_edges());
  a.z[0] = 2.0;
  const std::size_t j = inst.edges[0].tier1;
  EXPECT_NEAR(slot_allocation_cost(inst, 0, a),
              2.0 * inst.tier1_price[0][j], 1e-12);
}

TEST(Tier1, ReconfigurationAggregatesPerTier1Cloud) {
  const Instance inst = make_instance(3, 7.0, 3);
  // Two edges of the same tier-1 cloud: moving z between them is free.
  std::size_t j = 0;
  ASSERT_GE(inst.edges_of_tier1[j].size(), 2u);
  const std::size_t e1 = inst.edges_of_tier1[j][0];
  const std::size_t e2 = inst.edges_of_tier1[j][1];
  Allocation a = Allocation::zeros(inst.num_edges());
  Allocation b = Allocation::zeros(inst.num_edges());
  a.z[e1] = 1.5;
  b.z[e2] = 1.5;
  EXPECT_DOUBLE_EQ(reconfiguration_cost(inst, a, b), 0.0);
  // Growing the aggregate costs f_j per unit.
  Allocation c = Allocation::zeros(inst.num_edges());
  c.z[e1] = 3.0;
  EXPECT_NEAR(reconfiguration_cost(inst, a, c),
              inst.tier1_reconfig[j] * 1.5, 1e-12);
}

TEST(Tier1, CoverageRequiresZ) {
  const Instance inst = make_instance(3, 10.0, 4);
  Allocation a = Allocation::zeros(inst.num_edges());
  a.x = inst.even_split(0);
  a.y = a.x;
  // Without z the slot is NOT covered (min includes z = 0).
  EXPECT_GT(slot_violation(inst, 0, a), 0.5);
  a.z = a.x;
  EXPECT_LE(slot_violation(inst, 0, a), 1e-9);
}

TEST(Tier1, OneShotCoversWithZ) {
  const Instance inst = make_instance(5, 20.0, 5);
  const Allocation a = solve_one_shot(inst, InputSeries::truth(inst), 0,
                                      Allocation::zeros(inst.num_edges()));
  EXPECT_LE(slot_violation(inst, 0, a), 1e-6);
  double z_total = 0.0;
  for (double v : a.z) z_total += v;
  EXPECT_NEAR(z_total, inst.total_demand(0), 1e-5);
}

TEST(Tier1, OfflineBeatsGreedy) {
  const Instance inst = make_instance(8, 200.0, 6);
  const auto greedy = baselines::run_one_shot_sequence(inst);
  const auto offline = baselines::run_offline_optimum(inst);
  EXPECT_TRUE(is_feasible(inst, greedy.trajectory, 1e-6));
  EXPECT_TRUE(is_feasible(inst, offline.trajectory, 1e-6));
  EXPECT_LE(offline.cost.total(), greedy.cost.total() + 1e-6);
}

TEST(Tier1, RoaFeasibleEverySlot) {
  const Instance inst = make_instance(6, 100.0, 7);
  const RoaRun run = run_roa(inst);
  for (std::size_t t = 0; t < inst.horizon; ++t)
    EXPECT_LE(slot_violation(inst, t, run.trajectory.slots[t]), 1e-5)
        << "t=" << t;
}

TEST(Tier1, RoaBeatsGreedyWithExpensiveReconfig) {
  const Instance inst = make_instance(14, 500.0, 8);
  const RoaRun roa = run_roa(inst);
  const auto greedy = baselines::run_one_shot_sequence(inst);
  const auto offline = baselines::run_offline_optimum(inst);
  EXPECT_LT(roa.cost.total(), greedy.cost.total());
  EXPECT_GE(roa.cost.total(), offline.cost.total() - 1e-6);
}

TEST(Tier1, TheoreticalRatioGrowsWithF1Term) {
  const Instance with = make_instance(4, 10.0, 9, true);
  const Instance without = make_instance(4, 10.0, 9, false);
  EXPECT_GT(theoretical_ratio(with, 0.1, 0.1),
            theoretical_ratio(without, 0.1, 0.1));
}

TEST(Tier1, SeparableInstanceMatchesSingleResourceOracle) {
  // 1x1 topology: the z-aggregate decouples into its own single-resource
  // recursion with the tier-1 price series.
  util::Rng rng(10);
  const auto trace = cloudnet::wikipedia_like(10, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 1;
  cfg.num_tier1 = 1;
  cfg.sla_k = 1;
  cfg.reconfig_weight = 30.0;
  cfg.seed = 10;
  cfg.model_tier1 = true;
  const Instance inst = cloudnet::build_instance(cfg, trace);

  RoaOptions options;
  options.eps = options.eps_prime = 0.05;
  options.ipm.tol = 1e-9;
  const RoaRun run = run_roa(inst, options);

  SingleResourceInstance zsub;
  zsub.capacity = inst.tier1_capacity[0];
  zsub.reconfig = inst.tier1_reconfig[0];
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    zsub.demand.push_back(inst.demand[t][0]);
    zsub.price.push_back(inst.tier1_price[t][0]);
  }
  const auto z_expected = single_roa(zsub, options.eps);
  for (std::size_t t = 0; t < inst.horizon; ++t)
    EXPECT_NEAR(run.trajectory.slots[t].z[0], z_expected[t], 2e-3)
        << "t=" << t;
}

TEST(Tier1, RepairCoversShortfallInZ) {
  const Instance inst = make_instance(3, 10.0, 11);
  Allocation a = Allocation::zeros(inst.num_edges());
  a.x = inst.even_split(0);
  a.y = a.x;  // z missing -> under-covered
  const CoverageRepair rep = repair_coverage(
      inst, SlotInputs::at(inst, InputSeries::truth(inst), 0), a);
  EXPECT_TRUE(rep.repaired);
  EXPECT_LE(slot_violation(inst, 0, rep.alloc), 1e-6);
}

TEST(Tier1, PredictiveControllersFeasible) {
  const Instance inst = make_instance(6, 100.0, 12);
  ControlOptions opts;
  opts.window = 2;
  opts.prediction = {0.10, 77};
  for (const ControlRun& run : {run_fhc(inst, opts), run_rhc(inst, opts),
                                run_rfhc(inst, opts), run_rrhc(inst, opts)}) {
    EXPECT_TRUE(is_feasible(inst, run.trajectory, 1e-5)) << run.algorithm;
  }
}

TEST(Tier1, Theorem4HoldsWithF1) {
  const Instance inst = make_instance(8, 150.0, 13);
  ControlOptions opts;
  opts.window = 3;
  const RoaRun online = run_roa(inst, opts.roa);
  const ControlRun rfhc = run_rfhc(inst, opts);
  const ControlRun rrhc = run_rrhc(inst, opts);
  const double tol = 1e-3 * online.cost.total();
  EXPECT_LE(rfhc.cost.total(), online.cost.total() + tol);
  EXPECT_LE(rrhc.cost.total(), online.cost.total() + tol);
}

TEST(Tier1, LcpMFeasibleWithZ) {
  const Instance inst = make_instance(6, 50.0, 14);
  const auto run = baselines::run_lcp_m(inst);
  EXPECT_TRUE(is_feasible(inst, run.trajectory, 1e-5));
}

TEST(Tier1, DisabledRegressionZStaysZero) {
  // With model_tier1 = false everything behaves exactly as the reduced P1:
  // z never becomes nonzero anywhere in the pipeline.
  const Instance inst = make_instance(5, 50.0, 15, /*with_tier1=*/false);
  const RoaRun roa = run_roa(inst);
  const auto greedy = baselines::run_one_shot_sequence(inst);
  for (const auto& traj : {roa.trajectory, greedy.trajectory})
    for (const auto& slot : traj.slots)
      for (double v : slot.z) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace sora::core
