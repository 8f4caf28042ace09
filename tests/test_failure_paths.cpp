// The structural-infeasibility failure path: a tier-1 cloud (or tier-0
// node, n-tier) with no admissible edges and positive demand must be
// rejected with the clear "no admissible edges/links" message through every
// entry point — not a division by zero, not an opaque solver error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ntier.hpp"
#include "core/p2_subproblem.hpp"
#include "core/predictive.hpp"
#include "core/roa.hpp"
#include "testing/differential.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

// Tier-1 cloud 1 has no admissible edges; demand[t][1] > 0 at every slot.
Instance edgeless_cloud_instance() {
  Instance inst;
  inst.tier2_sites.resize(1);
  inst.tier1_sites.resize(2);
  inst.edges = {{0, 0}};
  inst.edges_of_tier1 = {{0}, {}};
  inst.edges_of_tier2 = {{0}};
  inst.horizon = 2;
  inst.tier2_price = {{1.0}, {1.2}};
  inst.edge_price = {1.0};
  inst.tier2_reconfig = {1.0};
  inst.edge_reconfig = {1.0};
  inst.tier2_capacity = {10.0};
  inst.edge_capacity = {10.0};
  inst.demand = {{1.0, 0.5}, {1.0, 0.5}};
  return inst;
}

template <typename Fn>
void expect_clear_failure(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected util::CheckError mentioning \"" << needle << "\"";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "unclear failure message: " << e.what();
  }
}

constexpr const char* kTwoTierNeedle =
    "has no admissible edges but positive demand";

TEST(FailurePaths, RunRoaSparseRejectsEdgelessCloudWithDemand) {
  const Instance inst = edgeless_cloud_instance();
  expect_clear_failure([&] { run_roa(inst); }, kTwoTierNeedle);
}

TEST(FailurePaths, RunRoaDenseRejectsEdgelessCloudWithDemand) {
  const Instance inst = edgeless_cloud_instance();
  const RoaOptions options = testing::reference_roa_options();
  expect_clear_failure([&] { run_roa(inst, options); }, kTwoTierNeedle);
}

TEST(FailurePaths, SolveP2NamesTheCloudAndSlot) {
  const Instance inst = edgeless_cloud_instance();
  expect_clear_failure(
      [&] {
        solve_p2(inst, InputSeries::truth(inst), 1, Allocation::zeros(1));
      },
      "tier-1 cloud 1 has no admissible edges but positive demand at t=1");
}

TEST(FailurePaths, PredictiveControllersRejectEdgelessCloudWithDemand) {
  const Instance inst = edgeless_cloud_instance();
  ControlOptions options;
  options.window = 2;
  expect_clear_failure([&] { run_rfhc(inst, options); }, kTwoTierNeedle);
  expect_clear_failure([&] { run_rrhc(inst, options); }, kTwoTierNeedle);
}

TEST(FailurePaths, ZeroDemandAtEdgelessCloudStillSolves) {
  // The guard must not over-trigger: zero demand at the edgeless cloud is
  // the legal degenerate case and the whole chain runs through.
  Instance inst = edgeless_cloud_instance();
  for (auto& row : inst.demand) row[1] = 0.0;
  const RoaRun run = run_roa(inst);
  EXPECT_EQ(run.trajectory.horizon(), inst.horizon);
  EXPECT_GT(run.cost.total(), 0.0);
}

// ---- n-tier ----

// Tier-0 node 0 loses all out-links but keeps its (positive) demand.
NTierInstance deadend_ntier_instance() {
  NTierConfig config;
  config.tier_sizes = {3, 2, 2};
  config.sla_k = 1;
  util::Rng rng(7);
  const std::vector<double> trace = {1.0, 0.7};
  NTierInstance inst = build_ntier_instance(config, trace, rng);

  std::vector<NTierLink> links;
  std::vector<double> price, reconfig, capacity;
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    const NTierLink& link = inst.links[l];
    if (link.tier == 0 && link.from == 0) continue;
    links.push_back(link);
    price.push_back(inst.link_price[l]);
    reconfig.push_back(inst.link_reconfig[l]);
    capacity.push_back(inst.link_capacity[l]);
  }
  inst.links = std::move(links);
  inst.link_price = std::move(price);
  inst.link_reconfig = std::move(reconfig);
  inst.link_capacity = std::move(capacity);
  inst.finalize();
  return inst;
}

constexpr const char* kNTierNeedle =
    "tier-0 node 0 has no admissible links but positive demand";

TEST(FailurePaths, NTierEntryPointsRejectDeadEndNodeWithDemand) {
  const NTierInstance inst = deadend_ntier_instance();
  ASSERT_GT(inst.demand[0][0], 0.0);
  ASSERT_TRUE(inst.admissible_links(0).empty());

  expect_clear_failure([&] { run_ntier_roa(inst); }, kNTierNeedle);
  expect_clear_failure([&] { run_ntier_greedy(inst); }, kNTierNeedle);
  expect_clear_failure([&] { run_ntier_offline(inst); }, kNTierNeedle);
  NTierControlOptions options;
  options.window = 2;
  expect_clear_failure([&] { run_ntier_fhc(inst, options); }, kNTierNeedle);
  expect_clear_failure([&] { run_ntier_rrhc(inst, options); }, kNTierNeedle);
}

TEST(FailurePaths, NTierDeadEndWithZeroDemandStillSolves) {
  NTierInstance inst = deadend_ntier_instance();
  for (auto& row : inst.demand) row[0] = 0.0;
  const NTierTrajectory traj = run_ntier_roa(inst);
  ASSERT_EQ(traj.slots.size(), inst.horizon);
  for (std::size_t t = 0; t < inst.horizon; ++t)
    EXPECT_LE(ntier_slot_violation(inst, t, traj.slots[t]), 1e-5);
}

}  // namespace
}  // namespace sora::core
