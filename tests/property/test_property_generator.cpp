// Generator determinism and structural guarantees across all regimes, the
// sora-repro round-trip that failing property tests rely on, and the scaled
// topologies (determinism, validity, and a solved, invariant-checked run).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cloudnet/instance.hpp"
#include "core/roa.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "testing/repro.hpp"

namespace sora::testing {
namespace {

constexpr std::uint64_t kSeedsPerRegime = 12;

TEST(PropertyGenerator, StructurallySoundAcrossRegimes) {
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const cloudnet::Instance inst = generate_instance(cfg);

      ASSERT_GE(inst.horizon, 2u);
      ASSERT_GE(inst.num_tier1(), 2u);
      ASSERT_GE(inst.num_tier2(), 2u);
      ASSERT_EQ(inst.demand.size(), inst.horizon);
      ASSERT_EQ(inst.tier2_price.size(), inst.horizon);
      ASSERT_EQ(inst.edge_price.size(), inst.num_edges());
      ASSERT_EQ(inst.edge_capacity.size(), inst.num_edges());

      // Edgeless tier-1 clouds must carry zero demand (else infeasible by
      // construction, which the generator promises never to produce).
      for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
        if (!inst.edges_of_tier1[j].empty()) continue;
        for (std::size_t t = 0; t < inst.horizon; ++t)
          EXPECT_EQ(inst.demand[t][j], 0.0) << "t=" << t << " j=" << j;
      }
      for (std::size_t t = 0; t < inst.horizon; ++t)
        for (std::size_t j = 0; j < inst.num_tier1(); ++j)
          EXPECT_GE(inst.demand[t][j], 0.0);
      for (const double p : inst.edge_price) EXPECT_GE(p, 0.0);
    }
  }
}

TEST(PropertyGenerator, RegimesProduceTheirSignatures) {
  // Empty-SLA regime: at least one edgeless tier-1 cloud.
  GeneratorConfig cfg;
  cfg.regime = Regime::kEmptySlaGroups;
  bool found_empty = false;
  for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
    cfg.seed = seed;
    const auto inst = generate_instance(cfg);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      found_empty |= inst.edges_of_tier1[j].empty();
  }
  EXPECT_TRUE(found_empty);

  // Zero-demand regime: some zero entries survive.
  cfg.regime = Regime::kZeroDemand;
  bool found_zero = false;
  for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
    cfg.seed = seed;
    const auto inst = generate_instance(cfg);
    for (const auto& row : inst.demand)
      for (const double d : row) found_zero |= d == 0.0;
  }
  EXPECT_TRUE(found_zero);

  // Saturated regime: some feasibility-transfer row (3d) has a positive
  // right-hand side at some slot — total demand above a single cloud's
  // capacity.
  cfg.regime = Regime::kCapacitySaturated;
  bool found_active = false;
  for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
    cfg.seed = seed;
    const auto inst = generate_instance(cfg);
    for (std::size_t t = 0; t < inst.horizon; ++t)
      for (const double cap : inst.tier2_capacity)
        found_active |= inst.total_demand(t) > cap;
  }
  EXPECT_TRUE(found_active);
}

TEST(PropertyGenerator, DeterministicInSeedAndRegime) {
  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 77;
    const auto a = generate_instance(cfg);
    const auto b = generate_instance(cfg);
    EXPECT_EQ(serialize_instance(a), serialize_instance(b))
        << cfg.describe();
    cfg.seed = 78;
    const auto c = generate_instance(cfg);
    EXPECT_NE(serialize_instance(a), serialize_instance(c));
  }
}

TEST(PropertyGenerator, ReproRoundTripsEveryRegime) {
  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 5;
    SCOPED_TRACE(cfg.describe());
    const auto inst = generate_instance(cfg);
    const std::string text =
        serialize_instance(inst, "context line 1\ncontext line 2");
    const auto back = parse_instance(text);
    // A second serialization (without context) of the parsed instance must
    // reproduce the numeric payload bit-for-bit.
    EXPECT_EQ(serialize_instance(inst), serialize_instance(back));
    ASSERT_EQ(back.num_edges(), inst.num_edges());
    ASSERT_EQ(back.horizon, inst.horizon);
    EXPECT_EQ(back.has_tier1(), inst.has_tier1());
  }
}

TEST(PropertyGenerator, DumpAndLoadFile) {
  GeneratorConfig cfg;
  cfg.seed = 9;
  const auto inst = generate_instance(cfg);
  const std::string path = default_repro_path("generator unit:test");
  // Label sanitization: no characters outside [alnum-_.] in the file name.
  EXPECT_NE(path.find("sora-repro-generator-unit-test.txt"), std::string::npos);
  dump_instance(inst, path, "unit test dump");
  const auto back = load_instance(path);
  EXPECT_EQ(serialize_instance(inst), serialize_instance(back));
  std::remove(path.c_str());
}

TEST(PropertyGenerator, NTierInstancesAreWellFormed) {
  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 3;
    SCOPED_TRACE(cfg.describe());
    const core::NTierInstance inst = generate_ntier_instance(cfg);
    ASSERT_GE(inst.num_tiers, 3u);
    ASSERT_EQ(inst.demand.size(), inst.horizon);
    ASSERT_EQ(inst.link_price.size(), inst.num_links());
    ASSERT_EQ(inst.link_capacity.size(), inst.num_links());
    // Commodities with positive demand can reach the top tier.
    for (std::size_t j = 0; j < inst.num_demands(); ++j) {
      double demand = 0.0;
      for (const auto& row : inst.demand) demand += row[j];
      if (demand > 0.0) {
        EXPECT_FALSE(inst.admissible_links(j).empty());
      }
    }
  }
}

TEST(ScaledGenerator, DeterministicValidAndAutoSelected) {
  ScaledTopologyConfig cfg;
  cfg.num_tier2 = 50;
  cfg.num_tier1 = 400;
  cfg.sla_k = 3;
  cfg.horizon = 2;
  cfg.seed = 5;

  const cloudnet::Instance a = generate_scaled_instance(cfg);
  const cloudnet::Instance b = generate_scaled_instance(cfg);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.tier2_capacity, b.tier2_capacity);
  EXPECT_EQ(a.tier2_price, b.tier2_price);

  EXPECT_EQ(a.num_tier1(), 400u);
  EXPECT_EQ(a.num_tier2(), 50u);
  EXPECT_EQ(a.num_edges(), 400u * 3u);
  EXPECT_TRUE(cloudnet::validate_instance(a).ok);

  // A different seed moves the geography (and hence the demand field).
  cfg.seed = 6;
  const cloudnet::Instance c = generate_scaled_instance(cfg);
  EXPECT_NE(a.demand, c.demand);
}

TEST(ScaledGenerator, SolvesScaledInstance) {
  ScaledTopologyConfig cfg;
  cfg.num_tier2 = 20;
  cfg.num_tier1 = 150;
  cfg.sla_k = 2;
  cfg.horizon = 2;
  cfg.seed = 17;
  const cloudnet::Instance inst = generate_scaled_instance(cfg);

  const core::RoaRun run = core::run_roa(inst, core::RoaOptions{});
  EXPECT_TRUE(run.healthy());

  const auto report = check_trajectory(inst, run.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace sora::testing
