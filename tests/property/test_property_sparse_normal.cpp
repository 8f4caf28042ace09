// Sparse normal-equations property suite: the symbolic-once sparse
// Cholesky path (the production configuration) must agree with the
// reference configuration (the same P2 model on the dense Newton path) on
// real P2 solves across all six generated regimes, analyse its pattern
// exactly once per workspace across a multi-slot ROA run (also on the paper
// and the scaled 32 x 256 topologies, where the factor must stay sparse),
// and survive fault-injected runs through the resilience chain.
#include <gtest/gtest.h>

#include <cmath>

#include "cloudnet/instance.hpp"
#include "cloudnet/workload.hpp"
#include "core/p2_subproblem.hpp"
#include "core/roa.hpp"
#include "obs/obs.hpp"
#include "testing/differential.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"

namespace sora::testing {
namespace {

struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

TEST(PropertySparseNormal, ForcedSparseMatchesDenseAcrossRegimes) {
  constexpr std::uint64_t kSeedsPerRegime = 3;
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);

      core::RoaOptions dense_opts = reference_roa_options();
      dense_opts.ipm.tol = 1e-9;
      core::RoaOptions sparse_opts;
      sparse_opts.ipm.tol = 1e-9;

      const core::InputSeries inputs = core::InputSeries::truth(inst);
      core::Allocation prev = core::Allocation::zeros(inst.num_edges());
      const std::size_t slots = std::min<std::size_t>(inst.horizon, 2);
      for (std::size_t t = 0; t < slots; ++t) {
        const core::P2Solution a =
            core::solve_p2(inst, inputs, t, prev, dense_opts);
        const core::P2Solution b =
            core::solve_p2(inst, inputs, t, prev, sparse_opts);
        EXPECT_NEAR(a.objective, b.objective, 1e-6) << "t=" << t;
        for (std::size_t e = 0; e < inst.num_edges(); ++e) {
          EXPECT_NEAR(a.alloc.x[e], b.alloc.x[e], 1e-6) << "x " << e;
          EXPECT_NEAR(a.alloc.y[e], b.alloc.y[e], 1e-6) << "y " << e;
          EXPECT_NEAR(a.alloc.z[e], b.alloc.z[e], 1e-6) << "z " << e;
        }
        prev = a.alloc;
      }
    }
  }
}

TEST(PropertySparseNormal, SymbolicCacheReusedAcrossSlots) {
  MetricsOn guard;
  auto& reg = obs::Registry::global();
  auto& builds = reg.counter("sora_ipm_symbolic_builds");
  auto& reuse = reg.counter("sora_ipm_symbolic_reuse");

  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 7;
    SCOPED_TRACE(cfg.describe());
    const auto inst = generate_instance(cfg);
    ASSERT_GE(inst.horizon, 2u) << "need a multi-slot chain for reuse";

    const auto builds0 = builds.value();
    const auto reuse0 = reuse.value();
    const core::RoaRun run = core::run_roa(inst, core::RoaOptions{});
    ASSERT_EQ(run.trajectory.horizon(), inst.horizon);
    EXPECT_TRUE(run.healthy());
    // One analysis for the workspace's fixed pattern, then every later slot
    // of the chain hits the cache.
    EXPECT_EQ(builds.value() - builds0, 1u);
    EXPECT_GT(reuse.value(), reuse0);
  }
}

TEST(PropertySparseNormal, PaperTopologyAnalysesOnceWithSparseFactor) {
  // The Fig.-5 deployment (18 x 48 sites, k = 2, b = 10^3, the Wikipedia-like
  // trace) over its first 24 hours. Dense transfer rows (3d) would make the
  // x-block of the Newton matrix dense (nnz(L) ~5,100) and re-trigger the
  // analysis whenever a conditional row switched on or off.
  MetricsOn guard;
  auto& reg = obs::Registry::global();
  auto& builds = reg.counter("sora_ipm_symbolic_builds");
  auto& factor_nonzeros = reg.gauge("sora_ipm_factor_nonzeros");

  util::Rng rng(42);
  cloudnet::InstanceConfig cfg;
  cfg.num_tier2 = 18;
  cfg.num_tier1 = 48;
  cfg.sla_k = 2;
  cfg.reconfig_weight = 1e3;
  cfg.seed = 42;
  const auto inst =
      cloudnet::build_instance(cfg, cloudnet::wikipedia_like(120, rng));
  core::RoaOptions options;
  options.eps = options.eps_prime = 1e-2;

  const auto builds0 = builds.value();
  core::P2Workspace workspace(inst, options);
  const core::InputSeries inputs = core::InputSeries::truth(inst);
  core::Allocation prev = core::Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < 24; ++t) {
    const core::P2Solution sol = workspace.solve(inputs, t, prev);
    ASSERT_TRUE(sol.outcome.ok()) << "t=" << t;
    prev = sol.alloc;
  }
  EXPECT_EQ(builds.value() - builds0, 1u);
  EXPECT_LE(factor_nonzeros.value(), 1300.0);
}

TEST(PropertySparseNormal, ScaledTopologyAnalysesOnceWithLowFill) {
  // 32 x 256 sites, k = 2 (n = 1,536): the fill-reducing ordering decides
  // the factor's size. Minimum degree keeps nnz(L) under 11,000; a
  // reverse Cuthill-McKee ordering of the same pattern fills 17,006.
  MetricsOn guard;
  auto& reg = obs::Registry::global();
  auto& builds = reg.counter("sora_ipm_symbolic_builds");
  auto& factor_nonzeros = reg.gauge("sora_ipm_factor_nonzeros");

  ScaledTopologyConfig cfg;
  cfg.num_tier2 = 32;
  cfg.num_tier1 = 256;
  cfg.sla_k = 2;
  cfg.horizon = 2;
  cfg.seed = 11;
  const auto inst = generate_scaled_instance(cfg);

  const auto builds0 = builds.value();
  const core::RoaRun run = core::run_roa(inst, core::RoaOptions{});
  EXPECT_TRUE(run.healthy());
  EXPECT_EQ(builds.value() - builds0, 1u);
  EXPECT_LE(factor_nonzeros.value(), 11000.0);
}

TEST(PropertySparseNormal, ForcedSparseSurvivesFaultInjection) {
  constexpr std::uint64_t kSeedsPerRegime = 2;
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);

      FaultPlan plan;
      plan.fault_rate = 0.4;
      plan.seed = 1000 * seed + static_cast<std::uint64_t>(regime);
      plan.forced_attempts = 1;
      FaultInjector injector(plan);

      const core::RoaRun run = core::run_roa(inst, core::RoaOptions{});
      ASSERT_EQ(run.trajectory.horizon(), inst.horizon);
      EXPECT_TRUE(std::isfinite(run.cost.total()));
    }
  }
}

}  // namespace
}  // namespace sora::testing
