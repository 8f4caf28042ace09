// The competitive certificate (paper Steps 2-4): the dual point built from
// the P2 KKT multipliers must be (numerically) feasible for P4, its value D
// must lower-bound the offline optimum, and the ROA cost must sit within
// Theorem 1's r times D.
#include <gtest/gtest.h>

#include "baselines/offline.hpp"
#include "core/certificate.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;

Instance make_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed, bool with_tier1 = false,
                       std::size_t k = 2) {
  util::Rng rng(seed);
  const auto trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 3;
  cfg.num_tier1 = 5;
  cfg.sla_k = k;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  cfg.model_tier1 = with_tier1;
  return cloudnet::build_instance(cfg, trace);
}

RoaOptions tight_options() {
  RoaOptions opts;
  opts.eps = opts.eps_prime = 0.1;
  // Moderate barrier tolerance: barrier multipliers 1/(t*s) are accurate
  // near the central path, but at extreme t the active slacks sink to the
  // numerical floor and the recovered duals degrade. 1e-6 is the sweet spot
  // (see certificate.hpp).
  opts.ipm.tol = 1e-6;
  return opts;
}

TEST(Certificate, DualPointNearlyFeasible) {
  const Instance inst = make_instance(6, 50.0, 1);
  const auto report = verify_competitive_certificate(inst, tight_options());
  EXPECT_LE(report.max_dual_violation, 2e-2);
  EXPECT_GT(report.dual_objective, 0.0);
}

TEST(Certificate, WeakDualityAgainstOfflineOptimum) {
  const Instance inst = make_instance(8, 100.0, 2);
  const auto report = verify_competitive_certificate(inst, tight_options());
  const double opt = baselines::run_offline_optimum(inst).cost.total();
  // D lower-bounds OPT (up to the numerical dual infeasibility).
  EXPECT_LE(report.dual_objective, opt * (1.0 + 2e-2));
  // And the certified ratio dominates the true ratio.
  EXPECT_GE(report.certified_ratio * opt,
            report.online_cost * (1.0 - 1e-6));
}

TEST(Certificate, Theorem1BoundCertified) {
  for (const double weight : {10.0, 100.0, 1000.0}) {
    const Instance inst = make_instance(6, weight, 3);
    const auto report = verify_competitive_certificate(inst, tight_options());
    EXPECT_TRUE(report.consistent(2e-2))
        << "weight=" << weight << " violation=" << report.max_dual_violation
        << " cost=" << report.online_cost << " r*D="
        << report.theorem1_ratio * report.dual_objective;
  }
}

TEST(Certificate, WorksWithTierOneTerm) {
  const Instance inst = make_instance(6, 50.0, 4, /*with_tier1=*/true);
  const auto report = verify_competitive_certificate(inst, tight_options());
  EXPECT_LE(report.max_dual_violation, 2e-2);
  EXPECT_TRUE(report.consistent(2e-2));
}

// The certificate's ROA pass runs every slot through one workspace: one
// symbolic analysis of the Newton pattern per call, not one per slot.
TEST(Certificate, AnalysesNewtonPatternOnce) {
  const Instance inst = make_instance(6, 50.0, 1);
  obs::set_metrics_enabled(true);
  const obs::Counter& builds =
      obs::Registry::global().counter("sora_ipm_symbolic_builds");
  const auto before = builds.value();
  verify_competitive_certificate(inst, tight_options());
  const auto after = builds.value();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(after - before, 1u);
}

// Sweep: the certificate stays consistent across eps and SLA settings.
class CertificateSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(CertificateSweep, ConsistentEverywhere) {
  const auto [eps, k] = GetParam();
  const Instance inst = make_instance(5, 100.0, 5, false, k);
  RoaOptions opts = tight_options();
  opts.eps = opts.eps_prime = eps;
  const auto report = verify_competitive_certificate(inst, opts);
  EXPECT_TRUE(report.consistent(2e-2))
      << "eps=" << eps << " k=" << k
      << " violation=" << report.max_dual_violation;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CertificateSweep,
    ::testing::Combine(::testing::Values(0.01, 0.1, 1.0),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})));

}  // namespace
}  // namespace sora::core
