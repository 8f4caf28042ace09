// Predictive controllers on the N-tier model: the Sec. IV results carry
// over — window-1 degeneration, Theorem-4 ordering with exact forecasts,
// feasibility under noisy forecasts via the repair step.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ntier.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

NTierInstance make_3tier(std::size_t horizon, double reconfig_weight,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> trace(horizon);
  for (std::size_t t = 0; t < horizon; ++t)
    trace[t] = 0.5 + 0.4 * std::sin(0.5 * static_cast<double>(t)) +
               0.05 * rng.uniform();
  NTierConfig cfg;
  cfg.tier_sizes = {5, 3, 2};
  cfg.sla_k = 2;
  cfg.reconfig_weight = reconfig_weight;
  util::Rng build_rng(seed + 1);
  return build_ntier_instance(cfg, trace, build_rng);
}

TEST(NTierPredictive, WindowOneFhcEqualsGreedy) {
  const auto inst = make_3tier(6, 50.0, 1);
  NTierControlOptions opts;
  opts.window = 1;
  const auto fhc = run_ntier_fhc(inst, opts);
  const double greedy = ntier_total_cost(inst, run_ntier_greedy(inst));
  EXPECT_NEAR(fhc.cost, greedy, 1e-4 * greedy);
}

TEST(NTierPredictive, AllControllersFeasible) {
  const auto inst = make_3tier(7, 100.0, 2);
  NTierControlOptions opts;
  opts.window = 3;
  for (const auto& run :
       {run_ntier_fhc(inst, opts), run_ntier_rhc(inst, opts),
        run_ntier_rfhc(inst, opts), run_ntier_rrhc(inst, opts)}) {
    ASSERT_EQ(run.trajectory.slots.size(), inst.horizon) << run.algorithm;
    for (std::size_t t = 0; t < inst.horizon; ++t)
      EXPECT_LE(ntier_slot_violation(inst, t, run.trajectory.slots[t]), 1e-4)
          << run.algorithm << " t=" << t;
  }
}

TEST(NTierPredictive, Theorem4OrderingWithExactForecasts) {
  const auto inst = make_3tier(8, 150.0, 3);
  NTierControlOptions opts;
  opts.window = 4;
  const double online = ntier_total_cost(inst, run_ntier_roa(inst, opts.roa));
  const auto rfhc = run_ntier_rfhc(inst, opts);
  const auto rrhc = run_ntier_rrhc(inst, opts);
  EXPECT_LE(rfhc.cost, online * (1.0 + 1e-3));
  EXPECT_LE(rrhc.cost, online * (1.0 + 1e-3));
}

TEST(NTierPredictive, NoisyForecastsStayFeasible) {
  const auto inst = make_3tier(6, 80.0, 4);
  NTierControlOptions opts;
  opts.window = 2;
  opts.prediction = {0.15, 99};
  for (const auto& run :
       {run_ntier_rhc(inst, opts), run_ntier_rrhc(inst, opts)}) {
    for (std::size_t t = 0; t < inst.horizon; ++t)
      EXPECT_LE(ntier_slot_violation(inst, t, run.trajectory.slots[t]), 1e-4)
          << run.algorithm << " t=" << t;
  }
}

TEST(NTierPredictive, RepairNoOpOnFeasiblePlan) {
  const auto inst = make_3tier(4, 50.0, 5);
  const auto greedy = run_ntier_greedy(inst);
  bool repaired = true;
  const auto out = ntier_repair(inst, 0, greedy.slots[0], {}, &repaired);
  EXPECT_FALSE(repaired);
  for (std::size_t v = 0; v < inst.num_nodes(); ++v)
    EXPECT_DOUBLE_EQ(out.node[v], greedy.slots[0].node[v]);
}

TEST(NTierPredictive, RepairCoversFromZero) {
  const auto inst = make_3tier(4, 50.0, 6);
  NTierAllocation zero{linalg::Vec(inst.num_nodes(), 0.0),
                       linalg::Vec(inst.num_links(), 0.0)};
  bool repaired = false;
  const auto out = ntier_repair(inst, 0, zero, {}, &repaired);
  EXPECT_TRUE(repaired);
  EXPECT_LE(ntier_slot_violation(inst, 0, out), 1e-5);
}

}  // namespace
}  // namespace sora::core
