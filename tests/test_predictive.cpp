// Predictive controllers: Theorem 4 (RFHC/RRHC upper-bounded by the
// prediction-free online algorithm), window-1 degeneration to greedy, the
// repair step, and noisy-prediction robustness.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "core/predictive.hpp"
#include "core/roa.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;

Instance make_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  const WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 3;
  cfg.num_tier1 = 5;
  cfg.sla_k = 2;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  return cloudnet::build_instance(cfg, trace);
}

TEST(Predictions, ExactModelIsIdentity) {
  const Instance inst = make_instance(6, 10.0, 1);
  const PredictedInputs pred = make_predictions(inst, {0.0, 7});
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      EXPECT_DOUBLE_EQ(pred.demand[t][j], inst.demand[t][j]);
    for (std::size_t i = 0; i < inst.num_tier2(); ++i)
      EXPECT_DOUBLE_EQ(pred.tier2_price[t][i], inst.tier2_price[t][i]);
  }
}

TEST(Predictions, NoisyModelPerturbsProportionally) {
  const Instance inst = make_instance(200, 10.0, 2);
  const PredictedInputs pred = make_predictions(inst, {0.15, 7});
  double mean_abs_err = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      mean_abs_err += std::fabs(pred.demand[t][j] - inst.demand[t][j]);
      ++count;
      EXPECT_GE(pred.demand[t][j], 0.0);
    }
  mean_abs_err /= count;
  // Gaussian with sd = 0.15 * mean(demand): E|err| = sd * sqrt(2/pi).
  const double demand_mean = [&] {
    double s = 0.0;
    for (std::size_t t = 0; t < inst.horizon; ++t) s += inst.demand[t][0];
    return s / inst.horizon;
  }();
  const double expected = 0.15 * demand_mean * std::sqrt(2.0 / 3.14159265);
  EXPECT_NEAR(mean_abs_err, expected, 0.35 * expected);
}

TEST(Predictions, ObserveRestoresTruth) {
  const Instance inst = make_instance(5, 10.0, 3);
  PredictedInputs pred = make_predictions(inst, {0.2, 9});
  pred.observe(inst, 2);
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    EXPECT_DOUBLE_EQ(pred.demand[2][j], inst.demand[2][j]);
}

TEST(Repair, NoOpWhenFeasible) {
  const Instance inst = make_instance(4, 10.0, 4);
  Allocation a = Allocation::zeros(inst.num_edges());
  a.x = inst.even_split(0);
  a.y = a.x;
  const CoverageRepair rep = repair_coverage(
      inst, SlotInputs::at(inst, InputSeries::truth(inst), 0), a);
  EXPECT_FALSE(rep.repaired);
  EXPECT_TRUE(rep.outcome.ok());
  for (std::size_t e = 0; e < inst.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(rep.alloc.x[e], a.x[e]);
}

TEST(Repair, CoversShortfallMinimally) {
  const Instance inst = make_instance(4, 10.0, 5);
  Allocation a = Allocation::zeros(inst.num_edges());  // covers nothing
  const CoverageRepair rep = repair_coverage(
      inst, SlotInputs::at(inst, InputSeries::truth(inst), 0), a);
  EXPECT_TRUE(rep.repaired);
  ASSERT_TRUE(rep.outcome.ok());
  const Allocation& out = rep.alloc;
  EXPECT_LE(slot_violation(inst, 0, out), 1e-6);
  // Minimality: total added coverage roughly equals the demand.
  double covered = 0.0;
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    for (const std::size_t e : inst.edges_of_tier1[j])
      covered += std::min(out.x[e], out.y[e]);
  EXPECT_NEAR(covered, inst.total_demand(0), 1e-5);
}

TEST(Controllers, WindowOneEqualsGreedyForFhcRhc) {
  const Instance inst = make_instance(8, 50.0, 6);
  ControlOptions opts;
  opts.window = 1;
  const ControlRun fhc = run_fhc(inst, opts);
  const ControlRun rhc = run_rhc(inst, opts);
  EXPECT_NEAR(fhc.cost.total(), rhc.cost.total(), 1e-5);
  // Both equal the one-shot sequence.
  Trajectory greedy;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    prev = solve_one_shot(inst, InputSeries::truth(inst), t, prev);
    greedy.slots.push_back(prev);
  }
  EXPECT_NEAR(fhc.cost.total(), total_cost(inst, greedy).total(), 1e-4);
}

TEST(Controllers, AllProduceFeasibleTrajectories) {
  const Instance inst = make_instance(9, 100.0, 7);
  ControlOptions opts;
  opts.window = 3;
  for (const ControlRun& run :
       {run_fhc(inst, opts), run_rhc(inst, opts), run_rfhc(inst, opts),
        run_rrhc(inst, opts), run_afhc(inst, opts)}) {
    EXPECT_EQ(run.trajectory.horizon(), inst.horizon) << run.algorithm;
    EXPECT_TRUE(is_feasible(inst, run.trajectory, 1e-5)) << run.algorithm;
  }
}

TEST(Controllers, Theorem4RegularizedBoundedByOnline) {
  // With exact predictions, RFHC and RRHC cost no more than the
  // prediction-free online algorithm (Theorem 4).
  const Instance inst = make_instance(10, 200.0, 8);
  ControlOptions opts;
  opts.window = 4;
  const RoaRun online = run_roa(inst, opts.roa);
  const ControlRun rfhc = run_rfhc(inst, opts);
  const ControlRun rrhc = run_rrhc(inst, opts);
  const double tol = 1e-3 * online.cost.total();
  EXPECT_LE(rfhc.cost.total(), online.cost.total() + tol);
  EXPECT_LE(rrhc.cost.total(), online.cost.total() + tol);
}

TEST(Controllers, ExactPredictionNeverTriggersRepair) {
  const Instance inst = make_instance(8, 50.0, 9);
  ControlOptions opts;
  opts.window = 2;
  EXPECT_EQ(run_fhc(inst, opts).repairs, 0u);
  EXPECT_EQ(run_rhc(inst, opts).repairs, 0u);
  EXPECT_EQ(run_rfhc(inst, opts).repairs, 0u);
}

TEST(Controllers, NoisyPredictionsStayFeasible) {
  const Instance inst = make_instance(8, 100.0, 10);
  ControlOptions opts;
  opts.window = 3;
  opts.prediction = {0.15, 42};
  for (const ControlRun& run :
       {run_fhc(inst, opts), run_rhc(inst, opts), run_rfhc(inst, opts),
        run_rrhc(inst, opts)}) {
    EXPECT_TRUE(is_feasible(inst, run.trajectory, 1e-5)) << run.algorithm;
  }
}

TEST(Controllers, NoiseDegradesCost) {
  const Instance inst = make_instance(10, 100.0, 11);
  ControlOptions exact;
  exact.window = 3;
  ControlOptions noisy = exact;
  noisy.prediction = {0.15, 43};
  // Averaged over the run, noise should not help (allow small slack since a
  // single seed can be lucky).
  const double c_exact = run_rhc(inst, exact).cost.total();
  const double c_noisy = run_rhc(inst, noisy).cost.total();
  EXPECT_GE(c_noisy, 0.95 * c_exact);
}

// Window sweep property: with exact predictions, larger windows never hurt
// FHC dramatically; RFHC stays below the online bound for every w.
class WindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSweep, RegularizedBoundHoldsForEveryWindow) {
  const Instance inst = make_instance(8, 150.0, 12);
  ControlOptions opts;
  opts.window = GetParam();
  const RoaRun online = run_roa(inst, opts.roa);
  const ControlRun rfhc = run_rfhc(inst, opts);
  EXPECT_LE(rfhc.cost.total(),
            online.cost.total() * (1.0 + 1e-3));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

}  // namespace
}  // namespace sora::core
