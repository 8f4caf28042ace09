#include <gtest/gtest.h>

#include <cmath>

#include "core/resilience.hpp"
#include "solver/lp_solve.hpp"
#include "solver/pdhg.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"

namespace sora::solver {
namespace {

TEST(Pdhg, TwoVariableTextbook) {
  LpBuilder b;
  const auto x = b.add_variable(0.0, kInf, -3.0);
  const auto y = b.add_variable(0.0, kInf, -5.0);
  b.add_le({{x, 1.0}}, 4.0);
  b.add_le({{y, 2.0}}, 12.0);
  b.add_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const auto sol = solve_pdhg(b.build());
  ASSERT_TRUE(sol.ok()) << sol.detail;
  EXPECT_NEAR(sol.objective, -36.0, 1e-3);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-3);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-3);
}

TEST(Pdhg, EqualityConstraint) {
  LpBuilder b;
  const auto x = b.add_variable(0.0, 4.0, 1.0);
  const auto y = b.add_variable(0.0, kInf, 2.0);
  b.add_eq({{x, 1.0}, {y, 1.0}}, 10.0);
  const auto sol = solve_pdhg(b.build());
  ASSERT_TRUE(sol.ok()) << sol.detail;
  EXPECT_NEAR(sol.objective, 16.0, 1e-3);
}

TEST(Pdhg, BadlyScaledRowsHandledByRuiz) {
  // Same optimum as the textbook LP, but with rows scaled by 1e4 / 1e-4.
  LpBuilder b;
  const auto x = b.add_variable(0.0, kInf, -3.0);
  const auto y = b.add_variable(0.0, kInf, -5.0);
  b.add_le({{x, 1e4}}, 4e4);
  b.add_le({{y, 2e-4}}, 12e-4);
  b.add_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const auto sol = solve_pdhg(b.build());
  ASSERT_TRUE(sol.ok()) << sol.detail;
  EXPECT_NEAR(sol.objective, -36.0, 1e-2);
}

TEST(Pdhg, SolutionNearlyFeasible) {
  LpBuilder b;
  util::Rng rng(4);
  const std::size_t n = 20;
  for (std::size_t j = 0; j < n; ++j)
    b.add_variable(0.0, 10.0, rng.uniform(0.1, 1.0));
  for (std::size_t i = 0; i < 15; ++i) {
    std::vector<LinTerm> terms;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < 0.4) terms.push_back({j, rng.uniform(0.1, 1.0)});
    if (terms.empty()) terms.push_back({i % n, 1.0});
    b.add_ge(terms, rng.uniform(0.5, 4.0));
  }
  const LpModel model = b.build();
  const auto sol = solve_pdhg(model);
  ASSERT_TRUE(sol.ok()) << sol.detail;
  EXPECT_LE(model.max_violation(sol.x), 1e-3);
}

// Cross-validation: PDHG and simplex are independent implementations; their
// optima must agree on random feasible covering LPs.
class PdhgVsSimplex : public ::testing::TestWithParam<int> {};

TEST_P(PdhgVsSimplex, ObjectivesAgree) {
  util::Rng rng(2000 + GetParam());
  LpBuilder b;
  const std::size_t n = 6 + GetParam() % 12;
  const std::size_t m = 5 + GetParam() % 9;
  std::vector<double> ub(n);
  for (std::size_t j = 0; j < n; ++j) {
    ub[j] = rng.uniform(2.0, 8.0);
    b.add_variable(0.0, ub[j], rng.uniform(0.1, 2.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<LinTerm> terms;
    double reach = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < 0.5) {
        terms.push_back({j, rng.uniform(0.1, 1.5)});
        reach += terms.back().coeff * ub[j];
      }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
      reach = ub[0];
    }
    // rhs below the reachable activity keeps the row satisfiable.
    b.add_ge(terms, rng.uniform(0.0, 0.7 * std::min(reach, 2.5)));
  }
  const LpModel model = b.build();
  const double gap = cross_check_gap(model);
  EXPECT_LT(gap, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PdhgVsSimplex, ::testing::Range(0, 20));

TEST(LpSolve, AutoDispatchesBySize) {
  // The LP front door picks its first backend by rows + vars (here 2)
  // against simplex_size_limit; a clean solve needs one attempt.
  LpBuilder b;
  const auto x = b.add_variable(0.0, kInf, 1.0);
  b.add_ge({{x, 1.0}}, 1.0);
  const LpModel model = b.build();

  LpSolveOptions small;
  small.simplex_size_limit = 1000;
  core::SolveOutcome outcome;
  const auto sol = core::solve_lp_with_fallback(model, small, &outcome);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 1.0, 1e-6);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.backend, core::SolveBackend::kSimplex);

  LpSolveOptions large;
  large.simplex_size_limit = 0;
  const auto sol2 = core::solve_lp_with_fallback(model, large, &outcome);
  ASSERT_TRUE(sol2.ok());
  EXPECT_NEAR(sol2.objective, 1.0, 1e-4);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.backend, core::SolveBackend::kPdhg);
}

}  // namespace
}  // namespace sora::solver
