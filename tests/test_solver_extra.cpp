// Additional solver coverage: builder validation, option paths (refactor
// cadence, acceptance factors, barrier budgets), and cross-solver sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "solver/ipm.hpp"
#include "solver/lp_solve.hpp"
#include "solver/pdhg.hpp"
#include "solver/simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::solver {
namespace {

TEST(LpBuilder, RejectsCrossedBounds) {
  LpBuilder b;
  EXPECT_THROW(b.add_variable(2.0, 1.0, 0.0), util::CheckError);
  b.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(b.add_constraint(3.0, 2.0, {{0, 1.0}}), util::CheckError);
}

TEST(LpBuilder, RejectsUnknownVariableInRow) {
  LpBuilder b;
  b.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(b.add_ge({{5, 1.0}}, 0.0), util::CheckError);
}

TEST(LpBuilder, AddCostAccumulates) {
  LpBuilder b;
  const auto x = b.add_variable(0.0, 10.0, 1.0);
  b.add_cost(x, 2.5);
  b.add_ge({{x, 1.0}}, 4.0);
  const auto sol = solve_simplex(b.build());
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 3.5 * 4.0, 1e-9);
}

TEST(LpBuilder, NamesAreRetrievable) {
  LpBuilder b;
  b.add_variable(0.0, 1.0, 0.0, "alloc_x");
  b.add_ge({{0, 1.0}}, 0.0, "coverage");
  EXPECT_EQ(b.var_name(0), "alloc_x");
  EXPECT_EQ(b.row_name(0), "coverage");
}

TEST(LpModel, MaxViolationMeasuresWorstBreach) {
  LpBuilder b;
  const auto x = b.add_variable(0.0, 5.0, 1.0);
  b.add_ge({{x, 1.0}}, 3.0);
  const LpModel model = b.build();
  EXPECT_DOUBLE_EQ(model.max_violation({4.0}), 0.0);
  EXPECT_DOUBLE_EQ(model.max_violation({1.0}), 2.0);   // row breach
  EXPECT_DOUBLE_EQ(model.max_violation({7.0}), 2.0);   // bound breach
  EXPECT_DOUBLE_EQ(model.max_violation({-1.0}), 4.0);  // worst of both
}

TEST(Simplex, FrequentRefactorizationMatchesDefault) {
  // Exercise the LU refactorization path by forcing it every 2 pivots.
  util::Rng rng(7);
  LpBuilder b;
  const std::size_t n = 12;
  for (std::size_t j = 0; j < n; ++j)
    b.add_variable(0.0, 5.0, rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < 10; ++i) {
    std::vector<LinTerm> terms;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < 0.5) terms.push_back({j, rng.uniform(0.2, 1.0)});
    if (terms.empty()) terms.push_back({0, 1.0});
    b.add_ge(terms, rng.uniform(0.2, 2.0));
  }
  const LpModel model = b.build();
  SimplexOptions frequent;
  frequent.refactor_interval = 2;
  const auto a = solve_simplex(model);
  const auto c = solve_simplex(model, frequent);
  ASSERT_TRUE(a.ok() && c.ok());
  EXPECT_NEAR(a.objective, c.objective, 1e-8 * (1.0 + std::fabs(a.objective)));
}

TEST(Pdhg, AcceptFactorRescuesTightBudget) {
  // With a tiny iteration budget the strict solver reports a limit; the
  // relaxed acceptance turns a close-enough point into success.
  LpBuilder b;
  util::Rng rng(5);
  const std::size_t n = 15;
  for (std::size_t j = 0; j < n; ++j)
    b.add_variable(0.0, 10.0, rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<LinTerm> terms;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < 0.4) terms.push_back({j, rng.uniform(0.2, 1.0)});
    if (terms.empty()) terms.push_back({0, 1.0});
    b.add_ge(terms, rng.uniform(0.5, 3.0));
  }
  const LpModel model = b.build();
  PdhgOptions strict;
  strict.eps_rel = 1e-12;  // unreachable in the budget
  strict.eps_abs = 0.0;
  strict.max_iterations = 48;
  strict.restart_check_interval = 16;
  const auto hard = solve_pdhg(model, strict);
  EXPECT_EQ(hard.status, SolveStatus::kIterationLimit);

  PdhgOptions relaxed = strict;
  relaxed.accept_factor = 1e12;
  const auto ok = solve_pdhg(model, relaxed);
  EXPECT_EQ(ok.status, SolveStatus::kOptimal);
}

TEST(Ipm, AcceptableGapOnTinyBudget) {
  // Quadratic projection with a minuscule Newton budget: the gap-based
  // acceptance still reports success with a near-optimal point.
  class Quad : public ConvexObjective {
   public:
    double value(const linalg::Vec& x) const override {
      return 0.5 * (x[0] - 2.0) * (x[0] - 2.0);
    }
    void gradient_into(const linalg::Vec& x, linalg::Vec& g) const override {
      g[0] = x[0] - 2.0;
    }
    void hessian_into(const linalg::Vec&, linalg::Matrix& h) const override {
      h(0, 0) = 1.0;
    }
  } f;
  linalg::Matrix g(2, 1, 0.0);
  g(0, 0) = 1.0;   // x <= 10
  g(1, 0) = -1.0;  // x >= 0
  IpmOptions opts;
  opts.max_newton_steps = 25;
  opts.acceptable_gap = 1e-2;
  const auto r = solve_barrier(f, g, {10.0, 0.0}, {1.0}, opts);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_NEAR(r.x[0], 2.0, 0.05);
}

// Cross-solver sweep on equality-constrained transport-like LPs.
class TransportSweep : public ::testing::TestWithParam<int> {};

TEST_P(TransportSweep, SimplexAndPdhgAgree) {
  util::Rng rng(4000 + GetParam());
  const std::size_t sources = 3 + GetParam() % 3;
  const std::size_t sinks = 3 + GetParam() % 4;
  LpBuilder b;
  // Shipment variables.
  std::vector<std::vector<std::size_t>> ship(sources,
                                             std::vector<std::size_t>(sinks));
  for (std::size_t s = 0; s < sources; ++s)
    for (std::size_t d = 0; d < sinks; ++d)
      ship[s][d] = b.add_variable(0.0, kInf, rng.uniform(0.5, 3.0));
  // Balanced supplies/demands.
  std::vector<double> supply(sources), need(sinks, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < sources; ++s) {
    supply[s] = rng.uniform(1.0, 4.0);
    total += supply[s];
  }
  for (std::size_t d = 0; d < sinks; ++d) need[d] = total / sinks;
  for (std::size_t s = 0; s < sources; ++s) {
    std::vector<LinTerm> terms;
    for (std::size_t d = 0; d < sinks; ++d) terms.push_back({ship[s][d], 1.0});
    b.add_eq(terms, supply[s]);
  }
  for (std::size_t d = 0; d < sinks; ++d) {
    std::vector<LinTerm> terms;
    for (std::size_t s = 0; s < sources; ++s) terms.push_back({ship[s][d], 1.0});
    b.add_eq(terms, need[d]);
  }
  const double gap = cross_check_gap(b.build());
  EXPECT_LT(gap, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransportSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace sora::solver
