// Sparse-vs-dense equivalence for the barrier IPM and the P2 solver
// pipeline: the CSR Newton-assembly kernels, the sparse solve_barrier
// overload against the dense-Matrix reference overload, the P2Workspace on
// the sparse factor against the tests' reference configuration of the same
// model on the dense Newton path (primal, objective, and KKT multipliers),
// the Newton-step counts and the once-per-workspace symbolic analysis on
// the reduced Fig.-5 instance, and the empty-SLA-group guard in the
// even-split start.
#include <gtest/gtest.h>

#include <cmath>

#include "cloudnet/instance.hpp"
#include "core/p2_subproblem.hpp"
#include "core/roa.hpp"
#include "eval/scenarios.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "obs/obs.hpp"
#include "solver/ipm.hpp"
#include "testing/differential.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::core {
namespace {

using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;
using linalg::Matrix;
using linalg::SparseMatrix;
using linalg::Triplet;

Instance make_instance(std::size_t horizon, double reconfig_weight,
                       std::uint64_t seed, bool model_tier1 = false,
                       std::size_t k = 2) {
  util::Rng rng(seed);
  const WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = 4;
  cfg.num_tier1 = 6;
  cfg.sla_k = k;
  cfg.reconfig_weight = reconfig_weight;
  cfg.seed = seed;
  cfg.model_tier1 = model_tier1;
  return cloudnet::build_instance(cfg, trace);
}

TEST(SparseKernels, AddAtDAMatchesDense) {
  util::Rng rng(7);
  const std::size_t rows = 25, cols = 12;
  Matrix dense(rows, cols, 0.0);
  std::vector<Triplet> trip;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.uniform() < 0.25) {
        const double v = rng.normal();
        dense(r, c) = v;
        trip.push_back({r, c, v});
      }
  const auto sparse = SparseMatrix::from_triplets(rows, cols, trip);
  Vec w(rows);
  for (auto& v : w) v = rng.uniform(0.1, 3.0);

  Matrix expected(cols, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t a = 0; a < cols; ++a)
      for (std::size_t b = 0; b < cols; ++b)
        expected(a, b) += w[r] * dense(r, a) * dense(r, b);

  Matrix got(cols, cols, 1.0);  // nonzero seed: add_AtDA accumulates
  for (std::size_t a = 0; a < cols; ++a)
    for (std::size_t b = 0; b < cols; ++b) expected(a, b) += 1.0;
  sparse.add_AtDA(w, got);
  for (std::size_t a = 0; a < cols; ++a)
    for (std::size_t b = 0; b < cols; ++b)
      EXPECT_NEAR(got(a, b), expected(a, b), 1e-10) << a << "," << b;
}

TEST(SparseKernels, FromDenseAndRowView) {
  Matrix dense(2, 3, 0.0);
  dense(0, 0) = 2.0;
  dense(0, 2) = -1.0;
  dense(1, 1) = 4.0;
  const auto m = SparseMatrix::from_dense(dense);
  EXPECT_EQ(m.nonzeros(), 3u);
  const auto r0 = m.row(0);
  ASSERT_EQ(r0.size, 2u);
  EXPECT_EQ(r0.cols[0], 0u);
  EXPECT_DOUBLE_EQ(r0.vals[0], 2.0);
  EXPECT_EQ(r0.cols[1], 2u);
  EXPECT_DOUBLE_EQ(r0.vals[1], -1.0);
  const auto r1 = m.row(1);
  ASSERT_EQ(r1.size, 1u);
  EXPECT_EQ(r1.cols[0], 1u);
  EXPECT_DOUBLE_EQ(r1.vals[0], 4.0);
}

TEST(SparseKernels, MultiplyIntoMatchesAllocatingVariants) {
  util::Rng rng(9);
  Matrix dense(8, 5, 0.0);
  std::vector<Triplet> trip;
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      if (rng.uniform() < 0.5) {
        const double v = rng.normal();
        dense(r, c) = v;
        trip.push_back({r, c, v});
      }
  const auto m = SparseMatrix::from_triplets(8, 5, trip);
  Vec x(5), yx(8, 123.0);
  for (auto& v : x) v = rng.normal();
  m.multiply_into(x, yx);
  const Vec yref = m.multiply(x);
  for (std::size_t r = 0; r < 8; ++r) EXPECT_NEAR(yx[r], yref[r], 1e-14);

  Vec z(8), wz(5, -7.0);
  for (auto& v : z) v = rng.normal();
  m.multiply_transpose_into(z, wz);
  const Vec wref = m.multiply_transpose(z);
  for (std::size_t c = 0; c < 5; ++c) EXPECT_NEAR(wz[c], wref[c], 1e-14);
}

TEST(SparseKernels, PatternKeepsExplicitZerosForPatching) {
  linalg::TripletBuilder b(2, 2);
  b.add_pattern(0, 0, 0.0);  // structural zero — must survive the build
  b.add(1, 1, 3.0);
  auto m = std::move(b).build();
  EXPECT_EQ(m.nonzeros(), 2u);
  Vec y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  // Patch the stored slot and observe the new value take effect.
  m.mutable_values()[m.row_offsets()[0]] = -2.0;
  y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
}

// Entropic objective over a polyhedron, like the paper's regularizer.
class Entropic : public solver::ConvexObjective {
 public:
  Entropic(Vec prev, double eps) : prev_(std::move(prev)), eps_(eps) {}
  double value(const Vec& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      v += (x[i] + eps_) * std::log((x[i] + eps_) / (prev_[i] + eps_)) - x[i];
    return v;
  }
  void gradient_into(const Vec& x, Vec& g) const override {
    for (std::size_t i = 0; i < x.size(); ++i)
      g[i] = std::log((x[i] + eps_) / (prev_[i] + eps_));
  }
  void hessian_into(const Vec& x, Matrix& h) const override {
    for (std::size_t r = 0; r < x.size(); ++r)
      for (std::size_t c = 0; c < x.size(); ++c)
        h(r, c) = r == c ? 1.0 / (x[r] + eps_) : 0.0;
  }

 private:
  Vec prev_;
  double eps_;
};

TEST(BarrierIpm, SparseMatchesDenseOverload) {
  util::Rng rng(13);
  const std::size_t n = 6;
  // Box 0 <= x <= 2 plus a few random coupling rows g x <= h.
  Matrix dense(2 * n + 4, n, 0.0);
  Vec h(2 * n + 4, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = -1.0;
    h[i] = 0.0;
    dense(n + i, i) = 1.0;
    h[n + i] = 2.0;
  }
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < 0.5) dense(2 * n + r, c) = rng.uniform(0.0, 1.0);
    h[2 * n + r] = rng.uniform(2.0, 4.0);
  }
  const auto sparse = SparseMatrix::from_dense(dense);

  Vec prev(n);
  for (auto& v : prev) v = rng.uniform(0.0, 1.0);
  const Entropic objective(prev, 1e-2);
  const Vec x0(n, 0.5);

  solver::IpmOptions opts;
  opts.tol = 1e-9;
  const auto rd = solver::solve_barrier(objective, dense, h, x0, opts);
  solver::IpmScratch scratch;
  const auto rs =
      solver::solve_barrier(objective, sparse, h, x0, opts, &scratch);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_NEAR(rd.objective, rs.objective, 1e-8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rd.x[i], rs.x[i], 1e-6);
  ASSERT_EQ(rd.ineq_dual.size(), rs.ineq_dual.size());
  for (std::size_t i = 0; i < rd.ineq_dual.size(); ++i)
    EXPECT_NEAR(rd.ineq_dual[i], rs.ineq_dual[i], 1e-6) << "row " << i;
}

// The P2 pipeline on randomized instances: the workspace on the sparse
// Newton system vs the reference configuration on the dense one. At
// ipm.tol = 1e-9 both must agree on the primal, the objective, and every
// named multiplier to 1e-6.
void expect_p2_paths_agree(const Instance& inst, std::size_t t,
                           const Allocation& prev) {
  RoaOptions dense_opts = testing::reference_roa_options();
  dense_opts.ipm.tol = 1e-9;
  RoaOptions sparse_opts;
  sparse_opts.ipm.tol = 1e-9;

  const InputSeries inputs = InputSeries::truth(inst);
  const P2Solution a = solve_p2(inst, inputs, t, prev, dense_opts);
  const P2Solution b = solve_p2(inst, inputs, t, prev, sparse_opts);

  // Duals are recovered as 1/(t s) at the final certified center, which the
  // two factorizations reach through different rounding, so the large
  // multipliers agree to relative (not absolute) precision.
  const auto dual_tol = [](double ref) { return 1e-6 + 1e-4 * std::abs(ref); };
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    EXPECT_NEAR(a.alloc.x[e], b.alloc.x[e], 1e-6) << "x " << e;
    EXPECT_NEAR(a.alloc.y[e], b.alloc.y[e], 1e-6) << "y " << e;
    EXPECT_NEAR(a.alloc.z[e], b.alloc.z[e], 1e-6) << "z " << e;
    EXPECT_NEAR(a.rho[e], b.rho[e], dual_tol(a.rho[e])) << "rho " << e;
    EXPECT_NEAR(a.phi[e], b.phi[e], dual_tol(a.phi[e])) << "phi " << e;
    EXPECT_NEAR(a.sigma[e], b.sigma[e], dual_tol(a.sigma[e])) << "sigma " << e;
  }
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    EXPECT_NEAR(a.gamma[j], b.gamma[j], dual_tol(a.gamma[j])) << "gamma " << j;
  EXPECT_FALSE(b.timing.warm_started);  // fresh workspace cold-starts
}

TEST(P2Pipeline, SparseMatchesDenseOnRandomInstances) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const Instance inst = make_instance(3, 50.0, seed);
    Allocation prev = Allocation::zeros(inst.num_edges());
    expect_p2_paths_agree(inst, 0, prev);
    // A nonzero previous decision exercises the entropic terms fully.
    const Vec split = inst.even_split(0);
    prev.x = split;
    prev.y = split;
    expect_p2_paths_agree(inst, 1, prev);
  }
}

TEST(P2Pipeline, SparseMatchesDenseWithTier1Term) {
  const Instance inst = make_instance(3, 50.0, 11, /*model_tier1=*/true);
  ASSERT_TRUE(inst.has_tier1());
  Allocation prev = Allocation::zeros(inst.num_edges());
  expect_p2_paths_agree(inst, 0, prev);
  const Vec split = inst.even_split(1);
  prev.x = split;
  prev.y = split;
  prev.z = split;
  expect_p2_paths_agree(inst, 1, prev);
}

TEST(P2Pipeline, WorkspaceWarmStartEngagesAndStaysAccurate) {
  const Instance inst = make_instance(6, 100.0, 21);
  const InputSeries inputs = InputSeries::truth(inst);

  RoaOptions cold;
  cold.warm_start = false;
  RoaOptions warm;

  P2Workspace cold_ws(inst, cold);
  P2Workspace warm_ws(inst, warm);
  Allocation cold_prev = Allocation::zeros(inst.num_edges());
  Allocation warm_prev = Allocation::zeros(inst.num_edges());
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const P2Solution c = cold_ws.solve(inputs, t, cold_prev);
    const P2Solution w = warm_ws.solve(inputs, t, warm_prev);
    EXPECT_FALSE(c.timing.warm_started);
    if (t > 0) EXPECT_TRUE(w.timing.warm_started) << "t=" << t;
    // Both chains track each other within solver accuracy.
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      EXPECT_NEAR(c.alloc.x[e], w.alloc.x[e], 1e-3) << "t=" << t;
      EXPECT_NEAR(c.alloc.y[e], w.alloc.y[e], 1e-3) << "t=" << t;
    }
    cold_prev = c.alloc;
    warm_prev = w.alloc;
  }
}

TEST(P2Pipeline, ResetWarmStartForcesColdSolve) {
  const Instance inst = make_instance(3, 50.0, 23);
  const InputSeries inputs = InputSeries::truth(inst);
  P2Workspace ws(inst, {});
  Allocation prev = Allocation::zeros(inst.num_edges());
  prev = ws.solve(inputs, 0, prev).alloc;
  EXPECT_TRUE(ws.solve(inputs, 1, prev).timing.warm_started);
  ws.reset_warm_start();
  EXPECT_FALSE(ws.solve(inputs, 1, prev).timing.warm_started);
}

// Newton-step counts on the micro-benchmarks' P2 instance (reduced Fig. 5
// scale, b = 10^3). Late in a solve x + step dx can round to x; the
// line search then ends the centering instead of repeating the same no-op
// step until the per-centering cap, so slot 1 needs at most 80 steps cold
// and at most 30 when re-solved from its own optimum.
TEST(P2Pipeline, NewtonStepsOnReducedFig5Instance) {
  for (const std::size_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE("sla_k=" + std::to_string(k));
    eval::Scenario sc;
    sc.reconfig_weight = 1e3;
    sc.sla_k = k;
    const Instance inst = eval::build_eval_instance(sc, eval::EvalScale{});
    const InputSeries inputs = InputSeries::truth(inst);
    const Allocation zeros = Allocation::zeros(inst.num_edges());

    RoaOptions cold_opts;
    cold_opts.warm_start = false;
    P2Workspace cold_ws(inst, cold_opts);
    const P2Solution cold = cold_ws.solve(inputs, 1, zeros);
    EXPECT_FALSE(cold.timing.warm_started);
    EXPECT_LE(cold.newton_steps, 80u);

    P2Workspace warm_ws(inst, {});
    const Allocation first = warm_ws.solve(inputs, 0, zeros).alloc;
    warm_ws.solve(inputs, 1, first);
    const P2Solution again = warm_ws.solve(inputs, 1, first);
    EXPECT_TRUE(again.timing.warm_started);
    EXPECT_LE(again.newton_steps, 30u);
  }
}

struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

// The reduced Fig.-5 horizon (k = 1, n = 36: the instance behind Figs. 5, 6
// and 8-10 and BM_RunRoaFig5SparseWarm) runs on the sparse Newton system:
// the workspace analyses its pattern once, on slot 0, and every later slot
// reuses that analysis.
TEST(P2Pipeline, ReducedFig5HorizonAnalysesOnceAndReuses) {
  MetricsOn guard;
  auto& reg = obs::Registry::global();
  auto& builds = reg.counter("sora_ipm_symbolic_builds");
  auto& reuse = reg.counter("sora_ipm_symbolic_reuse");

  eval::Scenario sc;
  sc.reconfig_weight = 1e3;
  sc.sla_k = 1;
  const Instance inst = eval::build_eval_instance(sc, eval::EvalScale{});
  const InputSeries inputs = InputSeries::truth(inst);
  P2Workspace workspace(inst, {});
  Allocation prev = Allocation::zeros(inst.num_edges());
  const auto builds0 = builds.value();
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const auto reuse_before = reuse.value();
    const P2Solution sol = workspace.solve(inputs, t, prev);
    ASSERT_TRUE(sol.outcome.ok()) << "t=" << t;
    EXPECT_EQ(builds.value() - builds0, 1u) << "t=" << t;
    if (t > 0) {
      EXPECT_GT(reuse.value(), reuse_before) << "t=" << t;
    }
    prev = sol.alloc;
  }
}

// A tier-1 cloud with no admissible edges used to poison the even-split
// start with a division by zero; it must now be skipped when its demand is
// zero and rejected with a clear error when demand is positive.
Instance instance_with_empty_sla_group() {
  Instance inst;
  inst.tier2_sites.resize(1);
  inst.tier1_sites.resize(2);
  inst.edges = {{0, 0}};  // only tier-1 cloud 0 has an edge
  inst.edges_of_tier1 = {{0}, {}};
  inst.edges_of_tier2 = {{0}};
  inst.horizon = 1;
  inst.tier2_price = {{1.0}};
  inst.edge_price = {1.0};
  inst.tier2_reconfig = {1.0};
  inst.edge_reconfig = {1.0};
  inst.tier2_capacity = {10.0};
  inst.edge_capacity = {10.0};
  inst.demand = {{1.0, 0.0}};
  return inst;
}

TEST(P2Pipeline, EmptySlaGroupWithZeroDemandIsSkipped) {
  const Instance inst = instance_with_empty_sla_group();
  const Vec v =
      p2_strictly_feasible_point(inst, InputSeries::truth(inst), 0);
  for (const double value : v) EXPECT_TRUE(std::isfinite(value));
  const P2Solution sol = solve_p2(inst, InputSeries::truth(inst), 0,
                                  Allocation::zeros(1));
  EXPECT_TRUE(std::isfinite(sol.objective));
  EXPECT_GT(sol.alloc.x[0], 0.9);  // demand of cloud 0 still covered
}

TEST(P2Pipeline, EmptySlaGroupWithPositiveDemandThrows) {
  Instance inst = instance_with_empty_sla_group();
  inst.demand[0][1] = 0.5;  // demand at the edgeless tier-1 cloud
  EXPECT_THROW(
      p2_strictly_feasible_point(inst, InputSeries::truth(inst), 0),
      util::CheckError);
}

}  // namespace
}  // namespace sora::core
