#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "solver/ipm.hpp"
#include "solver/lp.hpp"
#include "solver/simplex.hpp"

namespace sora::solver {
namespace {

using linalg::Matrix;
using linalg::Vec;

// Simple quadratic: f(x) = 0.5 ||x - target||^2.
class Quadratic : public ConvexObjective {
 public:
  explicit Quadratic(Vec target) : target_(std::move(target)) {}
  double value(const Vec& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target_[i];
      v += 0.5 * d * d;
    }
    return v;
  }
  Vec gradient(const Vec& x) const override {
    Vec g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = x[i] - target_[i];
    return g;
  }
  Matrix hessian(const Vec& x) const override {
    return Matrix::identity(x.size());
  }

 private:
  Vec target_;
};

// Quadratic that also reports its (identity) Hessian pattern, so
// sparse_min_dim = 1 routes it to the sparse normal-equations path.
class SparseQuadratic : public Quadratic {
 public:
  explicit SparseQuadratic(Vec target)
      : Quadratic(target), n_(target.size()) {}
  bool hessian_lower_structure(
      std::vector<linalg::Triplet>& pattern) const override {
    for (std::size_t i = 0; i < n_; ++i) pattern.push_back({i, i, 0.0});
    return true;
  }
  void hessian_lower_values_into(const Vec&, Vec& values) const override {
    std::fill(values.begin(), values.end(), 1.0);
  }

 private:
  std::size_t n_;
};

// Linear objective c^T x (degenerate Hessian — exercises the regularized
// Cholesky path).
class LinearObjective : public ConvexObjective {
 public:
  explicit LinearObjective(Vec c) : c_(std::move(c)) {}
  double value(const Vec& x) const override { return linalg::dot(c_, x); }
  Vec gradient(const Vec&) const override { return c_; }
  Matrix hessian(const Vec& x) const override {
    return Matrix(x.size(), x.size(), 0.0);
  }

 private:
  Vec c_;
};

// Entropic term like the paper's regularizer: sum (x_i + e) ln((x_i+e)/(p_i+e)) - x_i.
class Entropic : public ConvexObjective {
 public:
  Entropic(Vec prev, double eps) : prev_(std::move(prev)), eps_(eps) {}
  double value(const Vec& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      v += (x[i] + eps_) * std::log((x[i] + eps_) / (prev_[i] + eps_)) - x[i];
    return v;
  }
  Vec gradient(const Vec& x) const override {
    Vec g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      g[i] = std::log((x[i] + eps_) / (prev_[i] + eps_));
    return g;
  }
  Matrix hessian(const Vec& x) const override {
    Matrix h(x.size(), x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) h(i, i) = 1.0 / (x[i] + eps_);
    return h;
  }

 private:
  Vec prev_;
  double eps_;
};

TEST(Ipm, UnconstrainedInteriorOptimum) {
  // Projection of target inside a big box: the constraints never bind.
  Quadratic f({1.0, 2.0});
  Matrix g(4, 2, 0.0);
  g(0, 0) = 1.0;   // x0 <= 10
  g(1, 1) = 1.0;   // x1 <= 10
  g(2, 0) = -1.0;  // x0 >= -10
  g(3, 1) = -1.0;  // x1 >= -10
  const Vec h{10.0, 10.0, 10.0, 10.0};
  const auto r = solve_barrier(f, g, h, {0.0, 0.0});
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 2.0, 1e-5);
}

TEST(Ipm, ActiveConstraintProjection) {
  // min 0.5||x - (3,3)||^2 s.t. x0 + x1 <= 4, x >= 0 -> (2,2).
  Quadratic f({3.0, 3.0});
  Matrix g(3, 2, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = 1.0;   // x0 + x1 <= 4
  g(1, 0) = -1.0;  // x0 >= 0
  g(2, 1) = -1.0;  // x1 >= 0
  const Vec h{4.0, 0.0, 0.0};
  const auto r = solve_barrier(f, g, h, {1.0, 1.0});
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_NEAR(r.x[0], 2.0, 1e-4);
  EXPECT_NEAR(r.x[1], 2.0, 1e-4);
}

TEST(Ipm, RejectsInfeasibleStart) {
  Quadratic f({0.0});
  Matrix g(1, 1, 0.0);
  g(0, 0) = 1.0;
  const Vec h{1.0};
  const auto r = solve_barrier(f, g, h, {2.0});  // violates x <= 1
  EXPECT_FALSE(r.ok());
}

TEST(Ipm, LinearObjectiveMatchesSimplex) {
  // min -x0 - 2 x1 s.t. x0 + x1 <= 3, 0 <= x <= 2 -> (1,2), obj -5.
  LinearObjective f({-1.0, -2.0});
  Matrix g(5, 2, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = 1.0;
  g(1, 0) = 1.0;
  g(2, 1) = 1.0;
  g(3, 0) = -1.0;
  g(4, 1) = -1.0;
  const Vec h{3.0, 2.0, 2.0, 0.0, 0.0};
  IpmOptions opts;
  opts.tol = 1e-9;
  const auto r = solve_barrier(f, g, h, {0.5, 0.5}, opts);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_NEAR(r.objective, -5.0, 1e-5);

  LpBuilder b;
  const auto x0 = b.add_variable(0.0, 2.0, -1.0);
  const auto x1 = b.add_variable(0.0, 2.0, -2.0);
  b.add_le({{x0, 1.0}, {x1, 1.0}}, 3.0);
  const auto lp = solve_simplex(b.build());
  ASSERT_TRUE(lp.ok());
  EXPECT_NEAR(r.objective, lp.objective, 1e-4);
}

TEST(Ipm, EntropicMinimizerClosedForm) {
  // min a*x + (b/eta) * [(x+e) ln((x+e)/(p+e)) - x] over x >= 0 with a large
  // box. Unconstrained minimizer: x* = (p + e) * exp(-a*eta/b) ... solved in
  // the paper as the exponential-decay recursion. With weight w = b/eta:
  // grad = a + w ln((x+e)/(p+e)) = 0 -> x = (p+e) exp(-a/w) - e.
  const double a = 0.3, bb = 2.0, eps = 0.01, cap = 10.0;
  const double eta = std::log(1.0 + cap / eps);
  const double w = bb / eta;
  const double prev = 4.0;

  class Obj : public ConvexObjective {
   public:
    Obj(double a, double w, double prev, double eps)
        : a_(a), w_(w), prev_(prev), eps_(eps) {}
    double value(const Vec& x) const override {
      const double xv = x[0];
      return a_ * xv +
             w_ * ((xv + eps_) * std::log((xv + eps_) / (prev_ + eps_)) - xv);
    }
    Vec gradient(const Vec& x) const override {
      return {a_ + w_ * std::log((x[0] + eps_) / (prev_ + eps_))};
    }
    Matrix hessian(const Vec& x) const override {
      Matrix h(1, 1);
      h(0, 0) = w_ / (x[0] + eps_);
      return h;
    }

   private:
    double a_, w_, prev_, eps_;
  } f(a, w, prev, eps);

  Matrix g(2, 1, 0.0);
  g(0, 0) = 1.0;   // x <= cap
  g(1, 0) = -1.0;  // x >= 0
  const Vec h{cap, 0.0};
  IpmOptions opts;
  opts.tol = 1e-10;
  const auto r = solve_barrier(f, g, h, {1.0}, opts);
  ASSERT_TRUE(r.ok()) << r.detail;
  const double expected = (prev + eps) * std::exp(-a / w) - eps;
  EXPECT_NEAR(r.x[0], expected, 1e-5);
}

TEST(Ipm, EntropicVectorAgainstGridSearch) {
  // Two-variable entropic + linear with a coupling constraint; validate
  // against a fine grid search.
  Entropic reg({2.0, 0.5}, 0.05);
  class Combined : public ConvexObjective {
   public:
    Combined(const Entropic& reg, Vec c) : reg_(reg), c_(std::move(c)) {}
    double value(const Vec& x) const override {
      return reg_.value(x) + linalg::dot(c_, x);
    }
    Vec gradient(const Vec& x) const override {
      Vec g = reg_.gradient(x);
      for (std::size_t i = 0; i < g.size(); ++i) g[i] += c_[i];
      return g;
    }
    Matrix hessian(const Vec& x) const override { return reg_.hessian(x); }

   private:
    const Entropic& reg_;
    Vec c_;
  } f(reg, {0.2, 0.1});

  Matrix g(3, 2, 0.0);
  g(0, 0) = -1.0;
  g(0, 1) = -1.0;  // x0 + x1 >= 1  (coverage-style)
  g(1, 0) = -1.0;  // x0 >= 0
  g(2, 1) = -1.0;  // x1 >= 0
  const Vec h{-1.0, 0.0, 0.0};
  const auto r = solve_barrier(f, g, h, {0.9, 0.9});
  ASSERT_TRUE(r.ok()) << r.detail;

  double best = 1e300;
  for (double x0 = 0.0; x0 <= 3.0; x0 += 0.002) {
    for (double x1 = std::max(0.0, 1.0 - x0); x1 <= 3.0; x1 += 0.002) {
      best = std::min(best, f.value({x0, x1}));
      break;  // objective increasing in x1 beyond the constraint: only edge
    }
  }
  // Also scan the x1 > max(0, 1-x0) interior a bit to be safe.
  for (double x0 = 0.0; x0 <= 3.0; x0 += 0.01)
    for (double x1 = std::max(0.0, 1.0 - x0); x1 <= 3.0; x1 += 0.01)
      best = std::min(best, f.value({x0, x1}));

  EXPECT_NEAR(r.objective, best, 5e-3);
}

// ---------------------------------------------------------------------------
// Batched barrier solves: solve_barrier_batch must reproduce the serial
// solve_barrier bit for bit on every instance — mixed dimensions (lockstep
// groups form per n), mixed objectives, a failing instance, a lane whose
// plain factor fails, a sparse-path instance, and a malformed item.

TEST(IpmBatch, MixedBatchBitwiseMatchesSerial) {
  using linalg::SparseMatrix;

  // Three distinct problems; two share n = 2 (one lockstep pair), one has
  // n = 3 (its own group).
  Quadratic proj({3.0, 3.0});
  Matrix g_proj(3, 2, 0.0);
  g_proj(0, 0) = 1.0;
  g_proj(0, 1) = 1.0;
  g_proj(1, 0) = -1.0;
  g_proj(2, 1) = -1.0;
  const SparseMatrix gs_proj = SparseMatrix::from_dense(g_proj);
  const Vec h_proj{4.0, 0.0, 0.0};
  const Vec x0_proj{1.0, 1.0};

  Entropic ent({0.5, 1.5}, 1e-3);
  Matrix g_ent(4, 2, 0.0);
  g_ent(0, 0) = 1.0;
  g_ent(1, 1) = 1.0;
  g_ent(2, 0) = -1.0;
  g_ent(3, 1) = -1.0;
  const SparseMatrix gs_ent = SparseMatrix::from_dense(g_ent);
  const Vec h_ent{5.0, 5.0, 0.0, 0.0};
  const Vec x0_ent{1.0, 1.0};

  Quadratic box({0.5, -2.0, 4.0});
  Matrix g_box(6, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    g_box(i, i) = 1.0;
    g_box(3 + i, i) = -1.0;
  }
  const SparseMatrix gs_box = SparseMatrix::from_dense(g_box);
  const Vec h_box{3.0, 3.0, 3.0, 3.0, 3.0, 3.0};
  const Vec x0_box{0.0, 0.0, 0.0};

  // Infeasible start: serial solve_barrier reports non-ok without throwing;
  // the batch must surface the identical result, not an error.
  const Vec x0_bad{10.0, 10.0};

  // A zero-cost variable no row touches: its Newton diagonal is 0, so this
  // n = 2 lane's plain lockstep factor fails and it escalates to the serial
  // regularized factor.
  LinearObjective flat({1.0, 0.0});
  Matrix g_flat(2, 2, 0.0);
  g_flat(0, 0) = 1.0;
  g_flat(1, 0) = -1.0;
  const SparseMatrix gs_flat = SparseMatrix::from_dense(g_flat);
  const Vec h_flat{3.0, 0.0};
  const Vec x0_flat{1.0, 1.0};

  // The box problem again, forced onto the sparse path.
  SparseQuadratic sparse_box({0.5, -2.0, 4.0});

  const IpmOptions opts;
  IpmOptions sparse_opts;
  sparse_opts.sparse_min_dim = 1;
  const IpmResult serial[] = {
      solve_barrier(proj, gs_proj, h_proj, x0_proj, opts),
      solve_barrier(ent, gs_ent, h_ent, x0_ent, opts),
      solve_barrier(box, gs_box, h_box, x0_box, opts),
      solve_barrier(proj, gs_proj, h_proj, x0_bad, opts),
      solve_barrier(flat, gs_flat, h_flat, x0_flat, opts),
      solve_barrier(sparse_box, gs_box, h_box, x0_box, sparse_opts),
  };
  ASSERT_TRUE(serial[0].ok());
  ASSERT_TRUE(serial[1].ok());
  ASSERT_TRUE(serial[2].ok());
  ASSERT_FALSE(serial[3].ok());
  ASSERT_TRUE(serial[4].ok());
  ASSERT_TRUE(serial[5].ok());

  BarrierBatchItem items[7];
  const auto stage = [&items, &opts](int k, const ConvexObjective& f,
                                     const SparseMatrix& g, const Vec& h,
                                     const Vec& x0) {
    items[k].objective = &f;
    items[k].g = &g;
    items[k].h = &h;
    items[k].x0 = &x0;
    items[k].options = opts;
  };
  stage(0, proj, gs_proj, h_proj, x0_proj);
  stage(1, ent, gs_ent, h_ent, x0_ent);
  stage(2, box, gs_box, h_box, x0_box);
  stage(3, proj, gs_proj, h_proj, x0_bad);
  stage(4, flat, gs_flat, h_flat, x0_flat);
  stage(5, sparse_box, gs_box, h_box, x0_box);
  items[5].options = sparse_opts;
  // items[6] keeps its null fields: must be reported per-item, not thrown.
  obs::set_metrics_enabled(true);
  auto& registry = obs::Registry::global();
  obs::Counter& fallbacks =
      registry.counter("sora_batch_factor_fallbacks_total");
  obs::Counter& symbolic_builds = registry.counter("sora_ipm_symbolic_builds");
  const std::uint64_t fallbacks_before = fallbacks.value();
  const std::uint64_t builds_before = symbolic_builds.value();
  solve_barrier_batch(items, 7);
  const std::uint64_t fallbacks_after = fallbacks.value();
  const std::uint64_t builds_after = symbolic_builds.value();
  obs::set_metrics_enabled(false);
  EXPECT_GT(fallbacks_after, fallbacks_before);
  // Only the sparse-path item analyses (on its private scratch).
  EXPECT_EQ(builds_after, builds_before + 1);

  for (int k = 0; k < 6; ++k) {
    SCOPED_TRACE(k);
    EXPECT_TRUE(items[k].error.empty()) << items[k].error;
    EXPECT_EQ(items[k].result.status, serial[k].status);
    EXPECT_EQ(items[k].result.detail, serial[k].detail);
    EXPECT_EQ(items[k].result.newton_steps, serial[k].newton_steps);
    EXPECT_EQ(items[k].result.objective, serial[k].objective);
    ASSERT_EQ(items[k].result.x.size(), serial[k].x.size());
    for (std::size_t i = 0; i < serial[k].x.size(); ++i)
      EXPECT_EQ(items[k].result.x[i], serial[k].x[i]) << "x_" << i;
    ASSERT_EQ(items[k].result.ineq_dual.size(), serial[k].ineq_dual.size());
    for (std::size_t i = 0; i < serial[k].ineq_dual.size(); ++i)
      EXPECT_EQ(items[k].result.ineq_dual[i], serial[k].ineq_dual[i])
          << "dual_" << i;
  }
  EXPECT_FALSE(items[6].error.empty());
  EXPECT_FALSE(items[6].result.ok());
}

TEST(IpmBatch, ScratchReuseAcrossRepeatedBatches) {
  // The per-slot P2 chain hands the same scratch back every slot; repeated
  // batched solves through one scratch must keep returning the same bits.
  using linalg::SparseMatrix;
  Quadratic proj({2.0, -1.0});
  Matrix g(4, 2, 0.0);
  g(0, 0) = 1.0;
  g(1, 1) = 1.0;
  g(2, 0) = -1.0;
  g(3, 1) = -1.0;
  const SparseMatrix gs = SparseMatrix::from_dense(g);
  const Vec h{3.0, 3.0, 3.0, 3.0};
  const Vec x0{0.0, 0.0};

  const IpmResult ref = solve_barrier(proj, gs, h, x0);
  ASSERT_TRUE(ref.ok());

  IpmScratch scratch;
  for (int round = 0; round < 3; ++round) {
    BarrierBatchItem item;
    item.objective = &proj;
    item.g = &gs;
    item.h = &h;
    item.x0 = &x0;
    item.scratch = &scratch;
    solve_barrier_batch(&item, 1);
    ASSERT_TRUE(item.error.empty()) << item.error;
    ASSERT_TRUE(item.result.ok()) << "round " << round;
    for (std::size_t i = 0; i < ref.x.size(); ++i)
      EXPECT_EQ(item.result.x[i], ref.x[i]) << "round " << round;
  }
}

}  // namespace
}  // namespace sora::solver
