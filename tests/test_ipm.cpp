#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/matrix.hpp"
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
  void gradient_into(const Vec& x, Vec& g) const override {
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = x[i] - target_[i];
  }
  void hessian_into(const Vec& x, Matrix& h) const override {
    for (std::size_t r = 0; r < x.size(); ++r)
      for (std::size_t c = 0; c < x.size(); ++c) h(r, c) = r == c ? 1.0 : 0.0;
  }

 private:
  Vec target_;
};

// Linear objective c^T x (degenerate Hessian — exercises the regularized
// Cholesky path).
class LinearObjective : public ConvexObjective {
 public:
  explicit LinearObjective(Vec c) : c_(std::move(c)) {}
  double value(const Vec& x) const override { return linalg::dot(c_, x); }
  void gradient_into(const Vec&, Vec& g) const override { g = c_; }
  void hessian_into(const Vec& x, Matrix& h) const override {
    for (std::size_t r = 0; r < x.size(); ++r)
      for (std::size_t c = 0; c < x.size(); ++c) h(r, c) = 0.0;
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
    void gradient_into(const Vec& x, Vec& g) const override {
      g[0] = a_ + w_ * std::log((x[0] + eps_) / (prev_ + eps_));
    }
    void hessian_into(const Vec& x, Matrix& h) const override {
      h(0, 0) = w_ / (x[0] + eps_);
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
    void gradient_into(const Vec& x, Vec& g) const override {
      reg_.gradient_into(x, g);
      for (std::size_t i = 0; i < g.size(); ++i) g[i] += c_[i];
    }
    void hessian_into(const Vec& x, Matrix& h) const override {
      reg_.hessian_into(x, h);
    }

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

}  // namespace
}  // namespace sora::solver
