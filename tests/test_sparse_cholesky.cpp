// Sparse symbolic-once Cholesky: SymSparse construction, the minimum-degree
// ordering, factor/solve equivalence against the dense reference,
// permutation round-trips, symbolic reuse across refactorizations, the
// regularized shift escalation, the blocked dense kernel on sizes past the
// tile width, and the lower-triangle add_AtDA kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/obs.hpp"
#include "solver/ipm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::linalg {
namespace {

// Random sparse symmetric diagonally dominant (hence SPD) matrix.
SymSparse random_spd(std::size_t n, double off_density, util::Rng& rng) {
  std::vector<Triplet> trips;
  Vec row_mass(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c)
      if (rng.uniform() < off_density) {
        const double v = rng.normal();
        trips.push_back({r, c, v});
        row_mass[r] += std::fabs(v);
        row_mass[c] += std::fabs(v);
      }
  for (std::size_t j = 0; j < n; ++j)
    trips.push_back({j, j, row_mass[j] + rng.uniform(0.5, 2.0)});
  return SymSparse::from_lower_triplets(n, std::move(trips));
}

Vec random_vec(std::size_t n, util::Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

double max_abs_diff(const Vec& a, const Vec& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

TEST(SymSparse, FoldsDedupesAndKeepsZeros) {
  // (0,1) and (1,0) address the same lower slot; duplicates sum; the
  // structural zero at (2,2) survives.
  const auto a = SymSparse::from_lower_triplets(
      3, {{0, 1, 2.0}, {1, 0, 3.0}, {1, 1, 1.0}, {2, 2, 0.0}, {1, 1, 4.0}});
  EXPECT_EQ(a.nonzeros(), 3u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(SymSparse, DenseRoundTrip) {
  util::Rng rng(31);
  Matrix d(5, 5, 0.0);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c <= r; ++c)
      if (rng.uniform() < 0.6) {
        const double v = rng.normal();
        d(r, c) = v;
        d(c, r) = v;
      }
  const auto a = SymSparse::from_dense_lower(d);
  const Matrix back = a.to_dense();
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_DOUBLE_EQ(back(r, c), d(r, c)) << r << "," << c;
}

TEST(MinimumDegree, ProducesAPermutationEvenWhenDisconnected) {
  // Two disconnected components plus an isolated vertex.
  std::vector<Triplet> trips;
  for (std::size_t j = 0; j < 9; ++j) trips.push_back({j, j, 1.0});
  trips.push_back({1, 0, 1.0});
  trips.push_back({2, 1, 1.0});
  trips.push_back({5, 4, 1.0});
  trips.push_back({6, 4, 1.0});
  const auto a = SymSparse::from_lower_triplets(9, std::move(trips));
  const auto perm = minimum_degree_ordering(a);
  ASSERT_EQ(perm.size(), 9u);
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < 9; ++k) EXPECT_EQ(sorted[k], k);
  // The isolated vertices (degree 0) go first, lowest index first.
  EXPECT_EQ(perm[0], 3u);
  EXPECT_EQ(perm[1], 7u);
  EXPECT_EQ(perm[2], 8u);
}

TEST(MinimumDegree, ArrowMatrixHasNoFill) {
  // Arrow pointing the wrong way: variable 0 coupled to everyone. Natural
  // order fills completely under Cholesky; every leaf has degree 1, so
  // minimum degree eliminates the leaves before the hub.
  const std::size_t n = 20;
  std::vector<Triplet> trips;
  for (std::size_t j = 0; j < n; ++j) trips.push_back({j, j, 1.0});
  for (std::size_t j = 1; j < n; ++j) trips.push_back({j, 0, 1.0});
  const auto a = SymSparse::from_lower_triplets(n, std::move(trips));
  const auto perm = minimum_degree_ordering(a);
  // perm[k] = original index at position k. Once one leaf is left, the hub
  // and that leaf both have degree 1, so the hub lands in one of the final
  // two positions; either order is fill-free.
  const auto hub_pos = static_cast<std::size_t>(
      std::find(perm.begin(), perm.end(), 0u) - perm.begin());
  EXPECT_GE(hub_pos, n - 2);

  SparseCholesky chol;
  chol.analyze(a);
  // With the hub eliminated last there is zero fill: |L| = |lower(A)|.
  EXPECT_EQ(chol.factor_nonzeros(), a.nonzeros());
}

TEST(SparseCholesky, MatchesDenseFactorSolve) {
  util::Rng rng(17);
  for (const std::size_t n : {1u, 2u, 7u, 40u, 90u}) {
    const SymSparse a = random_spd(n, 0.15, rng);
    SparseCholesky chol;
    chol.analyze(a);
    ASSERT_TRUE(chol.factor(a)) << "n=" << n;
    EXPECT_DOUBLE_EQ(chol.applied_shift(), 0.0);

    Matrix l(n, n, 0.0);
    const double shift =
        cholesky_factor_regularized_into(a.to_dense(), l, 1e-12, 1e16);
    EXPECT_DOUBLE_EQ(shift, 0.0);

    const Vec b = random_vec(n, rng);
    Vec xd = b;
    cholesky_solve_in_place(l, xd);
    const Vec xs = chol.solve(b);
    EXPECT_LT(max_abs_diff(xd, xs), 1e-8) << "n=" << n;
  }
}

TEST(SparseCholesky, SolveRecoversKnownSolution) {
  util::Rng rng(23);
  const SymSparse a = random_spd(60, 0.1, rng);
  SparseCholesky chol;
  chol.analyze(a);
  ASSERT_TRUE(chol.factor(a));
  const Vec x_star = random_vec(60, rng);
  // b = A x*, via the dense mirror.
  const Matrix ad = a.to_dense();
  const Vec b = ad.multiply(x_star);
  const Vec x = chol.solve(b);
  EXPECT_LT(max_abs_diff(x, x_star), 1e-8);
}

TEST(SparseCholesky, PermutationRoundTrip) {
  // Relabel the unknowns by a random permutation P: solving the permuted
  // system P A P^T (P x) = P b must return the permuted solution exactly.
  util::Rng rng(29);
  const std::size_t n = 35;
  const SymSparse a = random_spd(n, 0.2, rng);
  const std::vector<std::size_t> p = rng.permutation(n);

  std::vector<Triplet> permuted;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k)
      permuted.push_back({p[r], p[a.cols[k]], a.values[k]});
  const SymSparse ap = SymSparse::from_lower_triplets(n, std::move(permuted));

  SparseCholesky chol, chol_p;
  chol.analyze(a);
  chol_p.analyze(ap);
  ASSERT_TRUE(chol.factor(a));
  ASSERT_TRUE(chol_p.factor(ap));

  const Vec b = random_vec(n, rng);
  Vec bp(n);
  for (std::size_t i = 0; i < n; ++i) bp[p[i]] = b[i];
  const Vec x = chol.solve(b);
  const Vec xp = chol_p.solve(bp);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(xp[p[i]], x[i], 1e-8) << "i=" << i;
}

TEST(SparseCholesky, RefactorWithNewValuesReusesAnalysis) {
  util::Rng rng(41);
  SymSparse a = random_spd(50, 0.12, rng);
  SparseCholesky chol;
  chol.analyze(a);
  const std::size_t fill = chol.factor_nonzeros();
  for (int round = 0; round < 3; ++round) {
    // New values on the same pattern (keep SPD via fresh dominance).
    Vec mass(50, 0.0);
    for (std::size_t r = 0; r < 50; ++r)
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k)
        if (a.cols[k] != r) {
          a.values[k] = rng.normal();
          mass[r] += std::fabs(a.values[k]);
          mass[a.cols[k]] += std::fabs(a.values[k]);
        }
    for (std::size_t r = 0; r < 50; ++r)
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k)
        if (a.cols[k] == r) a.values[k] = mass[r] + 1.0;
    ASSERT_TRUE(chol.factor(a)) << "round " << round;
    EXPECT_EQ(chol.factor_nonzeros(), fill);

    Matrix l(50, 50, 0.0);
    cholesky_factor_regularized_into(a.to_dense(), l, 1e-12, 1e16);
    const Vec b = random_vec(50, rng);
    Vec xd = b;
    cholesky_solve_in_place(l, xd);
    EXPECT_LT(max_abs_diff(xd, chol.solve(b)), 1e-8) << "round " << round;
  }
}

TEST(SparseCholesky, RegularizedShiftEscalatesOnSingularInput) {
  // Rank-deficient: a zero diagonal entry with no couplings.
  const auto a = SymSparse::from_lower_triplets(
      3, {{0, 0, 4.0}, {1, 1, 0.0}, {2, 2, 9.0}});
  SparseCholesky chol;
  chol.analyze(a);
  EXPECT_FALSE(chol.factor(a));
  const double shift = chol.factor_regularized(a, 1e-12, 1e16);
  EXPECT_GT(shift, 0.0);
  EXPECT_DOUBLE_EQ(chol.applied_shift(), shift);
  // The solve must see the shifted diagonal.
  const Vec x = chol.solve({4.0, 0.0, 9.0});
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[2], 1.0, 1e-6);
}

TEST(SparseCholesky, FactorThrowsOnNonFiniteValues) {
  auto a = SymSparse::from_lower_triplets(2, {{0, 0, 1.0}, {1, 1, 1.0}});
  a.values[0] = std::nan("");
  SparseCholesky chol;
  chol.analyze(a);
  EXPECT_THROW(chol.factor_regularized(a, 1e-12, 1e16), util::CheckError);
}

TEST(BlockedDenseCholesky, MatchesKnownSolutionPastTileWidth) {
  // n = 150 crosses two 64-wide panel boundaries, exercising the diagonal
  // block, the panel solve, and the trailing syrk update, and ends on a
  // partial panel; n = 320 is five full panels, so its last one has no
  // trailing block.
  util::Rng rng(53);
  for (const std::size_t n : {150u, 320u}) {
    const SymSparse sp = random_spd(n, 0.3, rng);
    const Matrix a = sp.to_dense();
    Matrix l(n, n, 0.0);
    const double shift = cholesky_factor_regularized_into(a, l, 1e-12, 1e16);
    EXPECT_DOUBLE_EQ(shift, 0.0) << "n=" << n;
    // Strict upper triangle must come back clean.
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c)
        ASSERT_EQ(l(r, c), 0.0) << "n=" << n << " " << r << "," << c;
    const Vec x_star = random_vec(n, rng);
    Vec x = a.multiply(x_star);
    cholesky_solve_in_place(l, x);
    EXPECT_LT(max_abs_diff(x, x_star), 1e-7) << "n=" << n;
  }
}

TEST(DenseKernels, MirrorLowerSymmetrizes) {
  Matrix a(3, 3, 0.0);
  a(1, 0) = 2.0;
  a(2, 1) = -3.0;
  a(0, 2) = 99.0;  // stale upper junk must be overwritten
  mirror_lower(a);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 2), -3.0);
  EXPECT_DOUBLE_EQ(a(0, 2), 0.0);
}

TEST(DenseKernels, AddAtDAMatchesNaive) {
  util::Rng rng(61);
  const std::size_t m = 18, n = 9;
  Matrix g(m, n, 0.0);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < 0.4) g(r, c) = rng.normal();
  Vec w(m);
  for (auto& v : w) v = rng.uniform(0.1, 2.0);

  // Symmetric seed (the documented precondition).
  Matrix seed(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c <= r; ++c) {
      seed(r, c) = rng.normal();
      seed(c, r) = seed(r, c);
    }
  Matrix expected = seed;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        expected(r, c) += w[i] * g(i, r) * g(i, c);

  Matrix got = seed;
  add_AtDA(g, w, got);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(got(r, c), expected(r, c), 1e-10) << r << "," << c;
}

// Diagonal quadratic objective implementing the sparse-Hessian interface,
// for driving the barrier solver's sparse Newton system directly.
class DiagQuadratic : public solver::ConvexObjective {
 public:
  explicit DiagQuadratic(Vec d) : d_(std::move(d)) {}
  double value(const Vec& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      v += 0.5 * d_[i] * x[i] * x[i] - x[i];
    return v;
  }
  void gradient_into(const Vec& x, Vec& g) const override {
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = d_[i] * x[i] - 1.0;
  }
  void hessian_into(const Vec& x, Matrix& h) const override {
    for (std::size_t r = 0; r < x.size(); ++r)
      for (std::size_t c = 0; c < x.size(); ++c) h(r, c) = r == c ? d_[r] : 0.0;
  }
  bool hessian_lower_structure(
      std::vector<Triplet>& pattern) const override {
    for (std::size_t i = 0; i < d_.size(); ++i)
      pattern.push_back({i, i, 0.0});
    return true;
  }
  void hessian_lower_values_into(const Vec&, Vec& values) const override {
    for (std::size_t i = 0; i < d_.size(); ++i) values[i] = d_[i];
  }

 private:
  Vec d_;
};

struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

TEST(BarrierSparseNormal, ForcedSparsePathMatchesDenseAndReusesSymbolic) {
  MetricsOn guard;
  util::Rng rng(67);
  const std::size_t n = 10;
  // Box 0 <= x <= 2 plus two coupling rows.
  Matrix gd(2 * n + 2, n, 0.0);
  Vec h(2 * n + 2, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    gd(i, i) = -1.0;
    gd(n + i, i) = 1.0;
    h[n + i] = 2.0;
  }
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < 0.5) gd(2 * n + r, c) = rng.uniform(0.1, 1.0);
    h[2 * n + r] = rng.uniform(3.0, 5.0);
  }
  const auto gs = SparseMatrix::from_dense(gd);
  Vec d(n);
  for (auto& v : d) v = rng.uniform(0.5, 3.0);
  const DiagQuadratic objective(d);
  const Vec x0(n, 0.5);

  solver::IpmOptions opts;
  opts.tol = 1e-9;

  auto& reg = obs::Registry::global();
  auto& builds = reg.counter("sora_ipm_symbolic_builds");
  auto& reuse = reg.counter("sora_ipm_symbolic_reuse");
  const auto builds0 = builds.value();
  const auto reuse0 = reuse.value();

  const auto rd = solver::solve_barrier(objective, gd, h, x0, opts);
  solver::IpmScratch scratch;
  const auto rs1 = solver::solve_barrier(objective, gs, h, x0, opts, &scratch);
  const auto rs2 = solver::solve_barrier(objective, gs, h, x0, opts, &scratch);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rs1.ok());
  ASSERT_TRUE(rs2.ok());
  EXPECT_NEAR(rd.objective, rs1.objective, 1e-7);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rd.x[i], rs1.x[i], 1e-6) << i;
    EXPECT_NEAR(rs1.x[i], rs2.x[i], 1e-9) << i;
  }
  // One symbolic analysis for the structure, reused by the second solve.
  EXPECT_EQ(builds.value(), builds0 + 1);
  EXPECT_GE(reuse.value(), reuse0 + 1);
}

TEST(BarrierSparseNormal, DenseRowStillFactorsSparse) {
  // A constraint row over every variable makes the Newton matrix fully
  // dense. The CSR overload still factors it sparse (one symbolic analysis)
  // and agrees with the dense-G overload.
  MetricsOn guard;
  util::Rng rng(71);
  const std::size_t n = 8;
  Matrix gd(n + 1, n, 0.0);
  Vec h(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) gd(i, i) = -1.0;
  for (std::size_t c = 0; c < n; ++c) gd(n, c) = rng.uniform(0.5, 1.0);
  h[n] = 10.0;
  const auto gs = SparseMatrix::from_dense(gd);
  Vec d(n, 1.0);
  const DiagQuadratic objective(d);
  const Vec x0(n, 0.1);

  auto& builds = obs::Registry::global().counter("sora_ipm_symbolic_builds");
  const auto before = builds.value();
  const auto rs = solver::solve_barrier(objective, gs, h, x0);
  EXPECT_EQ(builds.value(), before + 1);
  const auto rd = solver::solve_barrier(objective, gd, h, x0);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rd.ok());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rs.x[i], rd.x[i], 1e-6) << i;
}

}  // namespace
}  // namespace sora::linalg
