#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector_ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::linalg {
namespace {

TEST(VectorOps, DotAxpyNorms) {
  const Vec a{1.0, 2.0, 3.0};
  const Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
  Vec y = b;
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  EXPECT_NEAR(norm2(a), std::sqrt(14.0), 1e-15);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
}

TEST(VectorOps, PositivePart) {
  const Vec v{-1.0, 0.0, 2.5};
  const Vec p = positive_part(v);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 2.5);
}

TEST(Matrix, MultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vec x{1.0, 0.0, -1.0};
  const Vec y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);

  const Vec z{1.0, 1.0};
  const Vec w = a.multiply_transpose(z);
  EXPECT_DOUBLE_EQ(w[0], 5.0);
  EXPECT_DOUBLE_EQ(w[1], 7.0);
  EXPECT_DOUBLE_EQ(w[2], 9.0);

  const Matrix at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(Matrix, MatMulAgainstIdentity) {
  util::Rng rng(1);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.normal();
  const Matrix prod = a.multiply(Matrix::identity(5));
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(Cholesky, FactorsAndSolvesSpd) {
  // A = L0 L0^T with a known L0: the plain factor succeeds (no shift) and
  // reproduces L0.
  Matrix l0(3, 3);
  l0(0, 0) = 2.0;
  l0(1, 0) = -1.0;
  l0(1, 1) = 1.5;
  l0(2, 0) = 0.5;
  l0(2, 1) = 0.25;
  l0(2, 2) = 3.0;
  const Matrix a = l0.multiply(l0.transpose());
  Matrix l(3, 3, 0.0);
  EXPECT_DOUBLE_EQ(cholesky_factor_regularized_into(a, l, 1e-12, 1e16), 0.0);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(l(r, c), l0(r, c), 1e-12);
  const Vec b{1.0, 2.0, 3.0};
  Vec x = b;
  cholesky_solve_in_place(l, x);
  const Vec r = a.multiply(x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  Matrix l(2, 2, 0.0);
  // No shift below the negative eigenvalue's magnitude factors it...
  EXPECT_THROW(cholesky_factor_regularized_into(a, l, 1e-12, 0.5),
               util::CheckError);
  // ...so the plain factor was rejected and the escalation reaches 1.
  EXPECT_GE(cholesky_factor_regularized_into(a, l, 1e-12, 1e16), 1.0);
}

TEST(Cholesky, RegularizedShiftsSingular) {
  Matrix a(2, 2);  // rank-1 PSD
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  Matrix l(2, 2, 0.0);
  EXPECT_GT(cholesky_factor_regularized_into(a, l, 1e-10, 1.0), 0.0);
  Vec x{1.0, 1.0};
  cholesky_solve_in_place(l, x);
  EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
}

TEST(Lu, SolvesRandomSystems) {
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    Vec b(n);
    for (auto& v : b) v = rng.normal();
    const auto lu = Lu::factor(a);
    ASSERT_TRUE(lu.has_value());
    const Vec x = lu->solve(b);
    const Vec r = a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
  }
}

TEST(Lu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_FALSE(Lu::factor(a).has_value());
}

TEST(Sparse, FromTripletsMergesDuplicates) {
  std::vector<Triplet> t{{0, 0, 1.0}, {0, 0, 2.0}, {1, 2, -1.0}, {1, 2, 1.0}};
  const auto m = SparseMatrix::from_triplets(2, 3, t);
  EXPECT_EQ(m.nonzeros(), 1u);  // (1,2) cancels, (0,0) merges to 3
  const Vec y = m.multiply({1.0, 0.0, 5.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(Sparse, MultiplyMatchesDense) {
  util::Rng rng(21);
  const std::size_t rows = 20, cols = 15;
  Matrix dense(rows, cols);
  std::vector<Triplet> trip;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.uniform() < 0.3) {
        const double v = rng.normal();
        dense(r, c) = v;
        trip.push_back({r, c, v});
      }
  const auto sparse = SparseMatrix::from_triplets(rows, cols, trip);
  Vec x(cols);
  for (auto& v : x) v = rng.normal();
  const Vec ys = sparse.multiply(x);
  const Vec yd = dense.multiply(x);
  for (std::size_t r = 0; r < rows; ++r) EXPECT_NEAR(ys[r], yd[r], 1e-12);

  Vec z(rows);
  for (auto& v : z) v = rng.normal();
  const Vec ws = sparse.multiply_transpose(z);
  const Vec wd = dense.multiply_transpose(z);
  for (std::size_t c = 0; c < cols; ++c) EXPECT_NEAR(ws[c], wd[c], 1e-12);
}

TEST(Sparse, AbsSumsAndScale) {
  std::vector<Triplet> t{{0, 0, 3.0}, {0, 1, -4.0}, {1, 1, 2.0}};
  auto m = SparseMatrix::from_triplets(2, 2, t);
  const Vec r1 = m.row_abs_sums(1.0);
  EXPECT_DOUBLE_EQ(r1[0], 7.0);
  EXPECT_DOUBLE_EQ(r1[1], 2.0);
  const Vec rmax = m.row_abs_sums(0.0);
  EXPECT_DOUBLE_EQ(rmax[0], 4.0);
  const Vec c2 = m.col_abs_sums(2.0);
  EXPECT_DOUBLE_EQ(c2[0], 9.0);
  EXPECT_DOUBLE_EQ(c2[1], 20.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);

  m.scale({0.5, 2.0}, {1.0, 0.25});
  const Vec y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 1.5 - 0.5);  // 3*0.5*1 + (-4)*0.5*0.25
  EXPECT_DOUBLE_EQ(y[1], 1.0);        // 2*2*0.25
}

TEST(Sparse, TripletBuilderDropsZeros) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 0.0);
  b.add(1, 1, 5.0);
  const auto m = std::move(b).build();
  EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(Sparse, TransposeMatchesDenseAndRoundTrips) {
  util::Rng rng(77);
  const std::size_t rows = 17, cols = 23;
  std::vector<Triplet> trip;
  Matrix dense(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.uniform() < 0.25) {
        const double v = rng.normal();
        dense(r, c) = v;
        trip.push_back({r, c, v});
      }
  const auto a = SparseMatrix::from_triplets(rows, cols, trip);
  const SparseMatrix at = a.transpose();
  ASSERT_EQ(at.rows(), cols);
  ASSERT_EQ(at.cols(), rows);
  EXPECT_EQ(at.nonzeros(), a.nonzeros());

  // Entry-exact against the dense transpose, with sorted column indices.
  const Matrix dt = dense.transpose();
  for (std::size_t r = 0; r < cols; ++r) {
    const SparseRowView row = at.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      EXPECT_DOUBLE_EQ(row.vals[k], dt(r, row.cols[k]));
      if (k > 0) EXPECT_LT(row.cols[k - 1], row.cols[k]);
    }
  }

  // (A^T)^T x == A x and A^T y via the explicit transpose == the fused
  // multiply_transpose — the identity the PDHG matvecs rely on.
  Vec x(cols), y(rows);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  const Vec ax = a.multiply(x);
  const Vec attx = at.transpose().multiply(x);
  for (std::size_t r = 0; r < rows; ++r) EXPECT_DOUBLE_EQ(attx[r], ax[r]);
  const Vec aty_fused = a.multiply_transpose(y);
  const Vec aty_explicit = at.multiply(y);
  for (std::size_t c = 0; c < cols; ++c)
    EXPECT_NEAR(aty_explicit[c], aty_fused[c], 1e-12);
}

}  // namespace
}  // namespace sora::linalg
