#include <gtest/gtest.h>

#include <random>

#include "linalg/dense_matrix.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "linalg/vector_ops.h"

namespace ntr::linalg {
namespace {

DenseMatrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  DenseMatrix a(n, n);
  // A = B B^T + n*I is SPD.
  DenseMatrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = d(rng);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += b(r, k) * b(c, k);
      a(r, c) = s + (r == c ? static_cast<double>(n) : 0.0);
    }
  return a;
}

Vector random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-5.0, 5.0);
  Vector v(n);
  for (double& x : v) x = d(rng);
  return v;
}

TEST(VectorOps, DotAxpyNorms) {
  const Vector a{1, 2, 3};
  const Vector b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  Vector y = b;
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  EXPECT_THROW(dot(a, Vector{1}), std::invalid_argument);
}

TEST(DenseMatrix, MultiplyAndIdentity) {
  const DenseMatrix eye = DenseMatrix::identity(3);
  const Vector x{1, 2, 3};
  EXPECT_EQ(eye.multiply(x), x);

  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 2;
  a(1, 1) = -1;
  const Vector y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Cholesky, MatchesLuOnSpd) {
  // Solves random SPD systems with known solutions, and agrees with the
  // envelope L D L^T on the same matrix.
  for (unsigned seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 15;
    const DenseMatrix a = random_spd(n, seed);
    const Vector x_true = random_vector(n, seed + 7);
    const Vector b = a.multiply(x_true);
    const Vector x_chol = CholeskyFactorization(a).solve(b);
    TripletBuilder tb(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) tb.add(r, c, a(r, c));
    const Vector x_env = EnvelopeCholesky(CsrMatrix(tb)).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_chol[i], x_true[i], 1e-8);
      EXPECT_NEAR(x_chol[i], x_env[i], 1e-10);
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactorization{a}, std::runtime_error);
}

TEST(Sparse, TripletsAccumulateDuplicates) {
  TripletBuilder tb(2, 2);
  tb.add(0, 0, 1.0);
  tb.add(0, 0, 2.0);
  tb.add(1, 0, -1.0);
  tb.add(1, 0, 1.0);  // cancels to zero -> dropped
  const CsrMatrix m(tb);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(Sparse, MultiplyMatchesDense) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  TripletBuilder tb(10, 10);
  for (int k = 0; k < 40; ++k)
    tb.add(rng() % 10, rng() % 10, d(rng));
  const CsrMatrix sparse(tb);
  const DenseMatrix dense = sparse.to_dense();
  const Vector x = random_vector(10, 42);
  const Vector ys = sparse.multiply(x);
  const Vector yd = dense.multiply(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

}  // namespace
}  // namespace ntr::linalg
