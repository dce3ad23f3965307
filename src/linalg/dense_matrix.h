#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"

namespace ntr::linalg {

/// Row-major dense square-or-rectangular matrix of doubles. Dense LU
/// serves the indefinite MNA systems of RLC decks, and the dense Cholesky
/// is the reference the tests hold the envelope factor to. Every RC
/// conductance system (the transient march of RC decks, every moment
/// solve) is factored by the envelope L D L^T of linalg/sparse_cholesky.h.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static DenseMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// y = A x
  [[nodiscard]] Vector multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Factor once, solve
/// many right-hand sides -- the access pattern of a fixed-step transient
/// simulation, where (G + 2C/h) is factored once per topology.
class LuFactorization {
 public:
  /// Throws ntr::runtime::NtrError (StatusCode::kSingular, with the
  /// matrix dimension and failing pivot column in the message) if the
  /// matrix is singular to working precision.
  explicit LuFactorization(DenseMatrix a);

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// Determinant sign-and-magnitude via the diagonal of U (for testing).
  [[nodiscard]] double determinant() const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// Cholesky factorization A = L L^T for symmetric positive definite
/// matrices (conductance matrices of connected RC networks are SPD once
/// grounded): the dense reference for the envelope factor, used by the
/// tests and bench/ablation_sparse_scaling. Throws ntr::runtime::NtrError
/// (StatusCode::kSingular) if the matrix is not positive definite.
class CholeskyFactorization {
 public:
  explicit CholeskyFactorization(DenseMatrix a);

  [[nodiscard]] std::size_t size() const { return l_.rows(); }
  [[nodiscard]] Vector solve(std::span<const double> b) const;

 private:
  DenseMatrix l_;
};

}  // namespace ntr::linalg
