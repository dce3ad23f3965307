#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"

namespace ntr::linalg {

/// Row-major dense square-or-rectangular matrix of doubles, and the dense
/// Cholesky the tests hold the envelope factor to. Every system the
/// library solves (the transient march, every moment solve) is factored
/// by the envelope L D L^T of linalg/sparse_cholesky.h.
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
