#include "linalg/dense_matrix.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "check/faultinject.h"
#include "runtime/status.h"

namespace ntr::linalg {

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector DenseMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("DenseMatrix::multiply: size");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += data_[r * cols_ + c] * x[c];
    y[r] = s;
  }
  return y;
}

CholeskyFactorization::CholeskyFactorization(DenseMatrix a) : l_(std::move(a)) {
  if (l_.rows() != l_.cols())
    throw std::invalid_argument("CholeskyFactorization: matrix must be square");
  const std::size_t n = l_.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = l_(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    NTR_FAULT_POINT(kCholeskyNotSpd);
    if (diag <= 0.0)
      throw runtime::NtrError(
          runtime::StatusCode::kSingular,
          "CholeskyFactorization: matrix not positive definite (n=" +
              std::to_string(n) + ", pivot " + std::to_string(j) +
              " reduced to " + std::to_string(diag) + ")");
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l_(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
    // Zero the strictly-upper part so l_ is exactly L.
    for (std::size_t c = j + 1; c < n; ++c) l_(j, c) = 0.0;
  }
}

Vector CholeskyFactorization::solve(std::span<const double> b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("CholeskyFactorization::solve: size");
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double s = b[r];
    for (std::size_t c = 0; c < r; ++c) s -= l_(r, c) * y[c];
    y[r] = s / l_(r, r);
  }
  Vector x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= l_(c, ri) * x[c];
    x[ri] = s / l_(ri, ri);
  }
  return x;
}

}  // namespace ntr::linalg
