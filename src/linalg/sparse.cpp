#include "linalg/sparse.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ntr::linalg {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= rows_ || c >= cols_)
    throw std::out_of_range("TripletBuilder::add: index out of range");
  if (v != 0.0) entries_.push_back({r, c, v});
}

CsrMatrix::CsrMatrix(const TripletBuilder& builder) : cols_(builder.cols()) {
  const std::size_t n_rows = builder.rows();
  std::vector<TripletBuilder::Triplet> sorted(builder.triplets().begin(),
                                              builder.triplets().end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });

  row_ptr_.assign(n_rows + 1, 0);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    double sum = sorted[i].v;
    while (j < sorted.size() && sorted[j].r == sorted[i].r && sorted[j].c == sorted[i].c) {
      sum += sorted[j].v;
      ++j;
    }
    if (sum != 0.0) {
      col_idx_.push_back(sorted[i].c);
      values_.push_back(sum);
      ++row_ptr_[sorted[i].r + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < n_rows; ++r) row_ptr_[r + 1] += row_ptr_[r];
}

CsrMatrix::CsrMatrix(std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx, std::vector<double> values)
    : cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.empty() || row_ptr_.front() != 0 || row_ptr_.back() != col_idx_.size() ||
      values_.size() != col_idx_.size() ||
      !std::is_sorted(row_ptr_.begin(), row_ptr_.end()))
    throw std::invalid_argument("CsrMatrix: row_ptr/col_idx/values disagree");
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      if (col_idx_[k] >= cols_ || (k > row_ptr_[r] && col_idx_[k] <= col_idx_[k - 1]))
        throw std::invalid_argument(
            "CsrMatrix: columns must be in range and strictly increasing per row");
  }
}

CsrMatrix CsrMatrix::with_values(std::vector<double> values) const {
  if (values.size() != values_.size())
    throw std::invalid_argument("CsrMatrix::with_values: one value per stored entry");
  CsrMatrix m;
  m.cols_ = cols_;
  m.row_ptr_ = row_ptr_;
  m.col_idx_ = col_idx_;
  m.values_ = std::move(values);
  return m;
}

Vector CsrMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("CsrMatrix::multiply: size");
  Vector y(rows(), 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      s += values_[k] * x[col_idx_[k]];
    y[r] = s;
  }
  return y;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows() || c >= cols_) throw std::out_of_range("CsrMatrix::at");
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
    if (col_idx_[k] == c) return values_[k];
  return 0.0;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix m(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      m(r, col_idx_[k]) = values_[k];
  return m;
}

}  // namespace ntr::linalg
