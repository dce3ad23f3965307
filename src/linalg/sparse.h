#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace ntr::linalg {

/// Coordinate-format accumulator: stamp (row, col, value) contributions in
/// any order (duplicates sum, as circuit stamping requires), then freeze
/// into CSR.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  struct Triplet {
    std::size_t r, c;
    double v;
  };
  [[nodiscard]] std::span<const Triplet> triplets() const { return entries_; }

 private:
  std::size_t rows_, cols_;
  std::vector<Triplet> entries_;
};

/// Compressed sparse row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(const TripletBuilder& builder);
  /// Adopts a pattern built by the caller: row r holds entries
  /// [row_ptr[r], row_ptr[r + 1]) with strictly increasing columns.
  /// Entries may be explicit zeros, so several matrices can share one
  /// structural pattern. Throws std::invalid_argument on a malformed
  /// pattern.
  CsrMatrix(std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::size_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

  /// A matrix with this one's pattern and `values` (one per stored entry).
  [[nodiscard]] CsrMatrix with_values(std::vector<double> values) const;

  /// y = A x
  [[nodiscard]] Vector multiply(std::span<const double> x) const;

  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] DenseMatrix to_dense() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace ntr::linalg
