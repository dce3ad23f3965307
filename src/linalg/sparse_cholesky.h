#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/sparse.h"
#include "linalg/vector_ops.h"

namespace ntr::linalg {

/// Reverse Cuthill-McKee ordering of a symmetric sparsity pattern:
/// a permutation that clusters nonzeros near the diagonal, shrinking the
/// bandwidth (and with it, the fill-in of a banded/envelope
/// factorization). Classic companion of grid- and circuit-shaped
/// matrices, whose natural orderings are already near-banded. Every
/// stored off-diagonal entry counts as an edge; O(nnz log d) for maximum
/// degree d when the pattern is connected.
std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& pattern);

/// The symbolic half of an envelope factorization: row i of the lower
/// triangle keeps columns [first_col[i], i], where first_col[i] is the
/// first stored column of row i (or i). Cholesky fill stays inside this
/// envelope, so matrices with one sparsity pattern (a conductance matrix
/// and its transient companions) share one Envelope.
struct Envelope {
  /// Envelope of P A P^T for `order` (order[new] = old); an empty order
  /// keeps A's own. O(nnz).
  explicit Envelope(const CsrMatrix& a, std::span<const std::size_t> order = {});

  [[nodiscard]] std::size_t size() const { return first_col.size(); }
  [[nodiscard]] std::size_t stored_entries() const { return row_start.back(); }

  std::vector<std::size_t> first_col;
  std::vector<std::size_t> row_start;  ///< n + 1 prefix offsets into a factor's values
};

/// Envelope (skyline) Cholesky factorization for sparse SPD matrices, in
/// its square-root-free form A = L D L^T with unit lower L: rows are
/// stored from their first nonzero column to the diagonal; all fill-in
/// stays inside that envelope, so after a bandwidth-reducing permutation
/// the cost is O(n * b^2) for bandwidth b instead of dense O(n^3), and a
/// solve costs O(envelope). For conductance matrices of routing graphs
/// (near-planar, low-degree) this is the scalable path the dense
/// CholeskyFactorization cannot provide beyond a few hundred nodes.
class EnvelopeCholesky {
 public:
  /// Factors P A P^T where P is reverse_cuthill_mckee(A)'s permutation
  /// (pass reorder = false to keep the natural order). Throws
  /// ntr::runtime::NtrError (StatusCode::kSingular) if A is not
  /// positive definite.
  explicit EnvelopeCholesky(const CsrMatrix& a, bool reorder = true);

  /// Factors A in its own order over a shared `envelope`, which must
  /// cover A's lower triangle (std::invalid_argument otherwise). Throws
  /// like the constructor above when A is not positive definite.
  EnvelopeCholesky(std::shared_ptr<const Envelope> envelope, const CsrMatrix& a);

  [[nodiscard]] std::size_t size() const { return envelope_->size(); }

  /// Solves A x = b (the permutation is handled internally).
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// x <- A^{-1} (x + M v), in place and without allocating. The product
  /// is formed row by row inside the forward sweep, where it overlaps the
  /// sweep's dependency chain. Works in elimination order: for a factor
  /// built with reordering, x, M and v are permuted like A; for one built
  /// without it or over a shared Envelope, they are as given.
  void solve_in_place(std::span<double> x, const CsrMatrix& m,
                      std::span<const double> v) const;

  /// x <- A^{-1} x, in place and without allocating, in elimination
  /// order like the overload above.
  void solve_in_place(std::span<double> x) const;

  /// The elimination order, order()[new] = old; empty for a factor kept
  /// in its natural order.
  [[nodiscard]] std::span<const std::size_t> order() const { return perm_; }

  /// Envelope size (stored entries) -- for tests and the scaling bench.
  [[nodiscard]] std::size_t stored_entries() const { return values_.size(); }

 private:
  /// Copies A's lower triangle into the envelope, in elimination order.
  void load(const CsrMatrix& a);
  /// Row-oriented in-place L D L^T of the loaded values.
  void factor();
  /// The forward, diagonal and back substitutions of both solves, in
  /// elimination order; M may be null.
  void substitute(std::span<double> x, const CsrMatrix* m,
                  std::span<const double> v) const;
  /// values_ offset of row r's column 0: entry (r, c) sits at
  /// values_[row_base(r) + c] for c in [first_col[r], r].
  [[nodiscard]] std::size_t row_base(std::size_t r) const {
    return envelope_->row_start[r] - envelope_->first_col[r];
  }

  std::shared_ptr<const Envelope> envelope_;
  std::vector<double> values_;     // unit L row by row over the envelope
  std::vector<double> inv_pivot_;  // 1 / D(i, i)
  std::vector<std::size_t> perm_;      // new index -> old index; empty: natural order
  std::vector<std::size_t> inv_perm_;  // old index -> new index
};

}  // namespace ntr::linalg
