#include "linalg/sparse_cholesky.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/faultinject.h"
#include "runtime/status.h"

namespace ntr::linalg {

std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& pattern) {
  const std::size_t n = pattern.rows();
  if (pattern.cols() != n)
    throw std::invalid_argument("reverse_cuthill_mckee: matrix must be square");
  const std::span<const std::size_t> row_ptr = pattern.row_ptr();
  const std::span<const std::size_t> col_idx = pattern.col_idx();

  // Off-diagonal degree of every vertex.
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      degree[r] += col_idx[k] != r;
  const auto by_degree = [&](std::size_t a, std::size_t b) {
    return degree[a] < degree[b];
  };

  // Breadth-first: `order` doubles as the queue, because vertices leave
  // it in the order they entered.
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::size_t head = 0;
  while (order.size() < n) {
    // Start each component from a minimum-degree vertex (a cheap stand-in
    // for a pseudo-peripheral vertex).
    std::size_t start = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!visited[v] && (start == n || degree[v] < degree[start])) start = v;
    }
    visited[start] = true;
    order.push_back(start);
    while (head < order.size()) {
      const std::size_t v = order[head++];
      const std::size_t first_child = order.size();
      for (std::size_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
        const std::size_t w = col_idx[k];
        if (w != v && !visited[w]) {
          visited[w] = true;
          order.push_back(w);
        }
      }
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(first_child), order.end(),
                by_degree);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;  // order[new_index] = old_index
}

Envelope::Envelope(const CsrMatrix& a, std::span<const std::size_t> order) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("Envelope: matrix must be square");
  if (!order.empty() && order.size() != n)
    throw std::invalid_argument("Envelope: order must permute every row");
  std::vector<std::size_t> inv(order.empty() ? 0 : n);
  for (std::size_t i = 0; i < inv.size(); ++i) inv[order[i]] = i;
  const std::span<const std::size_t> row_ptr = a.row_ptr();
  const std::span<const std::size_t> col_idx = a.col_idx();

  first_col.resize(n);
  row_start.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t old_r = order.empty() ? r : order[r];
    std::size_t first = r;
    for (std::size_t k = row_ptr[old_r]; k < row_ptr[old_r + 1]; ++k)
      first = std::min(first, inv.empty() ? col_idx[k] : inv[col_idx[k]]);
    first_col[r] = first;
    row_start[r + 1] = row_start[r] + (r - first + 1);
  }
}

EnvelopeCholesky::EnvelopeCholesky(const CsrMatrix& a, bool reorder) {
  if (a.cols() != a.rows())
    throw std::invalid_argument("EnvelopeCholesky: matrix must be square");
  if (reorder) {
    perm_ = reverse_cuthill_mckee(a);
    inv_perm_.resize(perm_.size());
    for (std::size_t i = 0; i < perm_.size(); ++i) inv_perm_[perm_[i]] = i;
  }
  envelope_ = std::make_shared<const Envelope>(a, perm_);
  load(a);
  factor();
}

EnvelopeCholesky::EnvelopeCholesky(std::shared_ptr<const Envelope> envelope,
                                   const CsrMatrix& a)
    : envelope_(std::move(envelope)) {
  if (!envelope_ || a.rows() != envelope_->size() || a.cols() != a.rows())
    throw std::invalid_argument("EnvelopeCholesky: matrix does not fit the envelope");
  load(a);
  factor();
}

void EnvelopeCholesky::load(const CsrMatrix& a) {
  const Envelope& env = *envelope_;
  const std::span<const std::size_t> row_ptr = a.row_ptr();
  const std::span<const std::size_t> col_idx = a.col_idx();
  const std::span<const double> values = a.values();
  values_.assign(env.stored_entries(), 0.0);
  for (std::size_t old_r = 0; old_r < a.rows(); ++old_r) {
    const std::size_t r = perm_.empty() ? old_r : inv_perm_[old_r];
    for (std::size_t k = row_ptr[old_r]; k < row_ptr[old_r + 1]; ++k) {
      const std::size_t c = perm_.empty() ? col_idx[k] : inv_perm_[col_idx[k]];
      if (c > r) continue;  // upper triangle: the factor reads only the lower
      if (c < env.first_col[r])
        throw std::invalid_argument("EnvelopeCholesky: entry outside the envelope");
      values_[row_base(r) + c] = values[k];
    }
  }
}

void EnvelopeCholesky::factor() {
  const Envelope& env = *envelope_;
  const std::size_t n = env.size();
  inv_pivot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t fi = env.first_col[i];
    double* li = values_.data() + row_base(i);  // li[c] = L(i, c)
    // First t_ij = a_ij - sum_k t_ik l_jk = l_ij d_j over the shared
    // envelope, then d_i = a_ii - sum_j t_ij l_ij and l_ij = t_ij / d_j.
    for (std::size_t j = fi; j < i; ++j) {
      const double* lj = values_.data() + row_base(j);
      double t = li[j];
      for (std::size_t k = std::max(fi, env.first_col[j]); k < j; ++k) t -= li[k] * lj[k];
      li[j] = t;
    }
    double d = li[i];
    for (std::size_t j = fi; j < i; ++j) {
      const double l = li[j] * inv_pivot_[j];
      d -= li[j] * l;
      li[j] = l;
    }
    NTR_FAULT_POINT(kCholeskyNotSpd);
    if (d <= 0.0)
      throw runtime::NtrError(
          runtime::StatusCode::kSingular,
          "EnvelopeCholesky: matrix not positive definite (n=" +
              std::to_string(n) + ", pivot " + std::to_string(i) +
              " reduced to " + std::to_string(d) + ")");
    li[i] = 1.0;
    inv_pivot_[i] = 1.0 / d;
  }
}

void EnvelopeCholesky::solve_in_place(std::span<double> x, const CsrMatrix& m,
                                      std::span<const double> v) const {
  if (x.size() != size() || m.rows() != size() || m.cols() != v.size())
    throw std::invalid_argument("EnvelopeCholesky::solve: size");
  substitute(x, &m, v);
}

void EnvelopeCholesky::solve_in_place(std::span<double> x) const {
  if (x.size() != size()) throw std::invalid_argument("EnvelopeCholesky::solve: size");
  substitute(x, nullptr, {});
}

void EnvelopeCholesky::substitute(std::span<double> x, const CsrMatrix* m,
                                  std::span<const double> v) const {
  const Envelope& env = *envelope_;
  const std::size_t n = env.size();
  // Forward substitution, L y = x + M v, row by row. Row i's product does
  // not depend on the sweep, so it overlaps the sweep's dependency chain;
  // y_{i-1}, the last term of row i, comes from a register, not memory.
  double last = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    if (m != nullptr) {
      const std::span<const std::size_t> row_ptr = m->row_ptr();
      const std::span<const std::size_t> col_idx = m->col_idx();
      const std::span<const double> values = m->values();
      for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
        s += values[k] * v[col_idx[k]];
    }
    const double* li = values_.data() + row_base(i);
    if (env.first_col[i] < i) {
      for (std::size_t k = env.first_col[i]; k + 1 < i; ++k) s -= li[k] * x[k];
      s -= li[i - 1] * last;
    }
    x[i] = s;
    last = s;
  }
  for (std::size_t i = 0; i < n; ++i) x[i] *= inv_pivot_[i];  // D z = y
  // Back substitution, L^T x = z: row i of L is column i of L^T, so once
  // x_i is known its contributions leave the rows above in one sweep; the
  // one to x_{i-1}, needed next, is carried in a register.
  double carry = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    const double* li = values_.data() + row_base(i);
    const double xi = x[i] - carry;
    x[i] = xi;
    carry = 0.0;
    if (env.first_col[i] < i) {
      for (std::size_t k = env.first_col[i]; k + 1 < i; ++k) x[k] -= li[k] * xi;
      carry = li[i - 1] * xi;
    }
  }
}

Vector EnvelopeCholesky::solve(std::span<const double> b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("EnvelopeCholesky::solve: size");
  if (perm_.empty()) {
    Vector x(b.begin(), b.end());
    substitute(x, nullptr, {});
    return x;
  }
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = b[perm_[i]];
  substitute(z, nullptr, {});
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = z[i];
  return x;
}

}  // namespace ntr::linalg
