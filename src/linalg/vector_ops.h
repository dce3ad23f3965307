#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace ntr::linalg {

using Vector = std::vector<double>;

inline double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// y += alpha * x
inline void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

inline double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

inline double norm_inf(std::span<const double> x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace ntr::linalg
