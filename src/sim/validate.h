#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "check/validation.h"
#include "linalg/sparse.h"
#include "sim/nodal.h"

namespace ntr::sim {

/// Validates a nodal system (see NodalSystem): consistent dimensions, G
/// and C on one pattern, finite symmetric G and C, a non-negative diagonal
/// of G, finite Norton currents, a slot for every circuit node, ground's
/// holding 0, and inductors with a positive inductance and at least one
/// free terminal, coupled in the pattern when both are free. Positive
/// definiteness is left to the factorization, which proves it.
inline check::ValidationReport validate_nodal_system(const NodalSystem& sys,
                                                     double symmetry_tolerance = 1e-9) {
  check::ValidationReport report;
  const std::size_t n = sys.free_nodes();
  const std::size_t slots = n + sys.fixed_voltages.size();
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  if (sys.g.cols() != n || sys.c.rows() != n || sys.c.cols() != n ||
      !same(sys.g.row_ptr(), sys.c.row_ptr()) || !same(sys.g.col_idx(), sys.c.col_idx()))
    report.errors.emplace_back("G and C do not share one " + std::to_string(n) + "x" +
                               std::to_string(n) + " pattern");
  if (sys.b_final.size() != n || !sys.envelope || sys.envelope->size() != n)
    report.errors.emplace_back("b_final or the envelope does not match the " +
                               std::to_string(n) + " free nodes");
  if (sys.fixed_voltages.empty() || sys.fixed_voltages.front() != 0.0 ||
      sys.slot_of_node.empty() || sys.slot_of_node.front() != n ||
      std::any_of(sys.slot_of_node.begin(), sys.slot_of_node.end(),
                  [&](std::size_t s) { return s >= slots; }))
    report.errors.emplace_back("node slots do not map into the state vector");
  if (!report.ok()) return report;  // entry scans below assume the shapes

  const auto row_ptr = sys.g.row_ptr();
  const auto col_idx = sys.g.col_idx();
  const auto check_entries = [&](const linalg::CsrMatrix& m, const char* name,
                                 bool nonnegative_diagonal) {
    const auto values = m.values();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::size_t c = col_idx[k];
        const double scale = std::max(1.0, std::abs(values[k]));
        if (!std::isfinite(values[k]) ||
            std::abs(values[k] - m.at(c, r)) > symmetry_tolerance * scale) {
          report.errors.push_back(std::string(name) +
                                  " is not finite and symmetric at (" +
                                  std::to_string(r) + "," + std::to_string(c) + ")");
          return;  // one witness per matrix keeps the report readable
        }
        if (nonnegative_diagonal && c == r && values[k] < 0.0) {
          report.errors.push_back(std::string(name) + " diagonal (" + std::to_string(r) +
                                  ") = " + std::to_string(values[k]));
          return;
        }
      }
    }
  };
  check_entries(sys.g, "G", /*nonnegative_diagonal=*/true);
  check_entries(sys.c, "C", /*nonnegative_diagonal=*/false);
  for (std::size_t i = 0; i < n && report.ok(); ++i)
    if (!std::isfinite(sys.b_final[i]))
      report.errors.push_back("b_final(" + std::to_string(i) + ") is not finite");
  for (std::size_t k = 0; k < sys.inductors.size() && report.ok(); ++k) {
    const NodalInductor& l = sys.inductors[k];
    const bool coupled = l.a >= n || l.b >= n ||
                         std::binary_search(col_idx.begin() + row_ptr[l.a],
                                            col_idx.begin() + row_ptr[l.a + 1], l.b);
    if (l.a >= slots || l.b >= slots || l.a == l.b || (l.a >= n && l.b >= n) ||
        !coupled || !(l.henries > 0.0) || !std::isfinite(l.henries))
      report.errors.push_back("inductor " + std::to_string(k) +
                              " does not join a free node to another node");
  }
  return report;
}

}  // namespace ntr::sim
