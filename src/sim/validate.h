#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "check/validation.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "sim/mna.h"

namespace ntr::sim {

struct MnaValidateOptions {
  /// When to run the sparse-Cholesky SPD probe on the node-voltage block
  /// of G. kAuto runs it only when the system has no branch unknowns --
  /// with voltage-source/inductor branch rows present G is symmetric
  /// indefinite by construction and the probe would be meaningless.
  enum class Spd { kAuto, kRequire, kSkip };
  Spd spd = Spd::kAuto;
  /// Require g(i,i) > 0 on the node block (true for any circuit in which
  /// every node has at least one resistive connection). Off by default:
  /// capacitor-only nodes legally stamp a zero conductance diagonal.
  bool require_positive_node_diagonal = false;
  /// Absolute tolerance on |m(i,j) - m(j,i)|, scaled by max(1, |m(i,j)|).
  double symmetry_tolerance = 1e-9;
};

/// Validates an assembled MNA system: consistent dimensions, finite
/// entries, symmetric G and C, non-negative node-block diagonal of G, and
/// (optionally) positive definiteness of the node-voltage conductance
/// block via the envelope Cholesky factorization.
inline check::ValidationReport validate_mna(const MnaSystem& mna,
                                     const MnaValidateOptions& options = {}) {
  check::ValidationReport report;
  const std::size_t n = mna.size();

  if (mna.g.rows() != n || mna.g.cols() != n)
    report.errors.emplace_back("G is not " + std::to_string(n) + "x" +
                               std::to_string(n));
  if (mna.c.rows() != n || mna.c.cols() != n)
    report.errors.emplace_back("C is not " + std::to_string(n) + "x" +
                               std::to_string(n));
  if (mna.b_final.size() != n)
    report.errors.emplace_back("b_final has " + std::to_string(mna.b_final.size()) +
                               " entries for " + std::to_string(n) + " unknowns");
  if (!report.ok()) return report;  // entry scans below assume square shape

  const auto check_symmetric = [&](const linalg::DenseMatrix& m, const char* name) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (!std::isfinite(m(r, c))) {
          report.errors.push_back(std::string(name) + "(" + std::to_string(r) + "," +
                                  std::to_string(c) + ") is not finite");
          return;
        }
        if (c <= r) continue;
        const double diff = std::abs(m(r, c) - m(c, r));
        const double scale = std::max(1.0, std::abs(m(r, c)));
        if (diff > options.symmetry_tolerance * scale) {
          report.errors.push_back(std::string(name) + " is not symmetric at (" +
                                  std::to_string(r) + "," + std::to_string(c) +
                                  "): " + std::to_string(m(r, c)) + " vs " +
                                  std::to_string(m(c, r)));
          return;  // one witness per matrix keeps the report readable
        }
      }
    }
  };
  check_symmetric(mna.g, "G");
  check_symmetric(mna.c, "C");

  for (std::size_t i = 0; i < mna.node_unknowns; ++i) {
    const double d = mna.g(i, i);
    if (d < 0.0 || (options.require_positive_node_diagonal && d <= 0.0)) {
      report.errors.push_back("G node diagonal (" + std::to_string(i) +
                              ") = " + std::to_string(d));
      break;
    }
  }

  const bool probe_spd =
      options.spd == MnaValidateOptions::Spd::kRequire ||
      (options.spd == MnaValidateOptions::Spd::kAuto && mna.branch_unknowns == 0);
  if (report.ok() && probe_spd && mna.node_unknowns > 0) {
    linalg::TripletBuilder builder(mna.node_unknowns, mna.node_unknowns);
    for (std::size_t r = 0; r < mna.node_unknowns; ++r)
      for (std::size_t c = 0; c < mna.node_unknowns; ++c)
        if (mna.g(r, c) != 0.0) builder.add(r, c, mna.g(r, c));
    try {
      const linalg::EnvelopeCholesky chol{linalg::CsrMatrix(builder)};
      (void)chol;
    } catch (const std::runtime_error& e) {
      report.errors.push_back(
          std::string("node conductance block is not positive definite: ") +
          e.what());
    }
  }
  return report;
}

/// Validates a Norton-reduced RC system (see RcSystem): consistent
/// dimensions, G and C on one pattern, finite symmetric G and C, a
/// non-negative diagonal of G, finite Norton currents, and a slot for every
/// circuit node, ground's holding 0. Positive definiteness is left to the
/// factorization, which proves it.
inline check::ValidationReport validate_rc_system(const RcSystem& rc,
                                                  double symmetry_tolerance = 1e-9) {
  check::ValidationReport report;
  const std::size_t n = rc.free_nodes();
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  if (rc.g.cols() != n || rc.c.rows() != n || rc.c.cols() != n ||
      !same(rc.g.row_ptr(), rc.c.row_ptr()) || !same(rc.g.col_idx(), rc.c.col_idx()))
    report.errors.emplace_back("G and C do not share one " + std::to_string(n) + "x" +
                               std::to_string(n) + " pattern");
  if (rc.b_final.size() != n || !rc.envelope || rc.envelope->size() != n)
    report.errors.emplace_back("b_final or the envelope does not match the " +
                               std::to_string(n) + " free nodes");
  if (rc.fixed_voltages.empty() || rc.fixed_voltages.front() != 0.0 ||
      rc.slot_of_node.empty() || rc.slot_of_node.front() != n ||
      std::any_of(rc.slot_of_node.begin(), rc.slot_of_node.end(), [&](std::size_t s) {
        return s >= n + rc.fixed_voltages.size();
      }))
    report.errors.emplace_back("node slots do not map into the state vector");
  if (!report.ok()) return report;  // entry scans below assume the shapes

  const auto row_ptr = rc.g.row_ptr();
  const auto col_idx = rc.g.col_idx();
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
  check_entries(rc.g, "G", /*nonnegative_diagonal=*/true);
  check_entries(rc.c, "C", /*nonnegative_diagonal=*/false);
  for (std::size_t i = 0; i < n && report.ok(); ++i)
    if (!std::isfinite(rc.b_final[i]))
      report.errors.push_back("b_final(" + std::to_string(i) + ") is not finite");
  return report;
}

}  // namespace ntr::sim
