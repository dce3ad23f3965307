#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "linalg/vector_ops.h"
#include "spice/netlist.h"

namespace ntr::sim {

/// Modified nodal analysis of a linear circuit:
///
///   C x'(t) + G x(t) = b(t)
///
/// Unknowns x are the non-ground node voltages followed by one branch
/// current per voltage source and per inductor. Voltage sources and
/// inductors are stamped symmetrically, so G and C are symmetric (though
/// not positive definite once branch rows are present -- the solvers use
/// LU). For the paper's step-driven nets, b(t) is zero for t < 0 and the
/// constant `b_final` for t >= 0.
struct MnaSystem {
  std::size_t node_unknowns = 0;    ///< node voltages (circuit nodes minus ground)
  std::size_t branch_unknowns = 0;  ///< V-source + inductor currents
  linalg::DenseMatrix g;            ///< conductance / incidence part
  linalg::DenseMatrix c;            ///< capacitance / inductance part
  linalg::Vector b_final;           ///< source vector for t >= 0

  [[nodiscard]] std::size_t size() const { return node_unknowns + branch_unknowns; }

  /// Index of a circuit node's voltage in x. Ground has no unknown.
  [[nodiscard]] std::size_t unknown_of_node(spice::CircuitNode n) const {
    return n - 1;  // node 0 is ground
  }
  [[nodiscard]] double node_voltage(const linalg::Vector& x, spice::CircuitNode n) const {
    return n == spice::kGround ? 0.0 : x.at(unknown_of_node(n));
  }
};

/// Assembles the MNA matrices of a circuit. Throws std::invalid_argument
/// if the circuit has no elements.
MnaSystem assemble_mna(const spice::Circuit& circuit);

/// DC steady state of the step response (all sources at their final value):
/// solves G x = b_final. Throws ntr::runtime::NtrError
/// (StatusCode::kSingular) when G is singular (e.g. a node with no DC path
/// to ground), with the circuit-level cause in the message.
linalg::Vector dc_operating_point(const MnaSystem& mna);

/// Per-unknown first time moment of the step response,
/// m1 = G^{-1} C x_inf: for a node whose voltage rises monotonically to
/// x_inf, m1 / x_inf is exactly the Elmore delay of that node. Defined for
/// arbitrary (non-tree) topologies; this is the workhorse behind both the
/// auto time-step heuristic and the graph Elmore evaluator.
linalg::Vector first_moment(const MnaSystem& mna, const linalg::Vector& x_inf);

/// The Norton-reduced form of an RC deck: a deck with no inductor, whose
/// every voltage source has one terminal at ground, drives a node no other
/// source drives, and whose capacitors touch no driven node. Each driven
/// node's voltage is known for t >= 0, so it leaves the unknowns, and the
/// resistors tying it to the rest become Norton currents:
///
///   C x'(t) + G x(t) = b_final   over the free nodes (neither ground nor
///                                driven), for t >= 0.
///
/// For the paper's ideal step behind 100 ohms this is the step's Norton
/// equivalent. G and C are symmetric and share one CSR pattern (their
/// union, diagonal included), with the free nodes numbered in reverse
/// Cuthill-McKee order. G is SPD when every free node has a resistive path
/// to ground or to a driven node, and G + sC (s > 0) then is too, so one
/// Envelope serves the factors of G and of every companion matrix.
struct RcSystem {
  linalg::CsrMatrix g;
  linalg::CsrMatrix c;
  linalg::Vector b_final;  ///< Norton currents of the sources for t >= 0
  /// State slot of every circuit node's voltage: free nodes at
  /// [0, free_nodes()), then ground and the driven nodes, whose voltages
  /// fixed_voltages holds in that order.
  std::vector<std::size_t> slot_of_node;
  /// 0 for ground, then each driven node's source level (held for t >= 0).
  linalg::Vector fixed_voltages;
  std::shared_ptr<const linalg::Envelope> envelope;  ///< of the shared pattern

  [[nodiscard]] std::size_t free_nodes() const { return g.rows(); }
};

/// Reduces `circuit` when it is an RC deck with at least one free node (see
/// RcSystem); std::nullopt otherwise, leaving the deck to assemble_mna.
std::optional<RcSystem> reduce_rc_deck(const spice::Circuit& circuit);

/// dc_operating_point and first_moment of an RC system, from one
/// factorization of G: the free nodes' DC steady state G x_inf = b_final
/// and their first moments m1 = G^{-1} C x_inf. Throws
/// ntr::runtime::NtrError (StatusCode::kSingular) like dc_operating_point
/// when G is singular.
struct RcSteadyState {
  linalg::Vector x_inf;
  linalg::Vector m1;
};
RcSteadyState rc_steady_state(const RcSystem& rc);

}  // namespace ntr::sim
