#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "linalg/vector_ops.h"
#include "spice/netlist.h"

namespace ntr::sim {

/// An inductor of a nodal system. Its current i flows from terminal a to
/// terminal b, and L di/dt is the drop v_a - v_b. Both terminals are
/// state slots (see NodalSystem::slot_of_node), so a fixed terminal reads
/// its constant voltage from the state vector.
struct NodalInductor {
  std::size_t a = 0;
  std::size_t b = 0;
  double henries = 0.0;

  /// The trapezoidal companion conductance at step h: h / (2L).
  [[nodiscard]] double gamma(double h) const { return h / (2.0 * henries); }
};

/// The Norton-reduced nodal form of a deck, the one system the transient
/// march steps: a deck whose every voltage source has one terminal at
/// ground and drives a node no other source drives, and whose capacitors
/// touch no driven node. Each driven node's voltage is known for t >= 0,
/// so it leaves the unknowns, and the resistors tying it to the rest
/// become Norton currents:
///
///   C x'(t) + G x(t) + A i(t) = b_final   over the free nodes (neither
///                                         ground nor driven), t >= 0,
///
/// where i holds the inductor currents and A their incidence on the free
/// nodes (+1 at a, -1 at b). For the paper's ideal step behind 100 ohms
/// b_final is the step's Norton equivalent. G and C are symmetric and
/// share one CSR pattern (their union, each inductor's coupling and the
/// diagonal included), with the free nodes numbered in reverse
/// Cuthill-McKee order. G + sC (s > 0) plus the inductors' companion
/// conductances is SPD when every free node has a resistive or inductive
/// path to ground or to a driven node, so one Envelope serves every factor
/// the march takes.
struct NodalSystem {
  linalg::CsrMatrix g;
  linalg::CsrMatrix c;
  linalg::Vector b_final;  ///< Norton currents of the sources for t >= 0
  /// State slot of every circuit node's voltage: free nodes at
  /// [0, free_nodes()), then ground and the driven nodes, whose voltages
  /// fixed_voltages holds in that order.
  std::vector<std::size_t> slot_of_node;
  /// 0 for ground, then each driven node's source level (held for t >= 0).
  linalg::Vector fixed_voltages;
  std::vector<NodalInductor> inductors;
  std::shared_ptr<const linalg::Envelope> envelope;  ///< of the shared pattern

  [[nodiscard]] std::size_t free_nodes() const { return g.rows(); }
};

/// Reduces `circuit` to the nodal system the march steps. Throws
/// ntr::runtime::NtrError (StatusCode::kBadInput), naming the element,
/// for a deck the nodal march cannot take: a source without exactly one
/// terminal at ground, two sources on one node, a capacitor touching a
/// driven node, an inductor with both terminals fixed, or a deck with no
/// free node.
NodalSystem reduce_deck(const spice::Circuit& circuit);

/// The DC form of `circuit`: every inductor a short, so the nodes it joins
/// merge, and a merged node holding ground or a driven node is fixed at
/// that voltage. Its slot_of_node maps each circuit node to its merged
/// node's slot; it has no inductors and may have no free node. Throws
/// like reduce_deck when the merged deck breaks reduce_deck's rules (say,
/// inductors tie a driven node to ground).
NodalSystem reduce_dc_deck(const spice::Circuit& circuit);

/// The DC steady state and first moments of an inductor-free system (an
/// RC deck, or any deck's DC form), from one factorization of G: the free
/// nodes' steady state G x_inf = b_final and their first moments
/// m1 = G^{-1} C x_inf. For a node whose voltage rises monotonically to
/// x_inf, m1 / x_inf is exactly its Elmore delay. Throws
/// ntr::runtime::NtrError (StatusCode::kSingular) when G is singular.
struct RcSteadyState {
  linalg::Vector x_inf;
  linalg::Vector m1;
};
RcSteadyState rc_steady_state(const NodalSystem& system);

/// One integration method's companion model at step h, on the system's
/// envelope: the new free-node voltages solve lhs x1 = rhs x0 + bias plus
/// the inductors' history currents, which change every step (see
/// TransientSimulator). With Gamma = diag(h / (2L)):
///
///   backward Euler: lhs = G + C/h + 2 A Gamma A^T,  rhs = C/h,
///                   bias = b_final;
///   trapezoidal:    lhs = G + 2C/h + A Gamma A^T,
///                   rhs = 2C/h - G - A Gamma A^T,   bias = 2 b_final.
struct Companion {
  linalg::EnvelopeCholesky lhs;
  linalg::CsrMatrix rhs;
  linalg::Vector bias;
};
Companion companion(const NodalSystem& system, double h, bool trapezoidal);

}  // namespace ntr::sim
