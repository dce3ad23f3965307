#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/routing_graph.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "spice/technology.h"

namespace ntr::delay {

/// First and second moments of the step response at every routing-graph
/// node, computed directly from the graph (each wire as one lumped pi,
/// which matches the distributed first moment exactly; see DESIGN.md).
///
/// m1 is the *graph Elmore delay*: the extension of Elmore delay to
/// arbitrary (cyclic) topologies via one SPD solve G m1 = C 1, in the
/// spirit of Chan-Karplus tree/link partitioning that the paper cites as
/// the way to generalize Elmore beyond trees.
struct MomentAnalysis {
  std::vector<double> m1;  ///< per-node Elmore delay (seconds)
  std::vector<double> m2;  ///< per-node second moment (seconds^2)
};

/// Throws std::invalid_argument when the graph is not connected (the
/// conductance matrix would be singular).
MomentAnalysis moment_analysis(const graph::RoutingGraph& g,
                               const spice::Technology& tech);

/// The grounded node system behind every moment solve: the SPD
/// conductance matrix G (wire conductances + the Norton-transformed
/// driver at the source) and the diagonal capacitance vector C (half of
/// each wire cap at either endpoint + sink loads).
struct GroundedSystem {
  linalg::CsrMatrix conductance;
  std::vector<double> capacitance;
};

/// Effective conductance of a wire of the given length/width; degenerate
/// zero-length wires get the same numerical short as the netlist builder.
/// Inline: the Elmore row kernel evaluates it once per candidate wire.
inline double wire_conductance(double length_um, double width,
                               const spice::Technology& tech) {
  const double r = length_um > 0.0 ? tech.wire_resistance(length_um, width)
                                   : spice::kShortResistanceOhm;
  return 1.0 / r;
}

/// A unit-width wire between two distinct nodes of a routing graph.
struct ExtraWire {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
};

/// Stamps the grounded system of g, plus `extra` on top of g's own wires
/// (a doubled wire when the pair is wired already). G takes the edges in
/// graph order, the driver, then `extra`; C the edge halves, the sink
/// loads, then `extra`'s halves. Throws std::invalid_argument when g is
/// not connected or `extra` is not a wire of g's nodes.
GroundedSystem assemble_grounded_system(const graph::RoutingGraph& g,
                                        const spice::Technology& tech,
                                        std::optional<ExtraWire> extra = std::nullopt);

/// m_1 .. m_count from one factor of G: m_1 = G^{-1} C 1 and
/// m_{k+1} = G^{-1} (C m_k), right-hand side entries C[i] * m_k[i]. The
/// second form factors sys.conductance itself.
std::vector<std::vector<double>> moments(const linalg::EnvelopeCholesky& g_factor,
                                         std::span<const double> capacitance,
                                         std::size_t count);
std::vector<std::vector<double>> moments(const GroundedSystem& sys, std::size_t count);

/// Per-node Elmore delay of an arbitrary routing graph (m1 only).
std::vector<double> graph_elmore_delays(const graph::RoutingGraph& g,
                                        const spice::Technology& tech);

/// D2M two-pole delay metric of Alpert et al.: ln(2) * m1^2 / sqrt(m2).
/// A substantially better 50%-threshold estimate than raw Elmore, still
/// requiring only two SPD solves.
std::vector<double> d2m_delays(const graph::RoutingGraph& g,
                               const spice::Technology& tech);

}  // namespace ntr::delay
