#include "delay/moments.h"

#include <cmath>
#include <stdexcept>

#include "linalg/sparse_cholesky.h"

namespace ntr::delay {

namespace {

constexpr double kShortResistanceOhm = 1e-6;  // matches spice::build_netlist

}  // namespace

double wire_conductance(double length_um, double width,
                        const spice::Technology& tech) {
  const double r = length_um > 0.0 ? tech.wire_resistance(length_um, width)
                                   : kShortResistanceOhm;
  return 1.0 / r;
}

GroundedSystem assemble_grounded_system(const graph::RoutingGraph& g,
                                        const spice::Technology& tech) {
  if (!g.is_connected())
    throw std::invalid_argument("moment analysis: routing graph must be connected");
  const std::size_t n = g.node_count();
  GroundedSystem sys{linalg::DenseMatrix(n, n), std::vector<double>(n, 0.0)};

  for (const graph::GraphEdge& e : g.edges()) {
    const double conductance = wire_conductance(e.length, e.width, tech);
    sys.conductance(e.u, e.u) += conductance;
    sys.conductance(e.v, e.v) += conductance;
    sys.conductance(e.u, e.v) -= conductance;
    sys.conductance(e.v, e.u) -= conductance;
    const double c_half = tech.wire_capacitance(e.length, e.width) / 2.0;
    sys.capacitance[e.u] += c_half;
    sys.capacitance[e.v] += c_half;
  }
  // Norton-transformed driver: with the ideal step shorted, the driver
  // resistance grounds the source node.
  sys.conductance(g.source(), g.source()) += 1.0 / tech.driver_resistance_ohm;
  for (graph::NodeId u = 0; u < n; ++u)
    if (g.node(u).kind == graph::NodeKind::kSink)
      sys.capacitance[u] += tech.sink_capacitance_f;
  return sys;
}

void stamp_grounded_conductance(const graph::RoutingGraph& g,
                                const spice::Technology& tech,
                                linalg::TripletBuilder& builder) {
  if (!g.is_connected())
    throw std::invalid_argument("moment analysis: routing graph must be connected");
  for (const graph::GraphEdge& e : g.edges()) {
    const double conductance = wire_conductance(e.length, e.width, tech);
    builder.add(e.u, e.u, conductance);
    builder.add(e.v, e.v, conductance);
    builder.add(e.u, e.v, -conductance);
    builder.add(e.v, e.u, -conductance);
  }
  builder.add(g.source(), g.source(), 1.0 / tech.driver_resistance_ohm);
}

linalg::CsrMatrix grounded_conductance_csr(const graph::RoutingGraph& g,
                                           const spice::Technology& tech) {
  linalg::TripletBuilder builder(g.node_count(), g.node_count());
  stamp_grounded_conductance(g, tech, builder);
  return linalg::CsrMatrix(builder);
}

std::vector<double> grounded_capacitance(const graph::RoutingGraph& g,
                                         const spice::Technology& tech) {
  std::vector<double> cap(g.node_count(), 0.0);
  for (const graph::GraphEdge& e : g.edges()) {
    const double c_half = tech.wire_capacitance(e.length, e.width) / 2.0;
    cap[e.u] += c_half;
    cap[e.v] += c_half;
  }
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    if (g.node(u).kind == graph::NodeKind::kSink)
      cap[u] += tech.sink_capacitance_f;
  return cap;
}

namespace {

MomentAnalysis moments_sparse(const graph::RoutingGraph& g,
                              const spice::Technology& tech, bool want_m2) {
  const linalg::EnvelopeCholesky chol(grounded_conductance_csr(g, tech));
  const std::vector<double> cap = grounded_capacitance(g, tech);
  MomentAnalysis result;
  result.m1 = chol.solve(cap);
  if (want_m2) {
    std::vector<double> c_m1(cap.size());
    for (std::size_t i = 0; i < cap.size(); ++i) c_m1[i] = cap[i] * result.m1[i];
    result.m2 = chol.solve(c_m1);
  }
  return result;
}

}  // namespace

MomentAnalysis moment_analysis(const graph::RoutingGraph& g,
                               const spice::Technology& tech) {
  if (g.node_count() > kDenseMomentNodeLimit)
    return moments_sparse(g, tech, /*want_m2=*/true);
  const GroundedSystem sys = assemble_grounded_system(g, tech);
  const linalg::CholeskyFactorization chol(sys.conductance);
  MomentAnalysis result;
  result.m1 = chol.solve(sys.capacitance);
  std::vector<double> c_m1(sys.capacitance.size());
  for (std::size_t i = 0; i < c_m1.size(); ++i)
    c_m1[i] = sys.capacitance[i] * result.m1[i];
  result.m2 = chol.solve(c_m1);
  return result;
}

std::vector<double> graph_elmore_delays(const graph::RoutingGraph& g,
                                        const spice::Technology& tech) {
  if (g.node_count() > kDenseMomentNodeLimit)
    return moments_sparse(g, tech, /*want_m2=*/false).m1;
  const GroundedSystem sys = assemble_grounded_system(g, tech);
  const linalg::CholeskyFactorization chol(sys.conductance);
  return chol.solve(sys.capacitance);
}

std::vector<double> d2m_delays(const graph::RoutingGraph& g,
                               const spice::Technology& tech) {
  const MomentAnalysis m = moment_analysis(g, tech);
  std::vector<double> d(m.m1.size(), 0.0);
  constexpr double kLn2 = 0.6931471805599453;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (m.m2[i] > 0.0) {
      d[i] = kLn2 * m.m1[i] * m.m1[i] / std::sqrt(m.m2[i]);
    } else {
      d[i] = kLn2 * m.m1[i];  // degenerate: fall back to single-pole estimate
    }
  }
  return d;
}

}  // namespace ntr::delay
