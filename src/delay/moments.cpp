#include "delay/moments.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "geom/point.h"

namespace ntr::delay {

GroundedSystem assemble_grounded_system(const graph::RoutingGraph& g,
                                        const spice::Technology& tech,
                                        std::optional<ExtraWire> extra) {
  if (!g.is_connected())
    throw std::invalid_argument("moment analysis: routing graph must be connected");
  const std::size_t n = g.node_count();
  if (extra && (extra->u >= n || extra->v >= n || extra->u == extra->v))
    throw std::invalid_argument("assemble_grounded_system: invalid extra wire");
  linalg::TripletBuilder builder(n, n);
  std::vector<double> cap(n, 0.0);
  const auto stamp = [&](const graph::GraphEdge& e) {
    const double conductance = wire_conductance(e.length, e.width, tech);
    builder.add(e.u, e.u, conductance);
    builder.add(e.v, e.v, conductance);
    builder.add(e.u, e.v, -conductance);
    builder.add(e.v, e.u, -conductance);
    const double c_half = tech.wire_capacitance(e.length, e.width) / 2.0;
    cap[e.u] += c_half;
    cap[e.v] += c_half;
  };
  for (const graph::GraphEdge& e : g.edges()) stamp(e);
  // Norton-transformed driver: with the ideal step shorted, the driver
  // resistance grounds the source node.
  builder.add(g.source(), g.source(), 1.0 / tech.driver_resistance_ohm);
  for (graph::NodeId u = 0; u < n; ++u)
    if (g.node(u).kind == graph::NodeKind::kSink) cap[u] += tech.sink_capacitance_f;
  if (extra)
    stamp({extra->u, extra->v,
           geom::manhattan_distance(g.node(extra->u).pos, g.node(extra->v).pos), 1.0});
  return GroundedSystem{linalg::CsrMatrix(builder), std::move(cap)};
}

std::vector<std::vector<double>> moments(const linalg::EnvelopeCholesky& g_factor,
                                         std::span<const double> capacitance,
                                         std::size_t count) {
  std::vector<std::vector<double>> m;
  if (count > 0) m.push_back(g_factor.solve(capacitance));
  std::vector<double> rhs;
  while (m.size() < count) {
    rhs.resize(capacitance.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = capacitance[i] * m.back()[i];
    m.push_back(g_factor.solve(rhs));
  }
  return m;
}

std::vector<std::vector<double>> moments(const GroundedSystem& sys, std::size_t count) {
  return moments(linalg::EnvelopeCholesky(sys.conductance), sys.capacitance, count);
}

MomentAnalysis moment_analysis(const graph::RoutingGraph& g,
                               const spice::Technology& tech) {
  std::vector<std::vector<double>> m = moments(assemble_grounded_system(g, tech), 2);
  return MomentAnalysis{std::move(m[0]), std::move(m[1])};
}

std::vector<double> graph_elmore_delays(const graph::RoutingGraph& g,
                                        const spice::Technology& tech) {
  return std::move(moments(assemble_grounded_system(g, tech), 1).front());
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
