#include "spice/graph_netlist.h"

#include <cmath>
#include <string>

namespace ntr::spice {

namespace {

unsigned section_count(const NetlistOptions& options, double length_um) {
  unsigned sections = options.segments_per_edge == 0 ? 1 : options.segments_per_edge;
  if (options.max_segment_length_um > 0.0) {
    const auto needed =
        static_cast<unsigned>(std::ceil(length_um / options.max_segment_length_um));
    sections = std::max(sections, std::max(needed, 1u));
  }
  return sections;
}

}  // namespace

GraphNetlist build_netlist(const graph::RoutingGraph& g, const Technology& tech,
                           const NetlistOptions& options) {
  GraphNetlist out;
  Circuit& ckt = out.circuit;

  out.graph_to_circuit.reserve(g.node_count());
  out.sink_graph_nodes.reserve(g.node_count());
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    // Node and element names are the Circuit debug contract.
    out.graph_to_circuit.push_back(ckt.add_node("n" + std::to_string(n)));
  }

  // Driver: ideal step -> driver resistor -> source pin.
  out.driver_input = ckt.add_node("in");
  ckt.add_voltage_source("Vstep", out.driver_input, kGround, tech.vdd_v,
                         SourceWaveform::kStep);
  ckt.add_resistor("Rdrv", out.driver_input, out.graph_to_circuit[g.source()],
                   tech.driver_resistance_ohm);

  // Wires: chains of lumped pi sections.
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::GraphEdge& edge = g.edge(e);
    const std::string tag = std::to_string(e);
    const CircuitNode head = out.graph_to_circuit[edge.u];
    const CircuitNode tail = out.graph_to_circuit[edge.v];

    if (edge.length <= 0.0) {
      ckt.add_resistor("Rshort" + tag, head, tail, kShortResistanceOhm);
      continue;
    }

    const unsigned sections = section_count(options, edge.length);
    const double seg_len = edge.length / sections;
    const double seg_r = tech.wire_resistance(seg_len, edge.width);
    const double seg_c = tech.wire_capacitance(seg_len, edge.width);
    const double seg_l = tech.wire_inductance(seg_len, edge.width);

    CircuitNode prev = head;
    for (unsigned s = 0; s < sections; ++s) {
      const CircuitNode next =
          s + 1 == sections
              ? tail
              : ckt.add_node("e" + tag + "s" + std::to_string(s));
      const std::string seg_tag = tag + "_" + std::to_string(s);
      ckt.add_capacitor("Cw" + seg_tag + "a", prev, kGround, seg_c / 2.0);
      if (options.include_inductance) {
        const CircuitNode mid = ckt.add_node("e" + tag + "l" + std::to_string(s));
        ckt.add_resistor("Rw" + seg_tag, prev, mid, seg_r);
        ckt.add_inductor("Lw" + seg_tag, mid, next, seg_l);
      } else {
        ckt.add_resistor("Rw" + seg_tag, prev, next, seg_r);
      }
      ckt.add_capacitor("Cw" + seg_tag + "b", next, kGround, seg_c / 2.0);
      prev = next;
    }
  }

  // Pin loads.
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    const bool is_sink = g.node(n).kind == graph::NodeKind::kSink;
    const bool is_loaded_source =
        options.load_source_pin && g.node(n).kind == graph::NodeKind::kSource;
    if (is_sink || is_loaded_source) {
      ckt.add_capacitor("Cload" + std::to_string(n), out.graph_to_circuit[n], kGround,
                        tech.sink_capacitance_f);
    }
    if (is_sink) out.sink_graph_nodes.push_back(n);
  }

  return out;
}

}  // namespace ntr::spice
