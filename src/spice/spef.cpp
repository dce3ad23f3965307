#include "spice/spef.h"

#include <sstream>
#include <stdexcept>
#include <vector>

namespace ntr::spice {

std::string write_spef(const graph::RoutingGraph& g, const Technology& tech,
                       std::string_view net_name, std::string_view design_name) {
  if (g.node_count() == 0) throw std::invalid_argument("write_spef: empty routing");

  const auto node_name = [&](graph::NodeId n) {
    const char tag = g.node(n).kind == graph::NodeKind::kSteiner ? 'S' : 'P';
    return std::string(net_name) + ":" + tag + std::to_string(n);
  };

  // Lumped capacitance per node: half of each incident wire + sink loads.
  std::vector<double> cap(g.node_count(), 0.0);
  for (const graph::GraphEdge& e : g.edges()) {
    const double half = tech.wire_capacitance(e.length, e.width) / 2.0;
    cap[e.u] += half;
    cap[e.v] += half;
  }
  double total_cap = 0.0;
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    if (g.node(n).kind == graph::NodeKind::kSink) cap[n] += tech.sink_capacitance_f;
    total_cap += cap[n];
  }

  std::ostringstream out;
  out.precision(6);
  out << "*SPEF \"IEEE 1481-1998\"\n";
  out << "*DESIGN \"" << design_name << "\"\n";
  out << "*VENDOR \"ntr\"\n*PROGRAM \"ntr\"\n*VERSION \"1.0\"\n";
  out << "*DESIGN_FLOW \"\"\n";
  out << "*DIVIDER /\n*DELIMITER :\n*BUS_DELIMITER [ ]\n";
  out << "*T_UNIT 1 NS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n\n";

  out << "*D_NET " << net_name << ' ' << total_cap * 1e15 << "\n";
  out << "*CONN\n";
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    switch (g.node(n).kind) {
      case graph::NodeKind::kSource:
        out << "*P " << node_name(n) << " O\n";
        break;
      case graph::NodeKind::kSink:
        out << "*P " << node_name(n) << " I\n";
        break;
      case graph::NodeKind::kSteiner:
        break;  // internal nodes are not connections
    }
  }

  out << "*CAP\n";
  std::size_t cap_index = 1;
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    if (cap[n] <= 0.0) continue;
    out << cap_index++ << ' ' << node_name(n) << ' ' << cap[n] * 1e15 << "\n";
  }

  out << "*RES\n";
  std::size_t res_index = 1;
  for (const graph::GraphEdge& e : g.edges()) {
    const double r =
        e.length > 0.0 ? tech.wire_resistance(e.length, e.width) : kShortResistanceOhm;
    out << res_index++ << ' ' << node_name(e.u) << ' ' << node_name(e.v) << ' ' << r
        << "\n";
  }
  out << "*END\n";
  return out.str();
}

}  // namespace ntr::spice
