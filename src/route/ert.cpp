#include "route/ert.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "check/contracts.h"
#include "geom/point.h"
#include "graph/validate.h"
#include "delay/elmore.h"

namespace ntr::route {

namespace {

/// Closest point of the axis-aligned bounding box of edge (a, b) to p:
/// reachable by a monotone rectilinear route of the edge, so splitting
/// there never lengthens the edge.
geom::Point closest_bbox_point(const geom::Point& a, const geom::Point& b,
                               const geom::Point& p) {
  const double lox = a.x < b.x ? a.x : b.x;
  const double hix = a.x < b.x ? b.x : a.x;
  const double loy = a.y < b.y ? a.y : b.y;
  const double hiy = a.y < b.y ? b.y : a.y;
  return geom::Point{std::clamp(p.x, lox, hix), std::clamp(p.y, loy, hiy)};
}

struct Candidate {
  enum class Kind { kNodeAttach, kEdgeAttach } kind = Kind::kNodeAttach;
  graph::NodeId node = graph::kInvalidNode;  // attachment node (kNodeAttach)
  graph::EdgeId edge = graph::kInvalidEdge;  // split edge (kEdgeAttach)
  geom::Point split_point;
  std::size_t pin = 0;  // net pin index being attached
};

/// The ERT objective of a candidate tree under the (possibly weighted)
/// Elmore criterion, from its per-node delays: `sinks` lists the tree's
/// sink nodes in increasing id order and `node_pin` maps tree nodes to
/// net pins for the criticality lookup.
class TreeObjective {
 public:
  explicit TreeObjective(const std::vector<double>& criticality)
      : criticality_(criticality) {
    // Tie-break term: while the weighted sum ignores zero-criticality
    // sinks (and is identically zero until a weighted sink attaches), a
    // vanishingly small uniform weight keeps the construction from wiring
    // the non-critical sinks arbitrarily badly.
    if (!criticality.empty())
      tie_break_ = 1e-6 * std::max(*std::max_element(criticality.begin(),
                                                     criticality.end()),
                                   1.0);
  }

  double operator()(std::span<const double> delays,
                    std::span<const graph::NodeId> sinks,
                    std::span<const std::size_t> node_pin) const {
    double objective = 0.0;
    double total_delay = 0.0;
    for (const graph::NodeId n : sinks) {
      total_delay += delays[n];
      if (criticality_.empty()) {
        objective = std::max(objective, delays[n]);
      } else {
        objective += criticality_.at(node_pin[n] - 1) * delays[n];
      }
    }
    if (!criticality_.empty()) objective += tie_break_ * total_delay;
    return objective;
  }

 private:
  const std::vector<double>& criticality_;
  double tie_break_ = 0.0;
};

/// Applies a candidate to (t, node_pin); returns nothing -- t is grown in
/// place.
void apply_candidate(graph::RoutingGraph& t, std::vector<std::size_t>& node_pin,
                     const graph::Net& net, const Candidate& c) {
  graph::NodeId attach = c.node;
  if (c.kind == Candidate::Kind::kEdgeAttach) {
    attach = t.split_edge(c.edge, c.split_point);
    node_pin.push_back(kNoPin);
  }
  const graph::NodeId sink = t.add_node(net.pins[c.pin], graph::NodeKind::kSink);
  node_pin.push_back(c.pin);
  t.add_edge(attach, sink);
}

}  // namespace

ErtResult elmore_routing_tree(const graph::Net& net, const spice::Technology& tech,
                              const ErtOptions& options) {
  net.validate();
  if (!options.criticality.empty() && options.criticality.size() != net.sink_count())
    throw std::invalid_argument(
        "elmore_routing_tree: criticality size must equal the sink count");

  ErtResult result;
  result.graph.add_node(net.source(), graph::NodeKind::kSource);
  result.node_pin.push_back(0);

  std::vector<std::size_t> unattached;
  for (std::size_t p = 1; p < net.pins.size(); ++p) unattached.push_back(p);

  const TreeObjective tree_objective(options.criticality);
  std::vector<double> delays;
  std::vector<graph::NodeId> leaf_sinks;
  std::vector<std::size_t> leaf_pin;
  while (!unattached.empty()) {
    double best_objective = std::numeric_limits<double>::infinity();
    Candidate best;
    bool found = false;
    const auto consider = [&](const Candidate& c, double objective) {
      if (objective < best_objective) {
        best_objective = objective;
        best = c;
        found = true;
      }
    };

    // A node attachment hangs the pin as a new leaf, the trial's last node.
    const std::size_t n = result.graph.node_count();
    const delay::TreeLeafElmore leaf_elmore(result.graph, tech);
    delays.resize(n + 1);
    leaf_sinks = result.graph.sinks();
    leaf_sinks.push_back(n);
    leaf_pin = result.node_pin;
    leaf_pin.push_back(kNoPin);

    for (const std::size_t pin : unattached) {
      // Attach directly to an existing node.
      leaf_pin.back() = pin;
      for (graph::NodeId u = 0; u < n; ++u) {
        leaf_elmore.delays_with_leaf(u, net.pins[pin], graph::NodeKind::kSink, delays);
        consider(Candidate{Candidate::Kind::kNodeAttach, u, graph::kInvalidEdge, {}, pin},
                 tree_objective(delays, leaf_sinks, leaf_pin));
      }
      // SERT: attach via a Steiner point on an existing edge.
      if (options.steiner) {
        for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
          const graph::GraphEdge& edge = result.graph.edge(e);
          const geom::Point split = closest_bbox_point(
              result.graph.node(edge.u).pos, result.graph.node(edge.v).pos,
              net.pins[pin]);
          if (split == result.graph.node(edge.u).pos ||
              split == result.graph.node(edge.v).pos)
            continue;  // equivalent to a node attachment, already tried
          Candidate c{Candidate::Kind::kEdgeAttach, graph::kInvalidNode, e, split, pin};
          graph::RoutingGraph trial = result.graph;
          std::vector<std::size_t> trial_pin = result.node_pin;
          apply_candidate(trial, trial_pin, net, c);
          consider(c, tree_objective(delay::elmore_node_delays(trial, tech),
                                     trial.sinks(), trial_pin));
        }
      }
    }

    if (!found) throw std::logic_error("elmore_routing_tree: no candidate found");
    apply_candidate(result.graph, result.node_pin, net, best);
    std::erase(unattached, best.pin);
  }

  // The greedy growth attaches one pin per round to the connected tree,
  // so the result must be a tree spanning every pin, with the node->pin
  // map covering exactly the nodes.
  NTR_CHECK(result.node_pin.size() == result.graph.node_count());
  NTR_CHECK(result.graph.is_tree());
  NTR_DCHECK(check::require(
      graph::validate_graph(result.graph,
                            {.require_source = true, .require_connected = true}),
      "elmore_routing_tree postcondition"));
  return result;
}

}  // namespace ntr::route
