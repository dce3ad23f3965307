#include "route/ert.h"

#include <algorithm>
#include <cmath>
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
/// net pins for the criticality lookup. Also a lower bound on it for the
/// round's tree plus one sink leaf.
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

  /// Readies bound() for a round whose tree has node delays `delays`.
  void start_round(std::span<const double> delays, std::span<const graph::NodeId> sinks,
                   std::span<const std::size_t> node_pin) {
    base_ = (*this)(delays, sinks, node_pin);
    if (criticality_.empty()) return;
    rise_weight_ = tie_break_ * static_cast<double>(sinks.size());
    for (const graph::NodeId n : sinks) rise_weight_ += criticality_[node_pin[n] - 1];
  }

  /// At most operator() of the round's tree plus a sink leaf for `pin`,
  /// when the leaf raises every sink's delay by at least `rise` and its
  /// own delay is `leaf`: the old max raised, or the leaf, for ORG; every
  /// term raised plus the leaf's, for non-negative weights.
  [[nodiscard]] double bound(std::size_t pin, double rise, double leaf) const {
    if (criticality_.empty()) return std::max(base_ + rise, leaf);
    return base_ + rise_weight_ * rise + (criticality_[pin - 1] + tie_break_) * leaf;
  }

 private:
  const std::vector<double>& criticality_;
  double tie_break_ = 0.0;
  double base_ = 0.0;         ///< the round's tree's own objective
  double rise_weight_ = 0.0;  ///< CSORG: the weight of a rise of every sink
};

/// A skipped trial's bound exceeds the objective to beat by this relative
/// margin, far above the rounding of either side, so its exact objective
/// is certainly higher.
constexpr double kBoundMargin = 1e-9;

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
  // The objective's lower bound holds only for non-negative weights, and
  // an infinite weight leaves every trial tied at infinity.
  for (const double w : options.criticality)
    if (!(w >= 0.0) || std::isinf(w))
      throw std::invalid_argument(
          "elmore_routing_tree: criticality weights must be finite and non-negative");

  ErtResult result;
  result.graph.add_node(net.source(), graph::NodeKind::kSource);
  result.node_pin.push_back(0);

  std::vector<std::size_t> unattached;
  for (std::size_t p = 1; p < net.pins.size(); ++p) unattached.push_back(p);

  TreeObjective tree_objective(options.criticality);
  std::vector<double> delays;
  std::vector<graph::NodeId> leaf_sinks;
  std::vector<std::size_t> leaf_pin;
  while (!unattached.empty()) {
    // A node attachment hangs the pin as a new leaf, the trial's last node.
    const std::size_t n = result.graph.node_count();
    const delay::TreeLeafElmore leaf_elmore(result.graph, tech);
    delays.resize(n + 1);
    leaf_sinks = result.graph.sinks();
    const std::span<const double> d = leaf_elmore.node_delays();
    const std::span<const double> rho = leaf_elmore.path_resistance();
    tree_objective.start_round(d, leaf_sinks, result.node_pin);
    leaf_sinks.push_back(n);
    leaf_pin = result.node_pin;
    leaf_pin.push_back(kNoPin);

    // A pin's wire of length L hung below node a adds dC = C_w + c_p past
    // a: every node's delay rises by dC R(i, a) >= r_d dC, and the leaf's
    // is d_a + dC (r_d + rho_a) + R_w (C_w / 2 + c_p). A split of edge
    // (a, b) keeps its length, and its point lies below the parent end a,
    // so the same terms at a bound it too.
    const auto bound = [&](std::size_t pin, graph::NodeId a, const geom::Point& at) {
      const double length = geom::manhattan_distance(at, net.pins[pin]);
      const double wire_cap = tech.wire_capacitance(length, 1.0);
      const double added = wire_cap + tech.sink_capacitance_f;
      const double leaf = d[a] + added * (tech.driver_resistance_ohm + rho[a]) +
                          tech.wire_resistance(length, 1.0) *
                              (wire_cap / 2.0 + tech.sink_capacitance_f);
      return tree_objective.bound(pin, tech.driver_resistance_ohm * added, leaf);
    };

    // Every trial of the round, in scan order, with its bound.
    const auto for_each_trial = [&](const auto& visit) {
      for (const std::size_t pin : unattached) {
        // Attach directly to an existing node.
        for (graph::NodeId u = 0; u < n; ++u)
          visit(Candidate{Candidate::Kind::kNodeAttach, u, graph::kInvalidEdge, {}, pin},
                bound(pin, u, result.graph.node(u).pos));
        if (!options.steiner) continue;
        // SERT: attach via a Steiner point on an existing edge.
        for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
          const graph::GraphEdge& edge = result.graph.edge(e);
          const geom::Point split = closest_bbox_point(
              result.graph.node(edge.u).pos, result.graph.node(edge.v).pos,
              net.pins[pin]);
          if (split == result.graph.node(edge.u).pos ||
              split == result.graph.node(edge.v).pos)
            continue;  // equivalent to a node attachment, already tried
          const graph::NodeId a = leaf_elmore.parent(edge.v) == edge.u ? edge.u : edge.v;
          const Candidate c{Candidate::Kind::kEdgeAttach, graph::kInvalidNode, e, split,
                            pin};
          visit(c, bound(pin, a, split));
        }
      }
    };

    const auto objective_of = [&](const Candidate& c) {
      if (c.kind == Candidate::Kind::kNodeAttach) {
        leaf_pin.back() = c.pin;
        leaf_elmore.delays_with_leaf(c.node, net.pins[c.pin], graph::NodeKind::kSink,
                                     delays);
        return tree_objective(delays, leaf_sinks, leaf_pin);
      }
      graph::RoutingGraph trial = result.graph;
      std::vector<std::size_t> trial_pin = result.node_pin;
      apply_candidate(trial, trial_pin, net, c);
      return tree_objective(delay::elmore_node_delays(trial, tech), trial.sinks(),
                            trial_pin);
    };

    // The trial of the lowest bound (the scan's first, if no bound is
    // finite) sets an objective some trial achieves. The scan skips a trial
    // whose bound exceeds the lower of that and the best so far: its
    // objective is above one a trial achieves, so it is neither the lowest
    // nor the first among the lowest.
    double lowest_bound = std::numeric_limits<double>::infinity();
    Candidate lowest{Candidate::Kind::kNodeAttach, 0, graph::kInvalidEdge, {},
                     unattached.front()};
    for_each_trial([&](const Candidate& c, double b) {
      if (b < lowest_bound) {
        lowest_bound = b;
        lowest = c;
      }
    });
    const double seed = objective_of(lowest);
    double best_objective = std::numeric_limits<double>::infinity();
    Candidate best;
    bool found = false;
    for_each_trial([&](const Candidate& c, double b) {
      if (b > std::min(seed, best_objective) * (1.0 + kBoundMargin)) return;
      const double objective = objective_of(c);
      if (objective < best_objective) {
        best_objective = objective;
        best = c;
        found = true;
      }
    });

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
