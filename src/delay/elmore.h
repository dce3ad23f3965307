#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.h"
#include "graph/paths.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace ntr::delay {

/// O(k) Elmore delay of a routing *tree* (equation (1) of the paper):
///
///   t_ED(n_i) = r_d * C_root + sum over path edges e_j of
///               r_{e_j} * (c_{e_j}/2 + C_j)
///
/// where C_j is the capacitance of the subtree hanging below edge e_j
/// (edge caps plus sink loads). Returns one delay per graph node, indexed
/// by NodeId (the source entry is r_d * C_root: the delay contribution of
/// charging the whole tree through the driver). Throws
/// std::invalid_argument if the graph is not a tree -- the paper's H2/H3
/// heuristics rely on exactly this restriction.
std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const spice::Technology& tech);

/// Same computation when the caller already holds a rooted orientation.
std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const graph::RootedTree& tree,
                                       const spice::Technology& tech);

/// elmore_node_delays of a routing tree plus one new leaf, without
/// building that trial tree: the "what if this pin hung here?" question
/// the ERT construction (route/ert.h) asks of every node. Each query
/// performs exactly the floating-point operations elmore_node_delays
/// performs on the materialized trial (the leaf's subtree capacitance
/// joins its parent's sum last, and every other sum keeps its order), so
/// the answers are bit-identical. The constructor roots the tree once,
/// O(n); a query costs O(n) plus the degrees along the attachment node's
/// source path and allocates nothing. Queries are const and may run
/// concurrently.
class TreeLeafElmore {
 public:
  /// Throws std::invalid_argument if `tree` is not a tree. `tree` must
  /// outlive this object and stay unchanged.
  TreeLeafElmore(const graph::RoutingGraph& tree, const spice::Technology& tech);

  /// Delays of `tree` plus a node of `kind` at `pos`, wired to `attach` by
  /// a unit-width wire, indexed like the trial's NodeIds: out[i] for the
  /// tree's nodes, out[tree.node_count()] for the leaf.
  void delays_with_leaf(graph::NodeId attach, const geom::Point& pos,
                        graph::NodeKind kind, std::span<double> out) const;

 private:
  const graph::RoutingGraph* tree_;
  spice::Technology tech_;
  graph::RootedTree rooted_;
  // Per node i, about the edge to its parent and the parent's running
  // subtree-capacitance sum, in elmore_node_delays' order of accumulation.
  std::vector<double> subtree_cap_;      ///< C_i
  std::vector<double> edge_cap_;         ///< capacitance of i's parent edge
  std::vector<double> edge_res_;         ///< resistance of i's parent edge
  std::vector<double> sum_before_;       ///< the parent's sum before C_i + edge_cap_[i]
  std::vector<double> step_;             ///< edge_res_[i] * (edge_cap_[i] / 2 + C_i)
  std::vector<std::size_t> child_start_; ///< children of p: child_start_[p] .. [p + 1]
  std::vector<graph::NodeId> children_;  ///< in order of accumulation
  std::vector<std::size_t> child_index_; ///< i's index in children_
};

/// max over sinks of elmore_node_delays: the paper's t_ED(T(N)).
double elmore_tree_delay(const graph::RoutingGraph& g, const spice::Technology& tech);

/// Total capacitance seen by the driver: all edge caps plus sink loads.
double tree_total_capacitance(const graph::RoutingGraph& g,
                              const spice::Technology& tech);

}  // namespace ntr::delay
