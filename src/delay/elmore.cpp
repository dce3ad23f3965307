#include "delay/elmore.h"

#include <algorithm>
#include <stdexcept>

namespace ntr::delay {

namespace {

double edge_capacitance(const graph::GraphEdge& e, const spice::Technology& tech) {
  return tech.wire_capacitance(e.length, e.width);
}

double edge_resistance(const graph::GraphEdge& e, const spice::Technology& tech) {
  return tech.wire_resistance(e.length, e.width);
}

double node_load(const graph::GraphNode& n, const spice::Technology& tech) {
  return n.kind == graph::NodeKind::kSink ? tech.sink_capacitance_f : 0.0;
}

}  // namespace

double tree_total_capacitance(const graph::RoutingGraph& g,
                              const spice::Technology& tech) {
  double total = 0.0;
  for (const graph::GraphEdge& e : g.edges()) total += edge_capacitance(e, tech);
  for (const graph::GraphNode& n : g.nodes()) total += node_load(n, tech);
  return total;
}

std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const graph::RootedTree& tree,
                                       const spice::Technology& tech) {
  const std::size_t n = g.node_count();

  // Subtree capacitance C_i: accumulate bottom-up (reverse preorder).
  std::vector<double> subtree_cap(n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) subtree_cap[u] = node_load(g.node(u), tech);
  for (auto it = tree.preorder.rbegin(); it != tree.preorder.rend(); ++it) {
    const graph::NodeId u = *it;
    const graph::NodeId p = tree.parent[u];
    if (p == graph::kInvalidNode) continue;
    subtree_cap[p] +=
        subtree_cap[u] + edge_capacitance(g.edge(tree.parent_edge[u]), tech);
  }

  // Delays top-down: each node adds its parent edge's r * (c/2 + C_subtree).
  std::vector<double> delay(n, 0.0);
  const double driver_term = tech.driver_resistance_ohm * subtree_cap[tree.root];
  for (const graph::NodeId u : tree.preorder) {
    const graph::NodeId p = tree.parent[u];
    if (p == graph::kInvalidNode) {
      delay[u] = driver_term;
      continue;
    }
    const graph::GraphEdge& e = g.edge(tree.parent_edge[u]);
    delay[u] = delay[p] + edge_resistance(e, tech) *
                              (edge_capacitance(e, tech) / 2.0 + subtree_cap[u]);
  }
  return delay;
}

std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const spice::Technology& tech) {
  const graph::RootedTree tree = graph::root_tree(g, g.source());
  return elmore_node_delays(g, tree, tech);
}

TreeLeafElmore::TreeLeafElmore(const graph::RoutingGraph& tree,
                               const spice::Technology& tech)
    : tree_(&tree), tech_(tech), rooted_(graph::root_tree(tree, tree.source())) {
  const std::size_t n = tree.node_count();
  subtree_cap_.resize(n);
  edge_cap_.assign(n, 0.0);
  edge_res_.assign(n, 0.0);
  sum_before_.assign(n, 0.0);
  step_.assign(n, 0.0);
  child_start_.assign(n + 2, 0);
  children_.resize(n == 0 ? 0 : n - 1);
  child_index_.assign(n, 0);

  // elmore_node_delays' bottom-up pass, recording each parent's running
  // sum before every term and the order the terms arrive in.
  for (graph::NodeId u = 0; u < n; ++u) subtree_cap_[u] = node_load(tree.node(u), tech);
  for (auto it = rooted_.preorder.rbegin(); it != rooted_.preorder.rend(); ++it) {
    const graph::NodeId u = *it;
    const graph::NodeId p = rooted_.parent[u];
    if (p == graph::kInvalidNode) continue;
    const graph::GraphEdge& e = tree.edge(rooted_.parent_edge[u]);
    edge_cap_[u] = edge_capacitance(e, tech);
    edge_res_[u] = edge_resistance(e, tech);
    sum_before_[u] = subtree_cap_[p];
    subtree_cap_[p] += subtree_cap_[u] + edge_cap_[u];
    ++child_start_[p + 2];
  }
  for (graph::NodeId p = 0; p < n; ++p) child_start_[p + 2] += child_start_[p + 1];
  for (auto it = rooted_.preorder.rbegin(); it != rooted_.preorder.rend(); ++it) {
    const graph::NodeId p = rooted_.parent[*it];
    if (p == graph::kInvalidNode) continue;
    child_index_[*it] = child_start_[p + 1];
    children_[child_start_[p + 1]++] = *it;
  }
  for (graph::NodeId u = 0; u < n; ++u)
    if (rooted_.parent[u] != graph::kInvalidNode)
      step_[u] = edge_res_[u] * (edge_cap_[u] / 2.0 + subtree_cap_[u]);
}

void TreeLeafElmore::delays_with_leaf(graph::NodeId attach, const geom::Point& pos,
                                      graph::NodeKind kind,
                                      std::span<double> out) const {
  const std::size_t n = rooted_.size();
  if (attach >= n || out.size() != n + 1)
    throw std::invalid_argument("delays_with_leaf: bad attachment or output size");
  const graph::GraphEdge leaf{attach, n,
                              geom::manhattan_distance(tree_->node(attach).pos, pos),
                              1.0};
  const double leaf_cap = edge_capacitance(leaf, tech_);
  const double leaf_load = node_load(graph::GraphNode{pos, kind}, tech_);

  // Only the capacitances on the attachment's source path change. The
  // leaf joins its parent's sum last, because it directly follows the
  // parent in the trial's preorder; each ancestor then redoes its sum from
  // the changed term on, in the original order.
  for (graph::NodeId u = 0; u < n; ++u) out[u] = step_[u];
  double cap = subtree_cap_[attach] + (leaf_load + leaf_cap);
  graph::NodeId x = attach;
  for (graph::NodeId p = rooted_.parent[x]; p != graph::kInvalidNode;
       x = p, p = rooted_.parent[x]) {
    out[x] = edge_res_[x] * (edge_cap_[x] / 2.0 + cap);
    double sum = sum_before_[x] + (cap + edge_cap_[x]);
    for (std::size_t k = child_index_[x] + 1; k < child_start_[p + 1]; ++k)
      sum += subtree_cap_[children_[k]] + edge_cap_[children_[k]];
    cap = sum;
  }

  // elmore_node_delays' top-down pass over the trial's preorder.
  out[x] = tech_.driver_resistance_ohm * cap;
  for (std::size_t i = 1; i < n; ++i) {
    const graph::NodeId u = rooted_.preorder[i];
    out[u] = out[rooted_.parent[u]] + out[u];
  }
  out[n] = out[attach] +
           edge_resistance(leaf, tech_) * (leaf_cap / 2.0 + leaf_load);
}

double elmore_tree_delay(const graph::RoutingGraph& g, const spice::Technology& tech) {
  const std::vector<double> delays = elmore_node_delays(g, tech);
  double worst = 0.0;
  for (const graph::NodeId s : g.sinks()) worst = std::max(worst, delays[s]);
  return worst;
}

}  // namespace ntr::delay
