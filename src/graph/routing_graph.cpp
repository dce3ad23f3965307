#include "graph/routing_graph.h"

#include <stdexcept>

#include "check/contracts.h"
#include "graph/validate.h"
#include "graph/mst.h"
#include "graph/union_find.h"

namespace ntr::graph {

RoutingGraph::RoutingGraph(const Net& net) {
  net.validate();
  nodes_.reserve(net.pins.size());
  for (std::size_t i = 0; i < net.pins.size(); ++i) {
    nodes_.push_back(GraphNode{net.pins[i], i == 0 ? NodeKind::kSource : NodeKind::kSink});
  }
  adjacency_.resize(nodes_.size());
}

NodeId RoutingGraph::add_node(const geom::Point& pos, NodeKind kind) {
  if (kind == NodeKind::kSource && !nodes_.empty())
    throw std::invalid_argument("RoutingGraph already has a source node");
  nodes_.push_back(GraphNode{pos, kind});
  adjacency_.emplace_back();
  NTR_ASSERT(adjacency_.size() == nodes_.size());
  return nodes_.size() - 1;
}

EdgeId RoutingGraph::add_edge(NodeId u, NodeId v) {
  if (u >= nodes_.size() || v >= nodes_.size())
    throw std::out_of_range("RoutingGraph::add_edge: node id out of range");
  if (u == v) throw std::invalid_argument("RoutingGraph::add_edge: self-loop");
  if (auto existing = find_edge(u, v)) return *existing;
  const double len = geom::manhattan_distance(nodes_[u].pos, nodes_[v].pos);
  edges_.push_back(GraphEdge{u, v, len, 1.0});
  const EdgeId id = edges_.size() - 1;
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  // What this call changed, in O(deg): a whole-graph check here would make
  // building an n-edge graph O(n^2) in a Debug build.
  NTR_DCHECK(check::require(validate_added_edge(*this, id),
                            "RoutingGraph::add_edge postcondition"));
  return id;
}

void RoutingGraph::remove_edge(EdgeId e) {
  if (e >= edges_.size()) throw std::out_of_range("RoutingGraph::remove_edge");
  edges_.erase(edges_.begin() + static_cast<std::ptrdiff_t>(e));
  rebuild_adjacency();
  NTR_DCHECK(check::require(validate_graph(*this),
                            "RoutingGraph::remove_edge postcondition"));
}

NodeId RoutingGraph::split_edge(EdgeId e, const geom::Point& p) {
  if (e >= edges_.size()) throw std::out_of_range("RoutingGraph::split_edge");
  const GraphEdge split = edges_[e];
  const double width = split.width;
  remove_edge(e);
  const NodeId mid = add_node(p, NodeKind::kSteiner);
  const EdgeId a = add_edge(split.u, mid);
  const EdgeId b = add_edge(mid, split.v);
  edges_[a].width = width;
  edges_[b].width = width;
  // A split point off every shortest rectilinear (u,v) route lengthens
  // the wire; the structural invariants still hold, but the caller has
  // almost certainly computed the wrong point.
  NTR_DCHECK_MSG(geom::within_bounding_box(nodes_[split.u].pos, nodes_[split.v].pos, p),
                 "split point lies outside the edge's bounding box");
  return mid;
}

void RoutingGraph::set_edge_width(EdgeId e, double width) {
  if (e >= edges_.size()) throw std::out_of_range("RoutingGraph::set_edge_width");
  if (width <= 0.0) throw std::invalid_argument("edge width must be positive");
  edges_[e].width = width;
}

std::vector<NodeId> RoutingGraph::sinks() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (NodeId n = 0; n < nodes_.size(); ++n)
    if (nodes_[n].kind == NodeKind::kSink) out.push_back(n);
  return out;
}

NodeId RoutingGraph::other_endpoint(EdgeId e, NodeId n) const {
  const GraphEdge& ed = edges_.at(e);
  if (ed.u == n) return ed.v;
  if (ed.v == n) return ed.u;
  throw std::invalid_argument("other_endpoint: node is not an endpoint of edge");
}

std::optional<EdgeId> RoutingGraph::find_edge(NodeId u, NodeId v) const {
  if (u >= nodes_.size() || v >= nodes_.size()) return std::nullopt;
  // Scan the smaller adjacency list.
  const NodeId probe = adjacency_[u].size() <= adjacency_[v].size() ? u : v;
  const NodeId target = probe == u ? v : u;
  for (const EdgeId e : adjacency_[probe])
    if (other_endpoint(e, probe) == target) return e;
  return std::nullopt;
}

double RoutingGraph::total_wirelength() const {
  double sum = 0.0;
  for (const GraphEdge& e : edges_) sum += e.length;
  return sum;
}

double RoutingGraph::total_wire_area() const {
  double sum = 0.0;
  for (const GraphEdge& e : edges_) sum += e.length * e.width;
  return sum;
}

bool RoutingGraph::is_connected() const {
  if (nodes_.empty()) return true;
  UnionFind uf(nodes_.size());
  for (const GraphEdge& e : edges_) uf.unite(e.u, e.v);
  return uf.component_count() == 1;
}

bool RoutingGraph::is_tree() const {
  return is_connected() && edges_.size() + 1 == nodes_.size();
}

std::size_t RoutingGraph::cycle_count() const {
  UnionFind uf(nodes_.size());
  for (const GraphEdge& e : edges_) uf.unite(e.u, e.v);
  return edges_.size() + uf.component_count() - nodes_.size();
}

void RoutingGraph::rebuild_adjacency() {
  adjacency_.assign(nodes_.size(), {});
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    adjacency_[edges_[e].u].push_back(e);
    adjacency_[edges_[e].v].push_back(e);
  }
}

RoutingGraph mst_routing(const Net& net) {
  RoutingGraph g(net);
  for (const auto& [u, v] : prim_mst(net.pins)) g.add_edge(u, v);
  return g;
}

}  // namespace ntr::graph
