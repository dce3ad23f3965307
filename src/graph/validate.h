#pragma once

#include <cmath>
#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/validation.h"
#include "geom/point.h"
#include "graph/routing_graph.h"
#include "graph/union_find.h"

namespace ntr::graph {

/// Which RoutingGraph invariants to enforce beyond the structural core
/// (in-range endpoints, no self-loops, no parallel edges, Manhattan edge
/// lengths, positive widths, consistent adjacency).
struct GraphValidateOptions {
  /// Node 0 must exist, be NodeKind::kSource, and be the only source.
  bool require_source = false;
  /// Every node must be reachable from node 0 (the paper's graphs are
  /// single-component by definition; intermediate construction states are
  /// not, so this defaults off).
  bool require_connected = false;
  /// Absolute tolerance (um) on |edge.length - manhattan(u, v)|.
  double length_tolerance_um = 1e-9;
};

/// The checks on one edge alone, reported under `tag`: endpoints in
/// range and distinct, a Manhattan length and a positive finite width.
/// False when the endpoints are bad, so that no later check dereferences
/// them.
inline bool check_edge(std::span<const GraphNode> nodes, const GraphEdge& edge,
                       const std::string& tag, const GraphValidateOptions& options,
                       check::ValidationReport& report) {
  const std::size_t n = nodes.size();
  if (edge.u >= n || edge.v >= n) {
    report.errors.push_back(tag + ": dangling endpoint (" + std::to_string(edge.u) +
                            ", " + std::to_string(edge.v) + ") with " +
                            std::to_string(n) + " nodes");
    return false;
  }
  if (edge.u == edge.v) {
    report.errors.push_back(tag + ": self-loop at node " + std::to_string(edge.u));
    return false;
  }
  const double want = geom::manhattan_distance(nodes[edge.u].pos, nodes[edge.v].pos);
  if (!(std::abs(edge.length - want) <= options.length_tolerance_um)) {
    report.errors.push_back(tag + ": length " + std::to_string(edge.length) +
                            " != Manhattan distance " + std::to_string(want));
  }
  if (!(edge.width > 0.0) || !std::isfinite(edge.width)) {
    report.errors.push_back(tag + ": non-positive width " + std::to_string(edge.width));
  }
  return true;
}

/// Validates a raw node/edge set. Exposed separately from the
/// RoutingGraph overload so tests can feed deliberately corrupted edge
/// lists that the RoutingGraph mutation API itself refuses to build.
inline check::ValidationReport validate_graph(std::span<const GraphNode> nodes,
                                       std::span<const GraphEdge> edges,
                                       const GraphValidateOptions& options = {}) {
  check::ValidationReport report;
  const std::size_t n = nodes.size();

  std::set<std::pair<NodeId, NodeId>> seen;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const GraphEdge& edge = edges[e];
    const std::string tag = "edge " + std::to_string(e);
    if (!check_edge(nodes, edge, tag, options, report)) continue;
    const auto key = std::minmax(edge.u, edge.v);
    if (!seen.insert(key).second) {
      report.errors.push_back(tag + ": parallel edge between " +
                              std::to_string(key.first) + " and " +
                              std::to_string(key.second));
    }
  }

  if (options.require_source) {
    if (n == 0) {
      report.errors.emplace_back("graph is empty but a source node is required");
    } else if (nodes[0].kind != NodeKind::kSource) {
      report.errors.emplace_back("node 0 is not the source");
    }
    for (std::size_t i = 1; i < n; ++i) {
      if (nodes[i].kind == NodeKind::kSource) {
        report.errors.push_back("node " + std::to_string(i) +
                                " is a second source node");
      }
    }
  }

  if (options.require_connected && n > 0) {
    UnionFind uf(n);
    for (const GraphEdge& edge : edges) {
      if (edge.u < n && edge.v < n) uf.unite(edge.u, edge.v);
    }
    if (uf.component_count() != 1) {
      report.errors.push_back("graph is disconnected (" +
                              std::to_string(uf.component_count()) +
                              " components)");
    }
  }
  return report;
}

/// Validates what RoutingGraph::add_edge changed when it added edge `e`,
/// in O(deg(u) + deg(v)): the edge's endpoints (in range, distinct), its
/// Manhattan length and positive width, its id listed exactly once in
/// each endpoint's adjacency, and no other edge between its endpoints.
inline check::ValidationReport validate_added_edge(
    const RoutingGraph& g, EdgeId e, const GraphValidateOptions& options = {}) {
  check::ValidationReport report;
  const std::string tag = "edge " + std::to_string(e);
  if (e >= g.edge_count()) {
    report.errors.push_back(tag + ": out of range with " +
                            std::to_string(g.edge_count()) + " edges");
    return report;
  }
  const GraphEdge& edge = g.edge(e);
  if (!check_edge(g.nodes(), edge, tag, options, report)) return report;
  for (const NodeId end : {edge.u, edge.v}) {
    std::size_t listed = 0;
    for (const EdgeId other : g.incident_edges(end)) {
      if (other == e) {
        ++listed;
        continue;
      }
      if (other >= g.edge_count()) {
        report.errors.push_back("adjacency of node " + std::to_string(end) +
                                ": edge id " + std::to_string(other) + " out of range");
        continue;
      }
      const GraphEdge& o = g.edge(other);
      if ((o.u == edge.u && o.v == edge.v) || (o.u == edge.v && o.v == edge.u)) {
        report.errors.push_back(tag + ": parallel edge " + std::to_string(other) +
                                " between " + std::to_string(edge.u) + " and " +
                                std::to_string(edge.v));
      }
    }
    if (listed != 1) {
      report.errors.push_back("adjacency of node " + std::to_string(end) + ": " + tag +
                              " listed " + std::to_string(listed) + " times");
    }
  }
  return report;
}

/// Validates a RoutingGraph, additionally cross-checking the adjacency
/// index against the edge list (every incident edge id in range, actually
/// incident, listed exactly once per endpoint, and covering all edges).
inline check::ValidationReport validate_graph(const RoutingGraph& g,
                                       const GraphValidateOptions& options = {}) {
  check::ValidationReport report = validate_graph(g.nodes(), g.edges(), options);

  std::size_t incident_total = 0;
  for (NodeId node = 0; node < g.node_count(); ++node) {
    std::set<EdgeId> unique;
    for (const EdgeId e : g.incident_edges(node)) {
      ++incident_total;
      if (e >= g.edge_count()) {
        report.errors.push_back("adjacency of node " + std::to_string(node) +
                                ": edge id " + std::to_string(e) + " out of range");
        continue;
      }
      const GraphEdge& edge = g.edge(e);
      if (edge.u != node && edge.v != node) {
        report.errors.push_back("adjacency of node " + std::to_string(node) +
                                ": edge " + std::to_string(e) + " is not incident");
      }
      if (!unique.insert(e).second) {
        report.errors.push_back("adjacency of node " + std::to_string(node) +
                                ": edge " + std::to_string(e) + " listed twice");
      }
    }
  }
  if (incident_total != 2 * g.edge_count()) {
    report.errors.push_back("adjacency covers " + std::to_string(incident_total) +
                            " endpoints for " + std::to_string(g.edge_count()) +
                            " edges");
  }
  return report;
}

}  // namespace ntr::graph
