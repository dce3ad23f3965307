#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "delay/evaluator.h"
#include "graph/routing_graph.h"

namespace ntr::core {

/// One accepted HORG move.
struct HorgStep {
  enum class Kind { kAddEdge, kWidenEdge } kind = Kind::kAddEdge;
  graph::NodeId u = graph::kInvalidNode;  ///< kAddEdge endpoints
  graph::NodeId v = graph::kInvalidNode;
  graph::EdgeId edge = graph::kInvalidEdge;  ///< kWidenEdge target
  double new_width = 1.0;
  double objective_before = 0.0;
  double objective_after = 0.0;
  double area_after = 0.0;
};

struct HorgOptions {
  /// Discrete widths available to every wire.
  std::vector<double> widths{1.0, 2.0, 3.0, 4.0};
  /// Moves that would push total wire area above this multiple of the
  /// initial area are never evaluated.
  double max_area_ratio = std::numeric_limits<double>::infinity();
  /// CSORG weights, indexed like graph.sinks(); empty = minimize the
  /// max. When given, one non-negative (not NaN) weight per sink.
  std::vector<double> criticality;
  /// A move must improve the objective by more than this fraction; must
  /// be non-negative, as for ldrg().
  double min_relative_improvement = 1e-9;
  std::size_t max_moves = std::numeric_limits<std::size_t>::max();
};

struct HorgResult {
  graph::RoutingGraph graph;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  std::vector<HorgStep> steps;
};

/// Joint greedy solver for the paper's HORG formulation (Section 5.3):
/// at each step, evaluate BOTH move families -- adding one absent wire
/// (the ORG move) and widening one existing wire by one notch (the WSORG
/// move) -- and commit the move with the best objective improvement per
/// unit of added wire area. Its move set contains ldrg()'s and
/// greedy_wire_sizing()'s, but it does not reduce to either: even with
/// widths = {1.0} it ranks added wires by gain per area, not by the
/// lowest objective, and so can pick different edges from ldrg(). The
/// area-normalized selection is what lets a cheap widening beat a long
/// new wire when both help. Runs on ldrg()'s round engine with one lane
/// and its contract; throws std::invalid_argument when `initial` is
/// disconnected, `widths` is empty, or min_relative_improvement is
/// negative or NaN.
HorgResult horg_greedy(const graph::RoutingGraph& initial,
                       const delay::DelayEvaluator& evaluator,
                       const HorgOptions& options = {});

}  // namespace ntr::core
