#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "delay/evaluator.h"
#include "graph/routing_graph.h"

namespace ntr::core {

/// One accepted widening step of the greedy wire-sizing loop.
struct SizingStep {
  graph::EdgeId edge = graph::kInvalidEdge;
  double old_width = 1.0;
  double new_width = 1.0;
  double objective_before = 0.0;
  double objective_after = 0.0;
  double area_after = 0.0;  ///< sum(length * width) after the step
};

struct WireSizingOptions {
  /// Discrete widths available to each wire, in nominal-width multiples.
  /// The paper motivates integral widths (two merged parallel wires of
  /// width w behave as one wire of width 2w).
  std::vector<double> widths{1.0, 2.0, 3.0, 4.0};

  /// Widenings that would push total wire area above this multiple of
  /// the initial area are never evaluated (infinity = unconstrained).
  double max_area_ratio = std::numeric_limits<double>::infinity();

  /// CSORG weights, indexed like graph.sinks(); empty = minimize the
  /// max. When given, one non-negative (not NaN) weight per sink.
  std::vector<double> criticality;

  /// A widening must improve the objective by more than this fraction;
  /// must be non-negative, as for ldrg().
  double min_relative_improvement = 1e-9;
};

struct WireSizingResult {
  graph::RoutingGraph graph;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  std::vector<SizingStep> steps;
};

/// Greedy solver for the Wire-Sized Optimal Routing Graph problem (WSORG,
/// Section 5.2): repeatedly bump the single edge to its next available
/// width where the bump yields the largest delay improvement, until no
/// bump improves the objective (or the area budget is exhausted). Wider
/// wires have proportionally lower resistance and higher capacitance
/// (Technology::wire_resistance / wire_capacitance), so -- like non-tree
/// edge insertion -- each acceptance is a resistance-vs-capacitance trade.
/// Works on trees and non-tree graphs alike, and composes with ldrg() to
/// realize the paper's HORG formulation (Section 5.3). Runs on ldrg()'s
/// round engine with one lane and its contract; throws
/// std::invalid_argument when `initial` is disconnected, `widths` is
/// empty, or min_relative_improvement is negative or NaN.
WireSizingResult greedy_wire_sizing(const graph::RoutingGraph& initial,
                                    const delay::DelayEvaluator& evaluator,
                                    const WireSizingOptions& options = {});

}  // namespace ntr::core
