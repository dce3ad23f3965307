#include "core/wire_sizing.h"

#include <stdexcept>

namespace ntr::core {

namespace {

/// Smallest available width strictly above `current`, or 0 if none.
double next_width(const std::vector<double>& widths, double current) {
  double best = 0.0;
  for (const double w : widths)
    if (w > current && (best == 0.0 || w < best)) best = w;
  return best;
}

}  // namespace

WireSizingResult greedy_wire_sizing(const graph::RoutingGraph& initial,
                                    const delay::DelayEvaluator& evaluator,
                                    const WireSizingOptions& options) {
  if (!initial.is_connected())
    throw std::invalid_argument("greedy_wire_sizing: routing must be connected");
  if (options.widths.empty())
    throw std::invalid_argument("greedy_wire_sizing: widths must be non-empty");

  WireSizingResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_area = result.graph.total_wire_area();
  result.final_objective = result.initial_objective;
  result.final_area = result.initial_area;
  const double area_budget = options.max_area_ratio * result.initial_area;

  while (true) {
    const double current = result.final_objective;
    const double accept_below = current * (1.0 - options.min_relative_improvement);

    double best_objective = accept_below;
    graph::EdgeId best_edge = graph::kInvalidEdge;
    double best_width = 0.0;

    for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
      const graph::GraphEdge& edge = result.graph.edge(e);
      const double w = next_width(options.widths, edge.width);
      if (w == 0.0) continue;  // already at the widest available width
      const double new_area =
          result.final_area + edge.length * (w - edge.width);
      if (new_area > area_budget) continue;

      graph::RoutingGraph trial = result.graph;
      trial.set_edge_width(e, w);
      const double t = evaluator.objective(trial, options.criticality);
      if (t < best_objective) {
        best_objective = t;
        best_edge = e;
        best_width = w;
      }
    }

    if (best_edge == graph::kInvalidEdge) break;

    SizingStep step;
    step.edge = best_edge;
    step.old_width = result.graph.edge(best_edge).width;
    step.new_width = best_width;
    step.objective_before = current;
    step.objective_after = best_objective;
    result.graph.set_edge_width(best_edge, best_width);
    result.final_objective = best_objective;
    result.final_area = result.graph.total_wire_area();
    step.area_after = result.final_area;
    result.steps.push_back(step);
  }
  return result;
}

}  // namespace ntr::core
