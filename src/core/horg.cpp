#include "core/horg.h"

#include <stdexcept>

namespace ntr::core {

namespace {

double next_width(const std::vector<double>& widths, double current) {
  double best = 0.0;
  for (const double w : widths)
    if (w > current && (best == 0.0 || w < best)) best = w;
  return best;
}

}  // namespace

HorgResult horg_greedy(const graph::RoutingGraph& initial,
                       const delay::DelayEvaluator& evaluator,
                       const HorgOptions& options) {
  if (!initial.is_connected())
    throw std::invalid_argument("horg_greedy: routing must be connected");
  if (options.widths.empty())
    throw std::invalid_argument("horg_greedy: widths must be non-empty");

  HorgResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_area = result.graph.total_wire_area();
  result.final_objective = result.initial_objective;
  result.final_area = result.initial_area;
  const double area_budget = options.max_area_ratio * result.initial_area;

  while (result.steps.size() < options.max_moves) {
    const double current = result.final_objective;
    const double accept_below = current * (1.0 - options.min_relative_improvement);

    // Best move by improvement per unit added area; moves that add no
    // area (impossible here: every move adds metal) or do not improve
    // are skipped.
    double best_score = 0.0;
    HorgStep best;
    bool found = false;

    const auto consider = [&](HorgStep step, double trial_objective,
                              double added_area) {
      if (trial_objective >= accept_below || added_area <= 0.0) return;
      if (result.final_area + added_area > area_budget) return;
      const double score = (current - trial_objective) / added_area;
      if (!found || score > best_score) {
        best_score = score;
        step.objective_before = current;
        step.objective_after = trial_objective;
        best = step;
        found = true;
      }
    };

    // ORG moves: every absent pair.
    for (graph::NodeId u = 0; u < result.graph.node_count(); ++u) {
      for (graph::NodeId v = u + 1; v < result.graph.node_count(); ++v) {
        if (result.graph.has_edge(u, v)) continue;
        graph::RoutingGraph trial = result.graph;
        const graph::EdgeId e = trial.add_edge(u, v);
        const double added_area = trial.edge(e).length;
        HorgStep step;
        step.kind = HorgStep::Kind::kAddEdge;
        step.u = u;
        step.v = v;
        consider(step, evaluator.objective(trial, options.criticality), added_area);
      }
    }
    // WSORG moves: widen any edge one notch.
    for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
      const graph::GraphEdge& edge = result.graph.edge(e);
      const double w = next_width(options.widths, edge.width);
      if (w == 0.0) continue;
      graph::RoutingGraph trial = result.graph;
      trial.set_edge_width(e, w);
      HorgStep step;
      step.kind = HorgStep::Kind::kWidenEdge;
      step.edge = e;
      step.new_width = w;
      consider(step, evaluator.objective(trial, options.criticality),
               edge.length * (w - edge.width));
    }

    if (!found) break;

    if (best.kind == HorgStep::Kind::kAddEdge) {
      result.graph.add_edge(best.u, best.v);
    } else {
      result.graph.set_edge_width(best.edge, best.new_width);
    }
    result.final_objective = best.objective_after;
    result.final_area = result.graph.total_wire_area();
    best.area_after = result.final_area;
    result.steps.push_back(best);
  }
  return result;
}

}  // namespace ntr::core
