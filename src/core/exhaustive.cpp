#include "core/exhaustive.h"

#include <stdexcept>
#include <utility>

namespace ntr::core {

ExhaustiveOrgResult exhaustive_org_augmentation(
    const graph::RoutingGraph& initial, const delay::DelayEvaluator& evaluator,
    const ExhaustiveOrgOptions& options) {
  if (!initial.is_connected())
    throw std::invalid_argument("exhaustive_org: initial routing must be connected");

  std::vector<std::pair<graph::NodeId, graph::NodeId>> absent;
  for (graph::NodeId u = 0; u < initial.node_count(); ++u)
    for (graph::NodeId v = u + 1; v < initial.node_count(); ++v)
      if (!initial.has_edge(u, v)) absent.emplace_back(u, v);

  ExhaustiveOrgResult best;
  best.graph = initial;
  best.objective = evaluator.objective(initial, options.criticality);
  best.evaluated = 1;

  // Depth-first enumeration of subsets up to the size cap. `start` makes
  // each subset visited exactly once (combinations, not permutations).
  std::vector<std::size_t> chosen;
  const auto recurse = [&](auto&& self, graph::RoutingGraph& current,
                           std::size_t start) -> void {
    if (chosen.size() >= options.max_extra_edges) return;
    for (std::size_t i = start; i < absent.size(); ++i) {
      graph::RoutingGraph next = current;
      next.add_edge(absent[i].first, absent[i].second);
      chosen.push_back(i);
      const double t = evaluator.objective(next, options.criticality);
      ++best.evaluated;
      if (t < best.objective) {
        best.objective = t;
        best.graph = next;
        best.extra_edges = chosen.size();
      }
      self(self, next, i + 1);
      chosen.pop_back();
    }
  };
  graph::RoutingGraph root = initial;
  recurse(recurse, root, 0);
  return best;
}

}  // namespace ntr::core
