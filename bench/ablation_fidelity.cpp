// Ablation A1: delay-model fidelity. The paper leans on Boese et al. [4]:
// Elmore delay has "high accuracy and fidelity in comparison with SPICE",
// which justifies the simulation-free H2/H3 heuristics. This bench
// quantifies that claim for OUR implementation: per net size, the mean
// absolute relative error and the Pearson correlation of each fast delay
// model against the transient (SPICE-substitute) measurement, over both
// tree and non-tree topologies.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "delay/evaluator.h"
#include "expt/statistics.h"

namespace {

/// Closes exactly one cycle, LDRG-style: adds the absent pair with the
/// lowest graph-Elmore max sink delay (first pair on ties), even when no
/// pair improves on the tree, so every non-tree sample has one extra edge.
void add_best_edge(ntr::graph::RoutingGraph& g,
                   const ntr::delay::DelayEvaluator& elmore) {
  const auto scorer = elmore.make_candidate_scorer(g);
  double best = std::numeric_limits<double>::infinity();
  ntr::graph::NodeId best_u = ntr::graph::kInvalidNode;
  ntr::graph::NodeId best_v = ntr::graph::kInvalidNode;
  for (ntr::graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (ntr::graph::NodeId v = u + 1; v < g.node_count(); ++v) {
      if (g.has_edge(u, v)) continue;
      double worst = 0.0;
      for (const double d : scorer->candidate_sink_delays(u, v))
        worst = std::max(worst, d);
      if (worst < best) {
        best = worst;
        best_u = u;
        best_v = v;
      }
    }
  }
  g.add_edge(best_u, best_v);
}

}  // namespace

int main() {
  using namespace ntr;
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator transient(config.tech);
  const delay::GraphElmoreEvaluator elmore(config.tech);
  const delay::TwoPoleEvaluator d2m(config.tech);

  std::printf("Ablation A1 -- delay-model fidelity vs transient 50%% delay\n\n");
  std::printf("  topology    size |  elmore mare  corr |  d2m mare  corr\n");

  const auto run = [&](bool non_tree) {
    for (const std::size_t size : config.net_sizes) {
      expt::NetGenerator gen(config.seed + size);
      std::vector<double> ref, e1, e2;
      const std::size_t trials = std::min<std::size_t>(config.trials, 20);
      for (std::size_t t = 0; t < trials; ++t) {
        const graph::Net net = gen.random_net(size);
        graph::RoutingGraph g = graph::mst_routing(net);
        if (non_tree) add_best_edge(g, elmore);
        const std::vector<double> r = transient.sink_delays(g);
        const std::vector<double> a = elmore.sink_delays(g);
        const std::vector<double> b = d2m.sink_delays(g);
        for (std::size_t i = 0; i < r.size(); ++i) {
          ref.push_back(r[i]);
          e1.push_back(a[i]);
          e2.push_back(b[i]);
        }
      }
      double mare1 = 0.0, mare2 = 0.0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        mare1 += std::abs(e1[i] - ref[i]) / ref[i];
        mare2 += std::abs(e2[i] - ref[i]) / ref[i];
      }
      mare1 /= static_cast<double>(ref.size());
      mare2 /= static_cast<double>(ref.size());
      std::printf("  %-9s  %4zu |    %6.1f%%   %.3f |   %5.1f%%   %.3f\n",
                  non_tree ? "non-tree" : "tree", size, 100.0 * mare1,
                  expt::pearson_correlation(ref, e1), 100.0 * mare2,
                  expt::pearson_correlation(ref, e2));
    }
  };
  run(false);
  run(true);

  std::printf(
      "\nmare = mean |model - transient| / transient over all sinks.\n"
      "High correlation is what makes Elmore-guided edge selection (H2/H3)\n"
      "track simulation-guided selection (H1/LDRG).\n");
  return 0;
}
