// Reproduces Table 2: LDRG algorithm statistics vs the MST.
//
// Iteration One rows: LDRG limited to a single extra edge, normalized to
// the MST. Iteration Two rows: the marginal effect of the second extra
// edge, normalized to the iteration-one routing (the paper's iteration-two
// delay ratios exceed its iteration-one ratios, which is only consistent
// with this marginal reading; see EXPERIMENTS.md).
//
// The two tables share almost all of their work: the iteration-one routing
// is both the candidate of table one, the baseline of table two, and --
// because the LDRG greedy scan is a deterministic continuation -- the
// prefix of the iteration-two routing. The pipeline below caches the
// iteration-one result per net and grows iteration two from it, which is
// bit-identical to recomputing both from the MST (the greedy loop's state
// after accepting edge k depends only on the graph, which the continuation
// reproduces exactly; LdrgParallel.ContinuationMatchesTwoEdgeRun checks
// it). Candidate scoring runs on NTR_THREADS lanes with branch-and-bound
// cutoffs; both are proved output-preserving in docs/performance.md.

#include <map>

#include "bench_common.h"
#include "core/ldrg.h"

namespace {

using namespace ntr;

/// Pins, flattened, as a cache key: the protocol generates each trial's
/// net once per comparison, so the key identifies a trial exactly.
std::vector<double> net_key(const graph::Net& net) {
  std::vector<double> key;
  key.reserve(2 * net.size());
  for (const geom::Point& p : net.pins) {
    key.push_back(p.x);
    key.push_back(p.y);
  }
  return key;
}

}  // namespace

int main() {
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator eval(config.tech);

  core::LdrgOptions opts;
  opts.max_added_edges = 1;
  opts.parallel = config.parallel;

  std::map<std::vector<double>, graph::RoutingGraph> ldrg1_cache;
  const auto mst = [](const graph::Net& net) { return graph::mst_routing(net); };
  const auto ldrg1 = [&](const graph::Net& net) {
    const std::vector<double> key = net_key(net);
    const auto it = ldrg1_cache.find(key);
    if (it != ldrg1_cache.end()) return it->second;
    graph::RoutingGraph g = core::ldrg(graph::mst_routing(net), eval, opts).graph;
    ldrg1_cache.emplace(key, g);
    return g;
  };
  // Continuation: one more greedy edge on top of the cached iteration-one
  // routing == ldrg(mst, 2), bit for bit.
  const auto ldrg2 = [&](const graph::Net& net) {
    return core::ldrg(ldrg1(net), eval, opts).graph;
  };

  bench::report("Table 2 -- LDRG Iteration One (normalized to MST)",
                bench::run_comparison(config, mst, ldrg1, eval));
  bench::report("Table 2 -- LDRG Iteration Two (marginal, normalized to iteration one)",
                bench::run_comparison(config, ldrg1, ldrg2, eval));
  return 0;
}
