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
// prefix of the iteration-two routing. The pipeline below memoizes the
// iteration-one result per net and grows iteration two from it, which is
// bit-identical to recomputing both from the MST (the greedy loop's state
// after accepting edge k depends only on the graph, which the continuation
// reproduces exactly). Candidate scoring runs on NTR_THREADS lanes with
// branch-and-bound cutoffs; both are proved output-preserving in
// docs/performance.md.
//
// With `--json <path>` the binary additionally times the seed-equivalent
// serial pipeline (no memoization, no cutoffs, one thread), verifies the
// optimized pipeline reproduces its tables bit-for-bit, and writes the
// phase report CI's bench-perf job tracks.

#include <cstdio>
#include <map>
#include <mutex>

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

/// Node coordinates plus the edge list: identifies a routing exactly (two
/// routings with equal keys get bit-equal delays from any evaluator).
std::vector<double> graph_key(const graph::RoutingGraph& g) {
  std::vector<double> key;
  key.reserve(2 * g.node_count() + 2 * g.edge_count());
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    key.push_back(g.node(n).pos.x);
    key.push_back(g.node(n).pos.y);
  }
  for (const graph::GraphEdge& e : g.edges()) {
    key.push_back(static_cast<double>(e.u));
    key.push_back(static_cast<double>(e.v));
  }
  return key;
}

struct PipelineStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t sim_lookups = 0;
  std::size_t sim_hits = 0;
  [[nodiscard]] double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Memoizes full sink-delay measurements by routing identity. The Table-2
/// pipeline measures the iteration-one routing three times (rows-one
/// candidate, rows-two baseline, and the continuation's initial
/// objective); each repeat returns the stored doubles, so the memo is
/// bit-identity preserving by construction. Candidate scoring
/// (bounded_max_delay) passes straight through to the inner evaluator --
/// those calls are bound-dependent and run on the parallel lanes.
class MemoizedEvaluator final : public delay::DelayEvaluator {
 public:
  MemoizedEvaluator(const delay::DelayEvaluator& inner, PipelineStats* stats)
      : inner_(inner), stats_(stats) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    const std::vector<double> key = graph_key(g);
    const std::scoped_lock lock(mutex_);
    ++stats_->sim_lookups;
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_->sim_hits;
      return it->second;
    }
    std::vector<double> delays = inner_.sink_delays(g);
    cache_.emplace(key, delays);
    return delays;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return inner_.make_candidate_scorer(g);
  }

  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override {
    return inner_.bounded_max_delay(g, give_up_s);
  }

 private:
  const delay::DelayEvaluator& inner_;
  PipelineStats* stats_;
  mutable std::mutex mutex_;
  mutable std::map<std::vector<double>, std::vector<double>> cache_;
};

/// The seed's exact scoring: forwards everything but bounded_max_delay,
/// whose base-class default ignores the bound and measures in full.
class UnboundedEvaluator final : public delay::DelayEvaluator {
 public:
  explicit UnboundedEvaluator(const delay::DelayEvaluator& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return inner_.make_candidate_scorer(g);
  }

 private:
  const delay::DelayEvaluator& inner_;
};

/// Runs both Table-2 comparisons. `optimized` enables the memoized
/// continuation pipeline, parallel lanes, and bounded scoring; with it off
/// this is exactly the seed's serial pipeline.
std::pair<std::vector<expt::AggregateRow>, std::vector<expt::AggregateRow>>
run_table2(const bench::TableConfig& config,
           const delay::DelayEvaluator& inner_eval, bool optimized,
           PipelineStats* stats) {
  const MemoizedEvaluator memo(inner_eval, stats);
  const UnboundedEvaluator unbounded(inner_eval);
  const delay::DelayEvaluator& eval =
      optimized ? static_cast<const delay::DelayEvaluator&>(memo) : unbounded;

  core::LdrgOptions opts;
  opts.max_added_edges = 1;
  if (optimized) opts.parallel = config.parallel;

  std::map<std::vector<double>, graph::RoutingGraph> ldrg1_cache;
  const auto mst = [](const graph::Net& net) { return graph::mst_routing(net); };
  const auto ldrg1 = [&](const graph::Net& net) {
    if (!optimized)
      return core::ldrg(graph::mst_routing(net), eval, opts).graph;
    ++stats->lookups;
    const std::vector<double> key = net_key(net);
    const auto it = ldrg1_cache.find(key);
    if (it != ldrg1_cache.end()) {
      ++stats->hits;
      return it->second;
    }
    graph::RoutingGraph g = core::ldrg(graph::mst_routing(net), eval, opts).graph;
    ldrg1_cache.emplace(key, g);
    return g;
  };
  const auto ldrg2 = [&](const graph::Net& net) {
    if (!optimized) {
      core::LdrgOptions two = opts;
      two.max_added_edges = 2;
      return core::ldrg(graph::mst_routing(net), eval, two).graph;
    }
    // Continuation: one more greedy edge on top of the cached iteration-one
    // routing == ldrg(mst, 2), bit for bit.
    return core::ldrg(ldrg1(net), eval, opts).graph;
  };

  auto rows_one = bench::run_comparison(config, mst, ldrg1, eval);
  auto rows_two = bench::run_comparison(config, ldrg1, ldrg2, eval);
  return {std::move(rows_one), std::move(rows_two)};
}

bool rows_equal(const std::vector<expt::AggregateRow>& a,
                const std::vector<expt::AggregateRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].net_size != b[i].net_size || a[i].trials != b[i].trials ||
        a[i].all_delay_ratio != b[i].all_delay_ratio ||
        a[i].all_cost_ratio != b[i].all_cost_ratio ||
        a[i].percent_winners != b[i].percent_winners)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ntr::bench::json_path_from_args(argc, argv);
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator spice_like(config.tech);

  PipelineStats stats;
  bench::WallTimer timer;
  const auto [rows_one, rows_two] = run_table2(config, spice_like, true, &stats);
  const double optimized_s = timer.seconds();

  bench::report("Table 2 -- LDRG Iteration One (normalized to MST)", rows_one);
  bench::report("Table 2 -- LDRG Iteration Two (marginal, normalized to iteration one)",
                rows_two);

  if (!json_path.empty()) {
    timer.reset();
    const auto [serial_one, serial_two] =
        run_table2(config, spice_like, false, nullptr);
    const double serial_s = timer.seconds();

    bench::BenchReport report;
    report.bench = "table2_ldrg";
    report.config = config;
    report.outputs_identical =
        rows_equal(rows_one, serial_one) && rows_equal(rows_two, serial_two);
    report.phases.push_back(
        {"ldrg_pipeline_optimized",
         optimized_s,
         {{"threads", static_cast<double>(config.parallel.resolved_threads())},
          {"cache_lookups", static_cast<double>(stats.lookups)},
          {"cache_hits", static_cast<double>(stats.hits)},
          {"cache_hit_rate", stats.hit_rate()},
          {"sim_memo_lookups", static_cast<double>(stats.sim_lookups)},
          {"sim_memo_hits", static_cast<double>(stats.sim_hits)}}});
    report.phases.push_back({"ldrg_pipeline_serial_seed", serial_s, {{"threads", 1.0}}});
    report.summary = {{"speedup_vs_serial_seed", serial_s / optimized_s}};
    bench::write_bench_json(json_path, report);
    std::printf("wrote %s (%.2fs optimized vs %.2fs serial seed, outputs %s)\n",
                json_path.c_str(), optimized_s, serial_s,
                report.outputs_identical ? "identical" : "DIFFER");
    return report.outputs_identical ? 0 : 1;
  }
  return 0;
}
