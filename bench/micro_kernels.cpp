// A6: google-benchmark microbenchmarks of the computational kernels every
// router leans on: MST construction, tree Elmore, graph-moment solve,
// transient delay measurement, Iterated 1-Steiner, the incremental Elmore
// engine and its candidate scorer, ERT construction, and one LDRG
// candidate scan. Complexity claims from the paper (H2/H3 are linear
// given the MST; LDRG is quadratically many simulations) are visible in
// the scaling.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/heuristics.h"
#include "core/ldrg.h"
#include "delay/elmore.h"
#include "delay/evaluator.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/mst.h"
#include "graph/routing_graph.h"
#include "route/ert.h"
#include "steiner/iterated_one_steiner.h"

namespace {

using namespace ntr;

const spice::Technology kTech = spice::kTable1Technology;

graph::Net make_net(std::size_t size) {
  expt::NetGenerator gen(42 + size);
  return gen.random_net(size);
}

void BM_PrimMst(benchmark::State& state) {
  const graph::Net net = make_net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::prim_mst(net.pins));
}
BENCHMARK(BM_PrimMst)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(100);

void BM_KruskalMst(benchmark::State& state) {
  const graph::Net net = make_net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::kruskal_mst(net.pins));
}
BENCHMARK(BM_KruskalMst)->Arg(10)->Arg(30)->Arg(100);

void BM_TreeElmore(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(delay::elmore_node_delays(g, kTech));
}
BENCHMARK(BM_TreeElmore)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(100);

void BM_GraphMoments(benchmark::State& state) {
  graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  g.add_edge(0, g.node_count() - 1);  // non-tree
  for (auto _ : state)
    benchmark::DoNotOptimize(delay::moment_analysis(g, kTech));
}
BENCHMARK(BM_GraphMoments)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(100);

void BM_TransientDelay(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  const delay::TransientEvaluator eval(kTech);
  for (auto _ : state)
    benchmark::DoNotOptimize(eval.max_delay(g));
}
BENCHMARK(BM_TransientDelay)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000);

void BM_IteratedOneSteiner(benchmark::State& state) {
  const graph::Net net = make_net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(steiner::iterated_one_steiner(net));
}
BENCHMARK(BM_IteratedOneSteiner)->Arg(5)->Arg(10)->Arg(20);

void BM_LdrgSingleEdge(benchmark::State& state) {
  const graph::RoutingGraph mst =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  const delay::TransientEvaluator eval(kTech);
  core::LdrgOptions opts;
  opts.max_added_edges = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::ldrg(mst, eval, opts));
}
BENCHMARK(BM_LdrgSingleEdge)->Arg(5)->Arg(10)->Arg(20);

void BM_H3NoSimulation(benchmark::State& state) {
  const graph::RoutingGraph mst =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::h3(mst, kTech));
}
BENCHMARK(BM_H3NoSimulation)->Arg(5)->Arg(10)->Arg(20)->Arg(30);

// One incremental candidate evaluation at every node: the O(n)
// Sherman-Morrison delta, vs the full solve above (BM_GraphMoments) it
// replaces per candidate.
void BM_IncrementalCandidate(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  const delay::IncrementalElmore engine(g, kTech);
  const graph::NodeId u = 0, v = g.node_count() - 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.candidate_delays(u, v));
}
BENCHMARK(BM_IncrementalCandidate)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(100);

// The once-per-round set-up of that engine: one envelope factorization of
// the grounded conductance matrix and n solves for the transfer
// resistances.
void BM_IncrementalBuild(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) benchmark::DoNotOptimize(delay::IncrementalElmore(g, kTech));
}
BENCHMARK(BM_IncrementalBuild)->Arg(30)->Arg(100)->Arg(200)->Arg(400);

// What one LDRG ranking scan pays per candidate: the graph-Elmore
// scorer's per-sink delays, cycling through every absent pair.
void BM_CandidateScorer(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  const delay::GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<delay::CandidateScorer> scorer = eval.make_candidate_scorer(g);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    for (graph::NodeId v = u + 1; v < g.node_count(); ++v)
      if (!g.has_edge(u, v)) pairs.emplace_back(u, v);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[next];
    benchmark::DoNotOptimize(scorer->candidate_sink_delays(u, v));
    next = next + 1 == pairs.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_CandidateScorer)->Arg(30)->Arg(100)->Arg(200);

// The whole ERT construction (the seed of ERT-LDRG), which scores every
// node attachment of every unattached pin in each of its rounds.
void BM_ElmoreRoutingTree(benchmark::State& state) {
  const graph::Net net = make_net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(route::elmore_routing_tree(net, kTech));
}
BENCHMARK(BM_ElmoreRoutingTree)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Full single-edge LDRG scan on N lanes (graph-Elmore evaluator so the
// incremental scorer carries the scan); determinism means the N-lane
// result equals the serial one, so this times pure coordination overhead
// plus the parallel speedup.
void BM_LdrgParallelScan(benchmark::State& state) {
  const graph::RoutingGraph mst = graph::mst_routing(make_net(30));
  const delay::GraphElmoreEvaluator eval(kTech);
  core::LdrgOptions opts;
  opts.max_added_edges = 1;
  opts.parallel.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::ldrg(mst, eval, opts));
}
BENCHMARK(BM_LdrgParallelScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

// benchmark's own main, plus the repo-wide `--json <path>` spelling all
// bench binaries share (translated to google-benchmark's output flags so
// CI's bench-perf job can treat every binary uniformly).
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      translated.push_back("--benchmark_format=console");
      translated.push_back("--benchmark_out_format=json");
      translated.push_back("--benchmark_out=" + args[++i]);
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> raw;
  raw.reserve(translated.size());
  for (std::string& s : translated) raw.push_back(s.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
