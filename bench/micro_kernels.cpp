// A6: google-benchmark microbenchmarks of the computational kernels every
// router leans on: MST construction, tree Elmore, graph-moment solve,
// transient delay measurement, Iterated 1-Steiner, and one LDRG candidate
// scan. Complexity claims from the paper (H2/H3 are linear given the MST;
// LDRG is quadratically many simulations) are visible in the scaling.

#include <benchmark/benchmark.h>

#include <string>
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

// One incremental candidate evaluation: the O(n) Sherman-Morrison delta
// the parallel LDRG lanes score with, vs the O(n^3) full solve above
// (BM_GraphMoments) it replaces per candidate.
void BM_IncrementalCandidate(benchmark::State& state) {
  const graph::RoutingGraph g =
      graph::mst_routing(make_net(static_cast<std::size_t>(state.range(0))));
  const delay::IncrementalElmore engine(g, kTech);
  const graph::NodeId u = 0, v = g.node_count() - 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.candidate_delays(u, v));
}
BENCHMARK(BM_IncrementalCandidate)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(100);

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
