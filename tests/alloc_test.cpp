// Counts heap allocations with a replaced global operator new, so it is a
// binary of its own. It pins the two loops whose per-element cost the
// paper's greedy search multiplies:
//   - the transient march of an RC deck allocates its workspace once, so
//     a march that takes ten times the steps makes exactly as many
//     allocations;
//   - LDRG's Elmore ranking allocates per round, never per candidate:
//     bounded row queries allocate nothing, nor does the scorer's
//     update after an accepted wire, and a one-edge LDRG makes exactly as
//     many allocations whether its budget admits every absent pair or
//     about a tenth of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/ldrg.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "geom/point.h"
#include "graph/routing_graph.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"
#include "spice/technology.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ntr {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

// ------------------------------------------------------------- the march

TEST(TransientAllocations, MarchAllocatesNothingPerStep) {
  const graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(7).random_net(20));
  spice::NetlistOptions with_inductance;
  with_inductance.include_inductance = true;
  // An RC deck, and the RLC deck whose inductor currents the march keeps.
  for (const spice::NetlistOptions& options : {spice::NetlistOptions{}, with_inductance}) {
    const spice::GraphNetlist netlist = spice::build_netlist(g, kTech, options);
    std::vector<spice::CircuitNode> watch;
    for (const graph::NodeId n : netlist.sink_graph_nodes)
      watch.push_back(netlist.graph_to_circuit[n]);

    // Allocations made by measure_crossings on a fresh simulator that
    // gives up after `steps` steps of its own time step.
    const auto allocations_of = [&](double steps) {
      sim::TransientSimulator simulator(netlist.circuit);
      const double give_up_s = steps * simulator.time_step();
      const std::size_t before = g_allocations.load();
      const auto report = simulator.measure_crossings(watch, 0.5, give_up_s);
      const std::size_t made = g_allocations.load() - before;
      EXPECT_FALSE(report.all_crossed) << "the cutoff must end the march";
      return made;
    };
    const std::size_t short_march = allocations_of(10.0);
    const std::size_t long_march = allocations_of(100.0);
    EXPECT_GT(short_march, 0u) << "the counting operator new is not in use";
    EXPECT_EQ(short_march, long_march) << "inductance: " << options.include_inductance;
  }
}

// ------------------------------------------------------ the LDRG ranking

std::vector<std::pair<graph::NodeId, graph::NodeId>> absent_pairs(
    const graph::RoutingGraph& g) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    for (graph::NodeId v = u + 1; v < g.node_count(); ++v)
      if (!g.has_edge(u, v)) pairs.emplace_back(u, v);
  return pairs;
}

TEST(LdrgAllocations, BoundedScorerQueriesAllocateNothing) {
  const graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(7).random_net(120));
  const delay::GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<delay::CandidateScorer> scorer = eval.make_candidate_scorer(g);
  const auto pairs = absent_pairs(g);
  const std::vector<double> weights(g.sinks().size(), 0.5);
  // The rows as LDRG enumerates them, and one output buffer for any row.
  std::vector<std::vector<graph::NodeId>> rows(g.node_count());
  for (const auto& [u, v] : pairs) rows[u].push_back(v);
  std::vector<double> out(g.node_count());
  const auto score = [&](graph::NodeId u, std::span<const graph::NodeId> vs,
                         std::span<const double> criticality, double bound) {
    const std::span<double> row(out.data(), vs.size());
    scorer->row_objectives(u, vs, criticality, bound, row);
    double sum = 0.0;
    for (const double x : row) sum += x;
    return sum;
  };
  // Unbounded, bounded at a typical score, and bounded at zero.
  const double typical = score(pairs[0].first, {&pairs[0].second, 1}, {},
                               std::numeric_limits<double>::infinity());
  const double bounds[] = {std::numeric_limits<double>::infinity(), typical, 0.0};

  const std::size_t before = g_allocations.load();
  double checksum = 0.0;
  // One-element rows, the single-candidate query.
  for (std::size_t i = 0; i < 10'000; ++i) {
    const auto& [u, v] = pairs[(i * 7919) % pairs.size()];
    const std::span<const double> criticality =
        i % 2 == 0 ? std::span<const double>{} : std::span<const double>(weights);
    checksum += score(u, {&v, 1}, criticality, bounds[i % 3]);
  }
  // Every whole row, ORG and CSORG, under each bound.
  for (const double bound : bounds) {
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      checksum += score(u, rows[u], {}, bound);
      checksum += score(u, rows[u], weights, bound);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(checksum, 0.0);

  const std::size_t vector_before = g_allocations.load();
  (void)scorer->candidate_sink_delays(pairs[0].first, pairs[0].second);
  EXPECT_GT(g_allocations.load() - vector_before, 0u)
      << "the counting operator new is not in use";
}

// Between rounds the scorer follows each accepted wire in place.
TEST(LdrgAllocations, AddWireAllocatesNothing) {
  graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(7).random_net(120));
  const delay::GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<delay::CandidateScorer> scorer = eval.make_candidate_scorer(g);
  const auto pairs = absent_pairs(g);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& [u, v] = pairs[(i * 7919) % pairs.size()];
    g.add_edge(u, v);
    const std::size_t before = g_allocations.load();
    const bool followed = scorer->add_wire(u, v);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "wire " << i;
    EXPECT_TRUE(followed) << "wire " << i;
  }
}

TEST(LdrgAllocations, OneEdgeLdrgAllocatesTheSameForAnyCandidateCount) {
  const graph::RoutingGraph mst =
      graph::mst_routing(expt::NetGenerator(11).random_net(60));
  const delay::GraphElmoreEvaluator eval(kTech);
  const auto pairs = absent_pairs(mst);
  std::vector<double> lengths;
  for (const auto& [u, v] : pairs)
    lengths.push_back(geom::manhattan_distance(mst.node(u).pos, mst.node(v).pos));
  std::nth_element(lengths.begin(), lengths.begin() + static_cast<std::ptrdiff_t>(lengths.size() / 10),
                   lengths.end());
  const double cost = mst.total_wirelength();
  const double tenth_ratio = (cost + lengths[lengths.size() / 10]) / cost;

  const auto allocations_of = [&](double max_cost_ratio) {
    core::LdrgOptions opts;
    opts.max_added_edges = 1;
    opts.max_cost_ratio = max_cost_ratio;
    const std::size_t before = g_allocations.load();
    const core::LdrgResult result = core::ldrg(mst, eval, opts);
    const std::size_t made = g_allocations.load() - before;
    EXPECT_EQ(result.steps.size(), 1u) << "ratio " << max_cost_ratio;
    return made;
  };
  const std::size_t every_pair = allocations_of(std::numeric_limits<double>::infinity());
  const std::size_t a_tenth = allocations_of(tenth_ratio);
  EXPECT_GT(every_pair, 0u) << "the counting operator new is not in use";
  EXPECT_EQ(every_pair, a_tenth);
}

}  // namespace
}  // namespace ntr
