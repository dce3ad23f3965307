// Counts heap allocations with a replaced global operator new, so it is a
// binary of its own. The transient march of an RC deck allocates its
// workspace once; a march that takes ten times the steps must make exactly
// as many allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "expt/net_generator.h"
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

TEST(TransientAllocations, MarchAllocatesNothingPerStep) {
  const spice::Technology tech = spice::kTable1Technology;
  const graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(7).random_net(20));
  const spice::GraphNetlist netlist = spice::build_netlist(g, tech);
  std::vector<spice::CircuitNode> watch;
  for (const graph::NodeId n : netlist.sink_graph_nodes)
    watch.push_back(netlist.graph_to_circuit[n]);

  // Allocations made by measure_crossings on a fresh simulator that gives
  // up after `steps` steps of its own time step.
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
  EXPECT_EQ(short_march, long_march);
}

}  // namespace
}  // namespace ntr
