// Cross-cutting randomized property tests over arbitrary connected
// routing graphs (random spanning trees plus random chords -- NOT just
// MSTs), checking the invariants every stack layer promises to every
// other layer.

#include <gtest/gtest.h>

#include <random>

#include "delay/elmore.h"
#include "delay/evaluator.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/bridges.h"
#include "graph/embedding.h"
#include "graph/paths.h"

namespace ntr {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// A random connected routing graph: random net, random spanning tree
/// (random parent, not the MST), plus `chords` random extra edges.
graph::RoutingGraph random_routing(std::size_t pins, std::size_t chords,
                                   std::uint64_t seed) {
  expt::NetGenerator gen(seed);
  const graph::Net net = gen.random_net(pins);
  graph::RoutingGraph g(net);
  std::mt19937_64 rng(seed * 31 + 7);
  for (graph::NodeId v = 1; v < g.node_count(); ++v) {
    const graph::NodeId parent = rng() % v;  // attach to any earlier node
    g.add_edge(parent, v);
  }
  for (std::size_t c = 0; c < chords; ++c) {
    const graph::NodeId u = rng() % g.node_count();
    const graph::NodeId v = rng() % g.node_count();
    if (u != v) g.add_edge(u, v);
  }
  return g;
}

struct Shape {
  std::size_t pins;
  std::size_t chords;
};

class GraphPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GraphPropertyTest, CycleCountMatchesBridgeStructure) {
  const auto [pins, chords] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const graph::RoutingGraph g = random_routing(pins, chords, seed);
    ASSERT_TRUE(g.is_connected());
    EXPECT_EQ(g.cycle_count(), g.edge_count() + 1 - g.node_count());
    if (g.cycle_count() == 0) {
      EXPECT_EQ(graph::redundant_edge_count(g), 0u);
    } else {
      // Every independent cycle involves >= 3 non-bridge edges.
      EXPECT_GE(graph::redundant_edge_count(g), 3u);
    }
  }
}

TEST_P(GraphPropertyTest, EvaluatorRankingsAgreeWithEachOther) {
  // D2M and transient may disagree with graph Elmore on close calls, but
  // all evaluators must return positive finite delays.
  const auto [pins, chords] = GetParam();
  const delay::GraphElmoreEvaluator elmore(kTech);
  const delay::TwoPoleEvaluator d2m(kTech);
  const delay::TransientEvaluator transient(kTech);
  for (std::uint64_t seed = 9; seed <= 10; ++seed) {
    const graph::RoutingGraph g = random_routing(pins, chords, seed);
    for (const auto* eval :
         std::initializer_list<const delay::DelayEvaluator*>{&elmore, &d2m,
                                                             &transient}) {
      for (const double d : eval->sink_delays(g)) {
        EXPECT_GT(d, 0.0) << eval->name();
        EXPECT_TRUE(std::isfinite(d)) << eval->name();
      }
    }
  }
}

TEST_P(GraphPropertyTest, ScreenerMatchesFullSolveOnArbitraryGraphs) {
  const auto [pins, chords] = GetParam();
  const graph::RoutingGraph g = random_routing(pins, chords, 13);
  const delay::IncrementalElmore screener(g, kTech);
  std::mt19937_64 rng(99);
  for (int k = 0; k < 8; ++k) {
    const graph::NodeId u = rng() % g.node_count();
    const graph::NodeId v = rng() % g.node_count();
    if (u == v || g.has_edge(u, v)) continue;
    graph::RoutingGraph with = g;
    with.add_edge(u, v);
    const std::vector<double> full = delay::graph_elmore_delays(with, kTech);
    const std::vector<double> fast = screener.candidate_delays(u, v);
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_NEAR(fast[i], full[i], full[i] * 1e-6 + 1e-18);
  }
}

TEST_P(GraphPropertyTest, AddingAnyEdgeNeverDisconnectsOrShrinksCost) {
  const auto [pins, chords] = GetParam();
  graph::RoutingGraph g = random_routing(pins, chords, 17);
  const double cost_before = g.total_wirelength();
  const double metal_before = graph::metal_length(g);
  g.add_edge(0, g.node_count() - 1);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GE(g.total_wirelength(), cost_before);
  EXPECT_GE(graph::metal_length(g) + 1e-9, metal_before);
  EXPECT_LE(graph::metal_length(g), g.total_wirelength() + 1e-9);
}

TEST_P(GraphPropertyTest, RadiusNeverBelowDirectDistance) {
  const auto [pins, chords] = GetParam();
  const graph::RoutingGraph g = random_routing(pins, chords, 21);
  const graph::ShortestPaths sp = graph::shortest_paths(g, g.source());
  for (const graph::NodeId s : g.sinks()) {
    const double direct =
        geom::manhattan_distance(g.node(g.source()).pos, g.node(s).pos);
    EXPECT_GE(sp.distance[s], direct * (1 - 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GraphPropertyTest,
                         ::testing::Values(Shape{6, 0}, Shape{10, 2}, Shape{15, 4},
                                           Shape{20, 8}));

TEST(ClusteredNets, DeterministicValidAndTighter) {
  expt::NetGenerator a(42), b(42);
  const graph::Net na = a.random_clustered_net(20, 3, 400.0);
  const graph::Net nb = b.random_clustered_net(20, 3, 400.0);
  EXPECT_EQ(na.pins, nb.pins);
  EXPECT_NO_THROW(na.validate());
  for (const geom::Point& p : na.pins) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, kTech.layout_side_um);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, kTech.layout_side_um);
  }
  // Clustered MSTs are cheaper than uniform ones on average.
  expt::NetGenerator gen(7);
  double uniform_cost = 0.0, clustered_cost = 0.0;
  for (int t = 0; t < 6; ++t) {
    uniform_cost += graph::mst_routing(gen.random_net(20)).total_wirelength();
    clustered_cost +=
        graph::mst_routing(gen.random_clustered_net(20, 3, 400.0)).total_wirelength();
  }
  EXPECT_LT(clustered_cost, uniform_cost);
}

TEST(ClusteredNets, Validation) {
  expt::NetGenerator gen(1);
  EXPECT_THROW(gen.random_clustered_net(1, 2, 100.0), std::invalid_argument);
  EXPECT_THROW(gen.random_clustered_net(5, 0, 100.0), std::invalid_argument);
  EXPECT_THROW(gen.random_clustered_net(5, 2, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ntr
