#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "delay/elmore.h"
#include "delay/evaluator.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "expt/statistics.h"
#include "graph/routing_graph.h"
#include "route/ert.h"
#include "spice/technology.h"

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(ElmoreTree, TwoPinAnalytic) {
  const double len = 1000.0;
  graph::Net net{{{0, 0}, {len, 0}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);

  const double rw = kTech.wire_resistance(len);
  const double cw = kTech.wire_capacitance(len);
  const double cs = kTech.sink_capacitance_f;
  const double expected_sink = kTech.driver_resistance_ohm * (cw + cs) +
                               rw * (cw / 2.0 + cs);

  const std::vector<double> d = elmore_node_delays(g, kTech);
  EXPECT_NEAR(d[1], expected_sink, expected_sink * 1e-12);
  EXPECT_NEAR(d[0], kTech.driver_resistance_ohm * (cw + cs), 1e-25);
  EXPECT_NEAR(elmore_tree_delay(g, kTech), expected_sink, expected_sink * 1e-12);
}

TEST(ElmoreTree, PathOfTwoEdgesAnalytic) {
  graph::Net net{{{0, 0}, {1000, 0}, {3000, 0}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);

  const double r1 = kTech.wire_resistance(1000), c1 = kTech.wire_capacitance(1000);
  const double r2 = kTech.wire_resistance(2000), c2 = kTech.wire_capacitance(2000);
  const double cs = kTech.sink_capacitance_f;
  const double total_c = c1 + c2 + 2 * cs;
  const double expected_far = kTech.driver_resistance_ohm * total_c +
                              r1 * (c1 / 2 + c2 + 2 * cs) + r2 * (c2 / 2 + cs);
  const std::vector<double> d = elmore_node_delays(g, kTech);
  EXPECT_NEAR(d[2], expected_far, expected_far * 1e-12);
}

TEST(ElmoreTree, RejectsCyclicGraphs) {
  graph::Net net{{{0, 0}, {1000, 0}, {1000, 1000}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_THROW(elmore_node_delays(g, kTech), std::invalid_argument);
}

TEST(ElmoreTree, WiderEdgeLowersDownstreamResistanceTerm) {
  // Heavy downstream load: widening the source edge should cut its R-term
  // by more than the added C-term costs through the driver.
  graph::Net net{{{0, 0}, {200, 0}, {5200, 0}, {200, 5000}, {5200, 100}}};
  graph::RoutingGraph g = graph::mst_routing(net);
  const double before = elmore_tree_delay(g, kTech);
  const graph::EdgeId source_edge = *g.find_edge(0, 1);
  g.set_edge_width(source_edge, 3.0);
  const double after = elmore_tree_delay(g, kTech);
  EXPECT_LT(after, before);
}

TEST(GraphMoments, DisconnectedGraphRejected) {
  graph::Net net{{{0, 0}, {1000, 0}, {2000, 0}}};
  const graph::RoutingGraph g(net);  // no edges
  EXPECT_THROW(moment_analysis(g, kTech), std::invalid_argument);
}

class TreeEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeEquivalenceTest, GraphMomentEqualsTreeElmoreOnTrees) {
  expt::NetGenerator gen(17 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    const graph::RoutingGraph g = graph::mst_routing(net);
    const std::vector<double> tree = elmore_node_delays(g, kTech);
    const std::vector<double> moment = graph_elmore_delays(g, kTech);
    ASSERT_EQ(tree.size(), moment.size());
    for (std::size_t i = 0; i < tree.size(); ++i)
      EXPECT_NEAR(moment[i], tree[i], tree[i] * 1e-6 + 1e-18) << "node " << i;
  }
}

TEST_P(TreeEquivalenceTest, TransientFiftyPercentBelowElmore) {
  // On RC trees the Elmore delay upper-bounds the 50% threshold delay
  // (Gupta et al.); our transient engine must respect that ordering.
  expt::NetGenerator gen(99 + GetParam());
  const TransientEvaluator transient(kTech);
  const ElmoreTreeEvaluator elmore(kTech);
  for (int trial = 0; trial < 3; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    const graph::RoutingGraph g = graph::mst_routing(net);
    const std::vector<double> t50 = transient.sink_delays(g);
    const std::vector<double> ted = elmore.sink_delays(g);
    for (std::size_t i = 0; i < t50.size(); ++i) {
      EXPECT_LT(t50[i], ted[i] * 1.001) << "sink " << i;
      EXPECT_GT(t50[i], 0.0);
    }
  }
}

TEST_P(TreeEquivalenceTest, D2mTighterThanElmoreAgainstTransient) {
  expt::NetGenerator gen(7 + GetParam());
  const TransientEvaluator transient(kTech);
  const TwoPoleEvaluator d2m(kTech);
  const ElmoreTreeEvaluator elmore(kTech);
  double d2m_err = 0.0, elmore_err = 0.0;
  int count = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    const graph::RoutingGraph g = graph::mst_routing(net);
    const std::vector<double> ref = transient.sink_delays(g);
    const std::vector<double> a = d2m.sink_delays(g);
    const std::vector<double> b = elmore.sink_delays(g);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      d2m_err += std::abs(a[i] - ref[i]) / ref[i];
      elmore_err += std::abs(b[i] - ref[i]) / ref[i];
      ++count;
    }
  }
  // Averaged over sinks, the two-pole metric approximates the measured 50%
  // delay better than raw Elmore does.
  EXPECT_LT(d2m_err / count, elmore_err / count);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeEquivalenceTest,
                         ::testing::Values<std::size_t>(5, 10, 20));

TEST(GraphMoments, ExtraEdgeChangesDelays) {
  // Square net: closing the cycle lowers the far corner's Elmore delay.
  graph::Net net{{{0, 0}, {5000, 0}, {5000, 5000}, {0, 5000}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<double> before = graph_elmore_delays(g, kTech);
  g.add_edge(3, 0);
  const std::vector<double> after = graph_elmore_delays(g, kTech);
  EXPECT_LT(after[3], before[3]);  // node 3 now one hop from the source
  EXPECT_LT(after[2], before[2]);  // resistance to the far corner halves-ish
}

TEST(GraphMoments, MonotoneInSinkCapacitance) {
  expt::NetGenerator gen(5);
  const graph::Net net = gen.random_net(8);
  const graph::RoutingGraph g = graph::mst_routing(net);
  spice::Technology heavy = kTech;
  heavy.sink_capacitance_f *= 10.0;
  const std::vector<double> light_d = graph_elmore_delays(g, kTech);
  const std::vector<double> heavy_d = graph_elmore_delays(g, heavy);
  for (std::size_t i = 0; i < light_d.size(); ++i)
    EXPECT_GT(heavy_d[i], light_d[i]);
}

TEST(Evaluators, MaxAndWeightedObjectives) {
  graph::Net net{{{0, 0}, {1000, 0}, {4000, 0}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const ElmoreTreeEvaluator eval(kTech);
  const std::vector<double> d = eval.sink_delays(g);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(eval.max_delay(g), std::max(d[0], d[1]));
  const std::vector<double> alpha{2.0, 0.5};
  EXPECT_DOUBLE_EQ(eval.weighted_delay(g, alpha), 2.0 * d[0] + 0.5 * d[1]);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(static_cast<void>(eval.weighted_delay(g, bad)), std::invalid_argument);
}

TEST(Evaluators, TransientWorksOnCycles) {
  graph::Net net{{{0, 0}, {5000, 0}, {5000, 5000}, {0, 5000}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const TransientEvaluator eval(kTech);
  const double tree_delay = eval.max_delay(g);
  g.add_edge(3, 0);
  const double cycle_delay = eval.max_delay(g);
  EXPECT_LT(cycle_delay, tree_delay);  // the paper's Figure-1 effect
}

TEST(Evaluators, NamesAreDistinct) {
  const ElmoreTreeEvaluator a(kTech);
  const GraphElmoreEvaluator b(kTech);
  const TwoPoleEvaluator c(kTech);
  const TransientEvaluator d(kTech);
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(b.name(), c.name());
  EXPECT_NE(c.name(), d.name());
}

/// Every attachment node of `tree`, with leaves at random points, at the
/// attachment itself (a zero-length wire) and of both kinds: the copy-free
/// answer equals elmore_node_delays of the materialized trial, bit for bit.
void expect_leaf_delays_match_trials(const graph::RoutingGraph& tree,
                                     std::mt19937_64& rng, const std::string& context) {
  const TreeLeafElmore leaf_elmore(tree, kTech);
  std::uniform_real_distribution<double> coord(0.0, kTech.layout_side_um);
  std::vector<double> got(tree.node_count() + 1);
  for (graph::NodeId u = 0; u < tree.node_count(); ++u) {
    for (int k = 0; k < 3; ++k) {
      const geom::Point pos =
          k == 0 ? tree.node(u).pos : geom::Point{coord(rng), coord(rng)};
      const graph::NodeKind kind =
          k == 2 ? graph::NodeKind::kSteiner : graph::NodeKind::kSink;
      graph::RoutingGraph trial = tree;
      trial.add_edge(u, trial.add_node(pos, kind));
      const std::vector<double> want = elmore_node_delays(trial, kTech);
      leaf_elmore.delays_with_leaf(u, pos, kind, got);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << context << " attach " << u << " leaf " << k
                                   << " node " << i;
    }
  }
}

TEST(TreeLeafElmore, MatchesElmoreNodeDelaysOfTheTrialBitForBit) {
  std::mt19937_64 rng(1994);
  for (const std::size_t pins : {1u, 2u, 3u, 5u, 10u, 20u, 40u}) {
    expt::NetGenerator gen(800 + pins);
    const graph::Net net = gen.random_net(std::max<std::size_t>(pins, 2));
    graph::RoutingGraph mst = graph::mst_routing(net);
    if (pins == 1) {  // the source alone, as ERT's first round sees it
      mst = graph::RoutingGraph();
      mst.add_node(net.pins[0], graph::NodeKind::kSource);
    }
    expect_leaf_delays_match_trials(mst, rng, "MST " + std::to_string(pins));
    if (mst.edge_count() > 1) {
      mst.set_edge_width(0, 2.0);  // a sized wire on the source path
      expect_leaf_delays_match_trials(mst, rng, "sized MST " + std::to_string(pins));
    }
    route::ErtOptions steiner;
    steiner.steiner = true;
    expect_leaf_delays_match_trials(route::elmore_routing_tree(net, kTech, steiner).graph,
                                    rng, "SERT " + std::to_string(pins));
  }
}

TEST(TreeLeafElmore, RejectsNonTreesAndBadQueries) {
  expt::NetGenerator gen(5);
  graph::RoutingGraph g = graph::mst_routing(gen.random_net(6));
  const TreeLeafElmore leaf_elmore(g, kTech);
  std::vector<double> out(g.node_count() + 1);
  EXPECT_THROW(leaf_elmore.delays_with_leaf(g.node_count(), {0, 0},
                                            graph::NodeKind::kSink, out),
               std::invalid_argument);
  std::vector<double> short_out(g.node_count());
  EXPECT_THROW(leaf_elmore.delays_with_leaf(0, {0, 0}, graph::NodeKind::kSink, short_out),
               std::invalid_argument);
  g.add_edge(0, g.node_count() - 1);
  if (!g.is_tree()) EXPECT_THROW(TreeLeafElmore(g, kTech), std::invalid_argument);
}

}  // namespace
}  // namespace ntr::delay
