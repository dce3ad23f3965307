// Screening: the Sherman-Morrison delta engine that ranks LDRG candidates
// (delay::IncrementalElmore) and screened LDRG, which ranks with it and
// verifies the top candidates with an accurate evaluator.

#include <gtest/gtest.h>

#include "core/ldrg.h"
#include "delay/evaluator.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

class ScreenerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScreenerTest, MatchesFullSolveForEveryCandidate) {
  expt::NetGenerator gen(9 + GetParam());
  const graph::Net net = gen.random_net(GetParam());
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const IncrementalElmore screener(mst, kTech);

  for (graph::NodeId u = 0; u < mst.node_count(); ++u) {
    for (graph::NodeId v = u + 1; v < mst.node_count(); ++v) {
      if (mst.has_edge(u, v)) continue;
      graph::RoutingGraph with_edge = mst;
      with_edge.add_edge(u, v);
      const std::vector<double> full = graph_elmore_delays(with_edge, kTech);
      const std::vector<double> screened = screener.candidate_delays(u, v);
      ASSERT_EQ(full.size(), screened.size());
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_NEAR(screened[i], full[i], full[i] * 1e-6 + 1e-18)
            << "edge (" << u << "," << v << ") node " << i;
      }
    }
  }
}

TEST_P(ScreenerTest, BaseDelaysMatchMomentEngine) {
  expt::NetGenerator gen(31 + GetParam());
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(GetParam()));
  const IncrementalElmore screener(g, kTech);
  const std::vector<double> reference = graph_elmore_delays(g, kTech);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NEAR(screener.base_delays()[i], reference[i], reference[i] * 1e-9 + 1e-20);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScreenerTest, ::testing::Values<std::size_t>(5, 8, 12));

TEST(Screener, WorksOnNonTreeBase) {
  expt::NetGenerator gen(55);
  graph::RoutingGraph g = graph::mst_routing(gen.random_net(9));
  g.add_edge(0, 5);  // base already has a cycle
  const IncrementalElmore screener(g, kTech);
  graph::RoutingGraph with_edge = g;
  with_edge.add_edge(2, 7);
  const std::vector<double> full = graph_elmore_delays(with_edge, kTech);
  const std::vector<double> screened = screener.candidate_delays(2, 7);
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_NEAR(screened[i], full[i], full[i] * 1e-6 + 1e-18);
}

TEST(Screener, RejectsInvalidPairs) {
  expt::NetGenerator gen(5);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(5));
  const IncrementalElmore screener(g, kTech);
  EXPECT_THROW(static_cast<void>(screener.candidate_delays(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(screener.candidate_delays(0, 99)),
               std::invalid_argument);
}

TEST(ScreenedLdrg, AgreesWithPlainLdrgOnQuality) {
  // With the same graph-Elmore oracle, screened LDRG verifying the top-4
  // candidates should land within a few percent of exhaustive-candidate
  // LDRG -- the screen and the oracle rank identically, so typically they
  // coincide exactly.
  expt::NetGenerator gen(123);
  const GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::Net net = gen.random_net(10);
    const graph::RoutingGraph mst = graph::mst_routing(net);
    const core::LdrgResult plain = core::ldrg(mst, eval);
    core::ScreenedLdrgOptions opts;
    const core::LdrgResult fast = core::ldrg_screened(mst, eval, kTech, opts);
    EXPECT_LE(fast.final_objective, plain.final_objective * 1.03);
    EXPECT_LE(fast.final_objective, fast.initial_objective * (1 + 1e-12));
  }
}

TEST(ScreenedLdrg, TransientOracleStillGatesAcceptance) {
  expt::NetGenerator gen(321);
  const TransientEvaluator transient(kTech);
  const graph::Net net = gen.random_net(10);
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const core::LdrgResult res = core::ldrg_screened(mst, transient, kTech);
  // Every accepted step improved the *transient* objective.
  for (const core::LdrgStep& s : res.steps)
    EXPECT_LT(s.objective_after, s.objective_before);
  EXPECT_LE(res.final_objective, res.initial_objective * (1 + 1e-12));
}

TEST(ScreenedLdrg, CriticalityWeightedObjective) {
  expt::NetGenerator gen(457);
  const GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(9));
  core::ScreenedLdrgOptions opts;
  opts.base.criticality.assign(mst.sinks().size(), 1.0);
  const core::LdrgResult res = core::ldrg_screened(mst, eval, kTech, opts);
  EXPECT_LE(eval.weighted_delay(res.graph, opts.base.criticality),
            eval.weighted_delay(mst, opts.base.criticality) * (1 + 1e-12));

  // Wrong-sized weights must be rejected at screening time.
  core::ScreenedLdrgOptions bad;
  bad.base.criticality = {1.0};
  EXPECT_THROW(core::ldrg_screened(mst, eval, kTech, bad), std::invalid_argument);
}

TEST(ScreenedLdrg, HonoursCostBudget) {
  // Screened LDRG runs the same rounds as plain LDRG, so it may never add
  // an edge that pushes the wirelength past max_cost_ratio x the start.
  const GraphElmoreEvaluator eval(kTech);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expt::NetGenerator gen(seed);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    core::ScreenedLdrgOptions opts;
    opts.base.max_cost_ratio = 1.05;
    const core::LdrgResult res = core::ldrg_screened(mst, eval, kTech, opts);
    EXPECT_LE(res.final_cost, 1.05 * res.initial_cost) << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.final_cost, res.graph.total_wirelength()) << "seed " << seed;
  }
}

TEST(ScreenedLdrg, OptionValidation) {
  expt::NetGenerator gen(7);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(5));
  const GraphElmoreEvaluator eval(kTech);
  core::ScreenedLdrgOptions opts;
  opts.verify_top_k = 0;
  EXPECT_THROW(core::ldrg_screened(mst, eval, kTech, opts), std::invalid_argument);
}

}  // namespace
}  // namespace ntr::delay
