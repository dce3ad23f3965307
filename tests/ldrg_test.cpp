#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/heuristics.h"
#include "core/ldrg.h"
#include "delay/elmore.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// A horseshoe net: the MST is a long path whose far end loops back near
/// the source, so a short extra source wire slashes the worst resistance
/// -- the Figure-1 situation.
graph::Net chain_net() {
  return graph::Net{{{0, 0},
                     {3000, 0},
                     {6000, 0},
                     {6000, 3000},
                     {6000, 6000},
                     {3000, 6000},
                     {0, 6000}}};
}

TEST(Ldrg, ImprovesChainNet) {
  const graph::RoutingGraph mst = graph::mst_routing(chain_net());
  const delay::TransientEvaluator eval(kTech);
  const LdrgResult res = ldrg(mst, eval);
  EXPECT_TRUE(res.improved());
  EXPECT_LT(res.final_objective, res.initial_objective);
  EXPECT_GT(res.final_cost, res.initial_cost);
  EXPECT_FALSE(res.graph.is_tree());
  EXPECT_EQ(res.graph.edge_count(), mst.edge_count() + res.added_edges());
}

TEST(Ldrg, NeverWorsensTheObjective) {
  expt::NetGenerator gen(41);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Net net = gen.random_net(8);
    const LdrgResult res = ldrg(graph::mst_routing(net), eval);
    EXPECT_LE(res.final_objective, res.initial_objective * (1 + 1e-12));
    // Every accepted step strictly improved.
    for (const LdrgStep& s : res.steps) EXPECT_LT(s.objective_after, s.objective_before);
  }
}

TEST(Ldrg, StepsAreMonotoneDecreasing) {
  const delay::TransientEvaluator eval(kTech);
  const LdrgResult res = ldrg(graph::mst_routing(chain_net()), eval);
  for (std::size_t i = 1; i < res.steps.size(); ++i)
    EXPECT_LE(res.steps[i].objective_after, res.steps[i - 1].objective_after);
  if (!res.steps.empty()) {
    EXPECT_DOUBLE_EQ(res.steps.front().objective_before, res.initial_objective);
    EXPECT_DOUBLE_EQ(res.steps.back().objective_after, res.final_objective);
  }
}

TEST(Ldrg, MaxAddedEdgesIsRespected) {
  const delay::TransientEvaluator eval(kTech);
  LdrgOptions opts;
  opts.max_added_edges = 1;
  const LdrgResult res = ldrg(graph::mst_routing(chain_net()), eval, opts);
  EXPECT_LE(res.added_edges(), 1u);
}

TEST(Ldrg, CostBudgetIsRespected) {
  expt::NetGenerator gen(2027);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    LdrgOptions opts;
    opts.max_cost_ratio = 1.10;
    const LdrgResult res = ldrg(mst, eval, opts);
    EXPECT_LE(res.final_cost, res.initial_cost * 1.10 * (1 + 1e-12));
    // A generous budget must do at least as well as a tight one.
    LdrgOptions loose;
    loose.max_cost_ratio = 2.0;
    EXPECT_LE(ldrg(mst, eval, loose).final_objective,
              res.final_objective * (1 + 1e-12));
  }
}

TEST(Ldrg, PreservesInitialEdges) {
  const graph::RoutingGraph mst = graph::mst_routing(chain_net());
  const delay::TransientEvaluator eval(kTech);
  const LdrgResult res = ldrg(mst, eval);
  for (const graph::GraphEdge& e : mst.edges())
    EXPECT_TRUE(res.graph.has_edge(e.u, e.v));
}

TEST(Ldrg, RejectsDisconnectedInput) {
  graph::Net net{{{0, 0}, {1000, 0}, {2000, 0}}};
  const graph::RoutingGraph g(net);  // no edges
  const delay::GraphElmoreEvaluator eval(kTech);
  EXPECT_THROW(ldrg(g, eval), std::invalid_argument);
}

TEST(Ldrg, RejectsNegativeOrNanMinRelativeImprovement) {
  // A negative threshold would accept edges that worsen the objective.
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(chain_net());
  for (const double bad : {-1.0, -1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    LdrgOptions opts;
    opts.min_relative_improvement = bad;
    EXPECT_THROW(ldrg(mst, eval, opts), std::invalid_argument) << bad;
    ScreenedLdrgOptions screened;
    screened.base = opts;
    EXPECT_THROW(ldrg_screened(mst, eval, kTech, screened), std::invalid_argument)
        << bad;
  }
  LdrgOptions zero;
  zero.min_relative_improvement = 0.0;
  EXPECT_NO_THROW(ldrg(mst, eval, zero));
}

TEST(Ldrg, CriticalSinkObjectiveTargetsWeightedSum) {
  expt::NetGenerator gen(43);
  const graph::Net net = gen.random_net(8);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(net);

  // All weight on the sink with the worst initial delay.
  const std::vector<double> delays = eval.sink_delays(mst);
  std::vector<double> alpha(delays.size(), 0.0);
  alpha[static_cast<std::size_t>(
      std::max_element(delays.begin(), delays.end()) - delays.begin())] = 1.0;

  LdrgOptions opts;
  opts.criticality = alpha;
  const LdrgResult res = ldrg(mst, eval, opts);
  EXPECT_LE(eval.weighted_delay(res.graph, alpha),
            eval.weighted_delay(mst, alpha) * (1 + 1e-12));
}

TEST(Ldrg, CompleteGraphHasNoCandidatesLeft) {
  // On a 3-pin net whose MST is 2 edges, LDRG can add at most 1 more.
  graph::Net net{{{0, 0}, {4000, 0}, {0, 4000}}};
  const delay::GraphElmoreEvaluator eval(kTech);
  const LdrgResult res = ldrg(graph::mst_routing(net), eval);
  EXPECT_LE(res.added_edges(), 1u);
}

TEST(H1, ImprovesOrStopsCleanly) {
  const delay::TransientEvaluator eval(kTech);
  const HeuristicResult res = h1(graph::mst_routing(chain_net()), eval);
  EXPECT_LE(res.final_objective, res.initial_objective);
  for (const LdrgStep& s : res.steps) {
    EXPECT_EQ(s.u, 0u);  // H1 only adds source edges
    EXPECT_LT(s.objective_after, s.objective_before);
  }
}

TEST(H1, IterationCapRespected) {
  const delay::TransientEvaluator eval(kTech);
  const HeuristicResult res = h1(graph::mst_routing(chain_net()), eval, 0);
  EXPECT_TRUE(res.steps.empty());
  EXPECT_DOUBLE_EQ(res.final_objective, res.initial_objective);
}

TEST(H2, ConnectsSourceToWorstElmoreSink) {
  const graph::RoutingGraph mst = graph::mst_routing(chain_net());
  const std::vector<double> elmore = delay::elmore_node_delays(mst, kTech);
  graph::NodeId worst = 1;
  for (const graph::NodeId s : mst.sinks())
    if (elmore[s] > elmore[worst]) worst = s;

  const HeuristicResult res = h2(mst, kTech);
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_EQ(res.steps[0].u, 0u);
  EXPECT_EQ(res.steps[0].v, worst);
  EXPECT_TRUE(res.graph.has_edge(0, worst));
}

TEST(H2H3, RejectNonTreeInput) {
  graph::RoutingGraph g = graph::mst_routing(chain_net());
  g.add_edge(0, 4);
  EXPECT_THROW(h2(g, kTech), std::invalid_argument);
  EXPECT_THROW(h3(g, kTech), std::invalid_argument);
}

TEST(H3, PrefersCheapNewEdges) {
  // Two distant sinks with similar Elmore delay; the one closer to the
  // source (cheaper new edge) must win H3's ratio rule.
  graph::Net net{{{0, 0},
                  {6000, 0},     // far along x
                  {6000, 500},   // slightly farther, still close to pin 1
                  {500, 6000},   // geometrically close to the source? no --
                  {0, 6500}}};   // chain up y
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const HeuristicResult res = h3(mst, kTech);
  ASSERT_EQ(res.steps.size(), 1u);

  // Verify the selected sink maximizes the documented score.
  const std::vector<double> elmore = delay::elmore_node_delays(mst, kTech);
  const graph::RootedTree rooted = graph::root_tree(mst, 0);
  const std::vector<double> pathlen = graph::tree_path_lengths(mst, rooted);
  double best_score = -1.0;
  graph::NodeId best = graph::kInvalidNode;
  for (const graph::NodeId s : mst.sinks()) {
    if (mst.has_edge(0, s)) continue;
    const double d = geom::manhattan_distance(mst.node(0).pos, mst.node(s).pos);
    const double score = pathlen[s] * elmore[s] / d;
    if (score > best_score) {
      best_score = score;
      best = s;
    }
  }
  EXPECT_EQ(res.steps[0].v, best);
}

TEST(Heuristics, H1H2H3AddAtMostSourceEdges) {
  expt::NetGenerator gen(53);
  const delay::TransientEvaluator eval(kTech);
  for (int trial = 0; trial < 4; ++trial) {
    const graph::Net net = gen.random_net(10);
    const graph::RoutingGraph mst = graph::mst_routing(net);
    for (const HeuristicResult& res :
         {h1(mst, eval), h2(mst, kTech), h3(mst, kTech)}) {
      EXPECT_GE(res.graph.edge_count(), mst.edge_count());
      for (const LdrgStep& s : res.steps) EXPECT_EQ(s.u, 0u);
    }
  }
}

}  // namespace
}  // namespace ntr::core
