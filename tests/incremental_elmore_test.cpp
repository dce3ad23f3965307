#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "delay/evaluator.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "route/ert.h"

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// Relative (to the largest base delay) agreement bound between the O(n)
/// delta path and a full recompute. The PR's contract: 1e-12.
constexpr double kTol = 1e-12;

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

void expect_delays_close(const std::vector<double>& got,
                         const std::vector<double>& want, double scale,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], kTol * scale) << context << " node " << i;
}

TEST(IncrementalElmore, BaseDelaysMatchFullGraphElmore) {
  expt::NetGenerator gen(7);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(12));
  const IncrementalElmore engine(g, kTech);
  const std::vector<double> full = graph_elmore_delays(g, kTech);
  expect_delays_close(engine.base_delays(), full, max_abs(full), "base");
}

// The property test: on 200 random nets, the Sherman-Morrison delta for
// a random absent edge agrees with a from-scratch recompute of the trial
// graph to 1e-12 (relative). One net in four has 100-160 pins, past the
// moment engine's dense/envelope switch.
TEST(IncrementalElmore, DeltaMatchesFullRecomputeOn200RandomNets) {
  std::mt19937_64 rng(19940101);
  for (int trial = 0; trial < 200; ++trial) {
    expt::NetGenerator gen(1000 + static_cast<std::uint64_t>(trial));
    // >= 4 pins so an absent pair always remains after the extra edge.
    const std::size_t pins = trial % 4 == 3
                                 ? 100 + static_cast<std::size_t>(rng() % 61)
                                 : 4 + static_cast<std::size_t>(rng() % 13);
    graph::RoutingGraph g = graph::mst_routing(gen.random_net(pins));
    // Half the trials start from a non-tree (one extra edge already in).
    if (trial % 2 == 1 && !g.has_edge(0, g.node_count() - 1))
      g.add_edge(0, g.node_count() - 1);

    const IncrementalElmore engine(g, kTech);
    ASSERT_TRUE(engine.matches(g));

    // A random absent pair.
    graph::NodeId u = 0, v = 0;
    do {
      u = static_cast<graph::NodeId>(rng() % g.node_count());
      v = static_cast<graph::NodeId>(rng() % g.node_count());
    } while (u == v || g.has_edge(u, v));

    const std::vector<double> delta = engine.candidate_delays(u, v);
    graph::RoutingGraph trial_graph = g;
    trial_graph.add_edge(u, v);
    const std::vector<double> full = graph_elmore_delays(trial_graph, kTech);
    expect_delays_close(delta, full, max_abs(full),
                        "trial " + std::to_string(trial));
  }
}

TEST(IncrementalElmore, ExactPathAgreesWithDeltaPath) {
  expt::NetGenerator gen(21);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(15));
  const IncrementalElmore engine(g, kTech);
  const std::vector<double> delta = engine.candidate_delays(1, 5);
  const std::vector<double> exact = engine.candidate_delays_exact(1, 5);
  expect_delays_close(delta, exact, max_abs(exact), "exact-vs-delta");
}

TEST(IncrementalElmore, CacheInvalidationAfterEdgeInsertion) {
  expt::NetGenerator gen(33);
  graph::RoutingGraph g = graph::mst_routing(gen.random_net(10));
  IncrementalElmore engine(g, kTech);
  ASSERT_TRUE(engine.matches(g));

  // Mutate the routing: the old cache must report a stale signature, and
  // refresh() must bring the delta path back into 1e-12 agreement.
  graph::NodeId u = 0, v = 0;
  for (u = 0; u < g.node_count() && v == 0; ++u)
    for (graph::NodeId w = u + 1; w < g.node_count(); ++w)
      if (!g.has_edge(u, w)) {
        v = w;
        break;
      }
  --u;
  g.add_edge(u, v);
  EXPECT_FALSE(engine.matches(g));

  engine.refresh(g);
  EXPECT_TRUE(engine.matches(g));
  const std::vector<double> base = engine.base_delays();
  const std::vector<double> full = graph_elmore_delays(g, kTech);
  expect_delays_close(base, full, max_abs(full), "post-refresh base");

  graph::NodeId a = 0, b = 0;
  std::mt19937_64 rng(5);
  do {
    a = static_cast<graph::NodeId>(rng() % g.node_count());
    b = static_cast<graph::NodeId>(rng() % g.node_count());
  } while (a == b || g.has_edge(a, b));
  graph::RoutingGraph trial = g;
  trial.add_edge(a, b);
  expect_delays_close(engine.candidate_delays(a, b),
                      graph_elmore_delays(trial, kTech),
                      max_abs(engine.base_delays()), "post-refresh delta");
  EXPECT_EQ(engine.stats().rebuilds, 2u);
}

TEST(IncrementalElmore, StatsCountQueries) {
  expt::NetGenerator gen(11);
  graph::RoutingGraph g = graph::mst_routing(gen.random_net(8));
  IncrementalElmore engine(g, kTech);
  EXPECT_EQ(engine.stats().rebuilds, 1u);
  // Well-conditioned wires stay on the delta path; only a refresh counts.
  (void)engine.candidate_delays(0, 3);
  std::vector<double> sinks(engine.sink_count());
  engine.candidate_sink_delays(1, 4, 1.0, sinks);
  EXPECT_EQ(engine.stats().exact_fallbacks, 0u);
  g.add_edge(0, 3);
  engine.refresh(g);
  const IncrementalElmoreStats s = engine.stats();
  EXPECT_EQ(s.exact_fallbacks, 0u);
  EXPECT_EQ(s.rebuilds, 2u);
}

TEST(IncrementalElmore, RejectsDisconnectedGraphs) {
  graph::RoutingGraph g;
  g.add_node({0, 0}, graph::NodeKind::kSource);
  g.add_node({100, 0}, graph::NodeKind::kSink);
  EXPECT_THROW(IncrementalElmore(g, kTech), std::invalid_argument);
}

// ---- The CandidateScorer contract of the graph-Elmore evaluators ----

using Pairs = std::vector<std::pair<graph::NodeId, graph::NodeId>>;

/// Absent pairs of g: all of them when there are at most `cap`, else
/// `cap` drawn at random.
Pairs absent_pairs(const graph::RoutingGraph& g, std::size_t cap,
                   std::uint64_t seed) {
  Pairs all;
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    for (graph::NodeId v = u + 1; v < g.node_count(); ++v)
      if (!g.has_edge(u, v)) all.emplace_back(u, v);
  if (all.size() <= cap) return all;
  std::mt19937_64 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(cap);
  return all;
}

/// The routing with `extra` random absent edges added: a non-tree base.
graph::RoutingGraph with_random_edges(graph::RoutingGraph g, std::size_t extra,
                                      std::uint64_t seed) {
  for (const auto& [u, v] : absent_pairs(g, extra, seed)) g.add_edge(u, v);
  return g;
}

/// Every scored pair agrees with sink_delays of the materialized trial,
/// sink by sink in g.sinks() order, within `tol` of the trial's largest
/// sink delay.
void expect_scorer_matches_trials(const DelayEvaluator& eval,
                                  const graph::RoutingGraph& g, const Pairs& pairs,
                                  double tol, const std::string& context) {
  const std::unique_ptr<CandidateScorer> scorer = eval.make_candidate_scorer(g);
  ASSERT_NE(scorer, nullptr) << context;
  for (const auto& [u, v] : pairs) {
    graph::RoutingGraph trial = g;
    trial.add_edge(u, v);
    const std::vector<double> want = eval.sink_delays(trial);
    const std::vector<double> got = scorer->candidate_sink_delays(u, v);
    ASSERT_EQ(got.size(), want.size()) << context;
    const double scale = max_abs(want);
    for (std::size_t k = 0; k < got.size(); ++k)
      ASSERT_NEAR(got[k], want[k], tol * scale)
          << context << " pair (" << u << "," << v << ") sink " << k;
  }
}

class ScorerContractTest : public ::testing::TestWithParam<std::size_t> {};

// MST and non-tree bases below the moment switch, past it, and past its
// old 320-node position, for both graph-Elmore evaluators.
TEST_P(ScorerContractTest, SinkDelaysMatchMaterializedTrials) {
  const std::size_t pins = GetParam();
  expt::NetGenerator gen(500 + pins);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
  const graph::RoutingGraph nontree = with_random_edges(mst, 3, pins);
  const std::size_t cap = pins <= 60 ? 2000 : pins <= 150 ? 300 : 60;
  const GraphElmoreEvaluator graph_elmore(kTech);
  const ScaledElmoreEvaluator scaled(kTech);
  for (const DelayEvaluator* eval :
       {static_cast<const DelayEvaluator*>(&graph_elmore),
        static_cast<const DelayEvaluator*>(&scaled)}) {
    expect_scorer_matches_trials(*eval, mst, absent_pairs(mst, cap, 1), kTol,
                                 eval->name() + " MST");
    expect_scorer_matches_trials(*eval, nontree, absent_pairs(nontree, cap, 2), kTol,
                                 eval->name() + " non-tree");
  }
}

INSTANTIATE_TEST_SUITE_P(Pins, ScorerContractTest,
                         ::testing::Values<std::size_t>(12, 60, 150, 400));

// A SERT tree interleaves Steiner nodes with the sinks, so the scorer's
// sinks-first rows are a true permutation of the node ids. Its micron-
// length edges make the system ill-conditioned: held to 1e-11.
TEST(ScorerContract, SertTreeWithInterleavedSteinerNodes) {
  expt::NetGenerator gen(122);
  route::ErtOptions opts;
  opts.steiner = true;
  const graph::RoutingGraph sert =
      route::elmore_routing_tree(gen.random_net(60), kTech, opts).graph;
  bool interleaved = false;
  for (graph::NodeId n = 1; n + 1 < sert.node_count(); ++n)
    interleaved |= sert.node(n).kind == graph::NodeKind::kSteiner &&
                   sert.node(n + 1).kind == graph::NodeKind::kSink;
  ASSERT_TRUE(interleaved);
  const GraphElmoreEvaluator graph_elmore(kTech);
  const ScaledElmoreEvaluator scaled(kTech);
  expect_scorer_matches_trials(graph_elmore, sert, absent_pairs(sert, 2500, 3), 1e-11,
                               "SERT elmore-graph");
  expect_scorer_matches_trials(scaled, sert, absent_pairs(sert, 2500, 4), 1e-11,
                               "SERT elmore-ln2");
}

// Scoring a pair that is already wired means a second, parallel wire:
// the same network as that wire at double width.
TEST(ScorerContract, DoubledWireMatchesDoubleWidthWire) {
  expt::NetGenerator gen(61);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(60));
  const GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<CandidateScorer> scorer = eval.make_candidate_scorer(g);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    graph::RoutingGraph trial = g;
    trial.set_edge_width(e, 2.0);
    const std::vector<double> want = eval.sink_delays(trial);
    const std::vector<double> got =
        scorer->candidate_sink_delays(g.edge(e).u, g.edge(e).v);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      ASSERT_NEAR(got[k], want[k], kTol * max_abs(want)) << "edge " << e;
  }
}

// LDRG's lanes share one scorer: four threads querying it at once must
// read exactly what one thread reads.
TEST(IncrementalElmore, ScorerAnswersFourThreadsLikeOne) {
  expt::NetGenerator gen(77);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(100));
  const GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<CandidateScorer> scorer = eval.make_candidate_scorer(g);
  const Pairs pairs = absent_pairs(g, 1500, 5);
  std::vector<std::vector<double>> serial;
  serial.reserve(pairs.size());
  for (const auto& [u, v] : pairs) serial.push_back(scorer->candidate_sink_delays(u, v));

  std::vector<std::size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t k = (i + t * pairs.size() / 4) % pairs.size();
        if (scorer->candidate_sink_delays(pairs[k].first, pairs[k].second) != serial[k])
          ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

}  // namespace
}  // namespace ntr::delay
