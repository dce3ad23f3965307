#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ldrg.h"
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

/// The bounded objective of the single wire (u, v), from an engine or a
/// scorer: a one-element row.
template <class RowQuery>
double one_objective(const RowQuery& query, graph::NodeId u, graph::NodeId v,
                     std::span<const double> criticality, double bound) {
  double out = 0.0;
  query.row_objectives(u, std::span<const graph::NodeId>(&v, 1), criticality, bound,
                       std::span<double>(&out, 1));
  return out;
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
// graph to 1e-12 (relative). One net in four has 100-160 pins.
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

TEST(IncrementalElmore, StatsCountQueries) {
  expt::NetGenerator gen(11);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(8));
  const IncrementalElmore engine(g, kTech);
  // Well-conditioned wires stay on the delta path on every query.
  (void)engine.candidate_delays(0, 3);
  std::vector<double> sinks(engine.sink_count());
  engine.candidate_sink_delays(1, 4, sinks);
  (void)one_objective(engine, 2, 5, {}, 0.0);
  EXPECT_EQ(engine.stats().exact_fallbacks, 0u);
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

// MST and non-tree bases from the paper's sizes to 400 pins.
TEST_P(ScorerContractTest, SinkDelaysMatchMaterializedTrials) {
  const std::size_t pins = GetParam();
  expt::NetGenerator gen(500 + pins);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
  const graph::RoutingGraph nontree = with_random_edges(mst, 3, pins);
  const std::size_t cap = pins <= 60 ? 2000 : pins <= 150 ? 300 : 60;
  const GraphElmoreEvaluator eval(kTech);
  expect_scorer_matches_trials(eval, mst, absent_pairs(mst, cap, 1), kTol, "MST");
  expect_scorer_matches_trials(eval, nontree, absent_pairs(nontree, cap, 2), kTol,
                               "non-tree");
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
  expect_scorer_matches_trials(graph_elmore, sert, absent_pairs(sert, 2500, 3), 1e-11,
                               "SERT elmore-graph");
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

// ---- The bounded objective query ----

/// Criticality weights for g's sinks, every third one zero.
std::vector<double> weights_with_zeros(const graph::RoutingGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<double> w(g.sinks().size());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = i % 3 == 1 ? 0.0 : weight(rng);
  return w;
}

/// The one-element row query on every pair, for ORG and for CSORG with zero
/// weights, under the bounds +inf, 0, the exact objective and both its
/// neighbours: bit for bit sink_objective(candidate_sink_delays(u, v))
/// when that is below the bound, and at least the bound otherwise.
void expect_bounded_objective_contract(const DelayEvaluator& eval,
                                       const graph::RoutingGraph& g, const Pairs& pairs,
                                       const std::string& context) {
  const std::unique_ptr<CandidateScorer> scorer = eval.make_candidate_scorer(g);
  ASSERT_NE(scorer, nullptr) << context;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& criticality :
       {std::vector<double>{}, weights_with_zeros(g, pairs.size())}) {
    for (const auto& [u, v] : pairs) {
      const double exact =
          sink_objective(scorer->candidate_sink_delays(u, v), criticality);
      for (const double bound : {kInf, 0.0, exact, std::nextafter(exact, -kInf),
                                 std::nextafter(exact, kInf)}) {
        const double got = one_objective(*scorer, u, v, criticality, bound);
        const std::string where = context + (criticality.empty() ? " ORG" : " CSORG") +
                                  " pair (" + std::to_string(u) + "," +
                                  std::to_string(v) + ") bound " + std::to_string(bound);
        if (exact < bound)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(exact))
              << where;
        else
          ASSERT_GE(got, bound) << where;
      }
    }
  }
}

class BoundedObjectiveTest : public ::testing::TestWithParam<std::size_t> {};

// MSTs and the LDRG routings grown from them.
TEST_P(BoundedObjectiveTest, MatchesSinkObjectiveBelowTheBound) {
  const std::size_t pins = GetParam();
  expt::NetGenerator gen(900 + pins);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
  const GraphElmoreEvaluator eval(kTech);
  core::LdrgOptions grow;
  grow.max_added_edges = 3;
  const graph::RoutingGraph grown = core::ldrg(mst, eval, grow).graph;
  ASSERT_GT(grown.edge_count(), mst.edge_count());
  expect_bounded_objective_contract(eval, mst, absent_pairs(mst, 400, 6), "MST");
  expect_bounded_objective_contract(eval, grown, absent_pairs(grown, 400, 7), "LDRG");
}

INSTANTIATE_TEST_SUITE_P(Pins, BoundedObjectiveTest,
                         ::testing::Values<std::size_t>(5, 12, 40, 60, 150));

// Micron-length Steiner edges: the ill-conditioned systems of a SERT.
TEST(BoundedObjective, SertTreeWithMicronLengthEdges) {
  expt::NetGenerator gen(122);
  route::ErtOptions opts;
  opts.steiner = true;
  const graph::RoutingGraph sert =
      route::elmore_routing_tree(gen.random_net(60), kTech, opts).graph;
  expect_bounded_objective_contract(GraphElmoreEvaluator(kTech), sert,
                                    absent_pairs(sert, 600, 8), "SERT elmore-graph");
}

/// Sinks a and b sit at one point, 4 mm of resistive wire apart: the
/// zero-length short between them is past kDeltaConditionLimit.
struct ShortedSinks {
  spice::Technology tech = kTech;
  graph::RoutingGraph g;
  graph::NodeId a = 0;
  graph::NodeId b = 0;
};

ShortedSinks shorted_sinks() {
  ShortedSinks s;
  s.tech.wire_resistance_ohm_per_um = 1e3;
  graph::RoutingGraph& g = s.g;
  const graph::NodeId src = g.add_node({0, 0}, graph::NodeKind::kSource);
  s.a = g.add_node({1000, 0}, graph::NodeKind::kSink);
  const graph::NodeId c = g.add_node({0, 1000}, graph::NodeKind::kSink);
  s.b = g.add_node({1000, 0}, graph::NodeKind::kSink);
  const graph::NodeId d = g.add_node({500, 500}, graph::NodeKind::kSink);
  g.add_edge(src, s.a);
  g.add_edge(src, c);
  g.add_edge(c, s.b);
  g.add_edge(s.a, d);
  return s;
}

// The short's query takes the exact path and still keeps the contract.
TEST(BoundedObjective, ZeroLengthShortTakesTheExactFallback) {
  const ShortedSinks shorted = shorted_sinks();
  const spice::Technology& tech = shorted.tech;
  const graph::RoutingGraph& g = shorted.g;
  const graph::NodeId a = shorted.a, b = shorted.b;
  const IncrementalElmore engine(g, tech);
  (void)one_objective(engine, a, b, {}, 0.0);
  EXPECT_EQ(engine.stats().exact_fallbacks, 1u);
  const Pairs pairs = absent_pairs(g, 100, 10);
  ASSERT_NE(std::find(pairs.begin(), pairs.end(), std::pair{a, b}), pairs.end());
  expect_bounded_objective_contract(GraphElmoreEvaluator(tech), g, pairs, "short elmore-graph");
}

// ---- The row query ----

/// Row u of g as LDRG enumerates it: the absent partners v > u, ascending.
std::vector<graph::NodeId> row_of(const graph::RoutingGraph& g, graph::NodeId u) {
  std::vector<graph::NodeId> vs;
  for (graph::NodeId v = u + 1; v < g.node_count(); ++v)
    if (!g.has_edge(u, v)) vs.push_back(v);
  return vs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every row of g scored by one row query and by one-element rows: bit
/// for bit the same answers (also at or above the bound), for ORG and for
/// CSORG with zero weights, bounded by +inf, a typical score and 0.
void expect_rows_match_single_queries(const graph::RoutingGraph& g,
                                      const spice::Technology& tech,
                                      const std::string& context) {
  const IncrementalElmore engine(g, tech);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& criticality :
       {std::vector<double>{}, weights_with_zeros(g, g.node_count())}) {
    // A typical score: the median exact objective of row 0.
    const std::vector<graph::NodeId> first = row_of(g, 0);
    ASSERT_FALSE(first.empty()) << context;
    std::vector<double> scores(first.size());
    engine.row_objectives(0, first, criticality, kInf, scores);
    std::nth_element(scores.begin(), scores.begin() + static_cast<std::ptrdiff_t>(scores.size() / 2),
                     scores.end());
    const double typical = scores[scores.size() / 2];
    for (const double bound : {kInf, typical, 0.0}) {
      for (graph::NodeId u = 0; u < g.node_count(); ++u) {
        const std::vector<graph::NodeId> vs = row_of(g, u);
        std::vector<double> row(vs.size());
        engine.row_objectives(u, vs, criticality, bound, row);
        for (std::size_t j = 0; j < vs.size(); ++j)
          ASSERT_EQ(bits(row[j]), bits(one_objective(engine, u, vs[j], criticality, bound)))
              << context << (criticality.empty() ? " ORG" : " CSORG") << " bound " << bound
              << " pair (" << u << "," << vs[j] << ")";
      }
    }
  }
}

/// The best `keep` (score, index) of g's absent wires as an LDRG lane
/// keeps them, index u * n + v: with one row query per row, bounded by the
/// score to beat when the row starts and offered against the live bound
/// (`by_row`), or with one one-element query per wire bounded by the live
/// bound.
std::vector<std::pair<double, std::size_t>> lane_shortlist(
    const IncrementalElmore& engine, const graph::RoutingGraph& g,
    std::span<const double> criticality, std::size_t keep, double cutoff, bool by_row) {
  const std::size_t n = g.node_count();
  std::vector<std::pair<double, std::size_t>> best;
  const auto live = [&] { return best.size() == keep ? best.back().first : cutoff; };
  const auto offer = [&](double score, std::size_t index) {
    if (!(score < live())) return;
    if (best.size() == keep) best.pop_back();
    auto at = best.begin();
    while (at != best.end() && !(score < at->first)) ++at;
    best.insert(at, {score, index});
  };
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::vector<graph::NodeId> vs = row_of(g, u);
    std::vector<double> row(vs.size());
    if (by_row) engine.row_objectives(u, vs, criticality, live(), row);
    for (std::size_t j = 0; j < vs.size(); ++j)
      offer(by_row ? row[j] : one_objective(engine, u, vs[j], criticality, live()),
            u * n + vs[j]);
  }
  return best;
}

/// lane_shortlist by rows and by single wires: the same (score, index)
/// bits for K = 1 and 3, with no cutoff and with the base objective as
/// the cutoff, for ORG and for CSORG with zero weights.
void expect_row_shortlists_match(const graph::RoutingGraph& g, const std::string& context) {
  const IncrementalElmore engine(g, kTech);
  for (const std::vector<double>& criticality :
       {std::vector<double>{}, weights_with_zeros(g, g.node_count() + 1)}) {
    const double current = GraphElmoreEvaluator(kTech).objective(g, criticality);
    for (const std::size_t keep : {1u, 3u}) {
      for (const double cutoff : {std::numeric_limits<double>::infinity(), current}) {
        const auto got = lane_shortlist(engine, g, criticality, keep, cutoff, true);
        const auto want = lane_shortlist(engine, g, criticality, keep, cutoff, false);
        const std::string where = context + (criticality.empty() ? " ORG" : " CSORG") +
                                  " K " + std::to_string(keep) + " cutoff " +
                                  std::to_string(cutoff);
        ASSERT_EQ(got.size(), want.size()) << where;
        // With the base objective as the cutoff, a routing LDRG cannot
        // improve keeps nothing.
        if (cutoff == std::numeric_limits<double>::infinity()) {
          EXPECT_EQ(got.size(), keep) << where;
        }
        for (std::size_t k = 0; k < got.size(); ++k) {
          EXPECT_EQ(bits(got[k].first), bits(want[k].first)) << where << " entry " << k;
          EXPECT_EQ(got[k].second, want[k].second) << where << " entry " << k;
        }
      }
    }
  }
}

// MSTs and their 3-wire graph-Elmore LDRG routings, 12 to 400 pins (the
// shortlists to 150 pins).
TEST(RowQuery, MatchesOneCandidateQueriesBitForBit) {
  const GraphElmoreEvaluator eval(kTech);
  core::LdrgOptions grow;
  grow.max_added_edges = 3;
  for (const std::size_t pins : {12u, 60u, 150u, 400u}) {
    // The first net from seed 300 + pins on which LDRG takes three wires.
    graph::RoutingGraph mst, grown;
    for (std::uint64_t seed = 300 + pins; grown.edge_count() != mst.edge_count() + 3;
         ++seed) {
      ASSERT_LT(seed, 320 + pins) << pins << " pins: no net takes three wires";
      mst = graph::mst_routing(expt::NetGenerator(seed).random_net(pins));
      grown = core::ldrg(mst, eval, grow).graph;
    }
    for (const auto& [g, name] : {std::pair{&mst, "MST"}, std::pair{&grown, "LDRG"}}) {
      const std::string context = std::to_string(pins) + " pins " + name;
      expect_rows_match_single_queries(*g, kTech, context);
      if (pins <= 150) expect_row_shortlists_match(*g, context);
    }
  }
}

// Micron-length Steiner edges: the ill-conditioned systems of a SERT.
TEST(RowQuery, SertTreeWithMicronLengthEdges) {
  expt::NetGenerator gen(122);
  route::ErtOptions opts;
  opts.steiner = true;
  const graph::RoutingGraph sert =
      route::elmore_routing_tree(gen.random_net(60), kTech, opts).graph;
  expect_rows_match_single_queries(sert, kTech, "SERT");
  expect_row_shortlists_match(sert, "SERT");
}

// A row whose middle wire is the zero-length short: that wire takes the
// exact path, and the wires before and after it stay on the delta path.
TEST(RowQuery, ZeroLengthShortTakesTheExactFallbackMidRow) {
  ShortedSinks shorted = shorted_sinks();
  graph::RoutingGraph& g = shorted.g;
  g.add_edge(shorted.b, g.add_node({1500, 700}, graph::NodeKind::kSink));
  const std::vector<graph::NodeId> vs = row_of(g, shorted.a);
  const auto at = std::find(vs.begin(), vs.end(), shorted.b);
  ASSERT_NE(at, vs.end());
  ASSERT_NE(at, vs.begin());
  ASSERT_NE(at + 1, vs.end());
  const IncrementalElmore engine(g, shorted.tech);
  std::vector<double> row(vs.size());
  engine.row_objectives(shorted.a, vs, {}, std::numeric_limits<double>::infinity(), row);
  EXPECT_EQ(engine.stats().exact_fallbacks, 1u);
  for (std::size_t j = 0; j < vs.size(); ++j) {
    std::vector<double> sinks(engine.sink_count());
    engine.candidate_sink_delays(shorted.a, vs[j], sinks);
    EXPECT_EQ(bits(row[j]), bits(sink_objective(sinks, {}))) << "partner " << vs[j];
  }
  expect_rows_match_single_queries(g, shorted.tech, "short");
}

// ---- Moving the engine along accepted wires ----

// LDRG keeps one engine per solve and moves it by rank 1 after each
// accepted wire. Applied one by one, the wires of an unbounded
// graph-Elmore LDRG (eight on the 400-pin net) leave the engine agreeing
// with a fresh build of each routing to 1e-12 of its largest delay: the
// base delays, the per-sink delays and the bounded objectives, ORG and
// CSORG, of a sample of the absent pairs.
TEST(IncrementalElmore, AddWireMatchesAFreshBuild) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const GraphElmoreEvaluator eval(kTech);
  std::size_t most_wires = 0;
  for (const std::size_t pins : {20u, 60u, 150u, 400u}) {
    expt::NetGenerator gen(701 + pins);
    graph::RoutingGraph g = graph::mst_routing(gen.random_net(pins));
    const core::LdrgResult grown = core::ldrg(g, eval);
    most_wires = std::max(most_wires, grown.steps.size());
    IncrementalElmore engine(g, kTech);
    const std::vector<double> weights = weights_with_zeros(g, pins);
    for (std::size_t i = 0; i < grown.steps.size(); ++i) {
      const graph::NodeId u = grown.steps[i].u, v = grown.steps[i].v;
      g.add_edge(u, v);
      ASSERT_TRUE(engine.add_wire(u, v));
      const IncrementalElmore fresh(g, kTech);
      const std::string context =
          std::to_string(pins) + " pins, wire " + std::to_string(i + 1);
      const double scale = max_abs(fresh.base_delays());
      expect_delays_close(engine.base_delays(), fresh.base_delays(), scale,
                          context + " base");
      std::vector<double> got(engine.sink_count());
      std::vector<double> want(fresh.sink_count());
      for (const auto& [x, y] : absent_pairs(g, 200, pins + i)) {
        const std::string where = context + " pair (" + std::to_string(x) + "," +
                                  std::to_string(y) + ")";
        engine.candidate_sink_delays(x, y, got);
        fresh.candidate_sink_delays(x, y, want);
        for (std::size_t k = 0; k < got.size(); ++k)
          ASSERT_NEAR(got[k], want[k], kTol * scale) << where << " sink " << k;
        for (const std::vector<double>& criticality : {std::vector<double>{}, weights}) {
          const double weight =
              criticality.empty() ? 1.0
                                  : std::accumulate(weights.begin(), weights.end(), 0.0);
          // Unbounded, and bounded at 90% of the objective, where the
          // query stops early: min(answer, bound) is what the contract fixes.
          for (const double b : {kInf, 0.9 * sink_objective(want, criticality)}) {
            const double got_b = one_objective(engine, x, y, criticality, b);
            const double want_b = one_objective(fresh, x, y, criticality, b);
            ASSERT_NEAR(std::min(got_b, b), std::min(want_b, b), kTol * scale * weight)
                << where << (criticality.empty() ? " ORG" : " CSORG") << " bound " << b;
          }
        }
      }
    }
  }
  EXPECT_GE(most_wires, 8u);

  // The short's update is the one the queries send to the exact path.
  ShortedSinks shorted = shorted_sinks();
  IncrementalElmore engine(shorted.g, shorted.tech);
  shorted.g.add_edge(shorted.a, shorted.b);
  EXPECT_FALSE(engine.add_wire(shorted.a, shorted.b));
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
