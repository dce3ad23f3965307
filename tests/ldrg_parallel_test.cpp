// Bit-identity of the parallel / incremental / bounded LDRG paths: every
// thread count, and every output-preserving shortcut (branch-and-bound
// scoring, incremental candidate scorers), must reproduce the serial
// seed's routing exactly -- same edges in the same order, same reported
// objectives, down to the last bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ldrg.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "flow/timing_flow.h"
#include "geom/point.h"
#include "graph/mst.h"
#include "route/ert.h"
#include "runtime/status.h"
#include "runtime/stop.h"

namespace ntr {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

std::vector<std::pair<graph::NodeId, graph::NodeId>> edge_list(
    const graph::RoutingGraph& g) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (const graph::GraphEdge& e : g.edges()) edges.emplace_back(e.u, e.v);
  return edges;
}

void expect_identical(const core::LdrgResult& got, const core::LdrgResult& want,
                      const std::string& context) {
  EXPECT_EQ(edge_list(got.graph), edge_list(want.graph)) << context;
  EXPECT_EQ(got.final_objective, want.final_objective) << context;  // bitwise
  EXPECT_EQ(got.final_cost, want.final_cost) << context;
  ASSERT_EQ(got.steps.size(), want.steps.size()) << context;
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].u, want.steps[i].u) << context;
    EXPECT_EQ(got.steps[i].v, want.steps[i].v) << context;
    EXPECT_EQ(got.steps[i].objective_after, want.steps[i].objective_after)
        << context;
  }
}

/// Forwards everything but bounded_max_delay, whose base-class default
/// ignores the bound: every verified candidate is measured in full.
class UnboundedEvaluator final : public delay::DelayEvaluator {
 public:
  explicit UnboundedEvaluator(const delay::DelayEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return inner_.make_candidate_scorer(g);
  }

 private:
  const delay::DelayEvaluator& inner_;
};

/// Overrides only candidate_sink_delays, as a tracing probe does, so the
/// ranking takes CandidateScorer's default row_objectives: the full
/// vector of each wire, then sink_objective, whatever the bound.
class VectorOnlyScorer final : public delay::CandidateScorer {
 public:
  explicit VectorOnlyScorer(std::unique_ptr<delay::CandidateScorer> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    return inner_->candidate_sink_delays(u, v);
  }

 private:
  std::unique_ptr<delay::CandidateScorer> inner_;
};

/// Forwards everything, with the inner evaluator's scorer behind a
/// VectorOnlyScorer.
class VectorOnlyEvaluator final : public delay::DelayEvaluator {
 public:
  explicit VectorOnlyEvaluator(const delay::DelayEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return std::make_unique<VectorOnlyScorer>(inner_.make_candidate_scorer(g));
  }
  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override {
    return inner_.bounded_max_delay(g, give_up_s);
  }

 private:
  const delay::DelayEvaluator& inner_;
};

/// Forwards every call of its scorer, add_wire too when `forward_add_wire`.
class ForwardingScorer final : public delay::CandidateScorer {
 public:
  ForwardingScorer(std::unique_ptr<delay::CandidateScorer> inner, bool forward_add_wire)
      : inner_(std::move(inner)), forward_add_wire_(forward_add_wire) {}
  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    return inner_->candidate_sink_delays(u, v);
  }
  void row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                      std::span<const double> criticality, double bound,
                      std::span<double> out) const override {
    inner_->row_objectives(u, vs, criticality, bound, out);
  }
  bool add_wire(graph::NodeId u, graph::NodeId v) override {
    return forward_add_wire_ && inner_->add_wire(u, v);
  }

 private:
  std::unique_ptr<delay::CandidateScorer> inner_;
  bool forward_add_wire_;
};

/// Forwards everything, with the inner evaluator's scorer behind a
/// ForwardingScorer, and counts the scorers it builds.
class CountingEvaluator final : public delay::DelayEvaluator {
 public:
  CountingEvaluator(const delay::DelayEvaluator& inner, bool forward_add_wire)
      : inner_(inner), forward_add_wire_(forward_add_wire) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    ++builds_;
    return std::make_unique<ForwardingScorer>(inner_.make_candidate_scorer(g),
                                              forward_add_wire_);
  }
  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override {
    return inner_.bounded_max_delay(g, give_up_s);
  }
  [[nodiscard]] std::size_t builds() const { return builds_; }

 private:
  const delay::DelayEvaluator& inner_;
  bool forward_add_wire_;
  mutable std::size_t builds_ = 0;
};

/// Criticality weights for g's sinks, every fourth one zero.
std::vector<double> weights_with_zeros(const graph::RoutingGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<double> w(g.sinks().size());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = i % 4 == 2 ? 0.0 : weight(rng);
  return w;
}

/// ldrg_screened as a full score array ranks it: every absent pair within
/// `max_cost_ratio` of the initial cost scored through a VectorOnlyScorer
/// on the graph-Elmore screen, the best `keep` by (score, enumeration
/// index) verified by `eval`, the lowest verified objective below the
/// acceptance threshold taken, first on ties.
core::LdrgResult reference_screened(
    const graph::RoutingGraph& initial, const delay::DelayEvaluator& eval,
    std::size_t keep, const std::vector<double>& criticality,
    double max_cost_ratio = std::numeric_limits<double>::infinity()) {
  const delay::GraphElmoreEvaluator screen(kTech);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  core::LdrgResult result;
  result.graph = initial;
  result.initial_objective = eval.objective(initial, criticality);
  result.final_objective = result.initial_objective;
  result.initial_cost = initial.total_wirelength();
  result.final_cost = result.initial_cost;
  while (true) {
    const graph::RoutingGraph& g = result.graph;
    const double current = result.final_objective;
    const double accept_below = current * (1.0 - core::LdrgOptions{}.min_relative_improvement);
    const VectorOnlyScorer scorer(screen.make_candidate_scorer(g));
    struct Ranked {
      double score;
      graph::NodeId u, v;
    };
    std::vector<Ranked> ranked;
    const double budget = max_cost_ratio * result.initial_cost;
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      for (graph::NodeId v = u + 1; v < g.node_count(); ++v) {
        if (g.has_edge(u, v) ||
            result.final_cost + geom::manhattan_distance(g.node(u).pos, g.node(v).pos) >
                budget)
          continue;
        double score = 0.0;
        scorer.row_objectives(u, std::span<const graph::NodeId>(&v, 1), criticality, kInf,
                              std::span<double>(&score, 1));
        ranked.push_back({score, u, v});
      }
    }
    std::erase_if(ranked, [&](const Ranked& r) { return !(r.score < kInf); });
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked& a, const Ranked& b) { return a.score < b.score; });
    ranked.resize(std::min(keep, ranked.size()));
    double best = accept_below;
    const Ranked* pick = nullptr;
    for (const Ranked& r : ranked) {
      graph::RoutingGraph trial = g;
      trial.add_edge(r.u, r.v);
      const double t = eval.objective(trial, criticality);
      if (t < best) {
        best = t;
        pick = &r;
      }
    }
    if (pick == nullptr) break;
    result.graph.add_edge(pick->u, pick->v);
    result.final_objective = best;
    result.final_cost = result.graph.total_wirelength();
    result.steps.push_back({pick->u, pick->v, current, best, result.final_cost});
  }
  return result;
}

core::LdrgResult run_ldrg(const graph::RoutingGraph& initial,
                          const delay::DelayEvaluator& eval, std::size_t threads,
                          bool bounded) {
  core::LdrgOptions opts;
  opts.parallel.num_threads = threads;
  if (bounded) return core::ldrg(initial, eval, opts);
  return core::ldrg(initial, UnboundedEvaluator(eval), opts);
}

TEST(LdrgParallel, TransientEvaluatorBitIdenticalAcrossThreadCounts) {
  const delay::TransientEvaluator eval(kTech);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expt::NetGenerator gen(seed);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(9));
    const core::LdrgResult serial = run_ldrg(mst, eval, 1, false);
    EXPECT_TRUE(serial.improved() || serial.steps.empty());
    for (const std::size_t threads : {1u, 2u, 8u}) {
      expect_identical(run_ldrg(mst, eval, threads, true), serial,
                       "seed " + std::to_string(seed) + " threads " +
                           std::to_string(threads));
    }
  }
}

TEST(LdrgParallel, IncrementalScorerPathBitIdenticalAcrossThreadCounts) {
  // GraphElmoreEvaluator provides an incremental candidate scorer, so this
  // exercises the Sherman-Morrison lanes rather than trial-copy scoring.
  const delay::GraphElmoreEvaluator eval(kTech);
  expt::NetGenerator gen(5);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(14));
  const core::LdrgResult serial = run_ldrg(mst, eval, 1, false);
  for (const std::size_t threads : {2u, 8u})
    expect_identical(run_ldrg(mst, eval, threads, true), serial,
                     "threads " + std::to_string(threads));
}

TEST(LdrgParallel, RepeatedRunsAreDeterministic) {
  const delay::TransientEvaluator eval(kTech);
  expt::NetGenerator gen(9);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(8));
  const core::LdrgResult first = run_ldrg(mst, eval, 8, true);
  for (int run = 0; run < 3; ++run)
    expect_identical(run_ldrg(mst, eval, 8, true), first,
                     "run " + std::to_string(run));
}

TEST(LdrgParallel, BoundedScoringIsOutputPreserving) {
  const delay::TransientEvaluator eval(kTech);
  for (const std::uint64_t seed : {11u, 12u}) {
    expt::NetGenerator gen(seed);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    expect_identical(run_ldrg(mst, eval, 1, true), run_ldrg(mst, eval, 1, false),
                     "seed " + std::to_string(seed));
  }
}

// Table 2 grows iteration two from its cached iteration-one routing: one
// more greedy edge on top of ldrg(mst, 1) must be ldrg(mst, 2), bit for
// bit -- the same edges, the same steps and the same final objective.
TEST(LdrgParallel, ContinuationMatchesTwoEdgeRun) {
  const delay::TransientEvaluator eval(kTech);
  core::LdrgOptions one;
  one.max_added_edges = 1;
  core::LdrgOptions two = one;
  two.max_added_edges = 2;
  std::size_t two_edge_runs = 0;
  for (const std::size_t pins : {5u, 8u, 12u, 16u, 20u}) {
    const std::string context = "pins " + std::to_string(pins);
    expt::NetGenerator gen(60 + pins);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
    const core::LdrgResult first = core::ldrg(mst, eval, one);
    const core::LdrgResult next = core::ldrg(first.graph, eval, one);
    const core::LdrgResult whole = core::ldrg(mst, eval, two);

    core::LdrgResult resumed = next;
    resumed.steps = first.steps;
    resumed.steps.insert(resumed.steps.end(), next.steps.begin(), next.steps.end());
    expect_identical(resumed, whole, context);
    for (std::size_t i = 0; i < std::min(resumed.steps.size(), whole.steps.size()); ++i) {
      EXPECT_EQ(resumed.steps[i].objective_before, whole.steps[i].objective_before)
          << context;
      EXPECT_EQ(resumed.steps[i].cost_after, whole.steps[i].cost_after) << context;
    }
    two_edge_runs += whole.steps.size() == 2;
  }
  EXPECT_GE(two_edge_runs, 1u) << "no net took a second edge";
}

TEST(LdrgParallel, WeightedObjectiveBitIdenticalAcrossThreadCounts) {
  const delay::TransientEvaluator eval(kTech);
  expt::NetGenerator gen(17);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(7));
  core::LdrgOptions opts;
  opts.criticality = {1.0, 0.2, 0.9, 0.1, 0.5, 0.7};
  ASSERT_EQ(opts.criticality.size(), mst.sinks().size());
  const core::LdrgResult serial = core::ldrg(mst, eval, opts);
  for (const std::size_t threads : {2u, 8u}) {
    core::LdrgOptions par = opts;
    par.parallel.num_threads = threads;
    expect_identical(core::ldrg(mst, eval, par), serial,
                     "threads " + std::to_string(threads));
  }
}

TEST(LdrgParallel, ScreenedVariantBitIdenticalAcrossThreadCounts) {
  const delay::TransientEvaluator eval(kTech);
  expt::NetGenerator gen(23);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(12));
  core::ScreenedLdrgOptions opts;
  const core::LdrgResult serial = core::ldrg_screened(mst, eval, kTech, opts);
  for (const std::size_t threads : {2u, 8u}) {
    core::ScreenedLdrgOptions par = opts;
    par.base.parallel.num_threads = threads;
    expect_identical(core::ldrg_screened(mst, eval, kTech, par), serial,
                     "threads " + std::to_string(threads));
  }
}

// The engine's row query and a lane-local top K against a scorer that
// only yields whole vectors, scored in full: same routing, bit for bit, at
// every lane count, for ORG and CSORG with zero weights.
TEST(LdrgParallel, BoundedRankingRoutesLikeTheVectorOnlyScorer) {
  const delay::GraphElmoreEvaluator eval(kTech);
  for (const std::size_t pins : {60u, 100u, 150u}) {
    expt::NetGenerator gen(40 + pins);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
    for (const bool weighted : {false, true}) {
      core::LdrgOptions opts;
      if (weighted) opts.criticality = weights_with_zeros(mst, pins);
      const core::LdrgResult want = core::ldrg(mst, VectorOnlyEvaluator(eval), opts);
      EXPECT_TRUE(want.improved());
      for (const std::size_t threads : {1u, 2u, 8u}) {
        opts.parallel.num_threads = threads;
        expect_identical(core::ldrg(mst, eval, opts), want,
                         std::to_string(pins) + " pins" + (weighted ? " CSORG" : " ORG") +
                             " threads " + std::to_string(threads));
      }
    }
  }
}

/// Answers each row query with one one-element query per wire, each
/// bounded by the row's bound: the single-candidate reference.
class OneAtATimeScorer final : public delay::CandidateScorer {
 public:
  explicit OneAtATimeScorer(std::unique_ptr<delay::CandidateScorer> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    return inner_->candidate_sink_delays(u, v);
  }
  void row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                      std::span<const double> criticality, double bound,
                      std::span<double> out) const override {
    for (std::size_t j = 0; j < vs.size(); ++j)
      inner_->row_objectives(u, vs.subspan(j, 1), criticality, bound, out.subspan(j, 1));
  }
  bool add_wire(graph::NodeId u, graph::NodeId v) override {
    return inner_->add_wire(u, v);
  }

 private:
  std::unique_ptr<delay::CandidateScorer> inner_;
};

/// Forwards everything, with the inner evaluator's scorer behind a
/// OneAtATimeScorer.
class OneAtATimeEvaluator final : public delay::DelayEvaluator {
 public:
  explicit OneAtATimeEvaluator(const delay::DelayEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return std::make_unique<OneAtATimeScorer>(inner_.make_candidate_scorer(g));
  }
  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override {
    return inner_.bounded_max_delay(g, give_up_s);
  }

 private:
  const delay::DelayEvaluator& inner_;
};

// Rows against single-wire queries inside LDRG: MSTs at 60 and 150 pins
// and a 60-pin SERT (micron-length Steiner edges), ORG and CSORG with zero
// weights, no budget and max_cost_ratio 1.1, at 1, 2 and 8 lanes: the
// same routing, bit for bit. K = 3 goes through ldrg_screened against the
// full score array of one-element queries.
TEST(LdrgParallel, RowQueryRoutesLikeOneCandidateQueries) {
  const delay::GraphElmoreEvaluator eval(kTech);
  const delay::TwoPoleEvaluator d2m(kTech);
  std::vector<std::pair<std::string, graph::RoutingGraph>> routings;
  for (const std::size_t pins : {60u, 150u}) {
    expt::NetGenerator gen(90 + pins);
    routings.emplace_back(std::to_string(pins) + "-pin MST",
                          graph::mst_routing(gen.random_net(pins)));
  }
  {
    expt::NetGenerator gen(122);
    route::ErtOptions sert;
    sert.steiner = true;
    routings.emplace_back("SERT",
                          route::elmore_routing_tree(gen.random_net(60), kTech, sert).graph);
  }
  for (const auto& [name, initial] : routings) {
    for (const double ratio : {std::numeric_limits<double>::infinity(), 1.1}) {
      for (const bool weighted : {false, true}) {
        core::LdrgOptions opts;
        opts.max_cost_ratio = ratio;
        if (weighted) opts.criticality = weights_with_zeros(initial, 3);
        const std::string context = name + " ratio " + std::to_string(ratio) +
                                    (weighted ? " CSORG" : " ORG");
        const core::LdrgResult want = core::ldrg(initial, OneAtATimeEvaluator(eval), opts);
        EXPECT_TRUE(want.improved()) << context;
        const core::LdrgResult want_k3 =
            reference_screened(initial, d2m, 3, opts.criticality, ratio);
        EXPECT_TRUE(want_k3.improved()) << context;
        for (const std::size_t threads : {1u, 2u, 8u}) {
          opts.parallel.num_threads = threads;
          expect_identical(core::ldrg(initial, eval, opts), want,
                           context + " K 1 threads " + std::to_string(threads));
          core::ScreenedLdrgOptions screened;
          screened.base = opts;
          screened.verify_top_k = 3;
          expect_identical(core::ldrg_screened(initial, d2m, kTech, screened), want_k3,
                           context + " K 3 threads " + std::to_string(threads));
        }
      }
    }
  }
}

/// Forwards every call of its scorer, and on the first row query asks
/// `source` to cancel; counts the row queries.
class CancellingScorer final : public delay::CandidateScorer {
 public:
  CancellingScorer(std::unique_ptr<delay::CandidateScorer> inner,
                   runtime::CancelSource& source, std::atomic<std::size_t>& rows)
      : inner_(std::move(inner)), source_(source), rows_(rows) {}
  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    return inner_->candidate_sink_delays(u, v);
  }
  void row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                      std::span<const double> criticality, double bound,
                      std::span<double> out) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    source_.request_cancel();
    inner_->row_objectives(u, vs, criticality, bound, out);
  }

 private:
  std::unique_ptr<delay::CandidateScorer> inner_;
  runtime::CancelSource& source_;
  std::atomic<std::size_t>& rows_;
};

/// Forwards everything, with the inner evaluator's scorer behind a
/// CancellingScorer.
class CancellingEvaluator final : public delay::DelayEvaluator {
 public:
  CancellingEvaluator(const delay::DelayEvaluator& inner, runtime::CancelSource& source,
                      std::atomic<std::size_t>& rows)
      : inner_(inner), source_(source), rows_(rows) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    return inner_.sink_delays(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return std::make_unique<CancellingScorer>(inner_.make_candidate_scorer(g), source_,
                                              rows_);
  }

 private:
  const delay::DelayEvaluator& inner_;
  runtime::CancelSource& source_;
  std::atomic<std::size_t>& rows_;
};

// The ranking polls the stop token before every row: a cancel raised
// inside the first row query stops a serial scan after that row, and a
// parallel one well before its rows run out, with one typed error.
TEST(LdrgParallel, RankingStopsWithinARowOfACancel) {
  const delay::GraphElmoreEvaluator eval(kTech);
  expt::NetGenerator gen(33);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(150));
  for (const std::size_t threads : {1u, 4u}) {
    runtime::CancelSource source;
    std::atomic<std::size_t> rows{0};
    core::LdrgOptions opts;
    opts.parallel.num_threads = threads;
    opts.stop.cancel = source.token();
    try {
      (void)core::ldrg(mst, CancellingEvaluator(eval, source, rows), opts);
      FAIL() << "threads " << threads << ": the scan ignored the cancel";
    } catch (const runtime::NtrError& e) {
      EXPECT_EQ(e.code(), runtime::StatusCode::kCancelled) << "threads " << threads;
    }
    if (threads == 1) {
      EXPECT_EQ(rows.load(), 1u);
    } else {
      EXPECT_LT(rows.load(), mst.node_count() / 2) << "threads " << threads;
    }
  }
}

// One scorer serves a whole solve: built in the first round, then moved by
// add_wire after each accepted wire. A wrapper that does not forward
// add_wire is rebuilt every round and routes the same.
TEST(LdrgParallel, ScorerIsBuiltOncePerSolve) {
  const delay::GraphElmoreEvaluator graph_elmore(kTech);
  expt::NetGenerator gen(150);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(150));
  core::LdrgOptions opts;
  opts.max_added_edges = 3;
  const CountingEvaluator once(graph_elmore, /*forward_add_wire=*/true);
  const core::LdrgResult got = core::ldrg(mst, once, opts);
  ASSERT_EQ(got.steps.size(), 3u);
  EXPECT_EQ(once.builds(), 1u);
  const CountingEvaluator every_round(graph_elmore, /*forward_add_wire=*/false);
  expect_identical(got, core::ldrg(mst, every_round, opts), "rebuilt every round");
  EXPECT_EQ(every_round.builds(), 3u);
}

// ldrg_screened's lane-local top K against the full score array of the
// vector-only scorer, verified by D2M: K = 1, 3 and 4.
TEST(LdrgParallel, ScreenedTopKMatchesTheFullScoreArray) {
  const delay::TwoPoleEvaluator d2m(kTech);
  for (const std::size_t pins : {60u, 150u}) {
    expt::NetGenerator gen(70 + pins);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
    for (const std::size_t keep : {1u, 3u, 4u}) {
      for (const bool weighted : {false, true}) {
        core::ScreenedLdrgOptions opts;
        opts.verify_top_k = keep;
        if (weighted) opts.base.criticality = weights_with_zeros(mst, keep);
        const core::LdrgResult want =
            reference_screened(mst, d2m, keep, opts.base.criticality);
        EXPECT_TRUE(want.improved());
        for (const std::size_t threads : {1u, 2u, 8u}) {
          opts.base.parallel.num_threads = threads;
          expect_identical(core::ldrg_screened(mst, d2m, kTech, opts), want,
                           std::to_string(pins) + " pins K " + std::to_string(keep) +
                               (weighted ? " CSORG" : " ORG") + " threads " +
                               std::to_string(threads));
        }
      }
    }
  }
}

TEST(LdrgParallel, SolverLevelThreadKnobOverridesLdrgOptions) {
  const delay::TransientEvaluator eval(kTech);
  expt::NetGenerator gen(31);
  const graph::Net net = gen.random_net(8);
  core::SolverConfig serial_config;
  core::SolverConfig parallel_config;
  parallel_config.parallel.num_threads = 8;
  const core::Solution a = core::solve(net, core::Strategy::kLdrg, eval, serial_config);
  const core::Solution b = core::solve(net, core::Strategy::kLdrg, eval, parallel_config);
  EXPECT_EQ(edge_list(a.graph), edge_list(b.graph));
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.cost_um, b.cost_um);
}

TEST(LdrgParallel, TimingFlowBitIdenticalAcrossThreadCounts) {
  const delay::TransientEvaluator measure(kTech);
  const auto run_flow = [&](std::size_t threads) {
    sta::TimingGraph design;
    const sta::NetId pi = design.add_net("pi");
    const sta::NetId fan = design.add_net("fan");
    const sta::NetId po1 = design.add_net("po1");
    const sta::NetId po2 = design.add_net("po2");
    design.add_gate("drv", 0.2e-9, {pi}, fan);
    const sta::GateId rx1 = design.add_gate("rx1", 2.5e-9, {fan}, po1);
    const sta::GateId rx2 = design.add_gate("rx2", 0.2e-9, {fan}, po2);
    std::vector<flow::BoundNet> nets(1);
    nets[0].name = "fan";
    nets[0].net.pins = {{300, 300}, {9300, 8700}, {1500, 2500}};
    nets[0].sta_net = fan;
    nets[0].sink_gates = {rx1, rx2};
    flow::FlowOptions options;
    options.clock_period_s = 5.5e-9;
    options.parallel.num_threads = threads;
    return run_timing_flow(design, nets, measure, options);
  };
  const flow::FlowResult serial = run_flow(1);
  for (const std::size_t threads : {2u, 8u}) {
    const flow::FlowResult parallel = run_flow(threads);
    ASSERT_EQ(parallel.routings.size(), serial.routings.size());
    for (std::size_t i = 0; i < serial.routings.size(); ++i)
      EXPECT_EQ(edge_list(parallel.routings[i]), edge_list(serial.routings[i]));
    EXPECT_EQ(parallel.final_report.worst_slack_s,
              serial.final_report.worst_slack_s);
    EXPECT_EQ(parallel.nets_rerouted, serial.nets_rerouted);
  }
}

}  // namespace
}  // namespace ntr
