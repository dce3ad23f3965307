// WSORG and HORG run on LDRG's round engine. This file keeps the serial
// loops they replaced, verbatim, as the oracle: on graph-Elmore and
// transient nets, from MSTs and from LDRG routings, under area budgets,
// criticality weights, odd width sets and a move cap, every step, width,
// objective and area must match bit for bit. It also pins the contract
// the engine adds: input checks and the area budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/horg.h"
#include "core/ldrg.h"
#include "core/wire_sizing.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// Heavy pin loads and a weak driver make widening pay, so runs take many
/// moves of both kinds.
spice::Technology load_dominated() {
  spice::Technology tech = kTech;
  tech.sink_capacitance_f = 300e-15;
  tech.driver_resistance_ohm = 10.0;
  return tech;
}

// ---------------------------------------------------------------------------
// The serial loops, as they were before they moved onto the round engine.

double reference_next_width(const std::vector<double>& widths, double current) {
  double best = 0.0;
  for (const double w : widths)
    if (w > current && (best == 0.0 || w < best)) best = w;
  return best;
}

WireSizingResult reference_wire_sizing(const graph::RoutingGraph& initial,
                                       const delay::DelayEvaluator& evaluator,
                                       const WireSizingOptions& options) {
  WireSizingResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_area = result.graph.total_wire_area();
  result.final_objective = result.initial_objective;
  result.final_area = result.initial_area;
  const double area_budget = options.max_area_ratio * result.initial_area;

  while (true) {
    const double current = result.final_objective;
    const double accept_below = current * (1.0 - options.min_relative_improvement);

    double best_objective = accept_below;
    graph::EdgeId best_edge = graph::kInvalidEdge;
    double best_width = 0.0;

    for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
      const graph::GraphEdge& edge = result.graph.edge(e);
      const double w = reference_next_width(options.widths, edge.width);
      if (w == 0.0) continue;  // already at the widest available width
      const double new_area =
          result.final_area + edge.length * (w - edge.width);
      if (new_area > area_budget) continue;

      graph::RoutingGraph trial = result.graph;
      trial.set_edge_width(e, w);
      const double t = evaluator.objective(trial, options.criticality);
      if (t < best_objective) {
        best_objective = t;
        best_edge = e;
        best_width = w;
      }
    }

    if (best_edge == graph::kInvalidEdge) break;

    SizingStep step;
    step.edge = best_edge;
    step.old_width = result.graph.edge(best_edge).width;
    step.new_width = best_width;
    step.objective_before = current;
    step.objective_after = best_objective;
    result.graph.set_edge_width(best_edge, best_width);
    result.final_objective = best_objective;
    result.final_area = result.graph.total_wire_area();
    step.area_after = result.final_area;
    result.steps.push_back(step);
  }
  return result;
}

HorgResult reference_horg(const graph::RoutingGraph& initial,
                          const delay::DelayEvaluator& evaluator,
                          const HorgOptions& options) {
  HorgResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_area = result.graph.total_wire_area();
  result.final_objective = result.initial_objective;
  result.final_area = result.initial_area;
  const double area_budget = options.max_area_ratio * result.initial_area;

  while (result.steps.size() < options.max_moves) {
    const double current = result.final_objective;
    const double accept_below = current * (1.0 - options.min_relative_improvement);

    // Best move by improvement per unit added area; moves that add no
    // area (impossible here: every move adds metal) or do not improve
    // are skipped.
    double best_score = 0.0;
    HorgStep best;
    bool found = false;

    const auto consider = [&](HorgStep step, double trial_objective,
                              double added_area) {
      if (trial_objective >= accept_below || added_area <= 0.0) return;
      if (result.final_area + added_area > area_budget) return;
      const double score = (current - trial_objective) / added_area;
      if (!found || score > best_score) {
        best_score = score;
        step.objective_before = current;
        step.objective_after = trial_objective;
        best = step;
        found = true;
      }
    };

    // ORG moves: every absent pair.
    for (graph::NodeId u = 0; u < result.graph.node_count(); ++u) {
      for (graph::NodeId v = u + 1; v < result.graph.node_count(); ++v) {
        if (result.graph.has_edge(u, v)) continue;
        graph::RoutingGraph trial = result.graph;
        const graph::EdgeId e = trial.add_edge(u, v);
        const double added_area = trial.edge(e).length;
        HorgStep step;
        step.kind = HorgStep::Kind::kAddEdge;
        step.u = u;
        step.v = v;
        consider(step, evaluator.objective(trial, options.criticality), added_area);
      }
    }
    // WSORG moves: widen any edge one notch.
    for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
      const graph::GraphEdge& edge = result.graph.edge(e);
      const double w = reference_next_width(options.widths, edge.width);
      if (w == 0.0) continue;
      graph::RoutingGraph trial = result.graph;
      trial.set_edge_width(e, w);
      HorgStep step;
      step.kind = HorgStep::Kind::kWidenEdge;
      step.edge = e;
      step.new_width = w;
      consider(step, evaluator.objective(trial, options.criticality),
               edge.length * (w - edge.width));
    }

    if (!found) break;

    if (best.kind == HorgStep::Kind::kAddEdge) {
      result.graph.add_edge(best.u, best.v);
    } else {
      result.graph.set_edge_width(best.edge, best.new_width);
    }
    result.final_objective = best.objective_after;
    result.final_area = result.graph.total_wire_area();
    best.area_after = result.final_area;
    result.steps.push_back(best);
  }
  return result;
}

// ---------------------------------------------------------------------------

/// One comparison: a starting routing and the knobs both loops share.
struct Case {
  std::string label;
  graph::RoutingGraph start;
  std::vector<double> widths;
  double max_area_ratio = 0.0;
  std::vector<double> criticality;
  std::size_t max_moves = std::numeric_limits<std::size_t>::max();
};

/// `count` cases on nets of min_pins..max_pins pins. They alternate MST
/// and LDRG starts, cycle three width sets and the budgets 1.15, 1.2 and
/// 1.25, weight every fifth case's sinks and cap every seventh HORG run
/// at three moves.
std::vector<Case> make_cases(std::size_t count, std::uint64_t seed,
                             std::size_t min_pins, std::size_t max_pins,
                             const delay::DelayEvaluator& eval) {
  const std::vector<std::vector<double>> width_sets{
      {1.0, 2.0, 4.0}, {1.0, 1.5, 3.0}, {1.0, 2.0, 3.0, 4.0}};
  const double budgets[] = {1.15, 1.2, 1.25, std::numeric_limits<double>::infinity()};
  expt::NetGenerator gen(seed);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<Case> cases;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pins = min_pins + i % (max_pins - min_pins + 1);
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(pins));
    Case c;
    c.label = "case " + std::to_string(i) + " (" + std::to_string(pins) + " pins)";
    c.start = i % 2 == 0 ? mst : ldrg(mst, eval).graph;
    c.widths = width_sets[i % width_sets.size()];
    c.max_area_ratio = budgets[i % 4];
    if (i % 5 == 4)
      for (std::size_t s = 0; s < mst.sinks().size(); ++s)
        c.criticality.push_back(weight(rng));
    if (i % 7 == 6) c.max_moves = 3;
    cases.push_back(std::move(c));
  }
  return cases;
}

void expect_same_graph(const graph::RoutingGraph& got, const graph::RoutingGraph& want,
                       const std::string& label) {
  ASSERT_EQ(got.edge_count(), want.edge_count()) << label;
  for (graph::EdgeId e = 0; e < got.edge_count(); ++e) {
    EXPECT_EQ(got.edge(e).u, want.edge(e).u) << label;
    EXPECT_EQ(got.edge(e).v, want.edge(e).v) << label;
    EXPECT_EQ(got.edge(e).width, want.edge(e).width) << label;
  }
}

/// Both loops on every case; returns the total number of accepted steps.
std::size_t expect_wire_sizing_matches(const std::vector<Case>& cases,
                                       const delay::DelayEvaluator& eval) {
  std::size_t steps = 0;
  for (const Case& c : cases) {
    WireSizingOptions opts;
    opts.widths = c.widths;
    opts.max_area_ratio = c.max_area_ratio;
    opts.criticality = c.criticality;
    const WireSizingResult got = greedy_wire_sizing(c.start, eval, opts);
    const WireSizingResult want = reference_wire_sizing(c.start, eval, opts);
    EXPECT_EQ(got.initial_objective, want.initial_objective) << c.label;
    EXPECT_EQ(got.final_objective, want.final_objective) << c.label;
    EXPECT_EQ(got.initial_area, want.initial_area) << c.label;
    EXPECT_EQ(got.final_area, want.final_area) << c.label;
    EXPECT_EQ(got.steps.size(), want.steps.size()) << c.label;
    if (got.steps.size() != want.steps.size()) continue;
    for (std::size_t i = 0; i < got.steps.size(); ++i) {
      const SizingStep& g = got.steps[i];
      const SizingStep& w = want.steps[i];
      EXPECT_EQ(g.edge, w.edge) << c.label << " step " << i;
      EXPECT_EQ(g.old_width, w.old_width) << c.label << " step " << i;
      EXPECT_EQ(g.new_width, w.new_width) << c.label << " step " << i;
      EXPECT_EQ(g.objective_before, w.objective_before) << c.label << " step " << i;
      EXPECT_EQ(g.objective_after, w.objective_after) << c.label << " step " << i;
      EXPECT_EQ(g.area_after, w.area_after) << c.label << " step " << i;
    }
    expect_same_graph(got.graph, want.graph, c.label);
    steps += got.steps.size();
  }
  return steps;
}

/// Both loops on every case; returns the accepted (additions, widenings).
std::pair<std::size_t, std::size_t> expect_horg_matches(
    const std::vector<Case>& cases, const delay::DelayEvaluator& eval) {
  std::pair<std::size_t, std::size_t> steps{0, 0};
  for (const Case& c : cases) {
    HorgOptions opts;
    opts.widths = c.widths;
    opts.max_area_ratio = c.max_area_ratio;
    opts.criticality = c.criticality;
    opts.max_moves = c.max_moves;
    const HorgResult got = horg_greedy(c.start, eval, opts);
    const HorgResult want = reference_horg(c.start, eval, opts);
    EXPECT_EQ(got.initial_objective, want.initial_objective) << c.label;
    EXPECT_EQ(got.final_objective, want.final_objective) << c.label;
    EXPECT_EQ(got.initial_area, want.initial_area) << c.label;
    EXPECT_EQ(got.final_area, want.final_area) << c.label;
    EXPECT_EQ(got.steps.size(), want.steps.size()) << c.label;
    if (got.steps.size() != want.steps.size()) continue;
    for (std::size_t i = 0; i < got.steps.size(); ++i) {
      const HorgStep& g = got.steps[i];
      const HorgStep& w = want.steps[i];
      EXPECT_EQ(g.kind, w.kind) << c.label << " step " << i;
      EXPECT_EQ(g.u, w.u) << c.label << " step " << i;
      EXPECT_EQ(g.v, w.v) << c.label << " step " << i;
      EXPECT_EQ(g.edge, w.edge) << c.label << " step " << i;
      EXPECT_EQ(g.new_width, w.new_width) << c.label << " step " << i;
      EXPECT_EQ(g.objective_before, w.objective_before) << c.label << " step " << i;
      EXPECT_EQ(g.objective_after, w.objective_after) << c.label << " step " << i;
      EXPECT_EQ(g.area_after, w.area_after) << c.label << " step " << i;
      ++(g.kind == HorgStep::Kind::kAddEdge ? steps.first : steps.second);
    }
    expect_same_graph(got.graph, want.graph, c.label);
  }
  return steps;
}

TEST(GreedyReference, WireSizingMatchesTheSerialLoopOnGraphElmore) {
  const delay::GraphElmoreEvaluator eval(kTech);
  EXPECT_GT(expect_wire_sizing_matches(make_cases(60, 3, 4, 19, eval), eval), 25u);
  const delay::GraphElmoreEvaluator loaded(load_dominated());
  EXPECT_GT(expect_wire_sizing_matches(make_cases(30, 4, 4, 19, loaded), loaded), 30u);
}

TEST(GreedyReference, HorgMatchesTheSerialLoopOnGraphElmore) {
  const delay::GraphElmoreEvaluator eval(kTech);
  const auto [adds, widens] = expect_horg_matches(make_cases(60, 5, 4, 19, eval), eval);
  const delay::GraphElmoreEvaluator loaded(load_dominated());
  const auto [loaded_adds, loaded_widens] =
      expect_horg_matches(make_cases(30, 6, 4, 19, loaded), loaded);
  // Both move kinds won rounds, so their shared tie-break order was tested.
  EXPECT_GT(adds + loaded_adds, 10u);
  EXPECT_GT(widens + loaded_widens, 10u);
}

TEST(GreedyReference, WireSizingMatchesTheSerialLoopOnTransient) {
  // The transient evaluator gives up on a march past the bound, so this
  // also covers the bounded cutoff.
  const delay::TransientEvaluator eval(kTech);
  EXPECT_GT(expect_wire_sizing_matches(make_cases(12, 7, 5, 10, eval), eval), 2u);
}

TEST(GreedyReference, HorgMatchesTheSerialLoopOnTransient) {
  const delay::TransientEvaluator eval(kTech);
  const auto [adds, widens] = expect_horg_matches(make_cases(24, 9, 6, 14, eval), eval);
  EXPECT_GT(adds, 0u);
  EXPECT_GT(widens, 0u);
}

// ---------------------------------------------------------------------------
// The contract the round engine brings.

TEST(GreedyContract, RejectsNegativeOrNanMinRelativeImprovement) {
  // Without the check, WSORG takes 27 widenings (23 of them worsening,
  // 3.95 -> 7.08 ns) on this net at -0.5, and HORG 171 moves (169
  // worsening, -> 51.9 ns).
  expt::NetGenerator gen(7);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
  const delay::GraphElmoreEvaluator eval(kTech);
  for (const double bad : {-0.5, -1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    WireSizingOptions sizing;
    sizing.min_relative_improvement = bad;
    EXPECT_THROW(greedy_wire_sizing(mst, eval, sizing), std::invalid_argument) << bad;
    HorgOptions horg;
    horg.min_relative_improvement = bad;
    EXPECT_THROW(horg_greedy(mst, eval, horg), std::invalid_argument) << bad;
  }
  WireSizingOptions sizing;
  sizing.min_relative_improvement = 0.0;
  EXPECT_NO_THROW(greedy_wire_sizing(mst, eval, sizing));
  HorgOptions horg;
  horg.min_relative_improvement = 0.0;
  EXPECT_NO_THROW(horg_greedy(mst, eval, horg));
}

/// `run` with the weights given must throw std::invalid_argument naming
/// `who` for a weight vector one short, one long, with a negative weight
/// or with a NaN, and must accept weights of zero.
template <class Run>
void expect_rejects_bad_criticality(const char* who, std::size_t sinks, const Run& run) {
  const std::vector<double> good(sinks, 0.5);
  std::vector<std::pair<std::string, std::vector<double>>> bad;
  bad.emplace_back("one short", std::vector<double>(good.begin(), good.end() - 1));
  bad.emplace_back("one long", good);
  bad.back().second.push_back(0.5);
  bad.emplace_back("negative", good);
  bad.back().second[1] = -1e-300;
  bad.emplace_back("NaN", good);
  bad.back().second[2] = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [label, weights] : bad) {
    try {
      run(weights);
      ADD_FAILURE() << who << " accepted criticality " << label;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(std::string(who) + ":", 0), 0u)
          << label << ": " << e.what();
    }
  }
  std::vector<double> zeros = good;
  zeros[0] = 0.0;
  EXPECT_NO_THROW(run(zeros)) << who;
}

class CriticalityContract : public ::testing::Test {
 protected:
  const delay::GraphElmoreEvaluator eval{kTech};
  const graph::RoutingGraph mst = graph::mst_routing(expt::NetGenerator(8).random_net(8));
  const std::size_t sinks = mst.sinks().size();
};

TEST_F(CriticalityContract, LdrgRejectsBadWeights) {
  expect_rejects_bad_criticality("ldrg", sinks, [&](const std::vector<double>& w) {
    LdrgOptions opts;
    opts.criticality = w;
    (void)ldrg(mst, eval, opts);
  });
}

TEST_F(CriticalityContract, LdrgScreenedRejectsBadWeights) {
  expect_rejects_bad_criticality("ldrg_screened", sinks, [&](const std::vector<double>& w) {
    ScreenedLdrgOptions opts;
    opts.base.criticality = w;
    (void)ldrg_screened(mst, eval, kTech, opts);
  });
}

TEST_F(CriticalityContract, WireSizingRejectsBadWeights) {
  expect_rejects_bad_criticality("greedy_wire_sizing", sinks,
                                 [&](const std::vector<double>& w) {
                                   WireSizingOptions opts;
                                   opts.criticality = w;
                                   (void)greedy_wire_sizing(mst, eval, opts);
                                 });
}

TEST_F(CriticalityContract, HorgRejectsBadWeights) {
  expect_rejects_bad_criticality("horg_greedy", sinks, [&](const std::vector<double>& w) {
    HorgOptions opts;
    opts.criticality = w;
    (void)horg_greedy(mst, eval, opts);
  });
}

TEST(GreedyContract, AreaStaysWithinMaxAreaRatio) {
  const delay::GraphElmoreEvaluator eval(kTech);
  expt::NetGenerator gen(13);
  std::size_t binding = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(6 + trial));
    const std::size_t unbounded_steps = greedy_wire_sizing(mst, eval).steps.size();
    for (const double ratio : {1.0, 1.02, 1.1, 1.3}) {
      const double cap = mst.total_wire_area() * ratio * (1 + 1e-12);
      WireSizingOptions sizing;
      sizing.max_area_ratio = ratio;
      const WireSizingResult sized = greedy_wire_sizing(mst, eval, sizing);
      EXPECT_LE(sized.final_area, cap) << trial << " " << ratio;
      for (const SizingStep& s : sized.steps) EXPECT_LE(s.area_after, cap);
      HorgOptions horg;
      horg.max_area_ratio = ratio;
      const HorgResult joint = horg_greedy(mst, eval, horg);
      EXPECT_LE(joint.final_area, cap) << trial << " " << ratio;
      for (const HorgStep& s : joint.steps) EXPECT_LE(s.area_after, cap);
      if (ratio == 1.0) {
        EXPECT_TRUE(sized.steps.empty());
        EXPECT_TRUE(joint.steps.empty());
      }
      binding += sized.steps.size() < unbounded_steps;
    }
  }
  EXPECT_GT(binding, 0u);  // some budget actually cut a run short
}

}  // namespace
}  // namespace ntr::core
