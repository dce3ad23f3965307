// Bit-identity of the parallel / incremental / bounded LDRG paths: every
// thread count, and every output-preserving shortcut (branch-and-bound
// scoring, incremental candidate scorers), must reproduce the serial
// seed's routing exactly -- same edges in the same order, same reported
// objectives, down to the last bit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ldrg.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "flow/timing_flow.h"
#include "graph/mst.h"

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
