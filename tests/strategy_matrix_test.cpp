// The full strategy x evaluator compatibility matrix: every routing
// strategy must compose with every delay evaluator that supports its
// topology class, produce finite positive delays, and respect the basic
// electrical orderings between the evaluators.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

struct Case {
  Strategy strategy;
  const char* evaluator;
};

constexpr double kLn2 = 0.6931471805599453;

/// Graph Elmore's scorer with every delay scaled by ln 2. It overrides only
/// candidate_sink_delays, so LDRG ranks through CandidateScorer's default
/// row query.
class Ln2Scorer final : public delay::CandidateScorer {
 public:
  explicit Ln2Scorer(std::unique_ptr<delay::CandidateScorer> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    std::vector<double> d = inner_->candidate_sink_delays(u, v);
    for (double& x : d) x *= kLn2;
    return d;
  }

 private:
  std::unique_ptr<delay::CandidateScorer> inner_;
};

/// ln(2)-scaled graph Elmore, the single-pole 50% rule, as a caller would
/// write its own evaluator on top of the library's.
class Ln2Elmore final : public delay::DelayEvaluator {
 public:
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override {
    std::vector<double> d = elmore_.sink_delays(g);
    for (double& x : d) x *= kLn2;
    return d;
  }
  [[nodiscard]] std::string name() const override { return "elmore-ln2"; }
  [[nodiscard]] std::unique_ptr<delay::CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override {
    return std::make_unique<Ln2Scorer>(elmore_.make_candidate_scorer(g));
  }

 private:
  delay::GraphElmoreEvaluator elmore_{kTech};
};

std::unique_ptr<delay::DelayEvaluator> make(const std::string& name) {
  if (name == "graph-elmore")
    return std::make_unique<delay::GraphElmoreEvaluator>(kTech);
  if (name == "elmore-ln2") return std::make_unique<Ln2Elmore>();
  if (name == "d2m") return std::make_unique<delay::TwoPoleEvaluator>(kTech);
  return std::make_unique<delay::TransientEvaluator>(kTech);
}

class StrategyMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(StrategyMatrixTest, SolvesWithFiniteDelays) {
  const auto [strategy, evaluator_name] = GetParam();
  expt::NetGenerator gen(2026);
  const graph::Net net = gen.random_net(8);
  const std::unique_ptr<delay::DelayEvaluator> evaluator = make(evaluator_name);
  const Solution sol = solve(net, strategy, *evaluator);
  EXPECT_TRUE(sol.graph.is_connected());
  EXPECT_TRUE(std::isfinite(sol.delay_s));
  EXPECT_GT(sol.delay_s, 0.0);
  // Whatever the search evaluator, the transient measurement of the
  // result must be finite too and bounded by its graph-Elmore value.
  const delay::TransientEvaluator transient(kTech);
  const delay::GraphElmoreEvaluator elmore(kTech);
  const double t = transient.max_delay(sol.graph);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_LT(t, elmore.max_delay(sol.graph) * 1.01);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Strategy s :
       {Strategy::kMst, Strategy::kStar, Strategy::kSteinerTree, Strategy::kErt,
        Strategy::kSert, Strategy::kLdrg, Strategy::kSldrg, Strategy::kErtLdrg,
        Strategy::kH1, Strategy::kH2, Strategy::kH3}) {
    for (const char* e :
         {"transient", "graph-elmore", "elmore-ln2", "d2m"}) {
      cases.push_back({s, e});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategyMatrixTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = strategy_name(info.param.strategy) + std::string("_") +
                         info.param.evaluator;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace ntr::core
