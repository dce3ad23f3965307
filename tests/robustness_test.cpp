// Fault-tolerance tests: the typed boundaries of net_io, the exit-code
// convention, the degradation ladder (solve_resilient), deadlines and
// cancellation threaded through the solver and the transient march, the
// resilient timing flow, and -- when the tree is configured with
// -DNTR_FAULT_INJECTION=ON -- deterministic chaos tests that fire every
// registered fault site.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/faultinject.h"
#include "core/resilience.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "flow/timing_flow.h"
#include "io/cli.h"
#include "io/net_io.h"
#include "linalg/dense_matrix.h"
#include "runtime/status.h"
#include "runtime/stop.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "sim/nodal.h"
#include "spice/netlist.h"

namespace {

using ntr::core::NetDisposition;
using ntr::core::OnError;
using ntr::runtime::NtrError;
using ntr::runtime::Status;
using ntr::runtime::StatusCode;
using ntr::runtime::StopToken;

const ntr::spice::Technology kTech = ntr::spice::kTable1Technology;

ntr::graph::Net square_net() {
  return ntr::graph::Net{{{0, 0}, {3000, 0}, {0, 3000}, {3000, 3000}}};
}

/// A delay oracle that always fails the way a diverging transient run
/// does -- drives the ladder without fault-injection support.
class FailingEvaluator final : public ntr::delay::DelayEvaluator {
 public:
  [[nodiscard]] std::vector<double> sink_delays(
      const ntr::graph::RoutingGraph&) const override {
    throw NtrError(StatusCode::kNonFinite, "synthetic waveform failure");
  }
  [[nodiscard]] std::string name() const override { return "always-fails"; }
};

/// Fails like a malformed-input parse: not rescuable by a cheaper rung.
class BadInputEvaluator final : public ntr::delay::DelayEvaluator {
 public:
  [[nodiscard]] std::vector<double> sink_delays(
      const ntr::graph::RoutingGraph&) const override {
    throw std::invalid_argument("synthetic caller mistake");
  }
  [[nodiscard]] std::string name() const override { return "bad-input"; }
};

// --------------------------------------------------- malformed net_io input

TEST(NetIoRobustness, NonFiniteCoordinatesAreBadInput) {
  for (const char* text : {"pin nan 100\npin 0 0\n", "pin 100 inf\npin 0 0\n",
                           "pin -inf 0\npin 0 0\n"}) {
    const auto net = ntr::io::try_read_net(text);
    ASSERT_FALSE(net.ok()) << text;
    EXPECT_EQ(net.status().code(), StatusCode::kBadInput) << text;
  }
}

TEST(NetIoRobustness, DuplicateEdgeIsBadInput) {
  const auto g = ntr::io::try_read_routing(
      "node 0 0 source\n"
      "node 1000 0 sink\n"
      "edge 0 1\n"
      "edge 1 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kBadInput);
  EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
}

TEST(NetIoRobustness, EdgeBeforeItsNodesIsBadInput) {
  const auto g = ntr::io::try_read_routing(
      "edge 0 1\n"
      "node 0 0 source\n"
      "node 1000 0 sink\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kBadInput);
}

TEST(NetIoRobustness, UnknownNodeKindIsBadInput) {
  const auto g = ntr::io::try_read_routing("node 0 0 resistor\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kBadInput);
}

TEST(NetIoRobustness, NonFiniteRoutingCoordinateIsBadInput) {
  const auto g = ntr::io::try_read_routing("node nan 0 source\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kBadInput);
}

TEST(NetIoRobustness, MissingFileIsIoError) {
  const auto net = ntr::io::try_read_net_file("/nonexistent/dir/foo.net");
  ASSERT_FALSE(net.ok());
  EXPECT_EQ(net.status().code(), StatusCode::kIoError);
  const auto routing =
      ntr::io::try_read_routing_file("/nonexistent/dir/foo.route");
  ASSERT_FALSE(routing.ok());
  EXPECT_EQ(routing.status().code(), StatusCode::kIoError);
}

TEST(NetIoRobustness, WellFormedTextStillParses) {
  const auto net = ntr::io::try_read_net("pin 0 0\npin 1000 2000\n");
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->size(), 2u);
  const auto g = ntr::io::try_read_routing(
      "node 0 0 source\n"
      "node 1000 0 sink\n"
      "edge 0 1\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edge_count(), 1u);
}

// ---------------------------------------------------------------- exit codes

TEST(ExitCodes, StatusCategoriesMapToDistinctCodes) {
  using ntr::io::exit_code_for;
  EXPECT_EQ(exit_code_for(Status{}), ntr::io::kExitOk);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kBadInput, "")), ntr::io::kExitInput);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kIoError, "")), ntr::io::kExitInput);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kSingular, "")),
            ntr::io::kExitNumerical);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kNonFinite, "")),
            ntr::io::kExitNumerical);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kTimeout, "")),
            ntr::io::kExitNumerical);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kCancelled, "")),
            ntr::io::kExitNumerical);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kResourceExhausted, "")),
            ntr::io::kExitInternal);
  EXPECT_EQ(exit_code_for(Status(StatusCode::kInternal, "")),
            ntr::io::kExitInternal);
}

TEST(ExitCodes, HelpTextDocumentsTheConvention) {
  const std::string usage = ntr::io::cli_usage();
  EXPECT_NE(usage.find("exit codes"), std::string::npos);
  EXPECT_NE(usage.find("--deadline-ms"), std::string::npos);
  EXPECT_NE(usage.find("--on-error"), std::string::npos);
  EXPECT_NE(usage.find("--report-json"), std::string::npos);
}

// --------------------------------------------------------------- cli parsing

TEST(CliRobustness, FaultToleranceFlagsParse) {
  const std::vector<std::string> args = {"--random", "8",        "--deadline-ms",
                                         "250",      "--on-error", "skip",
                                         "--report-json", "out.json"};
  const ntr::io::CliOptions opts = ntr::io::parse_cli(args);
  EXPECT_DOUBLE_EQ(opts.deadline_ms, 250.0);
  EXPECT_EQ(opts.on_error, OnError::kSkip);
  EXPECT_EQ(opts.report_json_path, "out.json");
}

TEST(CliRobustness, BadPolicyAndNegativeDeadlineAreRejected) {
  EXPECT_THROW(ntr::io::parse_cli(std::vector<std::string>{
                   "--random", "8", "--on-error", "explode"}),
               std::invalid_argument);
  EXPECT_THROW(ntr::io::parse_cli(std::vector<std::string>{
                   "--random", "8", "--deadline-ms", "-1"}),
               std::invalid_argument);
}

TEST(Resilience, PolicyNamesRoundTrip) {
  for (const OnError policy :
       {OnError::kFail, OnError::kDegrade, OnError::kSkip}) {
    const auto parsed = ntr::core::on_error_from_name(ntr::core::on_error_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ntr::core::on_error_from_name("explode").has_value());
}

TEST(Resilience, SeedStrategyIsTheConstructionSeed) {
  using ntr::core::Strategy;
  EXPECT_EQ(ntr::core::seed_strategy(Strategy::kSldrg), Strategy::kSteinerTree);
  EXPECT_EQ(ntr::core::seed_strategy(Strategy::kErtLdrg), Strategy::kErt);
  EXPECT_EQ(ntr::core::seed_strategy(Strategy::kLdrg), Strategy::kMst);
  EXPECT_EQ(ntr::core::seed_strategy(Strategy::kH3), Strategy::kMst);
}

// --------------------------------------------------------- degradation ladder

TEST(Resilience, TrySolveReturnsValueOnSuccess) {
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  const auto result =
      ntr::core::try_solve(square_net(), ntr::core::Strategy::kLdrg, elmore, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->graph.is_connected());
}

TEST(Resilience, TrySolveCapturesTypedFailures) {
  const FailingEvaluator failing;
  ntr::core::SolverConfig config;
  config.tech = kTech;
  const auto result =
      ntr::core::try_solve(square_net(), ntr::core::Strategy::kLdrg, failing, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNonFinite);
}

TEST(Resilience, LadderDegradesToElmoreOnEvaluatorFailure) {
  const FailingEvaluator failing;
  ntr::core::SolverConfig config;
  config.tech = kTech;
  const ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
      square_net(), ntr::core::Strategy::kLdrg, failing, config);
  ASSERT_TRUE(guarded.solution.has_value());
  EXPECT_TRUE(guarded.solution->graph.is_connected());
  EXPECT_EQ(guarded.outcome.disposition, NetDisposition::kDegraded);
  EXPECT_EQ(guarded.outcome.rung, 1);
  // The outcome remembers the failure that forced the fallback.
  EXPECT_EQ(guarded.outcome.status.code(), StatusCode::kNonFinite);
}

TEST(Resilience, FailPolicyQuarantinesWithoutRetry) {
  const FailingEvaluator failing;
  ntr::core::SolverConfig config;
  config.tech = kTech;
  ntr::core::ResilienceOptions resilience;
  resilience.on_error = OnError::kFail;
  const ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
      square_net(), ntr::core::Strategy::kLdrg, failing, config, resilience);
  EXPECT_FALSE(guarded.solution.has_value());
  EXPECT_EQ(guarded.outcome.disposition, NetDisposition::kQuarantined);
  EXPECT_EQ(guarded.outcome.status.code(), StatusCode::kNonFinite);
}

TEST(Resilience, BadInputSkipsTheLadderEntirely) {
  const BadInputEvaluator bad;
  ntr::core::SolverConfig config;
  config.tech = kTech;
  const ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
      square_net(), ntr::core::Strategy::kLdrg, bad, config);
  EXPECT_FALSE(guarded.solution.has_value());
  EXPECT_EQ(guarded.outcome.disposition, NetDisposition::kQuarantined);
  EXPECT_EQ(guarded.outcome.status.code(), StatusCode::kBadInput);
}

TEST(Resilience, SpentDeadlineShipsTheSeedTree) {
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  ntr::core::ResilienceOptions resilience;
  resilience.stop.deadline = ntr::runtime::Deadline::after_ms(0.0);
  const ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
      square_net(), ntr::core::Strategy::kLdrg, elmore, config, resilience);
  // Rungs 0 and 1 fail their entry poll; rung 2 runs unbounded so the
  // batch still gets a routing for every net.
  ASSERT_TRUE(guarded.solution.has_value());
  EXPECT_TRUE(guarded.solution->graph.is_connected());
  EXPECT_EQ(guarded.outcome.disposition, NetDisposition::kDegraded);
  EXPECT_EQ(guarded.outcome.rung, 2);
  EXPECT_EQ(guarded.outcome.status.code(), StatusCode::kTimeout);
}

TEST(Resilience, OutcomeReportSerializesAsJson) {
  std::vector<ntr::core::NetOutcome> outcomes(2);
  outcomes[0].net_index = 0;
  outcomes[0].net_name = "fan";
  outcomes[1].net_index = 1;
  outcomes[1].net_name = "deep \"quoted\"";
  outcomes[1].disposition = NetDisposition::kQuarantined;
  outcomes[1].status = Status(StatusCode::kTimeout, "budget spent");
  const std::string json = ntr::core::outcomes_to_json(outcomes);
  EXPECT_NE(json.find("\"disposition\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"disposition\": \"quarantined\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_NE(json.find("deep \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(ntr::core::outcomes_to_json({}), "[]");
}

// --------------------------------------------- deadlines in the inner loops

TEST(Stopping, SolverHonorsAnExpiredDeadline) {
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  config.stop.deadline = ntr::runtime::Deadline::after_ms(0.0);
  try {
    (void)ntr::core::solve(square_net(), ntr::core::Strategy::kLdrg, elmore,
                           config);
    FAIL() << "solve ran to completion past an expired deadline";
  } catch (const NtrError& e) {
    EXPECT_EQ(e.code(), StatusCode::kTimeout);
  }
}

TEST(Stopping, SolverHonorsCancellation) {
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::runtime::CancelSource source;
  source.request_cancel();
  ntr::core::SolverConfig config;
  config.tech = kTech;
  config.stop.cancel = source.token();
  try {
    (void)ntr::core::solve(square_net(), ntr::core::Strategy::kLdrg, elmore,
                           config);
    FAIL() << "solve ran to completion after cancellation";
  } catch (const NtrError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(Stopping, TransientMarchHonorsAnExpiredDeadline) {
  ntr::sim::TransientOptions transient;
  transient.stop.deadline = ntr::runtime::Deadline::after_ms(0.0);
  const ntr::delay::TransientEvaluator evaluator(kTech, {}, transient);
  const ntr::graph::RoutingGraph g = ntr::graph::mst_routing(square_net());
  try {
    (void)evaluator.sink_delays(g);
    FAIL() << "transient march ran to completion past an expired deadline";
  } catch (const NtrError& e) {
    EXPECT_EQ(e.code(), StatusCode::kTimeout);
  }
}

TEST(Stopping, ParallelLanesDrainCleanlyOnTimeout) {
  // A multi-thread LDRG scan with a tripped deadline must join its pool
  // and surface one typed error (not crash or deadlock).
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  config.parallel.num_threads = 4;
  config.stop.deadline = ntr::runtime::Deadline::after_ms(0.0);
  try {
    (void)ntr::core::solve(square_net(), ntr::core::Strategy::kLdrg, elmore,
                           config);
    FAIL() << "parallel solve ignored the deadline";
  } catch (const NtrError& e) {
    EXPECT_EQ(e.code(), StatusCode::kTimeout);
  }
}

// ------------------------------------------------------------ resilient flow

ntr::flow::FlowOptions flow_options() {
  ntr::flow::FlowOptions options;
  options.tech = kTech;
  options.clock_period_s = 5.5e-9;
  return options;
}

struct FlowFixture {
  ntr::sta::TimingGraph design;
  std::vector<ntr::flow::BoundNet> nets;

  FlowFixture() {
    const ntr::sta::NetId pi = design.add_net("pi");
    const ntr::sta::NetId fan = design.add_net("fan");
    const ntr::sta::NetId deep_in = design.add_net("deep_in");
    const ntr::sta::NetId po1 = design.add_net("po1");
    const ntr::sta::NetId po2 = design.add_net("po2");

    design.add_gate("drv", 0.2e-9, {pi}, fan);
    const ntr::sta::GateId rx1 = design.add_gate("rx1", 0.4e-9, {fan}, deep_in);
    const ntr::sta::GateId rx2 = design.add_gate("rx2", 0.2e-9, {fan}, po2);
    const ntr::sta::GateId deep = design.add_gate("deep", 2.5e-9, {deep_in}, po1);

    ntr::flow::BoundNet fan_net;
    fan_net.name = "fan";
    fan_net.net.pins = {{300, 300}, {9300, 8700}, {1500, 2500}};
    fan_net.sta_net = fan;
    fan_net.sink_gates = {rx1, rx2};
    nets.push_back(fan_net);

    ntr::flow::BoundNet deep_net;
    deep_net.name = "deep_in";
    deep_net.net.pins = {{9300, 8800}, {800, 8800}};
    deep_net.sta_net = deep_in;
    deep_net.sink_gates = {deep};
    nets.push_back(deep_net);
  }
};

TEST(ResilientFlow, FaultFreeRunReportsAllOk) {
  FlowFixture fx;
  const ntr::delay::GraphElmoreEvaluator measure(kTech);
  const ntr::flow::FlowResult result =
      ntr::flow::run_timing_flow(fx.design, fx.nets, measure, flow_options());
  ASSERT_EQ(result.outcomes.size(), fx.nets.size());
  for (const ntr::core::NetOutcome& o : result.outcomes) {
    EXPECT_EQ(o.disposition, NetDisposition::kOk);
    EXPECT_TRUE(o.status.ok());
  }
}

TEST(ResilientFlow, BatchSurvivesAFailingOracle) {
  FlowFixture fx;
  const FailingEvaluator failing;
  const ntr::flow::FlowResult result =
      ntr::flow::run_timing_flow(fx.design, fx.nets, failing, flow_options());
  ASSERT_EQ(result.routings.size(), fx.nets.size());
  ASSERT_EQ(result.outcomes.size(), fx.nets.size());
  for (std::size_t i = 0; i < fx.nets.size(); ++i) {
    EXPECT_TRUE(result.routings[i].is_connected()) << fx.nets[i].name;
    EXPECT_EQ(result.outcomes[i].disposition, NetDisposition::kDegraded)
        << fx.nets[i].name;
    EXPECT_EQ(result.outcomes[i].status.code(), StatusCode::kNonFinite);
  }
}

TEST(ResilientFlow, FailPolicyRethrowsTheFirstFailure) {
  FlowFixture fx;
  const FailingEvaluator failing;
  ntr::flow::FlowOptions options = flow_options();
  options.resilience.on_error = OnError::kFail;
  EXPECT_THROW(
      ntr::flow::run_timing_flow(fx.design, fx.nets, failing, options),
      NtrError);
}

TEST(ResilientFlow, SpentDeadlineStillAccountsForEveryNet) {
  FlowFixture fx;
  const ntr::delay::GraphElmoreEvaluator measure(kTech);
  ntr::flow::FlowOptions options = flow_options();
  options.resilience.stop.deadline = ntr::runtime::Deadline::after_ms(0.0);
  const ntr::flow::FlowResult result =
      ntr::flow::run_timing_flow(fx.design, fx.nets, measure, options);
  ASSERT_EQ(result.routings.size(), fx.nets.size());
  ASSERT_EQ(result.outcomes.size(), fx.nets.size());
  for (std::size_t i = 0; i < fx.nets.size(); ++i) {
    EXPECT_TRUE(result.routings[i].is_connected()) << fx.nets[i].name;
    EXPECT_NE(result.outcomes[i].disposition, NetDisposition::kOk)
        << fx.nets[i].name;
  }
}

// -------------------------------------------------------- fault-injection

TEST(FaultInjection, SiteTableIsConsistent) {
  const auto sites = ntr::check::fault::sites();
  ASSERT_EQ(sites.size(), ntr::check::fault::kFaultSiteCount);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(sites[i].site), i);
    EXPECT_NE(sites[i].name, nullptr);
    EXPECT_NE(sites[i].code, StatusCode::kOk);
    for (std::size_t j = i + 1; j < sites.size(); ++j)
      EXPECT_STRNE(sites[i].name, sites[j].name);
    EXPECT_STREQ(ntr::check::fault::site_info(sites[i].site).name,
                 sites[i].name);
  }
}

#if defined(NTR_FAULT_INJECTION)

using ntr::check::fault::FaultSite;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { ntr::check::fault::reset(); }
  void TearDown() override { ntr::check::fault::reset(); }
};

/// Executes the healthy code path containing `site`'s NTR_FAULT_POINT and
/// returns the failure it observed (ok when nothing fired). The solver
/// sites throw their NtrError straight out; the serve/io sites sit behind
/// absorbing boundaries (StatusOr returns, latched decoder errors, error
/// response frames), so this normalizes every site to a Status.
Status drive_site(FaultSite site) {
  try {
    switch (site) {
      case FaultSite::kCholeskyNotSpd: {
        ntr::linalg::DenseMatrix a(2, 2);
        a(0, 0) = 2.0;
        a(1, 1) = 3.0;
        const ntr::linalg::CholeskyFactorization chol(a);
        break;
      }
      case FaultSite::kDcSingular: {
        ntr::spice::Circuit circuit;
        const auto n1 = circuit.add_node("n1");
        const auto n2 = circuit.add_node("n2");
        circuit.add_voltage_source("Vin", n1, ntr::spice::kGround, 1.0,
                                   ntr::spice::SourceWaveform::kStep);
        circuit.add_resistor("R1", n1, n2, 100.0);
        circuit.add_capacitor("C1", n2, ntr::spice::kGround, 1e-12);
        (void)ntr::sim::rc_steady_state(ntr::sim::reduce_deck(circuit));
        break;
      }
      case FaultSite::kTransientNonFinite:
      case FaultSite::kTransientDeadline: {
        const ntr::delay::TransientEvaluator evaluator(kTech);
        (void)evaluator.sink_delays(ntr::graph::mst_routing(square_net()));
        break;
      }
      case FaultSite::kLdrgAllocation:
      case FaultSite::kLdrgDeadline: {
        const ntr::delay::GraphElmoreEvaluator elmore(kTech);
        ntr::core::SolverConfig config;
        config.tech = kTech;
        (void)ntr::core::solve(square_net(), ntr::core::Strategy::kLdrg,
                               elmore, config);
        break;
      }
      case FaultSite::kServeQueuePush: {
        ntr::serve::FairQueue queue(4);
        ntr::serve::WorkItem item;
        item.request = std::make_shared<const ntr::serve::Request>();
        (void)queue.push(1, std::move(item));
        break;
      }
      case FaultSite::kServeJsonParse: {
        const auto doc = ntr::serve::Json::parse(R"({"op": "ping"})");
        if (!doc.ok()) return doc.status();
        break;
      }
      case FaultSite::kServeFrameDecode: {
        ntr::serve::FrameDecoder decoder;
        decoder.feed(ntr::serve::encode_frame("{}"));
        std::string payload;
        if (decoder.next(payload) == ntr::serve::FrameDecoder::Result::kError)
          return decoder.error();
        break;
      }
      case FaultSite::kServeWorkerDispatch: {
        auto request = std::make_shared<ntr::serve::Request>();
        request->nets = {"pin 0 0\npin 3000 0\npin 0 3000\n"};
        ntr::serve::WorkItem item;
        item.request = request;
        item.net_index = 0;
        const std::vector<ntr::serve::Response> frames =
            ntr::serve::execute_work_item(item, {}, {});
        if (!frames.empty() &&
            frames.front().status == ntr::serve::ResponseStatus::kInternal)
          return Status(StatusCode::kInternal, frames.front().error);
        break;
      }
      case FaultSite::kIoNetParse: {
        const auto net = ntr::io::try_read_net("pin 0 0\npin 3000 0\n");
        if (!net.ok()) return net.status();
        break;
      }
    }
  } catch (const NtrError& e) {
    return Status(e.code(), e.what());
  }
  return Status();
}

TEST_F(FaultInjectionTest, EveryRegisteredSiteFires) {
  for (const ntr::check::fault::SiteInfo& info : ntr::check::fault::sites()) {
    ntr::check::fault::reset();
    ntr::check::fault::arm(info.site, 1);
    const Status observed = drive_site(info.site);
    ASSERT_FALSE(observed.ok())
        << "armed site '" << info.name << "' did not fire";
    EXPECT_EQ(observed.code(), info.code) << info.name;
    EXPECT_NE(observed.message().find(info.name), std::string::npos)
        << info.name << ": " << observed.message();
    EXPECT_EQ(ntr::check::fault::fired_count(info.site), 1u) << info.name;
  }
}

TEST_F(FaultInjectionTest, UnarmedSitesStayQuiescent) {
  for (const ntr::check::fault::SiteInfo& info : ntr::check::fault::sites())
    EXPECT_TRUE(drive_site(info.site).ok()) << info.name;
}

TEST_F(FaultInjectionTest, OneShotDisarmsAfterFiring) {
  ntr::check::fault::arm(FaultSite::kCholeskyNotSpd, 1);
  EXPECT_FALSE(drive_site(FaultSite::kCholeskyNotSpd).ok());
  // Disarmed: the same path now completes.
  EXPECT_TRUE(drive_site(FaultSite::kCholeskyNotSpd).ok());
  EXPECT_EQ(ntr::check::fault::fired_count(FaultSite::kCholeskyNotSpd), 1u);
}

TEST_F(FaultInjectionTest, EnvironmentSpecArmsSites) {
  ASSERT_EQ(setenv("NTR_FAULT_SPEC", "cholesky-not-spd@1,bogus-site@2", 1), 0);
  EXPECT_EQ(ntr::check::fault::configure_from_environment(), 1u);
  ASSERT_EQ(unsetenv("NTR_FAULT_SPEC"), 0);
  EXPECT_FALSE(drive_site(FaultSite::kCholeskyNotSpd).ok());
}

TEST_F(FaultInjectionTest, LadderAbsorbsAnInjectedFault) {
  // The injected rung-0 failure is one-shot, so rung 1 runs clean and the
  // net ships degraded instead of dying.
  ntr::check::fault::arm(FaultSite::kLdrgAllocation, 1);
  const ntr::delay::GraphElmoreEvaluator elmore(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  const ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
      square_net(), ntr::core::Strategy::kLdrg, elmore, config);
  ASSERT_TRUE(guarded.solution.has_value());
  EXPECT_EQ(guarded.outcome.disposition, NetDisposition::kDegraded);
  EXPECT_EQ(guarded.outcome.status.code(), StatusCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, BatchAccountsForEveryNetUnderChaos) {
  // Four-net batch with a singular-matrix fault injected into the second
  // net's transient measurement: that net degrades, the rest stay ok, and
  // the batch reports all four. Its RC decks factor on the envelope
  // Cholesky, so the fault goes there.
  const ntr::delay::TransientEvaluator measure(kTech);
  ntr::core::SolverConfig config;
  config.tech = kTech;
  std::vector<ntr::graph::Net> nets;
  for (double offset : {0.0, 400.0, 800.0, 1200.0})
    nets.push_back(ntr::graph::Net{
        {{offset, 0}, {3000 + offset, 0}, {0, 3000 + offset}}});

  std::vector<ntr::core::NetOutcome> outcomes;
  bool armed = false;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (i == 1 && !armed) {
      ntr::check::fault::arm(FaultSite::kCholeskyNotSpd, 1);
      armed = true;
    }
    ntr::core::GuardedSolution guarded = ntr::core::solve_resilient(
        nets[i], ntr::core::Strategy::kLdrg, measure, config);
    guarded.outcome.net_index = i;
    ASSERT_TRUE(guarded.solution.has_value()) << "net " << i;
    outcomes.push_back(guarded.outcome);
  }

  ASSERT_EQ(outcomes.size(), nets.size());
  EXPECT_EQ(outcomes[0].disposition, NetDisposition::kOk);
  EXPECT_EQ(outcomes[1].disposition, NetDisposition::kDegraded);
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kSingular);
  EXPECT_EQ(outcomes[2].disposition, NetDisposition::kOk);
  EXPECT_EQ(outcomes[3].disposition, NetDisposition::kOk);
}

TEST_F(FaultInjectionTest, TransientRlcDeckFailsThroughCholesky) {
  // An RLC deck marches on the same envelope Cholesky factors as an RC
  // deck. Its DC form has one free node per graph node, so the site's
  // next hit is the first pivot of the march's own companion factor.
  const ntr::graph::RoutingGraph g = ntr::graph::mst_routing(square_net());
  ntr::spice::NetlistOptions with_inductance;
  with_inductance.include_inductance = true;
  const ntr::delay::TransientEvaluator rlc(kTech, with_inductance);
  ntr::check::fault::arm(FaultSite::kCholeskyNotSpd, g.node_count() + 1);
  try {
    (void)rlc.sink_delays(g);
    FAIL() << "the armed cholesky-not-spd site did not fire";
  } catch (const NtrError& e) {
    EXPECT_EQ(e.code(), StatusCode::kSingular);
    EXPECT_NE(std::string(e.what()).find("cholesky-not-spd"), std::string::npos) << e.what();
  }
  EXPECT_EQ(ntr::check::fault::fired_count(FaultSite::kCholeskyNotSpd), 1u);
}

TEST_F(FaultInjectionTest, FlowCompletesUnderChaos) {
  FlowFixture fx;
  ntr::check::fault::arm(FaultSite::kTransientNonFinite, 1);
  const ntr::delay::TransientEvaluator measure(kTech);
  const ntr::flow::FlowResult result =
      ntr::flow::run_timing_flow(fx.design, fx.nets, measure, flow_options());
  ASSERT_EQ(result.routings.size(), fx.nets.size());
  ASSERT_EQ(result.outcomes.size(), fx.nets.size());
  std::size_t non_ok = 0;
  for (std::size_t i = 0; i < fx.nets.size(); ++i) {
    EXPECT_TRUE(result.routings[i].is_connected()) << fx.nets[i].name;
    non_ok += result.outcomes[i].disposition != NetDisposition::kOk;
  }
  EXPECT_EQ(non_ok, 1u);  // exactly the net whose measurement was hit
}

#else  // !NTR_FAULT_INJECTION

TEST(FaultInjection, CompiledOutInThisBuild) {
  EXPECT_FALSE(ntr::check::fault::compiled_in());
}

#endif  // NTR_FAULT_INJECTION

}  // namespace
