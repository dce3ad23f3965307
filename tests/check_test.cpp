// Tests for the correctness-tooling layer: contract macros and their
// failure policies, the structural validators, and ntr_analyze's lint
// rules (both on inline snippets and on the seeded-violation fixture
// corpus in tests/analyze_fixtures/).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/lint.h"
#include "check/contracts.h"
#include "graph/validate.h"
#include "sim/validate.h"
#include "sta/validate.h"
#include "graph/routing_graph.h"
#include "sim/nodal.h"
#include "spice/netlist.h"
#include "sta/timing_graph.h"

namespace {

using ntr::analyze::LintDiagnostic;
using ntr::check::ContractViolation;
using ntr::check::Policy;
using ntr::check::ValidationReport;

/// Every test in this file runs under Policy::kThrow so a failed contract
/// is an observable exception instead of a process abort.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { ntr::check::set_policy(Policy::kThrow); }
  void TearDown() override { ntr::check::set_policy(ntr::check::policy_from_environment()); }
};

// ---------------------------------------------------------------- contracts

TEST_F(CheckTest, PassingContractsAreSilent) {
  EXPECT_NO_THROW(NTR_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(NTR_ASSERT(true));
  EXPECT_NO_THROW(NTR_DCHECK(true));
}

TEST_F(CheckTest, ThrowPolicyRaisesContractViolation) {
  EXPECT_THROW(NTR_CHECK(false), ContractViolation);
  EXPECT_THROW(NTR_ASSERT(false), ContractViolation);
}

TEST_F(CheckTest, DcheckIsActiveInThisTestBinary) {
  // The test target defines NTR_FORCE_DCHECKS, so NTR_DCHECK must fire
  // regardless of the build type's NDEBUG setting.
  EXPECT_THROW(NTR_DCHECK(false), ContractViolation);
}

TEST_F(CheckTest, DiagnosticNamesExpressionFileAndMessage) {
  try {
    NTR_CHECK_MSG(2 < 1, "two is not less than one");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not less than one"), std::string::npos) << what;
  }
}

TEST_F(CheckTest, LogPolicyContinues) {
  ntr::check::set_policy(Policy::kLog);
  EXPECT_NO_THROW(NTR_CHECK(false));  // prints to stderr and returns
}

TEST_F(CheckTest, PolicyParsesFromEnvironment) {
  ASSERT_EQ(setenv("NTR_CHECK_POLICY", "throw", 1), 0);
  EXPECT_EQ(ntr::check::policy_from_environment(), Policy::kThrow);
  ASSERT_EQ(setenv("NTR_CHECK_POLICY", "LOG", 1), 0);
  EXPECT_EQ(ntr::check::policy_from_environment(), Policy::kLog);
  ASSERT_EQ(setenv("NTR_CHECK_POLICY", "abort", 1), 0);
  EXPECT_EQ(ntr::check::policy_from_environment(), Policy::kAbort);
  ASSERT_EQ(setenv("NTR_CHECK_POLICY", "nonsense", 1), 0);
  EXPECT_EQ(ntr::check::policy_from_environment(), Policy::kAbort);
  ASSERT_EQ(unsetenv("NTR_CHECK_POLICY"), 0);
  EXPECT_EQ(ntr::check::policy_from_environment(), Policy::kAbort);
}

// ---------------------------------------------------------- graph validator

ntr::graph::Net square_net() {
  return ntr::graph::Net{{{0, 0}, {10, 0}, {0, 10}, {10, 10}}};
}

bool mentions(const ValidationReport& report, const std::string& needle) {
  for (const std::string& e : report.errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

TEST_F(CheckTest, MstRoutingValidates) {
  const auto g = ntr::graph::mst_routing(square_net());
  const ntr::graph::GraphValidateOptions strict{.require_source = true,
                                               .require_connected = true};
  EXPECT_TRUE(ntr::graph::validate_graph(g, strict).ok());
  EXPECT_NO_THROW(ntr::check::require(ntr::graph::validate_graph(g, strict), "mst"));
}

TEST_F(CheckTest, EdgelessGraphIsStructurallyValidButDisconnected) {
  const ntr::graph::RoutingGraph g(square_net());
  EXPECT_TRUE(ntr::graph::validate_graph(g).ok());
  const auto report =
      ntr::graph::validate_graph(g, {.require_connected = true});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "disconnected"));
  EXPECT_THROW(ntr::check::require(report, "edgeless"), ContractViolation);
}

TEST_F(CheckTest, CorruptedEdgeListsAreRejected) {
  using ntr::graph::GraphEdge;
  using ntr::graph::GraphNode;
  const std::vector<GraphNode> nodes = {
      {{0, 0}, ntr::graph::NodeKind::kSource},
      {{10, 0}, ntr::graph::NodeKind::kSink},
      {{0, 10}, ntr::graph::NodeKind::kSink},
  };

  const std::vector<GraphEdge> dangling = {{0, 7, 10.0, 1.0}};
  EXPECT_TRUE(mentions(ntr::graph::validate_graph(nodes, dangling), "dangling"));

  const std::vector<GraphEdge> self_loop = {{1, 1, 0.0, 1.0}};
  EXPECT_TRUE(mentions(ntr::graph::validate_graph(nodes, self_loop), "self-loop"));

  const std::vector<GraphEdge> parallel = {{0, 1, 10.0, 1.0}, {1, 0, 10.0, 1.0}};
  EXPECT_TRUE(mentions(ntr::graph::validate_graph(nodes, parallel), "parallel"));

  const std::vector<GraphEdge> wrong_length = {{0, 1, 25.0, 1.0}};
  EXPECT_TRUE(
      mentions(ntr::graph::validate_graph(nodes, wrong_length), "Manhattan"));

  const std::vector<GraphEdge> bad_width = {{0, 1, 10.0, -2.0}};
  EXPECT_TRUE(mentions(ntr::graph::validate_graph(nodes, bad_width), "width"));
}

TEST_F(CheckTest, AddedEdgeValidatesLocally) {
  const auto g = ntr::graph::mst_routing(square_net());
  for (ntr::graph::EdgeId e = 0; e < g.edge_count(); ++e)
    EXPECT_TRUE(ntr::graph::validate_added_edge(g, e).ok()) << "edge " << e;
  EXPECT_TRUE(mentions(ntr::graph::validate_added_edge(g, g.edge_count()), "out of range"));
}

TEST_F(CheckTest, SecondSourceNodeIsRejected) {
  const std::vector<ntr::graph::GraphNode> nodes = {
      {{0, 0}, ntr::graph::NodeKind::kSource},
      {{10, 0}, ntr::graph::NodeKind::kSource},
  };
  const std::vector<ntr::graph::GraphEdge> edges = {{0, 1, 10.0, 1.0}};
  const auto report =
      ntr::graph::validate_graph(nodes, edges, {.require_source = true});
  EXPECT_TRUE(mentions(report, "second source"));
  EXPECT_TRUE(ntr::graph::validate_graph(nodes, edges).ok());  // structural-only
}

// ---------------------------------------------------------- nodal validator

/// The nodal system of Vin -- R1 -- n2 -- L1 -- n3, with C2 and C3 to
/// ground: two free nodes coupled by the inductor.
ntr::sim::NodalSystem reduced_rlc_line() {
  ntr::spice::Circuit circuit;
  const auto n1 = circuit.add_node("n1");
  const auto n2 = circuit.add_node("n2");
  const auto n3 = circuit.add_node("n3");
  circuit.add_voltage_source("Vin", n1, ntr::spice::kGround, 1.0,
                             ntr::spice::SourceWaveform::kStep);
  circuit.add_resistor("R1", n1, n2, 100.0);
  circuit.add_inductor("L1", n2, n3, 1e-9);
  circuit.add_capacitor("C2", n2, ntr::spice::kGround, 1e-12);
  circuit.add_capacitor("C3", n3, ntr::spice::kGround, 1e-12);
  return ntr::sim::reduce_deck(circuit);
}

TEST_F(CheckTest, NonSymmetricStampIsRejected) {
  auto sys = reduced_rlc_line();
  ASSERT_EQ(sys.free_nodes(), 2u);
  ASSERT_TRUE(ntr::sim::validate_nodal_system(sys).ok());
  ASSERT_EQ(sys.c.col_idx()[1], 1u);  // row 0 stores (0,0), then (0,1)
  std::vector<double> c(sys.c.values().begin(), sys.c.values().end());
  c[1] += 0.5;  // corrupt one triangle only
  sys.c = sys.c.with_values(c);
  const auto report = ntr::sim::validate_nodal_system(sys);
  EXPECT_TRUE(mentions(report, "C is not finite and symmetric"));
  EXPECT_THROW(ntr::check::require(report, "corrupted stamp"), ContractViolation);
}

TEST_F(CheckTest, DimensionMismatchIsRejected) {
  auto sys = reduced_rlc_line();
  ASSERT_EQ(sys.inductors.size(), 1u);
  sys.inductors[0].b = sys.free_nodes() + sys.fixed_voltages.size();  // past the state
  EXPECT_TRUE(mentions(ntr::sim::validate_nodal_system(sys), "inductor 0"));
  sys = reduced_rlc_line();
  sys.slot_of_node.back() = sys.free_nodes() + sys.fixed_voltages.size();
  EXPECT_TRUE(mentions(ntr::sim::validate_nodal_system(sys), "node slots"));
}

TEST_F(CheckTest, NegativeNodeDiagonalIsRejected) {
  auto sys = reduced_rlc_line();
  std::vector<double> g(sys.g.values().begin(), sys.g.values().end());
  g[0] = -2.0;  // (0,0)
  sys.g = sys.g.with_values(g);
  EXPECT_TRUE(mentions(ntr::sim::validate_nodal_system(sys), "G diagonal"));
}

TEST_F(CheckTest, ReducedRcSystemValidatesAndRejectsAsymmetry) {
  ntr::spice::Circuit circuit;
  const auto n1 = circuit.add_node("n1");
  const auto n2 = circuit.add_node("n2");
  const auto n3 = circuit.add_node("n3");
  circuit.add_voltage_source("Vin", n1, ntr::spice::kGround, 1.0,
                             ntr::spice::SourceWaveform::kStep);
  circuit.add_resistor("R1", n1, n2, 100.0);
  circuit.add_resistor("R2", n2, n3, 100.0);
  circuit.add_capacitor("C2", n2, ntr::spice::kGround, 1e-12);
  circuit.add_capacitor("C3", n3, ntr::spice::kGround, 1e-12);
  auto rc = ntr::sim::reduce_deck(circuit);
  EXPECT_TRUE(ntr::sim::validate_nodal_system(rc).ok());

  ASSERT_EQ(rc.g.col_idx()[1], 1u);  // row 0 stores (0,0), then (0,1)
  std::vector<double> g(rc.g.values().begin(), rc.g.values().end());
  g[1] += 0.5;  // corrupt one triangle only
  rc.g = rc.g.with_values(g);
  EXPECT_TRUE(mentions(ntr::sim::validate_nodal_system(rc), "symmetric"));
  rc.b_final.pop_back();
  EXPECT_TRUE(mentions(ntr::sim::validate_nodal_system(rc), "b_final"));
}

// --------------------------------------------------------- timing validator

TEST_F(CheckTest, TimingGraphValidates) {
  ntr::sta::TimingGraph design;
  const auto in = design.add_net("in");
  const auto mid = design.add_net("mid");
  const auto out = design.add_net("out");
  design.add_gate("g1", 1e-9, {in}, mid);
  design.add_gate("g2", 2e-9, {mid}, out);
  design.set_interconnect_delay(mid, 1, 0.5e-9);
  EXPECT_TRUE(ntr::sta::validate_timing(design).ok());
}

TEST_F(CheckTest, TimingCycleIsDetected) {
  ntr::sta::TimingGraph design;
  const auto a = design.add_net("a");
  const auto b = design.add_net("b");
  design.add_gate("g1", 1e-9, {a}, b);
  design.add_gate("g2", 1e-9, {b}, a);
  const auto report = ntr::sta::validate_timing(design);
  EXPECT_TRUE(mentions(report, "cycle"));
  // Structure-only validation accepts it; analyze() owns cycle reporting.
  EXPECT_TRUE(
      ntr::sta::validate_timing(design, {.check_cycles = false}).ok());
}

// ------------------------------------------------------------ lint: engine

std::vector<std::string> rules_of(const std::vector<LintDiagnostic>& ds) {
  std::vector<std::string> rules;
  for (const LintDiagnostic& d : ds) rules.push_back(d.rule);
  return rules;
}

bool flags_rule(const std::vector<LintDiagnostic>& ds, const std::string& rule) {
  for (const LintDiagnostic& d : ds)
    if (d.rule == rule) return true;
  return false;
}

const std::vector<std::string> kLintRules = {
    "raw-assert",    "pragma-once",     "using-namespace-header",
    "unseeded-rng",  "cout-in-library", "untyped-throw",
    "raw-mutex-lock", "unchecked-narrowing"};

std::filesystem::path fixture_root() {
  return std::filesystem::path(NTR_TEST_SOURCE_DIR) / "analyze_fixtures";
}

/// An ntr_analyze run over the fixture corpus restricted to `rules`.
ntr::analyze::AnalyzeResult lint_fixture(const std::vector<std::string>& rules) {
  ntr::analyze::AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  options.only_rules = rules;
  return ntr::analyze::analyze(options);
}

TEST_F(CheckTest, LintFlagsRawAssert) {
  const auto ds = ntr::analyze::lint_source(
      "src/geom/foo.cpp", "void f(int x) { assert(x > 0); }\n");
  ASSERT_EQ(ds.size(), 1u) << ::testing::PrintToString(rules_of(ds));
  EXPECT_EQ(ds[0].rule, "raw-assert");
  EXPECT_EQ(ds[0].line, 1u);
  const auto inc =
      ntr::analyze::lint_source("src/geom/foo.cpp", "#include <cassert>\n");
  EXPECT_TRUE(flags_rule(inc, "raw-assert"));
}

TEST_F(CheckTest, LintIgnoresCommentsStringsAndGtestMacros) {
  EXPECT_TRUE(ntr::analyze::lint_source("tests/foo_test.cpp",
                                      "// assert(x) in a comment\n"
                                      "/* assert(y) in a block */\n"
                                      "const char* s = \"assert(z)\";\n"
                                      "ASSERT_EQ(1, 1);\n")
                  .empty());
}

TEST_F(CheckTest, LintFlagsHeaderHygiene) {
  const auto ds = ntr::analyze::lint_source("src/geom/foo.h",
                                          "using namespace std;\n"
                                          "inline int f() { return 1; }\n");
  EXPECT_TRUE(flags_rule(ds, "pragma-once"));
  EXPECT_TRUE(flags_rule(ds, "using-namespace-header"));
  EXPECT_TRUE(ntr::analyze::lint_source("src/geom/foo.h",
                                      "#pragma once\n"
                                      "inline int f() { return 1; }\n")
                  .empty());
  // `using namespace` is a header rule only.
  EXPECT_TRUE(
      ntr::analyze::lint_source("src/geom/foo.cpp", "using namespace std;\n")
          .empty());
}

TEST_F(CheckTest, LintFlagsUnseededRngOnlyInCoreAndRoute) {
  const std::string rand_use = "int r = rand() % 6;\n";
  EXPECT_TRUE(flags_rule(
      ntr::analyze::lint_source("src/core/foo.cpp", rand_use), "unseeded-rng"));
  EXPECT_TRUE(flags_rule(
      ntr::analyze::lint_source("src/route/foo.cpp", rand_use), "unseeded-rng"));
  EXPECT_TRUE(ntr::analyze::lint_source("src/delay/foo.cpp", rand_use).empty());

  EXPECT_TRUE(flags_rule(
      ntr::analyze::lint_source("src/core/foo.cpp", "std::mt19937 gen;\n"),
      "unseeded-rng"));
  EXPECT_TRUE(
      ntr::analyze::lint_source("src/core/foo.cpp", "std::mt19937 gen(seed);\n")
          .empty());
}

TEST_F(CheckTest, LintFlagsStdoutInLibraryCodeOnly) {
  const std::string print = "std::cout << delay;\n";
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/viz/foo.cpp", print),
                         "cout-in-library"));
  EXPECT_TRUE(ntr::analyze::lint_source("tools/foo.cpp", print).empty());
  // Formatting into buffers is fine; only bare printf is stdout.
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/spice/foo.cpp",
                  "std::snprintf(buf, sizeof(buf), \"%g\", v);\n")
                  .empty());
}

TEST_F(CheckTest, LintFlagsUntypedThrowOnHotPathsOnly) {
  const std::string bad = "throw std::runtime_error(\"singular\");\n";
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/core/foo.cpp", bad),
                         "untyped-throw"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/sim/foo.cpp", bad),
                         "untyped-throw"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/linalg/foo.cpp", bad),
                         "untyped-throw"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/flow/foo.cpp", bad),
                         "untyped-throw"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/runtime/foo.cpp", bad),
                         "untyped-throw"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/delay/foo.cpp", bad),
                         "untyped-throw"));
  // Cold paths (viz, tools) and typed throws are out of scope.
  EXPECT_TRUE(ntr::analyze::lint_source("src/viz/foo.cpp", bad).empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/sim/foo.cpp",
                  "throw runtime::NtrError(code, \"singular\");\n")
                  .empty());
  // Mentioning the type in a doc comment is fine.
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/sim/foo.h",
                  "#pragma once\n"
                  "/// Throws std::runtime_error on failure.\n")
                  .empty());
}

TEST_F(CheckTest, LintFlagsUncheckedNarrowingInServeOnly) {
  const std::string size_cast =
      "header = static_cast<std::uint32_t>(payload.size());\n";
  const std::string wire_cast = "code = static_cast<int>(v->as_number());\n";
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/serve/foo.cpp", size_cast),
                         "unchecked-narrowing"));
  EXPECT_TRUE(flags_rule(ntr::analyze::lint_source("src/serve/foo.cpp", wire_cast),
                         "unchecked-narrowing"));
  // Other layers are out of scope, as are widening casts and casts of
  // already-clamped named values.
  EXPECT_TRUE(ntr::analyze::lint_source("src/io/foo.cpp", size_cast).empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/serve/foo.cpp",
                  "n = static_cast<std::uint64_t>(payload.size());\n")
                  .empty());
  EXPECT_TRUE(ntr::analyze::lint_source("src/serve/foo.cpp",
                                      "code = static_cast<int>(clamped);\n")
                  .empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/serve/foo.cpp",
                  "n = static_cast<int>(x.size());  "
                  "// ntr-lint-allow(unchecked-narrowing)\n")
                  .empty());
}

TEST_F(CheckTest, LintNarrowingFixtureTwinsDisagree) {
  const ntr::analyze::AnalyzeResult result =
      lint_fixture({"unchecked-narrowing"});
  ASSERT_TRUE(result.error.empty()) << result.error;
  std::size_t bad = 0;
  for (const LintDiagnostic& d : result.findings) {
    EXPECT_NE(d.file, "src/serve/ok_narrowing.cpp") << d.line;
    bad += d.file == "src/serve/bad_narrowing.cpp";
  }
  EXPECT_EQ(bad, 2u);
}

TEST_F(CheckTest, LintFlagsRawMutexLockInLibraryCodeOnly) {
  EXPECT_TRUE(flags_rule(
      ntr::analyze::lint_source("src/serve/foo.cpp", "mu.lock();\n"),
      "raw-mutex-lock"));
  EXPECT_TRUE(flags_rule(
      ntr::analyze::lint_source("src/core/foo.cpp", "impl_->mutex.unlock();\n"),
      "raw-mutex-lock"));
  // Outside src/ the rule is silent; so are RAII declarations named
  // `lock`, try_lock probes, and suppressed lines.
  EXPECT_TRUE(ntr::analyze::lint_source("tools/foo.cpp", "mu.lock();\n").empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/serve/foo.cpp",
                  "std::lock_guard<std::mutex> lock(mu);\n")
                  .empty());
  EXPECT_TRUE(ntr::analyze::lint_source("src/serve/foo.cpp",
                                      "if (mu.try_lock()) return;\n")
                  .empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/serve/foo.cpp",
                  "mu.lock();  // ntr-lint-allow(raw-mutex-lock)\n")
                  .empty());
}

TEST_F(CheckTest, LintSuppressionComments) {
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/core/foo.cpp",
                  "int r = rand();  // ntr-lint-allow(unseeded-rng)\n")
                  .empty());
  EXPECT_TRUE(ntr::analyze::lint_source(
                  "src/core/foo.cpp",
                  "// ntr-lint-allow-file(unseeded-rng)\n"
                  "int r = rand();\n"
                  "int s = rand();\n")
                  .empty());
}

TEST_F(CheckTest, LintFormatIsClickable) {
  const LintDiagnostic d{"src/core/foo.cpp", 12, "unseeded-rng", "msg"};
  EXPECT_EQ(ntr::analyze::format(d), "src/core/foo.cpp:12: [unseeded-rng] msg");
}

// ---------------------------------------------------- lint: fixture corpus

TEST_F(CheckTest, LintDetectsEverySeededFixtureViolation) {
  const ntr::analyze::AnalyzeResult result = lint_fixture(kLintRules);
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const std::string& rule : kLintRules) {
    EXPECT_TRUE(flags_rule(result.findings, rule))
        << "fixture corpus missing rule " << rule;
  }
}

TEST_F(CheckTest, LintPassesOnTheRealSources) {
  const std::filesystem::path root =
      std::filesystem::path(NTR_TEST_SOURCE_DIR).parent_path();
  ntr::analyze::AnalyzeOptions options;
  options.root = root;
  options.paths = {root / "src", root / "tools", root / "tests"};
  options.only_rules = kLintRules;
  const ntr::analyze::AnalyzeResult result = ntr::analyze::analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const LintDiagnostic& d : result.findings)
    ADD_FAILURE() << ntr::analyze::format(d);
}

}  // namespace
