#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/callgraph.h"
#include "analyze/cpp_lexer.h"
#include "analyze/include_graph.h"
#include "analyze/layering.h"
#include "analyze/source_model.h"

namespace ntr::analyze {
namespace {

std::filesystem::path fixture_root() {
  return std::filesystem::path(NTR_TEST_SOURCE_DIR) / "analyze_fixtures";
}

std::filesystem::path repo_root() {
  return std::filesystem::path(NTR_TEST_SOURCE_DIR).parent_path();
}

AnalyzeResult analyze_fixture() {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  return analyze(options);
}

std::vector<std::string> finding_keys(const AnalyzeResult& result) {
  std::vector<std::string> keys;
  for (const LintDiagnostic& d : result.findings)
    keys.push_back(d.file + ":" + std::to_string(d.line) + ":" + d.rule);
  return keys;
}

// ------------------------------------------------------------------ golden

TEST(AnalyzeFixtures, DetectsEverySeededViolation) {
  const AnalyzeResult result = analyze_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;

  const std::vector<std::string> expected = {
      "src/app/transitive.cpp:9:transitive-include",
      "src/app/unused.cpp:1:unused-include",
      "src/core/bad_raw_lock.cpp:12:raw-mutex-lock",
      "src/core/bad_raw_lock.cpp:14:raw-mutex-lock",
      "src/core/bad_raw_lock.cpp:20:raw-mutex-lock",
      "src/core/bad_raw_lock.cpp:21:raw-mutex-lock",
      "src/core/bad_rng.cpp:6:unseeded-rng",
      "src/core/bad_rng.cpp:7:unseeded-rng",
      "src/delay/bad_throw.cpp:5:untyped-throw",
      "src/engine/capture_bad.cpp:13:escaping-ref-capture",
      "src/engine/cycle_a.h:3:include-cycle",
      "src/engine/global_bad.cpp:7:global-mutable-state",
      "src/engine/global_bad.cpp:10:global-mutable-state",
      "src/engine/iter_bad.cpp:10:nondeterministic-iteration",
      "src/engine/lane_bad.cpp:10:blocking-in-lane",
      "src/engine/lane_bad.cpp:10:cout-in-library",
      "src/engine/lane_bad.cpp:16:blocking-in-lane",
      "src/engine/lane_bad.cpp:17:blocking-in-lane",
      "src/engine/lane_bad.cpp:17:raw-mutex-lock",
      "src/engine/lane_bad.cpp:19:raw-mutex-lock",
      "src/engine/lockchain_a.cpp:11:lock-order-inversion",
      "src/engine/lockchain_b.cpp:11:lock-order-inversion",
      "src/engine/locks_block_bad.cpp:13:blocking-under-lock",
      "src/engine/locks_block_bad.cpp:14:blocking-under-lock",
      "src/engine/locks_block_bad.cpp:24:blocking-under-lock",
      "src/engine/locks_callee_bad.cpp:20:lock-order-inversion",
      "src/engine/locks_callee_bad.cpp:25:lock-order-inversion",
      "src/engine/locks_guard_bad.cpp:23:unguarded-member-access",
      "src/engine/locks_order_bad.cpp:13:lock-order-inversion",
      "src/engine/locks_order_bad.cpp:19:lock-order-inversion",
      "src/engine/parallel_bad.cpp:13:parallel-missing-poll",
      "src/engine/parallel_bad.cpp:14:parallel-shared-write",
      "src/engine/status_bad.cpp:14:unchecked-status",
      "src/engine/status_bad.cpp:15:unchecked-status",
      "src/engine/status_bad.cpp:26:unchecked-status",
      "src/engine/taint_callee_bad.cpp:21:wire-taint",
      "src/engine/taint_chain_a.cpp:15:wire-taint",
      "src/engine/taint_direct_bad.cpp:17:wire-taint",
      "src/engine/taint_from_chars_bad.cpp:16:wire-taint",
      "src/rogue/rogue.h:1:unknown-module",
      "src/runtime/bad_throw.cpp:6:untyped-throw",
      "src/serve/bad_narrowing.cpp:12:unchecked-narrowing",
      "src/serve/bad_narrowing.cpp:16:unchecked-narrowing",
      "src/sim/bad_throw.cpp:5:untyped-throw",
      "src/util/bad_assert.cpp:2:raw-assert",
      "src/util/bad_assert.cpp:5:raw-assert",
      "src/util/bad_header.h:1:pragma-once",
      "src/util/bad_header.h:5:using-namespace-header",
      "src/util/uplink.h:3:layering",
      "src/viz/bad_print.cpp:4:cout-in-library",
  };
  EXPECT_EQ(finding_keys(result), expected);
}

TEST(AnalyzeFixtures, SuppressedLayeringViolationIsNotReported) {
  const AnalyzeResult result = analyze_fixture();
  for (const LintDiagnostic& d : result.findings)
    EXPECT_NE(d.file, "src/util/allowed_uplink.h") << d.rule << ": " << d.message;
}

TEST(AnalyzeFixtures, SemanticNegativesProduceNoFindings) {
  // The *_ok.cpp twins exercise every sanctioned remedy for the semantic
  // rules: tested / (void)-discarded / suppressed Status results,
  // justified / ordered / sorted unordered-loops, and by-value or
  // scope-local or suppressed captures.
  const AnalyzeResult result = analyze_fixture();
  for (const LintDiagnostic& d : result.findings) {
    EXPECT_NE(d.file, "src/engine/status_ok.cpp") << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/iter_ok.cpp") << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/capture_ok.cpp") << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/global_ok.cpp") << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/lane_ok.cpp") << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/locks_order_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/locks_block_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/locks_guard_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/locks_suppressed_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/taint_sanitized_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/taint_from_chars_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/engine/taint_suppressed_ok.cpp")
        << d.rule << ": " << d.message;
    EXPECT_NE(d.file, "src/serve/ok_narrowing.cpp")
        << d.rule << ": " << d.message;
    // The sink half of the two-hop chain never observes a source itself,
    // so both of its functions must stay clean: the finding belongs to
    // the entry call site in taint_chain_a.cpp.
    EXPECT_NE(d.file, "src/engine/taint_chain_b.cpp")
        << d.rule << ": " << d.message;
  }
}

// ------------------------------------------------------------------- taint

TEST(AnalyzeFixtures, TaintWitnessSpellsOutTheInterproceduralChain) {
  const AnalyzeResult result = analyze_fixture();
  std::string direct, one_hop, two_hop;
  for (const LintDiagnostic& d : result.findings) {
    if (d.rule != "wire-taint") continue;
    if (d.file == "src/engine/taint_direct_bad.cpp") direct = d.message;
    if (d.file == "src/engine/taint_callee_bad.cpp") one_hop = d.message;
    if (d.file == "src/engine/taint_chain_a.cpp") two_hop = d.message;
  }
  // Direct: source, sink kind, and owning function, plus every remedy.
  EXPECT_NE(direct.find("value from recv()"), std::string::npos) << direct;
  EXPECT_NE(direct.find("allocation size ('.resize')"), std::string::npos);
  EXPECT_NE(direct.find("'fix::engine::direct_sink'"), std::string::npos);
  EXPECT_NE(direct.find("NTR_VALIDATED"), std::string::npos);
  EXPECT_NE(direct.find("ntr-wire-taint(<why>)"), std::string::npos);
  // One hop: the callee is named, and the witness lands on the sink line.
  EXPECT_NE(one_hop.find("passed to 'fix::engine::grow_pool'"),
            std::string::npos)
      << one_hop;
  EXPECT_NE(one_hop.find("sinks it into allocation size ('.reserve') at "
                         "src/engine/taint_callee_bad.cpp:14"),
            std::string::npos);
  // Two hops across files: both intermediate functions appear, in order.
  const std::size_t admit =
      two_hop.find("passed to 'fix::engine::chain_admit'");
  const std::size_t store =
      two_hop.find("forwards it to 'fix::engine::chain_store'");
  const std::size_t sink = two_hop.find(
      "sinks it into allocation size ('.resize') at "
      "src/engine/taint_chain_b.cpp:11");
  EXPECT_NE(admit, std::string::npos) << two_hop;
  EXPECT_NE(store, std::string::npos) << two_hop;
  EXPECT_NE(sink, std::string::npos) << two_hop;
  EXPECT_LT(admit, store);
  EXPECT_LT(store, sink);
}

TEST(AnalyzeFixtures, TaintGraphRendersSourcesSinksAndHotFlows) {
  const AnalyzeResult result = analyze_fixture();
  const std::string dot = taint_graph_dot(result.taintgraph);
  EXPECT_NE(dot.find("digraph taintgraph"), std::string::npos);
  EXPECT_NE(dot.find("\"source:recv()\""), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);   // sources
  EXPECT_NE(dot.find("shape=octagon"), std::string::npos);   // sinks
  EXPECT_NE(dot.find("color=red"), std::string::npos);       // hot flows
  // The confirmed two-hop flow is a red path through both hops.
  EXPECT_NE(dot.find("\"fn:fix::engine::chain_admit\" -> "
                     "\"fn:fix::engine::chain_store\""),
            std::string::npos);
}

TEST(AnalyzeFixtures, TaintGraphDotIsDeterministic) {
  // The checked-in docs/taintgraph.dot is diffed in CI; two runs over
  // identical input must render byte-identical DOT.
  const std::string first = taint_graph_dot(analyze_fixture().taintgraph);
  const std::string second = taint_graph_dot(analyze_fixture().taintgraph);
  EXPECT_EQ(first, second);
}

// The checked-in figures label an edge with its witness's file, not its
// line: three comment lines inserted atop every source move the findings
// down but leave both figures byte-identical.
TEST(AnalyzeFixtures, FiguresIgnoreLinesInsertedAboveTheirWitnesses) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("ntr_analyze_shifted_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::copy(fixture_root(), root, std::filesystem::copy_options::recursive);
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root / "src")) {
    if (entry.path().extension() != ".cpp") continue;
    std::ifstream in(entry.path());
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    in.close();
    std::ofstream(entry.path()) << "// one\n// two\n// three\n" << text;
  }
  AnalyzeOptions options;
  options.root = root;
  options.layer_config_path = root / "layering.conf";
  options.paths = {root / "src"};
  const AnalyzeResult shifted = analyze(options);
  const AnalyzeResult original = analyze_fixture();
  ASSERT_TRUE(shifted.error.empty()) << shifted.error;
  EXPECT_NE(finding_keys(shifted), finding_keys(original));
  EXPECT_EQ(taint_graph_dot(shifted.taintgraph), taint_graph_dot(original.taintgraph));
  EXPECT_EQ(lock_graph_dot(shifted.lockgraph), lock_graph_dot(original.lockgraph));
  std::filesystem::remove_all(root);
}

TEST(AnalyzeFixtures, ReentrancyMessagesNameWitnesses) {
  const AnalyzeResult result = analyze_fixture();
  const auto with_rule = [&](std::string_view rule) -> std::string {
    for (const LintDiagnostic& d : result.findings)
      if (d.rule == rule) return d.message;
    return {};
  };
  // global-mutable-state names the referencing function and the entry.
  EXPECT_NE(with_rule("global-mutable-state").find("'fix::engine::bump_tally'"),
            std::string::npos);
  EXPECT_NE(with_rule("global-mutable-state")
                .find("entry point 'fix::engine::run_timing_flow'"),
            std::string::npos);
  // blocking-in-lane names the lane (file:line of the lambda).
  EXPECT_NE(with_rule("blocking-in-lane").find("src/engine/lane_bad.cpp:15"),
            std::string::npos);
}

// ---------------------------------------------------------- rule filters

TEST(AnalyzeFixtures, OnlyFilterRestrictsFindingsToNamedRules) {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  options.only_rules = {"global-mutable-state", "blocking-in-lane"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::vector<std::string> expected = {
      "src/engine/global_bad.cpp:7:global-mutable-state",
      "src/engine/global_bad.cpp:10:global-mutable-state",
      "src/engine/lane_bad.cpp:10:blocking-in-lane",
      "src/engine/lane_bad.cpp:16:blocking-in-lane",
      "src/engine/lane_bad.cpp:17:blocking-in-lane",
  };
  EXPECT_EQ(finding_keys(result), expected);
}

TEST(AnalyzeFixtures, UnknownOnlyRuleIsAFatalError) {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  options.only_rules = {"no-such-rule"};
  const AnalyzeResult result = analyze(options);
  EXPECT_FALSE(result.error.empty());
  EXPECT_NE(result.error.find("no-such-rule"), std::string::npos);
}

TEST(AnalyzeFixtures, EntryFilterRedirectsGlobalStateReachability) {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  options.only_rules = {"global-mutable-state"};
  // From a lane entry that never touches a global, the pass is silent...
  options.entries = {"run_lanes_clean"};
  EXPECT_TRUE(analyze(options).findings.empty());
  // ...while entering at the mutating helper directly still reports both
  // the global and the function-local static.
  options.entries = {"bump_tally"};
  EXPECT_EQ(analyze(options).findings.size(), 2u);
}

TEST(Analyze, ReportsWallTime) {
  const AnalyzeResult result = analyze_fixture();
  EXPECT_GT(result.wall_ms, 0.0);
}

TEST(AnalyzeFixtures, FindingsAreSortedAndDeduplicated) {
  // The report contract every consumer (baseline ratchet, CI diffing,
  // golden tests) leans on: (file, line, rule, message) order, no exact
  // duplicates.
  const AnalyzeResult result = analyze_fixture();
  const auto key = [](const LintDiagnostic& d) {
    return std::tie(d.file, d.line, d.rule, d.message);
  };
  for (std::size_t i = 1; i < result.findings.size(); ++i)
    EXPECT_TRUE(key(result.findings[i - 1]) < key(result.findings[i]))
        << result.findings[i - 1].file << ":" << result.findings[i - 1].line
        << " vs " << result.findings[i].file << ":" << result.findings[i].line;
}

TEST(AnalyzeFixtures, MessagesNameTheStructure) {
  const AnalyzeResult result = analyze_fixture();
  const auto with_rule = [&](std::string_view rule) -> std::string {
    for (const LintDiagnostic& d : result.findings)
      if (d.rule == rule) return d.message;
    return {};
  };
  EXPECT_NE(with_rule("layering").find("layer 'mid'"), std::string::npos);
  EXPECT_NE(with_rule("include-cycle")
                .find("src/engine/cycle_a.h -> src/engine/cycle_b.h -> "
                      "src/engine/cycle_a.h"),
            std::string::npos);
  EXPECT_NE(with_rule("transitive-include").find("src/util/strings.h"),
            std::string::npos);
  EXPECT_NE(with_rule("unused-include").find("util/strings.h"),
            std::string::npos);
  EXPECT_NE(with_rule("unchecked-status").find("'try_commit'"),
            std::string::npos);
  EXPECT_NE(with_rule("nondeterministic-iteration").find("'weights'"),
            std::string::npos);
  EXPECT_NE(with_rule("nondeterministic-iteration").find("ntr-determinism("),
            std::string::npos);
  EXPECT_NE(with_rule("escaping-ref-capture").find("[&counter]"),
            std::string::npos);
  EXPECT_NE(with_rule("escaping-ref-capture").find("'submit'"),
            std::string::npos);
}

// ------------------------------------------------------------- lock rules

TEST(AnalyzeFixtures, LockMessagesNameBothSidesOfTheInversion) {
  const AnalyzeResult result = analyze_fixture();
  const auto with_rule = [&](std::string_view rule) -> std::string {
    for (const LintDiagnostic& d : result.findings)
      if (d.rule == rule) return d.message;
    return {};
  };
  // The first inversion finding (lockchain_a) names both mutexes by
  // their scoped declaration and the reversed witness in the other file.
  EXPECT_NE(with_rule("lock-order-inversion").find("'fix::engine::Chain::back'"),
            std::string::npos);
  EXPECT_NE(with_rule("lock-order-inversion")
                .find("src/engine/lockchain_b.cpp:11"),
            std::string::npos);
  EXPECT_NE(with_rule("blocking-under-lock").find("'fix::engine::io_mu'"),
            std::string::npos);
  EXPECT_NE(with_rule("unguarded-member-access")
                .find("NTR_GUARDED_BY('fix::engine::Tally::tally_mu_')"),
            std::string::npos);
}

TEST(AnalyzeFixtures, LockGraphRecordsEdgesAndMarksCycles) {
  const AnalyzeResult result = analyze_fixture();
  const LockGraph& lg = result.lockgraph;
  // Mutexes are sorted and deduplicated; the justified startup edge is
  // dropped, so boot_mu_* contribute nodes but no cycle.
  EXPECT_TRUE(std::is_sorted(lg.mutexes.begin(), lg.mutexes.end()));
  bool found_cycle_edge = false, found_safe_edge = false;
  for (const LockOrderEdge& e : lg.edges) {
    if (e.from == "fix::engine::Chain::front" &&
        e.to == "fix::engine::Chain::back") {
      EXPECT_TRUE(e.in_cycle);
      EXPECT_EQ(e.witness_file, "src/engine/lockchain_a.cpp");
      found_cycle_edge = true;
    }
    if (e.from == "fix::engine::safe_mu_c" &&
        e.to == "fix::engine::safe_mu_d") {
      EXPECT_FALSE(e.in_cycle);
      found_safe_edge = true;
    }
    // scoped_lock's deadlock-avoiding acquisition orders nothing.
    EXPECT_FALSE(e.from == "fix::engine::safe_mu_d" &&
                 e.to == "fix::engine::safe_mu_c")
        << "scoped_lock group must not produce ordering edges";
    EXPECT_FALSE(e.from == "fix::engine::boot_mu_second")
        << "justified inversion edge must be dropped";
  }
  EXPECT_TRUE(found_cycle_edge);
  EXPECT_TRUE(found_safe_edge);

  const std::string dot = lock_graph_dot(lg);
  EXPECT_NE(dot.find("digraph lockgraph"), std::string::npos);
  EXPECT_NE(dot.find("\"fix::engine::Chain::front\" -> "
                     "\"fix::engine::Chain::back\""),
            std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // the cycle edges
}

TEST(AnalyzeRepo, LockGraphDotIsDeterministic) {
  // The checked-in docs/lockgraph.dot is regenerated in CI; two
  // independent runs over the real tree must render byte-identically.
  AnalyzeOptions options;
  options.root = repo_root();
  options.paths = {repo_root() / "src"};
  const std::string first = lock_graph_dot(analyze(options).lockgraph);
  const std::string second = lock_graph_dot(analyze(options).lockgraph);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("digraph lockgraph"), std::string::npos);
  // The serving stack's real, deliberately acyclic lock order.
  EXPECT_NE(first.find("\"ntr::serve::Impl::watchdog_mutex\" -> "
                       "\"ntr::serve::Impl::lanes_mutex\""),
            std::string::npos);
  EXPECT_EQ(first.find("color=red"), std::string::npos)
      << "the real tree must stay inversion-free";
}

// ------------------------------------------------------------------ SARIF

TEST(AnalyzeFixtures, SarifReportListsRulesAndResults) {
  const AnalyzeResult result = analyze_fixture();
  const std::string sarif = sarif_report(result);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"ntr_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"wire-taint\"}"), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"lock-order-inversion\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unguarded-member-access\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/engine/locks_guard_bad.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 23"), std::string::npos);
  // One result per finding, every one at level error.
  std::size_t results = 0;
  for (std::size_t at = 0;
       (at = sarif.find("\"ruleId\"", at)) != std::string::npos; ++at)
    ++results;
  EXPECT_EQ(results, result.findings.size());
}

TEST(AnalyzeFixtures, SarifEscapesMessageStrings) {
  // Both reports share one escape: quotes, backslashes, the named control
  // characters, and \u00XX for the rest.
  AnalyzeResult result;
  result.findings.push_back(LintDiagnostic{
      "src/a.cpp", 0, "demo",
      "quote \" backslash \\ newline \n tab \t return \r bell \a"});
  const std::string escaped =
      "quote \\\" backslash \\\\ newline \\n tab \\t return \\r bell \\u0007";
  const std::string sarif = sarif_report(result);
  EXPECT_NE(sarif.find(escaped), std::string::npos) << sarif;
  // line 0 is clamped to 1 for the SARIF region.
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  const std::string json = json_report(result);
  EXPECT_NE(json.find(escaped), std::string::npos) << json;
  EXPECT_NE(json.find("{\"file\": \"src/a.cpp\", \"line\": 0, \"rule\": \"demo\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"files\": 0,"), std::string::npos) << json;
}

// ------------------------------------------------------------- call graph

TEST(CallGraphFixture, ResolvesInternalCallsExactly) {
  AnalyzeOptions options;
  options.root = fixture_root() / "callgraph";
  options.layer_config_path = fixture_root() / "callgraph" / "layering.conf";
  options.paths = {fixture_root() / "callgraph" / "src"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const CallGraph& graph = result.callgraph;

  // Exact edge set over qualified names. Declaration and definition nodes
  // share a qualified name, so the set is definition-level.
  std::set<std::string> edges;
  std::size_t internal = 0, resolved = 0, external = 0;
  for (const CallSite& site : graph.sites) {
    if (site.caller < 0) continue;
    const std::string& from =
        graph.nodes[static_cast<std::size_t>(site.caller)].qualified;
    if (!from.starts_with("mini::")) continue;
    internal += site.internal;
    resolved += site.resolved;
    external += !site.internal;
    for (const int t : site.targets)
      edges.insert(from + " -> " +
                   graph.nodes[static_cast<std::size_t>(t)].qualified);
  }
  const std::set<std::string> expected = {
      // unqualified sibling call inside a member function
      "mini::alpha::Scaler::twice -> mini::alpha::Scaler::apply",
      // member calls through the coarse-typed local `alpha::Scaler s`
      "mini::beta::drive -> mini::alpha::Scaler::apply",
      "mini::beta::drive -> mini::alpha::Scaler::twice",
      // namespace-qualified free call
      "mini::beta::drive -> mini::alpha::normalize",
  };
  EXPECT_EQ(edges, expected);

  // `std::abs` is the one external site; every internal site resolves.
  EXPECT_EQ(external, 1u);
  EXPECT_EQ(internal, 5u);  // twice -> apply (x2), s.apply, s.twice, normalize
  EXPECT_GE(static_cast<double>(resolved),
            0.95 * static_cast<double>(internal));
}

TEST(CallGraphFixture, DotExportRendersDefinitionsAndEdges) {
  AnalyzeOptions options;
  options.root = fixture_root() / "callgraph";
  options.layer_config_path = fixture_root() / "callgraph" / "layering.conf";
  options.paths = {fixture_root() / "callgraph" / "src"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;

  const std::string dot = call_graph_dot(result.callgraph, result.project);
  EXPECT_NE(dot.find("digraph ntr_callgraph"), std::string::npos);
  EXPECT_NE(dot.find("mini::beta::drive"), std::string::npos);
  EXPECT_NE(dot.find("mini::alpha::Scaler::apply"), std::string::npos);
}

TEST(CallGraphRepo, RealTreeResolvesMostInternalCalls) {
  AnalyzeOptions options;
  options.root = repo_root();
  options.paths = {repo_root() / "src"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const CallGraph& graph = result.callgraph;
  ASSERT_GT(graph.internal_sites, 100u);
  // The fixture above proves each resolution path is exact; on the real
  // tree the graph stays deliberately may-call (member calls with an
  // unknown receiver type keep every same-name method), so the narrowed
  // fraction is a coarser floor. Raising it means better narrowing, not
  // a looser test.
  EXPECT_GE(static_cast<double>(graph.resolved_sites),
            0.6 * static_cast<double>(graph.internal_sites));
}

// ------------------------------------------------------------- real repo

TEST(AnalyzeRepo, RealTreeIsStructurallyClean) {
  AnalyzeOptions options;
  options.root = repo_root();
  options.paths = {repo_root() / "src", repo_root() / "tools",
                   repo_root() / "tests"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const LintDiagnostic& d : result.findings)
    ADD_FAILURE() << format(d);
  EXPECT_GT(result.project.files.size(), 100u);
}

TEST(AnalyzeRepo, ModuleEdgesAreAllLegal) {
  AnalyzeOptions options;
  options.root = repo_root();
  options.paths = {repo_root() / "src"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::vector<ModuleEdge> edges = module_edges(result.project, result.config);
  EXPECT_FALSE(edges.empty());
  for (const ModuleEdge& e : edges)
    EXPECT_TRUE(e.legal) << e.from << " -> " << e.to << " via "
                         << e.witness_file << ":" << e.witness_line;
}

// ------------------------------------------------------------ layer config

TEST(LayerConfig, ParsesLayersLowestFirst) {
  std::string error;
  const LayerConfig config = parse_layer_config(
      "# comment\nlayer base: util\nlayer app: ui cli\n", error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(config.layers.size(), 2u);
  EXPECT_EQ(config.layer_of("util"), 0);
  EXPECT_EQ(config.layer_of("cli"), 1);
  EXPECT_EQ(config.layer_of("unknown"), -1);
  EXPECT_TRUE(config.allows("ui", "util"));    // downward
  EXPECT_TRUE(config.allows("ui", "cli"));     // same layer
  EXPECT_FALSE(config.allows("util", "ui"));   // upward
}

TEST(LayerConfig, RejectsMalformedInput) {
  std::string error;
  (void)parse_layer_config("layer base util\n", error);  // missing ':'
  EXPECT_FALSE(error.empty());
  error.clear();
  (void)parse_layer_config("layer a: x\nlayer b: x\n", error);  // duplicate
  EXPECT_FALSE(error.empty());
  error.clear();
  (void)parse_layer_config("layer empty:\n", error);  // no modules
  EXPECT_FALSE(error.empty());
}

TEST(LayerConfig, UnreadableFileSetsError) {
  std::string error;
  (void)load_layer_config("/nonexistent/layering.conf", error);
  EXPECT_FALSE(error.empty());
}

TEST(Analyze, MissingLayerConfigIsAFatalError) {
  AnalyzeOptions options;
  options.root = "/nonexistent";
  const AnalyzeResult result = analyze(options);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.findings.empty());
}

TEST(Analyze, UnreadableSourceIsAFatalErrorButHiddenFilesAreSkipped) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("ntr_analyze_unreadable_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root / "src" / "app");
  std::ofstream(root / "layering.conf") << "layer app: app\n";
  std::ofstream(root / "src" / "app" / "ok.cpp") << "int f() { return 1; }\n";
  AnalyzeOptions options;
  options.root = root;
  options.layer_config_path = root / "layering.conf";
  options.paths = {root / "src"};

  // An editor lock file (Emacs's `.#name`) is a dangling symlink behind a
  // hidden name: skipped, like hidden directories.
  std::filesystem::create_symlink(root / "gone.cpp",
                                  root / "src" / "app" / ".#ok.cpp");
  const AnalyzeResult skipped = analyze(options);
  EXPECT_TRUE(skipped.error.empty()) << skipped.error;
  EXPECT_EQ(skipped.project.files.size(), 1u);

  // A visible source that cannot be read must not pass as clean.
  std::filesystem::create_symlink(root / "gone.cpp",
                                  root / "src" / "app" / "x.cpp");
  const AnalyzeResult unreadable = analyze(options);
  EXPECT_NE(unreadable.error.find("src/app/x.cpp"), std::string::npos)
      << unreadable.error;
  EXPECT_TRUE(unreadable.findings.empty());
  std::filesystem::remove_all(root);
}

// ----------------------------------------------------------------- graphs

TEST(ModuleGraphDot, RendersLayersAndMarksIllegalEdges) {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  const AnalyzeResult result = analyze(options);
  ASSERT_TRUE(result.error.empty()) << result.error;

  const std::string dot = module_graph_dot(result.project, result.config);
  EXPECT_NE(dot.find("digraph ntr_modules"), std::string::npos);
  EXPECT_NE(dot.find("label=\"base\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"(undeclared)\""), std::string::npos);  // rogue
  // The legal engine -> util edge is plain; the seeded util -> engine
  // uplink is drawn red/dashed so a stale figure cannot hide it.
  EXPECT_NE(dot.find("\"engine\" -> \"util\";"), std::string::npos);
  EXPECT_NE(dot.find("\"util\" -> \"engine\" [color=red"), std::string::npos);
}

// --------------------------------------------------------- source model

TEST(SourceModel, ResolvesIncludesAgainstSrcRoot) {
  AnalyzeOptions options;
  options.root = fixture_root();
  options.layer_config_path = fixture_root() / "layering.conf";
  options.paths = {fixture_root() / "src"};
  const AnalyzeResult result = analyze(options);
  const SourceFile* engine = result.project.find("src/engine/engine.h");
  ASSERT_NE(engine, nullptr);
  ASSERT_EQ(engine->resolved_includes.size(), 1u);
  const int target = engine->resolved_includes[0];
  ASSERT_GE(target, 0);
  EXPECT_EQ(result.project.files[static_cast<std::size_t>(target)].path,
            "src/util/strings.h");
  EXPECT_EQ(engine->module_name, "engine");
  EXPECT_TRUE(engine->is_header);
}

TEST(SourceModel, ModuleOfFollowsRepoConventions) {
  EXPECT_EQ(module_of("src/graph/net.h"), "graph");
  EXPECT_EQ(module_of("src/ntr.h"), "ntr");
  EXPECT_EQ(module_of("tools/ntr_analyze.cpp"), "tools");
  EXPECT_EQ(module_of("tests/analyze_test.cpp"), "tests");
}

// ------------------------------------------------------------------ lexer

TEST(CppLexer, TracksIncludesThroughCommentsAndStrings) {
  const LexedSource lexed = lex_source(
      "// #include \"not/real.h\"\n"
      "#include \"geom/point.h\"\n"
      "#include <vector>\n"
      "const char* s = \"#include \\\"also/fake.h\\\"\";\n"
      "R\"raw(#include \"raw/fake.h\")raw\";\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "geom/point.h");
  EXPECT_FALSE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[0].line, 2u);
  EXPECT_EQ(lexed.includes[1].path, "vector");
  EXPECT_TRUE(lexed.includes[1].angled);
}

TEST(CppLexer, TokensCarryLineNumbers) {
  const LexedSource lexed =
      lex_source("int a;\n/* x\ny */ int b;\n");
  ASSERT_GE(lexed.tokens.size(), 4u);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 1u);
  const auto b = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                              [](const Token& t) { return t.text == "b"; });
  ASSERT_NE(b, lexed.tokens.end());
  EXPECT_EQ(b->line, 3u);
}

}  // namespace
}  // namespace ntr::analyze
