#include "analyze/analyze.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

#include "analyze/concurrency.h"
#include "analyze/dataflow.h"
#include "analyze/include_hygiene.h"
#include "analyze/layering.h"
#include "analyze/reentrancy.h"

namespace ntr::analyze {

namespace {

/// Rule name -> the pass that owns it, for --only routing.
const std::map<std::string, std::string, std::less<>>& rule_passes() {
  static const std::map<std::string, std::string, std::less<>> kMap = {
      {"raw-assert", "lint"},
      {"pragma-once", "lint"},
      {"using-namespace-header", "lint"},
      {"unseeded-rng", "lint"},
      {"cout-in-library", "lint"},
      {"raw-mutex-lock", "lint"},
      {"untyped-throw", "lint"},
      {"unchecked-narrowing", "lint"},
      {"layering", "layering"},
      {"unknown-module", "layering"},
      {"include-cycle", "include_cycles"},
      {"parallel-shared-write", "concurrency"},
      {"parallel-missing-poll", "concurrency"},
      {"unused-include", "include_hygiene"},
      {"transitive-include", "include_hygiene"},
      {"unchecked-status", "dataflow"},
      {"nondeterministic-iteration", "dataflow"},
      {"escaping-ref-capture", "dataflow"},
      {"global-mutable-state", "reentrancy"},
      {"blocking-in-lane", "reentrancy"},
      {"lock-order-inversion", "locks"},
      {"blocking-under-lock", "locks"},
      {"unguarded-member-access", "locks"},
      {"wire-taint", "taint"},
  };
  return kMap;
}

/// Minimal JSON string escaping for the JSON and SARIF writers.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

AnalyzeResult analyze(const AnalyzeOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  AnalyzeResult result;

  // The passes owning the --only rules; empty runs every pass.
  std::set<std::string, std::less<>> passes;
  for (const std::string& rule : options.only_rules) {
    const auto it = rule_passes().find(rule);
    if (it == rule_passes().end()) {
      result.error = "unknown rule for --only: " + rule;
      return result;
    }
    passes.insert(it->second);
  }
  const auto enabled = [&](std::string_view pass) {
    return passes.empty() || passes.contains(pass);
  };

  std::filesystem::path conf = options.layer_config_path;
  if (conf.empty()) conf = options.root / "docs" / "layering.conf";
  result.config = load_layer_config(conf, result.error);
  if (!result.error.empty()) return result;

  std::vector<std::filesystem::path> paths = options.paths;
  if (paths.empty()) paths = {"src", "tools", "tests"};
  result.project = load_project(options.root, paths, result.error);
  if (!result.error.empty()) return result;
  result.callgraph = build_call_graph(result.project);

  auto append = [&](std::vector<LintDiagnostic> findings) {
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  };
  if (enabled("lint")) append(check_lint(result.project));
  if (enabled("layering")) append(check_layering(result.project, result.config));
  if (enabled("include_cycles")) append(check_include_cycles(result.project));
  if (enabled("concurrency")) append(check_concurrency(result.project));
  if (enabled("include_hygiene")) append(check_include_hygiene(result.project));
  if (enabled("dataflow")) append(check_dataflow(result.project));
  if (enabled("reentrancy"))
    append(check_reentrancy(result.project, result.callgraph, options.entries));
  // The lock model always runs so --lockgraph-dot renders without a
  // re-scan; its findings only count when the pass is enabled.
  {
    std::vector<LintDiagnostic> lock_findings =
        check_locks(result.project, result.callgraph, &result.lockgraph);
    if (enabled("locks")) append(std::move(lock_findings));
  }
  // Likewise the taint model: the flow graph backs --taint-dot.
  {
    std::vector<LintDiagnostic> taint_findings =
        check_taint(result.project, result.callgraph, &result.taintgraph);
    if (enabled("taint")) append(std::move(taint_findings));
  }

  // --only keeps exactly the named rules: a pass that owns several rules
  // still runs whole, so the filter is on the findings.
  if (!options.only_rules.empty()) {
    const std::set<std::string, std::less<>> keep(options.only_rules.begin(),
                                                  options.only_rules.end());
    std::erase_if(result.findings, [&](const LintDiagnostic& d) {
      return !keep.contains(d.rule);
    });
  }

  // The report contract: findings are (file, line, rule, message)-ordered
  // and exactly duplicate findings collapse, so reruns, pass reorderings,
  // and passes that overlap on a line all produce byte-identical output.
  std::stable_sort(
      result.findings.begin(), result.findings.end(),
      [](const LintDiagnostic& a, const LintDiagnostic& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
      });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const LintDiagnostic& a, const LintDiagnostic& b) {
                    return std::tie(a.file, a.line, a.rule, a.message) ==
                           std::tie(b.file, b.line, b.rule, b.message);
                  }),
      result.findings.end());
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return result;
}

std::string json_report(const AnalyzeResult& result) {
  char wall[32];
  std::snprintf(wall, sizeof wall, "%.3f", result.wall_ms);
  std::string out = "{\n  \"wall_ms\": " + std::string(wall) +
                    ",\n  \"files\": " +
                    std::to_string(result.project.files.size()) +
                    ",\n  \"findings\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const LintDiagnostic& d = result.findings[i];
    out += "    {\"file\": \"" + json_escape(d.file) +
           "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"" +
           json_escape(d.rule) + "\", \"message\": \"" +
           json_escape(d.message) + "\"}";
    if (i + 1 < result.findings.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string sarif_report(const AnalyzeResult& result) {
  // One rule descriptor per distinct rule, sorted, then one result per
  // finding in report order -- both deterministic by construction.
  std::set<std::string> rules;
  for (const LintDiagnostic& d : result.findings) rules.insert(d.rule);

  std::string out;
  out += "{\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"ntr_analyze\",\n";
  out += "          \"rules\": [\n";
  bool first = true;
  for (const std::string& rule : rules) {
    if (!first) out += ",\n";
    first = false;
    out += "            {\"id\": \"" + json_escape(rule) + "\"}";
  }
  out += "\n          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"results\": [\n";
  first = true;
  for (const LintDiagnostic& d : result.findings) {
    if (!first) out += ",\n";
    first = false;
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(d.rule) + "\",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": \"" + json_escape(d.message) +
           "\"},\n";
    out += "          \"locations\": [\n";
    out += "            {\n";
    out += "              \"physicalLocation\": {\n";
    out += "                \"artifactLocation\": {\"uri\": \"" +
           json_escape(d.file) + "\"},\n";
    out += "                \"region\": {\"startLine\": " +
           std::to_string(d.line == 0 ? 1 : d.line) + "}\n";
    out += "              }\n";
    out += "            }\n";
    out += "          ]\n";
    out += "        }";
  }
  out += "\n      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ntr::analyze
