// ntr_analyze: the repo's static analysis.
//
// Loads the whole tree once, resolves the include graph, and runs every
// pass over it: the per-line lint rules (raw-assert, pragma-once,
// using-namespace-header, unseeded-rng, cout-in-library, raw-mutex-lock,
// untyped-throw, unchecked-narrowing), the declared module layering
// (docs/layering.conf), include-cycle freedom, the parallel-lane
// concurrency discipline, include-what-you-use hygiene, the semantic
// dataflow rules on the scope-aware parse (unchecked-status,
// nondeterministic-iteration, escaping-ref-capture), the interprocedural
// reachability rules on the whole-project call graph
// (global-mutable-state, blocking-in-lane), the lock-discipline rules on
// the held-lock model (lock-order-inversion, blocking-under-lock,
// unguarded-member-access), and the wire-taint rule on the
// interprocedural taint model (untrusted boundary input reaching
// resource sinks). CI runs it as a required step; see
// docs/static_analysis.md for the rules and the suppression syntax.

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/callgraph.h"
#include "analyze/include_graph.h"
#include "analyze/lint.h"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: ntr_analyze [--root DIR] [--layers FILE] [--graph-dot FILE]\n"
      "                   [--callgraph-dot FILE] [--lockgraph-dot FILE]\n"
      "                   [--taint-dot FILE] [--json FILE] [--sarif FILE]\n"
      "                   [--only RULE[,RULE]] [--entry FUNCTION] [path...]\n"
      "\n"
      "Loads every .h/.hpp/.cc/.cpp under the given files/directories\n"
      "(default: src tools tests, resolved against --root, default '.'),\n"
      "resolves the project include graph, and runs every pass: the\n"
      "per-line lint rules (raw-assert, pragma-once,\n"
      "using-namespace-header, unseeded-rng, cout-in-library,\n"
      "raw-mutex-lock, untyped-throw, unchecked-narrowing), layering\n"
      "(against --layers, default docs/layering.conf under the root),\n"
      "include-cycle, concurrency discipline, include hygiene, the\n"
      "semantic dataflow passes on the scope-aware parse\n"
      "(unchecked-status, nondeterministic-iteration,\n"
      "escaping-ref-capture; src/ only), the interprocedural\n"
      "reachability passes on the whole-project call graph\n"
      "(global-mutable-state, blocking-in-lane; src/ only), the\n"
      "lock-discipline passes on the held-lock model\n"
      "(lock-order-inversion, blocking-under-lock,\n"
      "unguarded-member-access; src/ only), and the wire-taint pass on\n"
      "the interprocedural taint model (src/ only).\n"
      "\n"
      "  --graph-dot FILE      also write the module dependency DAG as\n"
      "                        GraphViz DOT ('-' for stdout)\n"
      "  --callgraph-dot FILE  also write the project call graph as\n"
      "                        GraphViz DOT ('-' for stdout)\n"
      "  --lockgraph-dot FILE  also write the lock-order graph as\n"
      "                        GraphViz DOT ('-' for stdout)\n"
      "  --taint-dot FILE      also write the taint-flow graph as\n"
      "                        GraphViz DOT ('-' for stdout)\n"
      "  --json FILE           also write a JSON report: an object with\n"
      "                        wall_ms, files, and the findings array\n"
      "                        ('-' for stdout)\n"
      "  --sarif FILE          also write the findings as a SARIF 2.1.0\n"
      "                        log for CI upload ('-' for stdout)\n"
      "  --only RULE[,RULE]    run only the passes owning these rules and\n"
      "                        keep only their findings\n"
      "  --entry FUNCTION      entry point for global-mutable-state\n"
      "                        (repeatable; default run_timing_flow and\n"
      "                        the *ldrg* family)\n"
      "\n"
      "Prints one 'file:line: [rule] message' per finding. Exit codes:\n"
      "0 clean, 1 findings, 2 usage, unreadable source or config.\n",
      out);
}

bool write_output(const std::string& path, const std::string& content,
                  const char* what) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "ntr_analyze: cannot write %s file: %s\n", what,
                 path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ntr::analyze::AnalyzeOptions options;
  options.root = ".";
  std::string dot_path;
  std::string callgraph_dot_path;
  std::string lockgraph_dot_path;
  std::string taint_dot_path;
  std::string json_path;
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ntr_analyze: %s requires an argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--root") {
      const char* v = flag_value("--root");
      if (v == nullptr) return 2;
      options.root = v;
    } else if (arg == "--layers") {
      const char* v = flag_value("--layers");
      if (v == nullptr) return 2;
      options.layer_config_path = v;
    } else if (arg == "--graph-dot") {
      const char* v = flag_value("--graph-dot");
      if (v == nullptr) return 2;
      dot_path = v;
    } else if (arg == "--callgraph-dot") {
      const char* v = flag_value("--callgraph-dot");
      if (v == nullptr) return 2;
      callgraph_dot_path = v;
    } else if (arg == "--lockgraph-dot") {
      const char* v = flag_value("--lockgraph-dot");
      if (v == nullptr) return 2;
      lockgraph_dot_path = v;
    } else if (arg == "--taint-dot") {
      const char* v = flag_value("--taint-dot");
      if (v == nullptr) return 2;
      taint_dot_path = v;
    } else if (arg == "--only" || arg.starts_with("--only=")) {
      std::string v;
      if (arg.starts_with("--only=")) {
        v = arg.substr(7);
      } else {
        const char* raw = flag_value("--only");
        if (raw == nullptr) return 2;
        v = raw;
      }
      for (std::size_t pos = 0; pos <= v.size();) {
        std::size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        if (comma > pos)
          options.only_rules.push_back(v.substr(pos, comma - pos));
        pos = comma + 1;
      }
      if (options.only_rules.empty()) {
        std::fprintf(stderr, "ntr_analyze: --only requires rule names\n");
        return 2;
      }
    } else if (arg == "--entry" || arg.starts_with("--entry=")) {
      std::string v;
      if (arg.starts_with("--entry=")) {
        v = arg.substr(8);
      } else {
        const char* raw = flag_value("--entry");
        if (raw == nullptr) return 2;
        v = raw;
      }
      if (v.empty()) {
        std::fprintf(stderr, "ntr_analyze: --entry requires a function\n");
        return 2;
      }
      options.entries.push_back(v);
    } else if (arg == "--json") {
      const char* v = flag_value("--json");
      if (v == nullptr) return 2;
      json_path = v;
    } else if (arg == "--sarif") {
      const char* v = flag_value("--sarif");
      if (v == nullptr) return 2;
      sarif_path = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ntr_analyze: unknown option: %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      options.paths.emplace_back(arg);
    }
  }
  if (options.paths.empty()) options.paths = {"src", "tools", "tests"};
  for (std::filesystem::path& p : options.paths) {
    if (p.is_relative()) p = options.root / p;
    if (!std::filesystem::exists(p)) {
      std::fprintf(stderr, "ntr_analyze: no such path: %s\n",
                   p.string().c_str());
      return 2;
    }
  }

  const ntr::analyze::AnalyzeResult result = ntr::analyze::analyze(options);
  if (!result.error.empty()) {
    std::fprintf(stderr, "ntr_analyze: %s\n", result.error.c_str());
    return 2;
  }

  for (const ntr::analyze::LintDiagnostic& d : result.findings) {
    std::fprintf(stderr, "%s\n", ntr::analyze::format(d).c_str());
  }
  std::fprintf(stderr, "ntr_analyze: %zu file(s), %zu finding(s)\n",
               result.project.files.size(), result.findings.size());

  if (!dot_path.empty()) {
    const std::string dot =
        ntr::analyze::module_graph_dot(result.project, result.config);
    if (!write_output(dot_path, dot, "DOT")) return 2;
  }
  if (!callgraph_dot_path.empty()) {
    const std::string dot =
        ntr::analyze::call_graph_dot(result.callgraph, result.project);
    if (!write_output(callgraph_dot_path, dot, "call-graph DOT")) return 2;
  }
  if (!lockgraph_dot_path.empty()) {
    const std::string dot = ntr::analyze::lock_graph_dot(result.lockgraph);
    if (!write_output(lockgraph_dot_path, dot, "lock-graph DOT")) return 2;
  }
  if (!taint_dot_path.empty()) {
    const std::string dot = ntr::analyze::taint_graph_dot(result.taintgraph);
    if (!write_output(taint_dot_path, dot, "taint-graph DOT")) return 2;
  }
  if (!json_path.empty()) {
    if (!write_output(json_path, ntr::analyze::json_report(result), "JSON"))
      return 2;
  }
  if (!sarif_path.empty()) {
    if (!write_output(sarif_path, ntr::analyze::sarif_report(result), "SARIF"))
      return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
