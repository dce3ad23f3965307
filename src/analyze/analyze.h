#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/include_graph.h"
#include "analyze/layering.h"
#include "analyze/lint.h"
#include "analyze/locks.h"
#include "analyze/source_model.h"
#include "analyze/taint.h"

namespace ntr::analyze {

/// Whole-project run configuration for ntr_analyze. Empty `paths`
/// defaults to {src, tools, tests}; empty `layer_config_path` defaults
/// to `<root>/docs/layering.conf`.
struct AnalyzeOptions {
  std::filesystem::path root;
  std::vector<std::filesystem::path> paths;
  std::filesystem::path layer_config_path;
  /// Non-empty: run only the passes owning these rule names and keep only
  /// their findings. An unknown rule name is a fatal `error` (exit 2).
  std::vector<std::string> only_rules;
  /// Entry-point specs for global-mutable-state (CallGraph::find_nodes
  /// syntax). Empty means the engine defaults: run_timing_flow + the
  /// *ldrg* family.
  std::vector<std::string> entries;
};

/// Everything a caller needs: the findings (sorted by file/line/rule),
/// the scanned project and layer config (so the CLI can render the DOT
/// figure without re-scanning), and a fatal `error` -- unreadable or
/// malformed layering.conf -- which callers map to exit code 2.
struct AnalyzeResult {
  std::vector<LintDiagnostic> findings;
  Project project;
  LayerConfig config;
  /// The whole-project call graph (always built; the CLI renders it with
  /// --callgraph-dot without re-scanning).
  CallGraph callgraph;
  /// The lock-order graph (always built; the CLI renders it with
  /// --lockgraph-dot without re-scanning).
  LockGraph lockgraph;
  /// The taint-flow graph (always built; the CLI renders it with
  /// --taint-dot without re-scanning).
  TaintGraph taintgraph;
  /// Wall-clock time of the full run, load through passes, milliseconds.
  double wall_ms = 0.0;
  std::string error;
};

/// Runs every selected pass over the project under `options.root`: the
/// lint rules (analyze/lint.h), layering, include cycles, concurrency,
/// include hygiene, dataflow, reentrancy, locks and taint.
[[nodiscard]] AnalyzeResult analyze(const AnalyzeOptions& options);

/// Renders the result as the `--json` report: an object with `wall_ms`,
/// `files`, and the findings array. Deterministic apart from wall_ms.
[[nodiscard]] std::string json_report(const AnalyzeResult& result);

/// Renders the result's findings as a SARIF 2.1.0 log (one run, one
/// driver, one result per finding), for CI upload. Deterministic.
[[nodiscard]] std::string sarif_report(const AnalyzeResult& result);

}  // namespace ntr::analyze
