#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// The wire-taint pass: tracks untrusted boundary input -- socket reads,
/// decoded frame bytes, parsed JSON values, net-file fields, environment
/// variables -- to resource sinks (allocation sizes, copy lengths, raw
/// indexing, loop bounds, stack arrays) across the whole project, and
/// emits one rule:
///
///   wire-taint -- a value from an untrusted source reaches a resource
///                 sink without passing a sanitizer first
///
/// The model is flow-insensitive inside a function (taint is a property
/// of a declared name, unioned over every assignment) and summary-based
/// across functions: each definition exports whether its return value is
/// source-tainted, which parameters flow to its return value, which
/// by-reference parameters it writes source data into, and which
/// parameters reach a sink -- iterated to fixpoint over the PR 6 call
/// graph, the same shape as the lock-discipline pass's entry-held sets.
///
/// Sanitizers win over taint: a name whose `.ok()` is checked (the
/// Status/StatusOr idiom), a name range-compared (`<`, `>`, `<=`, `>=`,
/// never `==`) inside an `if` condition or a contract macro, a name
/// passed through `std::min`/`std::clamp`, and anything annotated
/// NTR_VALIDATED (core/annotations.h) never carries taint. See
/// docs/static_analysis.md ("Taint analysis") for the documented limits
/// and the `ntr-wire-taint(<why>)` justification grammar.

/// One node of the taint-flow graph: a source ("source:getenv()"), a
/// function ("fn:ntr::serve::parse_request"), or a sink
/// ("sink:allocation size ('.resize') @ src/io/net_io.cpp:84").
struct TaintFlowNode {
  enum class Kind { kSource, kFunction, kSink };
  std::string id;
  Kind kind = Kind::kFunction;
};

/// One flow edge. `hot` edges lie on an unsanitized source-to-sink path
/// that produced a finding; cold edges show observed-but-sanitized
/// sources and parameter-to-sink summaries, so the rendered figure stays
/// informative on a clean tree.
struct TaintFlowEdge {
  std::string from;
  std::string to;
  std::string label;  ///< witness file, or the parameter name
  bool hot = false;
};

/// The project taint-flow graph, deterministic: nodes sorted by id,
/// edges sorted by (from, to, label) and deduplicated (hot wins).
struct TaintGraph {
  std::vector<TaintFlowNode> nodes;
  std::vector<TaintFlowEdge> edges;
};

/// Runs the full taint analysis. Findings are sorted by (file, line,
/// rule, message); `out_graph`, when non-null, receives the taint-flow
/// graph (built even when every path is sanitized or justified away).
[[nodiscard]] std::vector<LintDiagnostic> check_taint(
    const Project& project, const CallGraph& graph, TaintGraph* out_graph);

/// GraphViz DOT rendering of the taint-flow graph: sources as ellipses,
/// functions as boxes, sinks as octagons; hot edges red. Byte-identical
/// across runs.
[[nodiscard]] std::string taint_graph_dot(const TaintGraph& graph);

}  // namespace ntr::analyze
