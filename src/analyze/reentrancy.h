#pragma once

#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// The interprocedural reachability passes that certify the engine for a
/// concurrent daemon (`ntr_serve`): see docs/static_analysis.md
/// ("Interprocedural passes").
///
///  - global-mutable-state: mutable namespace-scope globals and
///    function-local `static`s reachable from the engine entry points
///    (`entries`; default flow::run_timing_flow + the route::*ldrg*
///    family) -- the state that breaks re-entrancy.
///  - blocking-in-lane: stream/file I/O, mutex acquisition, and sleeps
///    reachable from parallel_chunks/parallel_for lane bodies.
///
/// Findings are src/-only. Each rule honors the standard
/// `ntr-lint-allow` suppressions plus a justification-comment escape
/// hatch in the established grammar -- `ntr-<rule>(<why>)` on the
/// offending line or the line directly above.
[[nodiscard]] std::vector<LintDiagnostic> check_reentrancy(
    const Project& project, const CallGraph& graph,
    const std::vector<std::string>& entries);

}  // namespace ntr::analyze
