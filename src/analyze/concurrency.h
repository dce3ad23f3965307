#pragma once

#include <vector>

#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// Concurrency-discipline pass over every `parallel_chunks` /
/// `parallel_for` call site (the repo's only way to run library code on
/// multiple lanes -- ThreadPool::run is an implementation detail behind
/// them). Two rules, both token-level heuristics in the spirit of
/// the lint pass, not a points-to analysis:
///
///   parallel-shared-write  an identifier captured by reference in a lane
///                          lambda is written (assignment, ++/--, or a
///                          known container mutator like push_back) with
///                          no visible justification. Justifications:
///                          atomic member ops (.store/.load/.fetch_*/
///                          .exchange/.compare_exchange_*), a declaration
///                          of the variable mentioning std::atomic, a
///                          lock (lock_guard/scoped_lock/unique_lock/
///                          shared_lock or .lock()) anywhere in the lane
///                          body, or writing through a subscript whose
///                          index is a lane-local variable (the
///                          deterministic slot-per-lane / slot-per-item
///                          pattern the engine is built on).
///   parallel-missing-poll  a lane body in library code (src/) contains a
///                          loop but never touches any stop facility (an
///                          identifier containing "stop", "cancel",
///                          "deadline", or "poll"). PR 3's invariant:
///                          long-running lane loops must poll a
///                          StopToken/Deadline, directly or by forwarding
///                          the token into the callee's options. Tests
///                          are exempt; they exercise the chunking
///                          machinery itself.
///
/// Lane-local variables (lambda parameters and anything declared inside
/// the lambda body) are exempt by construction. Nested lambdas inside a
/// lane body are scanned as part of that body. Findings honor the
/// standard `ntr-lint-allow(<rule>)` suppressions.
[[nodiscard]] std::vector<LintDiagnostic> check_concurrency(
    const Project& project);

}  // namespace ntr::analyze
