#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// The lock-discipline pass: models which mutexes each function holds --
/// lexically (RAII guards, raw .lock()/.unlock(), condition-variable
/// waits) and interprocedurally (held-at-entry sets propagated over the
/// call graph) -- and emits three rules on top of the model:
///
///   lock-order-inversion   -- the global acquisition-order graph, keyed
///                             by mutex identity, contains a cycle
///   blocking-under-lock    -- a blocking syscall, sleep, or transitively
///                             blocking callee runs while a lock is held
///   unguarded-member-access -- a member annotated NTR_GUARDED_BY(m) is
///                             touched without `m` held
///
/// Mutex *identity* is the scope-qualified declaration -- e.g.
/// "ntr::serve::FairQueue::mutex_" for a member, "fix::engine::g_mu" for
/// a namespace-scope mutex, "<fn>::local" for a function local -- so two
/// functions locking the same member through different expressions
/// (`mutex_`, `this->mutex_`, `impl_->mutex`) agree on the node. See
/// docs/static_analysis.md ("Lock discipline") for the model's documented
/// limits.

/// One acquisition-order edge: somewhere in src/, `to` was acquired while
/// `from` was already held (directly, or via a callee that acquires `to`).
struct LockOrderEdge {
  std::string from;
  std::string to;
  std::string witness_file;  ///< repo-relative path of the acquisition
  std::size_t witness_line = 0;
  std::string holder;        ///< qualified function the order occurs in
  bool in_cycle = false;     ///< edge lies inside a Tarjan SCC (size > 1)
};

/// The global lock-order graph, deterministic: `mutexes` sorted, `edges`
/// sorted by (from, to) and deduplicated to the earliest witness.
struct LockGraph {
  std::vector<std::string> mutexes;
  std::vector<LockOrderEdge> edges;
};

/// Runs the full lock-discipline analysis. Findings are sorted by
/// (file, line, rule, message); `out_graph`, when non-null, receives the
/// lock-order graph (built even when every edge is justified away --
/// justified edges are simply dropped, which is what breaks their cycle).
[[nodiscard]] std::vector<LintDiagnostic> check_locks(
    const Project& project, const CallGraph& graph, LockGraph* out_graph);

/// GraphViz DOT rendering of the lock-order graph: one node per mutex,
/// one edge per ordered pair labelled with its witness's file (not line,
/// so edits above a lock leave the figure as it is); cycle edges are
/// drawn red. Byte-identical across runs.
[[nodiscard]] std::string lock_graph_dot(const LockGraph& graph);

}  // namespace ntr::analyze
