#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/source_model.h"

namespace ntr::analyze {

/// A whole-project call graph built from `cpp_parser`'s function and call
/// records. Like the parser it sits on, it never fails: every resolution
/// step is a documented heuristic, unresolvable calls simply become
/// external sites, and unrecognized syntax contributes nothing. The graph
/// is a *may-call* over-approximation -- a member call contributes edges
/// to every project method of that name, so virtual dispatch and coarse
/// receiver types never lose a reachable callee -- which is the safe
/// direction for the reachability passes built on top (a missed edge
/// would silently hide a finding; a surplus edge at worst asks for a
/// justification comment).

/// One function definition or declaration, project-wide.
struct CallGraphNode {
  int file = -1;  ///< index into Project::files
  int fn = -1;    ///< index into files[file].parsed.functions
  std::string name;       ///< unqualified ("ldrg")
  std::string qualified;  ///< scope-chain + out-of-line qualifier + name,
                          ///< e.g. "ntr::core::ldrg",
                          ///< "ntr::graph::RoutingGraph::add_edge"
  std::string class_name;  ///< enclosing class (or the last out-of-line
                           ///< qualifier segment); "" for free functions
  std::size_t line = 0;
  bool has_body = false;
};

/// One call expression, attributed to the innermost enclosing function
/// definition (calls inside lambda bodies belong to the function the
/// lambda lives in).
struct CallSite {
  int caller = -1;             ///< node index; -1 for file-scope calls
  int file = -1;               ///< file of the call site
  std::size_t name_index = 0;  ///< token index of the callee in that file
  std::size_t line = 0;
  std::string callee;
  /// May-call target node set. Empty for external calls (std::, libc,
  /// macros) and for names the project never defines.
  std::vector<int> targets;
  bool internal = false;  ///< judged project-internal (has candidates)
  bool resolved = false;  ///< narrowed to a specific target: qualifier
                          ///< match, receiver-class match, same-file or
                          ///< unique candidate
  /// The call sits on an NTR_DCHECK/NTR_CHECK/NTR_FAULT_POINT line or
  /// inside such a macro's argument list (they routinely span lines):
  /// contract and fault-injection machinery, documented as cold, which
  /// the reachability passes skip when walking the graph.
  bool contract_site = false;
};

struct CallGraph {
  std::vector<CallGraphNode> nodes;
  std::vector<CallSite> sites;
  std::vector<std::vector<int>> sites_of;  ///< node index -> site indices
  std::size_t internal_sites = 0;
  std::size_t resolved_sites = 0;

  /// Nodes matching an entry-point spec: exact unqualified name, a
  /// qualified segment-suffix ("flow::run_timing_flow" matches
  /// "ntr::flow::run_timing_flow"), or -- so `ldrg` covers the whole
  /// `route::*ldrg*` family -- a name containing the spec as substring.
  [[nodiscard]] std::vector<int> find_nodes(std::string_view spec) const;

  /// Breadth-first may-reachability from `roots` (node indices). Returns
  /// one entry per node: the root it was first reached from, or -1 when
  /// unreachable. Expansion skips contract sites and, when `src_only`,
  /// never walks into nodes outside src/ (tools and tests follow their
  /// own rules and their name collisions must not grow engine cones).
  [[nodiscard]] std::vector<int> reach_from(const Project& project,
                                            const std::vector<int>& roots,
                                            bool src_only) const;
};

/// Builds the graph over every parsed file in the project.
[[nodiscard]] CallGraph build_call_graph(const Project& project);

/// GraphViz DOT rendering: one node per function *definition*, one deduped
/// edge per (caller, callee) pair, clustered by module. Deterministic.
[[nodiscard]] std::string call_graph_dot(const CallGraph& graph,
                                         const Project& project);

}  // namespace ntr::analyze
