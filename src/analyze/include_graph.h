#pragma once

#include <string>
#include <vector>

#include "analyze/layering.h"
#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// One observed module-level dependency, with a witness file include for
/// the reports and the DOT figure.
struct ModuleEdge {
  std::string from;
  std::string to;
  std::string witness_file;     ///< file whose include created the edge
  std::size_t witness_line = 0;
  bool legal = true;            ///< per the LayerConfig
};

/// Deduplicated module dependency edges (from != to), sorted.
[[nodiscard]] std::vector<ModuleEdge> module_edges(const Project& project,
                                                   const LayerConfig& config);

/// Layering pass: one `layering` finding per illegal cross-module include
/// (every witness include line, not just one per module pair, so fixes
/// are mechanical), plus one `unknown-module` finding per module that the
/// conf does not declare.
[[nodiscard]] std::vector<LintDiagnostic> check_layering(
    const Project& project, const LayerConfig& config);

/// Include-cycle pass: Tarjan SCCs over the resolved file-level include
/// graph; every component with more than one file (or a self-include)
/// yields one `include-cycle` finding naming the full cycle path,
/// anchored at the lexicographically first file's closing include.
[[nodiscard]] std::vector<LintDiagnostic> check_include_cycles(
    const Project& project);

/// GraphViz rendering of the module DAG, grouped into one cluster per
/// declared layer (undeclared modules land in a trailing cluster).
/// Illegal edges are drawn red and dashed so a stale figure cannot hide
/// a violation.
[[nodiscard]] std::string module_graph_dot(const Project& project,
                                           const LayerConfig& config);

}  // namespace ntr::analyze
