#include "analyze/include_graph.h"

#include <algorithm>
#include <map>
#include <set>

namespace ntr::analyze {

namespace {

/// Iterative Tarjan strongly-connected components over the file include
/// graph. Returns the component id per file; ids are assigned in reverse
/// topological order, which we only use for grouping.
std::vector<int> tarjan_scc(const Project& project, int& component_count) {
  const std::size_t n = project.files.size();
  std::vector<int> comp(n, -1);
  std::vector<int> low(n, 0);
  std::vector<int> disc(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  int timer = 0;
  component_count = 0;

  struct Frame {
    std::size_t v = 0;
    std::size_t edge = 0;  // index into resolved_includes
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    disc[root] = low[root] = timer++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& targets = project.files[f.v].resolved_includes;
      if (f.edge < targets.size()) {
        const int t = targets[f.edge++];
        if (t < 0) continue;
        const auto w = static_cast<std::size_t>(t);
        if (disc[w] == -1) {
          disc[w] = low[w] = timer++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], disc[w]);
        }
        continue;
      }
      if (low[f.v] == disc[f.v]) {
        while (true) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = component_count;
          if (w == f.v) break;
        }
        ++component_count;
      }
      const std::size_t child = f.v;
      frames.pop_back();
      if (!frames.empty())
        low[frames.back().v] = std::min(low[frames.back().v], low[child]);
    }
  }
  return comp;
}

void sort_findings(std::vector<LintDiagnostic>& out) {
  std::sort(out.begin(), out.end(),
            [](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

bool suppressed_at(const Project& project, std::size_t file, std::size_t line,
                   std::string_view rule) {
  return lint_suppressed(project.raw_line(file, line),
                         project.files[file].content, rule);
}

}  // namespace

std::vector<ModuleEdge> module_edges(const Project& project,
                                     const LayerConfig& config) {
  std::map<std::pair<std::string, std::string>, ModuleEdge> edges;
  for (const SourceFile& sf : project.files) {
    for (std::size_t i = 0; i < sf.resolved_includes.size(); ++i) {
      const int t = sf.resolved_includes[i];
      if (t < 0) continue;
      const SourceFile& target = project.files[static_cast<std::size_t>(t)];
      if (target.module_name == sf.module_name) continue;
      const auto key = std::make_pair(sf.module_name, target.module_name);
      if (edges.contains(key)) continue;
      ModuleEdge edge;
      edge.from = sf.module_name;
      edge.to = target.module_name;
      edge.witness_file = sf.path;
      edge.witness_line = sf.lexed.includes[i].line;
      edge.legal = config.allows(sf.module_name, target.module_name);
      edges.emplace(key, std::move(edge));
    }
  }
  std::vector<ModuleEdge> out;
  out.reserve(edges.size());
  for (auto& [key, edge] : edges) out.push_back(std::move(edge));
  return out;
}

std::vector<LintDiagnostic> check_layering(const Project& project,
                                           const LayerConfig& config) {
  std::vector<LintDiagnostic> out;
  std::set<std::string> unknown_reported;
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    const SourceFile& sf = project.files[fi];
    if (config.layer_of(sf.module_name) < 0 &&
        unknown_reported.insert(sf.module_name).second &&
        !suppressed_at(project, fi, 1, "unknown-module")) {
      out.push_back(LintDiagnostic{
          sf.path, 1, "unknown-module",
          "module '" + sf.module_name +
              "' is not declared in any layer of layering.conf"});
    }
    for (std::size_t i = 0; i < sf.resolved_includes.size(); ++i) {
      const int t = sf.resolved_includes[i];
      if (t < 0) continue;
      const SourceFile& target = project.files[static_cast<std::size_t>(t)];
      if (target.module_name == sf.module_name) continue;
      if (config.allows(sf.module_name, target.module_name)) continue;
      const std::size_t line = sf.lexed.includes[i].line;
      if (suppressed_at(project, fi, line, "layering")) continue;
      out.push_back(LintDiagnostic{
          sf.path, line, "layering",
          "module '" + sf.module_name + "' (layer '" +
              std::string(config.layer_name(sf.module_name)) +
              "') must not include '" + sf.lexed.includes[i].path +
              "' from higher layer '" +
              std::string(config.layer_name(target.module_name)) + "' ('" +
              target.module_name + "')"});
    }
  }
  sort_findings(out);
  return out;
}

std::vector<LintDiagnostic> check_include_cycles(const Project& project) {
  int component_count = 0;
  const std::vector<int> comp = tarjan_scc(project, component_count);

  // Collect members per component; only multi-file components (or a file
  // including itself) are cycles.
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < comp.size(); ++i)
    members[comp[i]].push_back(i);

  std::vector<LintDiagnostic> out;
  for (auto& [c, files] : members) {
    bool self_loop = false;
    if (files.size() == 1) {
      for (const int t : project.files[files[0]].resolved_includes)
        if (t >= 0 && static_cast<std::size_t>(t) == files[0]) self_loop = true;
      if (!self_loop) continue;
    }
    // Anchor at the lexicographically first file (files are sorted by
    // path project-wide, so files[] is already ordered).
    const std::size_t anchor = files[0];
    // Walk a concrete cycle path: follow in-component edges from the
    // anchor until a file repeats.
    std::vector<std::size_t> path{anchor};
    std::set<std::size_t> seen{anchor};
    std::size_t cur = anchor;
    while (true) {
      std::size_t next = cur;
      for (const int t : project.files[cur].resolved_includes) {
        if (t >= 0 && comp[static_cast<std::size_t>(t)] == c &&
            (files.size() == 1 || static_cast<std::size_t>(t) != cur)) {
          next = static_cast<std::size_t>(t);
          break;
        }
      }
      if (next == cur) break;  // defensive; an SCC always has an out-edge
      if (!seen.insert(next).second) {
        path.push_back(next);
        break;
      }
      path.push_back(next);
      cur = next;
    }
    std::string msg = "include cycle: ";
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i != 0) msg += " -> ";
      msg += project.files[path[i]].path;
    }
    // Report at the anchor's include that enters the cycle.
    std::size_t line = 1;
    const SourceFile& af = project.files[anchor];
    for (std::size_t i = 0; i < af.resolved_includes.size(); ++i) {
      const int t = af.resolved_includes[i];
      if (t >= 0 && comp[static_cast<std::size_t>(t)] == c) {
        line = af.lexed.includes[i].line;
        break;
      }
    }
    if (suppressed_at(project, anchor, line, "include-cycle")) continue;
    out.push_back(
        LintDiagnostic{af.path, line, "include-cycle", std::move(msg)});
  }
  sort_findings(out);
  return out;
}

std::string module_graph_dot(const Project& project, const LayerConfig& config) {
  // Observed modules only: the conf may declare modules that contribute
  // no files in the scanned subset.
  std::set<std::string> observed;
  for (const SourceFile& sf : project.files) observed.insert(sf.module_name);

  std::string dot;
  dot += "// Generated by ntr_analyze --graph-dot; do not edit.\n";
  dot += "digraph ntr_modules {\n";
  dot += "  rankdir=BT;\n";
  dot += "  node [shape=box, fontname=\"Helvetica\"];\n";
  int cluster = 0;
  for (const LayerConfig::Layer& layer : config.layers) {
    std::vector<std::string> present;
    for (const std::string& m : layer.modules)
      if (observed.contains(m)) present.push_back(m);
    if (present.empty()) continue;
    dot += "  subgraph cluster_" + std::to_string(cluster++) + " {\n";
    dot += "    label=\"" + layer.name + "\";\n";
    dot += "    style=rounded;\n";
    for (const std::string& m : present) dot += "    \"" + m + "\";\n";
    dot += "  }\n";
  }
  std::vector<std::string> undeclared;
  for (const std::string& m : observed)
    if (config.layer_of(m) < 0) undeclared.push_back(m);
  if (!undeclared.empty()) {
    dot += "  subgraph cluster_" + std::to_string(cluster++) + " {\n";
    dot += "    label=\"(undeclared)\";\n    style=dashed;\n";
    for (const std::string& m : undeclared) dot += "    \"" + m + "\";\n";
    dot += "  }\n";
  }
  for (const ModuleEdge& e : module_edges(project, config)) {
    dot += "  \"" + e.from + "\" -> \"" + e.to + "\"";
    if (!e.legal) dot += " [color=red, style=dashed, penwidth=2]";
    dot += ";\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace ntr::analyze
