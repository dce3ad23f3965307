#include "analyze/callgraph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analyze/cpp_parser.h"

namespace ntr::analyze {

namespace {

/// True when `node` satisfies an explicit `a::b` call qualifier: the
/// node's qualified name is exactly `qual::name` or ends with it on a
/// segment boundary, so `parse_source` matches
/// `ntr::parse_source` but `std::sort` matches nothing.
bool qualifier_matches(const CallGraphNode& node, const std::string& qual) {
  const std::string want = qual + "::" + node.name;
  return node.qualified == want || node.qualified.ends_with("::" + want);
}

bool line_has(std::string_view line, std::string_view needle) {
  return line.find(needle) != std::string_view::npos;
}

}  // namespace

std::vector<int> CallGraph::find_nodes(std::string_view spec) const {
  std::vector<int> out;
  const std::string suffix = "::" + std::string(spec);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const CallGraphNode& node = nodes[i];
    if (node.name == spec || node.qualified == spec ||
        node.qualified.ends_with(suffix) ||
        node.name.find(spec) != std::string::npos)
      out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> CallGraph::reach_from(const Project& project,
                                       const std::vector<int>& roots,
                                       bool src_only) const {
  std::vector<int> witness(nodes.size(), -1);
  std::deque<int> queue;
  for (const int r : roots) {
    if (r < 0 || static_cast<std::size_t>(r) >= nodes.size()) continue;
    if (witness[static_cast<std::size_t>(r)] != -1) continue;
    witness[static_cast<std::size_t>(r)] = r;
    queue.push_back(r);
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (const int si : sites_of[static_cast<std::size_t>(n)]) {
      const CallSite& site = sites[static_cast<std::size_t>(si)];
      if (site.contract_site) continue;
      for (const int t : site.targets) {
        if (witness[static_cast<std::size_t>(t)] != -1) continue;
        const CallGraphNode& tn = nodes[static_cast<std::size_t>(t)];
        if (src_only &&
            !project.files[static_cast<std::size_t>(tn.file)].path.starts_with(
                "src/"))
          continue;
        witness[static_cast<std::size_t>(t)] = witness[static_cast<std::size_t>(n)];
        queue.push_back(t);
      }
    }
  }
  return witness;
}

CallGraph build_call_graph(const Project& project) {
  CallGraph graph;

  // ---------------------------------------------------------------- nodes
  // (file, fn) -> node index, and name -> candidate node indices.
  std::vector<std::vector<int>> node_of(project.files.size());
  std::map<std::string, std::vector<int>, std::less<>> by_name;
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    const ParsedSource& parsed = project.files[fi].parsed;
    node_of[fi].assign(parsed.functions.size(), -1);
    for (std::size_t fj = 0; fj < parsed.functions.size(); ++fj) {
      const ParsedFunction& fn = parsed.functions[fj];
      CallGraphNode node;
      node.file = static_cast<int>(fi);
      node.fn = static_cast<int>(fj);
      node.name = fn.name;
      node.line = fn.line;
      node.has_body = fn.body_begin != 0;

      // Qualified name: enclosing namespace/class scopes from the
      // outside in, then the out-of-line qualifier, then the name.
      std::vector<std::string> chain;
      for (int s = parsed.scope_at(fn.name_index); s > 0;
           s = parsed.scopes[static_cast<std::size_t>(s)].parent) {
        const ParsedScope& sc = parsed.scopes[static_cast<std::size_t>(s)];
        if (sc.kind == ParsedScope::Kind::kClass && node.class_name.empty())
          node.class_name = sc.name;
        if ((sc.kind == ParsedScope::Kind::kNamespace ||
             sc.kind == ParsedScope::Kind::kClass) &&
            !sc.name.empty())
          chain.push_back(sc.name);
      }
      for (std::size_t c = chain.size(); c-- > 0;)
        node.qualified += chain[c] + "::";
      if (!fn.qualifier.empty()) {
        node.qualified += fn.qualifier + "::";
        if (node.class_name.empty()) {
          const std::size_t sep = fn.qualifier.rfind("::");
          node.class_name = sep == std::string::npos
                                ? fn.qualifier
                                : fn.qualifier.substr(sep + 2);
        }
      }
      node.qualified += node.name;

      node_of[fi][fj] = static_cast<int>(graph.nodes.size());
      by_name[node.name].push_back(static_cast<int>(graph.nodes.size()));
      graph.nodes.push_back(std::move(node));
    }
  }
  graph.sites_of.assign(graph.nodes.size(), {});

  // Class hierarchy by unqualified name, for receiver narrowing: for each
  // class, the transitive set of its base names.
  std::map<std::string, std::set<std::string>, std::less<>> bases_of;
  for (const SourceFile& sf : project.files)
    for (const ParsedScope& sc : sf.parsed.scopes)
      if (sc.kind == ParsedScope::Kind::kClass && !sc.name.empty())
        bases_of[sc.name].insert(sc.bases.begin(), sc.bases.end());
  const auto ancestors = [&](const std::string& cls) {
    std::set<std::string> out;
    std::vector<std::string> queue{cls};
    while (!queue.empty()) {
      const std::string c = queue.back();
      queue.pop_back();
      const auto it = bases_of.find(c);
      if (it == bases_of.end()) continue;
      for (const std::string& b : it->second)
        if (out.insert(b).second) queue.push_back(b);
    }
    return out;
  };

  // ---------------------------------------------------------------- sites
  static const std::vector<int> kNoNodes;
  const auto candidates_for = [&](const std::string& name) -> const std::vector<int>& {
    const auto it = by_name.find(name);
    return it == by_name.end() ? kNoNodes : it->second;
  };
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    const ParsedSource& parsed = project.files[fi].parsed;
    // Argument ranges of contract macros in this file. NTR_DCHECK /
    // NTR_CHECK invocations routinely span lines, so a callee nested in
    // one (`NTR_DCHECK(check::require(\n    validate_graph(...)))`) is
    // recognized by token position, not just by its own raw line.
    std::vector<std::pair<std::size_t, std::size_t>> contract_ranges;
    for (const ParsedCall& call : parsed.calls)
      if (call.callee == "NTR_DCHECK" || call.callee == "NTR_CHECK" ||
          call.callee == "NTR_FAULT_POINT")
        contract_ranges.emplace_back(call.lparen, call.rparen);
    for (const ParsedCall& call : parsed.calls) {
      CallSite site;
      site.file = static_cast<int>(fi);
      site.name_index = call.name_index;
      site.line = call.line;
      site.callee = call.callee;
      const int enclosing =
          parsed.scopes[static_cast<std::size_t>(call.scope)].function;
      if (enclosing >= 0) site.caller = node_of[fi][static_cast<std::size_t>(enclosing)];
      site.contract_site =
          line_has(project.raw_line(fi, call.line), "NTR_DCHECK(") ||
          line_has(project.raw_line(fi, call.line), "NTR_CHECK(") ||
          line_has(project.raw_line(fi, call.line), "NTR_FAULT_POINT(");
      for (const auto& [lp, rp] : contract_ranges) {
        if (site.contract_site) break;
        site.contract_site = call.name_index > lp && call.name_index < rp;
      }

      const std::vector<int>& cands = candidates_for(call.callee);
      if (call.member_call) {
        // Baseline is may-call: every project method of this name. When
        // the receiver's coarse static type is known, narrow to the
        // methods of that class and of classes derived from it -- keeping
        // derived classes is what preserves virtual dispatch through a
        // base-typed receiver, while unrelated same-name methods (the
        // `sim_.run(...)` vs ThreadPool::run collision) drop out.
        std::vector<int> methods;
        for (const int c : cands)
          if (!graph.nodes[static_cast<std::size_t>(c)].class_name.empty())
            methods.push_back(c);
        site.internal = !methods.empty();
        if (site.internal) {
          // A target method of class C matches receiver type T when
          // C == T or T is a (transitive) base of C.
          const auto matches_type = [&](int t, const std::string& type) {
            const std::string& cls =
                graph.nodes[static_cast<std::size_t>(t)].class_name;
            return cls == type || ancestors(cls).contains(type);
          };
          std::vector<int> narrowed;
          if (call.receiver == "this" && site.caller >= 0) {
            const std::string& cls =
                graph.nodes[static_cast<std::size_t>(site.caller)].class_name;
            if (!cls.empty())
              for (const int t : methods)
                if (matches_type(t, cls)) narrowed.push_back(t);
          } else if (!call.receiver.empty()) {
            const ParsedDecl* decl =
                parsed.lookup(call.receiver, call.name_index);
            if (decl != nullptr)
              for (const int t : methods) {
                const std::string& cls =
                    graph.nodes[static_cast<std::size_t>(t)].class_name;
                bool hit = decl_type_has(*decl, cls);
                for (const std::string& a : ancestors(cls))
                  if (decl_type_has(*decl, a)) hit = true;
                if (hit) narrowed.push_back(t);
              }
          }
          site.resolved = !narrowed.empty() || methods.size() == 1;
          site.targets = narrowed.empty() ? methods : narrowed;
        }
      } else if (!call.qualifier.empty()) {
        // Explicit qualifier: candidates must match it on a segment
        // boundary; a mismatch (std::, fmt::, ...) is external.
        for (const int c : cands)
          if (qualifier_matches(graph.nodes[static_cast<std::size_t>(c)],
                                call.qualifier))
            site.targets.push_back(c);
        site.internal = !site.targets.empty();
        site.resolved = site.internal;
      } else if (!cands.empty()) {
        // Unqualified free call. Inside a member function, an unqualified
        // name finds the class's own (and inherited) methods before
        // anything at namespace scope -- `poll()` inside StopToken is
        // StopToken::poll, not a free poll elsewhere. Otherwise prefer
        // free-function candidates, and within those prefer same-file
        // definitions: anonymous namespaces and file-local helpers are
        // the common case.
        const std::string caller_class =
            site.caller >= 0
                ? graph.nodes[static_cast<std::size_t>(site.caller)].class_name
                : std::string();
        std::vector<int> sibling;
        if (!caller_class.empty()) {
          const std::set<std::string> up = ancestors(caller_class);
          for (const int c : cands) {
            const std::string& cls =
                graph.nodes[static_cast<std::size_t>(c)].class_name;
            if (!cls.empty() && (cls == caller_class || up.contains(cls)))
              sibling.push_back(c);
          }
        }
        if (!sibling.empty()) {
          site.targets = sibling;
          site.internal = true;
          site.resolved = true;
        } else {
          std::vector<int> pool;
          for (const int c : cands)
            if (graph.nodes[static_cast<std::size_t>(c)].class_name.empty())
              pool.push_back(c);
          if (pool.empty()) pool = cands;
          std::vector<int> same_file;
          for (const int c : pool)
            if (graph.nodes[static_cast<std::size_t>(c)].file ==
                static_cast<int>(fi))
              same_file.push_back(c);
          site.targets = same_file.empty() ? pool : same_file;
          site.internal = true;
          site.resolved = !same_file.empty() || site.targets.size() == 1;
        }
      }

      if (site.internal) ++graph.internal_sites;
      if (site.resolved) ++graph.resolved_sites;
      const int idx = static_cast<int>(graph.sites.size());
      if (site.caller >= 0)
        graph.sites_of[static_cast<std::size_t>(site.caller)].push_back(idx);
      graph.sites.push_back(std::move(site));
    }
  }
  return graph;
}

std::string call_graph_dot(const CallGraph& graph, const Project& project) {
  // Definitions only; declaration targets redirect to the definition with
  // the same qualified name so header indirection does not split nodes.
  std::map<std::string, int, std::less<>> def_of;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i)
    if (graph.nodes[i].has_body)
      def_of.try_emplace(graph.nodes[i].qualified, static_cast<int>(i));
  const auto as_def = [&](int n) -> int {
    const CallGraphNode& node = graph.nodes[static_cast<std::size_t>(n)];
    if (node.has_body) return n;
    const auto it = def_of.find(node.qualified);
    return it == def_of.end() ? -1 : it->second;
  };

  std::set<std::pair<std::string, std::string>> edges;
  std::set<std::string> used;
  for (const CallSite& site : graph.sites) {
    if (site.caller < 0) continue;
    const int caller = as_def(site.caller);
    if (caller < 0) continue;
    for (const int t : site.targets) {
      const int target = as_def(t);
      if (target < 0 || target == caller) continue;
      const std::string& a =
          graph.nodes[static_cast<std::size_t>(caller)].qualified;
      const std::string& b =
          graph.nodes[static_cast<std::size_t>(target)].qualified;
      edges.emplace(a, b);
      used.insert(a);
      used.insert(b);
    }
  }

  std::string dot = "digraph ntr_callgraph {\n  rankdir=LR;\n"
                    "  node [shape=box, fontsize=9];\n";
  for (const auto& [qualified, idx] : def_of) {
    if (!used.contains(qualified)) continue;
    const CallGraphNode& node = graph.nodes[static_cast<std::size_t>(idx)];
    const std::string& module =
        project.files[static_cast<std::size_t>(node.file)].module_name;
    dot += "  \"" + qualified + "\" [label=\"" + qualified + "\\n(" + module +
           ")\"];\n";
  }
  for (const auto& [a, b] : edges)
    dot += "  \"" + a + "\" -> \"" + b + "\";\n";
  dot += "}\n";
  return dot;
}

}  // namespace ntr::analyze
