#include "analyze/reentrancy.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <tuple>

#include "analyze/cpp_lexer.h"
#include "analyze/cpp_parser.h"

namespace ntr::analyze {

namespace {

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

/// Types whose globals are deliberately exempt: synchronization and
/// atomics are how shared state is *supposed* to be held, and
/// thread_local is per-thread by construction.
constexpr std::array<std::string_view, 8> kSafeGlobalTypes = {
    "atomic",    "atomic_flag",        "mutex",        "shared_mutex",
    "once_flag", "condition_variable", "thread_local", "using"};

/// A "declaration" whose type is a class-key or enum is a *type
/// definition* the parser's coarse decl heuristic picked up
/// (`struct Deadline {`, `enum class StatusCode {`), not a variable.
constexpr std::array<std::string_view, 4> kTypeDefKeywords = {
    "struct", "class", "union", "enum"};

constexpr std::array<std::string_view, 3> kStreamGlobals = {"cout", "cerr",
                                                            "clog"};
constexpr std::array<std::string_view, 7> kFileCalls = {
    "printf", "fprintf", "fputs", "puts", "fopen", "fwrite", "fread"};
constexpr std::array<std::string_view, 3> kFileStreamTypes = {
    "ofstream", "ifstream", "fstream"};
constexpr std::array<std::string_view, 4> kLockTypes = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
constexpr std::array<std::string_view, 2> kSleepCalls = {"sleep_for",
                                                         "sleep_until"};
constexpr std::array<std::string_view, 3> kWaitCalls = {"wait", "wait_for",
                                                        "wait_until"};

/// The per-rule justification grammar: `ntr-<rule>(<why>)` on the
/// offending line or the line directly above. As with ntr-determinism,
/// <why> is free text; requiring *a* reason is the point.
bool justified(const Project& project, std::size_t file, std::size_t line,
               std::string_view rule) {
  const std::string needle = "ntr-" + std::string(rule) + "(";
  const auto has = [&](std::size_t l) {
    return project.raw_line(file, l).find(needle) != std::string_view::npos;
  };
  return has(line) || (line > 1 && has(line - 1));
}

struct Reporter {
  const Project& project;
  std::vector<LintDiagnostic>& out;

  void operator()(std::size_t file, std::size_t line, std::string_view rule,
                  std::string message) const {
    const SourceFile& sf = project.files[file];
    if (!sf.path.starts_with("src/")) return;
    if (lint_suppressed(project.raw_line(file, line), sf.content,
                        rule))
      return;
    if (justified(project, file, line, rule)) return;
    out.push_back(LintDiagnostic{sf.path, line, std::string(rule),
                                 std::move(message)});
  }
};

/// Root the reachability witness chain: the qualified name of the root
/// `node` was first reached from.
std::string witness(const CallGraph& graph, const std::vector<int>& reach,
                    int node) {
  const int root = reach[static_cast<std::size_t>(node)];
  return root < 0 ? std::string("?")
                  : graph.nodes[static_cast<std::size_t>(root)].qualified;
}

// ------------------------------------------------- global-mutable-state

void check_global_mutable_state(const Project& project, const CallGraph& graph,
                                const std::vector<std::string>& entries,
                                const Reporter& report) {
  std::vector<int> roots;
  for (const std::string& spec : entries)
    for (const int n : graph.find_nodes(spec))
      if (project.files[static_cast<std::size_t>(
                            graph.nodes[static_cast<std::size_t>(n)].file)]
              .path.starts_with("src/"))
        roots.push_back(n);
  const std::vector<int> reach = graph.reach_from(project, roots, true);

  // Mutable namespace-scope declarations, project-wide.
  struct Global {
    std::size_t file = 0;
    const ParsedDecl* decl = nullptr;
  };
  std::vector<Global> globals;
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    if (!project.files[fi].path.starts_with("src/")) continue;
    const ParsedSource& parsed = project.files[fi].parsed;
    const std::vector<Token>& toks = project.files[fi].lexed.tokens;
    for (const ParsedDecl& decl : parsed.decls) {
      if (decl.is_param || decl.scope < 0) continue;
      const ParsedScope& sc =
          parsed.scopes[static_cast<std::size_t>(decl.scope)];
      if (sc.kind != ParsedScope::Kind::kFile &&
          sc.kind != ParsedScope::Kind::kNamespace)
        continue;
      // A ':' directly before the "declaration" means it is really a
      // class base clause (`class X : public logic_error {`) the coarse
      // decl heuristic picked up, not a variable.
      const std::size_t start = decl.name_index - decl.type_tokens.size();
      if (start >= 1 && toks[start - 1].kind == TokenKind::kPunct &&
          toks[start - 1].text == ":")
        continue;
      if (decl_type_has(decl, "const") ||
          decl_type_has(decl, "constexpr") ||
          decl_type_has(decl, "constinit"))
        continue;
      bool safe = false;
      for (const std::string_view t : kSafeGlobalTypes)
        if (decl_type_has(decl, t)) safe = true;
      for (const std::string_view t : kTypeDefKeywords)
        if (decl_type_has(decl, t)) safe = true;
      if (safe) continue;
      globals.push_back(Global{fi, &decl});
    }
  }

  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    if (reach[n] < 0) continue;
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    const ParsedSource& parsed =
        project.files[static_cast<std::size_t>(node.file)].parsed;
    const ParsedFunction& fn =
        parsed.functions[static_cast<std::size_t>(node.fn)];
    const std::vector<Token>& toks =
        project.files[static_cast<std::size_t>(node.file)].lexed.tokens;

    // Function-local statics in a reachable function.
    for (const ParsedDecl& decl : parsed.decls) {
      if (decl.name_index <= fn.body_begin || decl.name_index >= fn.body_end)
        continue;
      if (!decl_type_has(decl, "static")) continue;
      if (decl_type_has(decl, "const") ||
          decl_type_has(decl, "constexpr"))
        continue;
      bool safe = false;
      for (const std::string_view t : kSafeGlobalTypes)
        if (decl_type_has(decl, t)) safe = true;
      if (safe) continue;
      report(static_cast<std::size_t>(node.file), decl.line,
             "global-mutable-state",
             "function-local static '" + decl.name + "' in '" +
                 node.qualified + "' (reachable from entry point '" +
                 witness(graph, reach, static_cast<int>(n)) +
                 "') breaks re-entrancy; hoist it into explicit state or "
                 "justify with ntr-global-mutable-state(<why>)");
    }

    // References to mutable globals from a reachable function body.
    for (const Global& g : globals) {
      bool referenced = false;
      std::size_t at_line = 0;
      for (std::size_t k = fn.body_begin; k < fn.body_end && k < toks.size();
           ++k) {
        if (toks[k].kind != TokenKind::kIdentifier ||
            toks[k].text != g.decl->name)
          continue;
        if (k >= 1 && (toks[k - 1].text == "." || toks[k - 1].text == "->"))
          continue;  // a member of some other object sharing the name
        referenced = true;
        at_line = toks[k].line;
        break;
      }
      if (!referenced) continue;
      (void)at_line;
      report(g.file, g.decl->line, "global-mutable-state",
             "mutable namespace-scope '" + g.decl->name +
                 "' is referenced by '" + node.qualified +
                 "' (reachable from entry point '" +
                 witness(graph, reach, static_cast<int>(n)) +
                 "'); re-entrant engine code must not touch writable "
                 "globals -- make it const/atomic, pass it explicitly, or "
                 "justify with ntr-global-mutable-state(<why>)");
    }
  }
}

// --------------------------------------------------- blocking-in-lane

/// Reports every blocking construct in token range [begin, end) of file
/// `fi`. `where` names the lane the range was reached from.
void scan_blocking(const Project& project, std::size_t fi, std::size_t begin,
                   std::size_t end, const std::string& where,
                   const Reporter& report) {
  const ParsedSource& parsed = project.files[fi].parsed;
  const std::vector<Token>& toks = project.files[fi].lexed.tokens;
  const std::string tail =
      " " + where + "; lanes must stay compute-only -- justify with "
      "ntr-blocking-in-lane(<why>) if deliberate";

  for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
    if (toks[k].kind == TokenKind::kIdentifier &&
        in_set(kStreamGlobals, std::string_view(toks[k].text)))
      report(fi, toks[k].line, "blocking-in-lane",
             "stream I/O via '" + toks[k].text + "'" + tail);
  }

  for (const ParsedCall& call : parsed.calls) {
    if (call.name_index <= begin || call.name_index >= end) continue;
    const std::string_view callee = call.callee;
    if (in_set(kFileCalls, callee)) {
      report(fi, call.line, "blocking-in-lane",
             "file I/O via '" + call.callee + "'" + tail);
    } else if (call.member_call && callee == "lock") {
      report(fi, call.line, "blocking-in-lane",
             "mutex acquisition via '." + call.callee + "()'" + tail);
    } else if (in_set(kLockTypes, callee)) {
      report(fi, call.line, "blocking-in-lane",
             "mutex acquisition via '" + call.callee + "'" + tail);
    } else if (in_set(kSleepCalls, callee)) {
      report(fi, call.line, "blocking-in-lane",
             "sleep via '" + call.callee + "'" + tail);
    } else if (call.member_call && in_set(kWaitCalls, callee)) {
      report(fi, call.line, "blocking-in-lane",
             "condition wait via '." + call.callee + "()'" + tail);
    }
  }

  for (const ParsedDecl& decl : parsed.decls) {
    if (decl.name_index <= begin || decl.name_index >= end) continue;
    bool hit = false;
    for (const std::string_view t : kFileStreamTypes)
      if (decl_type_has(decl, t)) hit = true;
    for (const std::string_view t : kLockTypes)
      if (decl_type_has(decl, t)) hit = true;
    if (hit)
      report(fi, decl.line, "blocking-in-lane",
             "blocking construct '" + decl.name + "'" + tail);
  }
}

void check_blocking_in_lane(const Project& project, const CallGraph& graph,
                            const Reporter& report) {
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    if (!project.files[fi].path.starts_with("src/")) continue;
    const ParsedSource& parsed = project.files[fi].parsed;
    for (const ParsedCall& call : parsed.calls) {
      if (call.callee != "parallel_chunks" && call.callee != "parallel_for")
        continue;
      for (const ParsedLambda& lam : parsed.lambdas) {
        if (lam.intro <= call.lparen || lam.intro >= call.rparen) continue;
        const std::string lane = project.files[fi].path + ":" +
                                 std::to_string(lam.line);
        scan_blocking(project, fi, lam.body_begin, lam.body_end,
                      "in the parallel lane at " + lane, report);

        // Everything the lane body calls into, transitively.
        std::vector<int> roots;
        if (lam.body_scope >= 0) {
          const int enclosing =
              parsed.scopes[static_cast<std::size_t>(lam.body_scope)].function;
          for (std::size_t si = 0; si < graph.sites.size(); ++si) {
            const CallSite& site = graph.sites[si];
            if (site.file != static_cast<int>(fi)) continue;
            if (site.caller < 0) continue;
            const CallGraphNode& cn =
                graph.nodes[static_cast<std::size_t>(site.caller)];
            if (cn.file != static_cast<int>(fi) || cn.fn != enclosing)
              continue;
            if (site.name_index <= lam.body_begin ||
                site.name_index >= lam.body_end)
              continue;
            if (site.contract_site) continue;
            roots.insert(roots.end(), site.targets.begin(),
                         site.targets.end());
          }
        }
        const std::vector<int> reach = graph.reach_from(project, roots, true);
        for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
          if (reach[n] < 0 || !graph.nodes[n].has_body) continue;
          const CallGraphNode& node = graph.nodes[n];
          const ParsedFunction& fn =
              project.files[static_cast<std::size_t>(node.file)]
                  .parsed.functions[static_cast<std::size_t>(node.fn)];
          scan_blocking(project, static_cast<std::size_t>(node.file),
                        fn.body_begin, fn.body_end,
                        "in '" + node.qualified +
                            "', reachable from the parallel lane at " + lane,
                        report);
        }
      }
    }
  }
}

}  // namespace

std::vector<LintDiagnostic> check_reentrancy(
    const Project& project, const CallGraph& graph,
    const std::vector<std::string>& entries) {
  std::vector<LintDiagnostic> out;
  const Reporter report{project, out};

  std::vector<std::string> roots = entries;
  if (roots.empty()) roots = {"run_timing_flow", "ldrg"};
  check_global_mutable_state(project, graph, roots, report);
  check_blocking_in_lane(project, graph, report);

  std::sort(out.begin(), out.end(),
            [](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

}  // namespace ntr::analyze
