#include "analyze/locks.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <iterator>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "analyze/cpp_lexer.h"
#include "analyze/cpp_parser.h"

namespace ntr::analyze {

namespace {

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

constexpr std::array<std::string_view, 4> kGuardTypes = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
constexpr std::array<std::string_view, 5> kMutexTypes = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex"};
/// Lock-tag arguments of std::unique_lock/scoped_lock constructors; they
/// name a policy, not a mutex.
constexpr std::array<std::string_view, 3> kLockTags = {
    "defer_lock", "adopt_lock", "try_to_lock"};
/// Blocking syscalls: the same set the serving stack actually uses, plus
/// the classic select/connect pair so fixtures and future code are
/// covered.  A call to any of these -- member or free -- blocks.
constexpr std::array<std::string_view, 10> kBlockingSyscalls = {
    "send",   "recv",       "sendto", "recvfrom", "poll",
    "epoll_wait", "accept", "accept4", "connect", "select"};
constexpr std::array<std::string_view, 2> kSleepCalls = {"sleep_for",
                                                         "sleep_until"};
constexpr std::array<std::string_view, 3> kWaitCalls = {"wait", "wait_for",
                                                        "wait_until"};
/// Member calls whose receiver is one of these std types never resolve to
/// a project method: they are the library's own surface, and letting the
/// may-call heuristic map `ready_.wait(...)` onto `Server::wait` would
/// manufacture phantom lock-order edges.  unique_ptr/shared_ptr are
/// deliberately absent -- `impl_->...` *does* reach project code.
constexpr std::array<std::string_view, 30> kStdOpaqueTypes = {
    "mutex",         "shared_mutex",  "recursive_mutex",
    "timed_mutex",   "condition_variable", "condition_variable_any",
    "thread",        "jthread",       "atomic",
    "atomic_flag",   "vector",        "deque",
    "list",          "array",         "span",
    "map",           "set",           "unordered_map",
    "unordered_set", "string",        "string_view",
    "optional",      "function",      "queue",
    "priority_queue", "stack",        "stringstream",
    "ostringstream", "istringstream", "future"};
/// Type-token noise skipped when recovering the owner class of a member
/// chain: `std::unique_ptr<Impl>` owns members of `Impl`.
constexpr std::array<std::string_view, 10> kTypeNoise = {
    "std",     "unique_ptr", "shared_ptr", "const",   "mutable",
    "static",  "volatile",   "constexpr",  "typename", "struct"};

bool has_type_token(const std::vector<std::string>& type_tokens,
                    std::string_view ident) {
  return std::find(type_tokens.begin(), type_tokens.end(), ident) !=
         type_tokens.end();
}

/// The class a member chain steps into: the last type token that is not
/// qualification/smart-pointer noise ("Impl" for `std::unique_ptr<Impl>`,
/// `Impl*`, `const Impl&`).
std::string owner_type_of(const std::vector<std::string>& type_tokens) {
  std::string owner;
  for (const std::string& t : type_tokens) {
    if (t.empty() || !(std::isalpha(static_cast<unsigned char>(t[0])) ||
                       t[0] == '_'))
      continue;
    if (in_set(kTypeNoise, std::string_view(t))) continue;
    owner = t;
  }
  return owner;
}

bool is_mutex_type(const std::vector<std::string>& type_tokens) {
  for (const std::string_view t : kMutexTypes)
    if (has_type_token(type_tokens, t)) return true;
  return false;
}

bool is_guard_type(const std::vector<std::string>& type_tokens) {
  for (const std::string_view t : kGuardTypes)
    if (has_type_token(type_tokens, t)) return true;
  return false;
}

/// `ntr-<rule>(<why>)` on the offending line or the line directly above.
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

/// The namespace/class chain enclosing `scope`, innermost last:
/// "ntr::serve::FairQueue" for a decl in FairQueue's class body.
std::string scope_chain(const ParsedSource& parsed, int scope) {
  std::vector<std::string> parts;
  for (int s = scope; s >= 0;
       s = parsed.scopes[static_cast<std::size_t>(s)].parent) {
    const ParsedScope& sc = parsed.scopes[static_cast<std::size_t>(s)];
    if ((sc.kind == ParsedScope::Kind::kNamespace ||
         sc.kind == ParsedScope::Kind::kClass) &&
        !sc.name.empty())
      parts.push_back(sc.name);
  }
  std::string chain;
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (!chain.empty()) chain += "::";
    chain += parts[i];
  }
  return chain;
}

/// A member annotated NTR_GUARDED_BY in some class body.
struct GuardedMember {
  std::string class_key;   ///< unqualified class name ("FairQueue", "Impl")
  std::string qualified;   ///< chain + name, for messages
  std::string name;        ///< member name
  std::string guard_expr;  ///< annotation argument, unresolved
  std::string guard_id;    ///< resolved mutex identity
  int file = -1;
  std::size_t name_index = 0;  ///< the declaration token, never an access
};

/// Project-wide symbol maps the identity resolver runs on.
struct SymbolMaps {
  /// (class key, member name) -> the member's coarse type tokens.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      members;
  /// (class key, member name) -> qualified identity, mutex members only.
  std::map<std::pair<std::string, std::string>, std::string> class_mutexes;
  /// bare name -> qualified identity, namespace-scope mutexes only.
  std::map<std::string, std::string> global_mutexes;
  std::vector<GuardedMember> guarded;
};

SymbolMaps build_symbol_maps(const Project& project) {
  SymbolMaps maps;
  for (int fi = 0; fi < static_cast<int>(project.files.size()); ++fi) {
    const ParsedSource& parsed =
        project.files[static_cast<std::size_t>(fi)].parsed;
    for (const ParsedDecl& decl : parsed.decls) {
      if (decl.is_param || decl.scope < 0) continue;
      const ParsedScope& sc =
          parsed.scopes[static_cast<std::size_t>(decl.scope)];
      if (sc.kind == ParsedScope::Kind::kClass) {
        const std::string chain = scope_chain(parsed, decl.scope);
        const auto key = std::make_pair(sc.name, decl.name);
        maps.members.emplace(key, decl.type_tokens);
        if (is_mutex_type(decl.type_tokens))
          maps.class_mutexes.emplace(key, chain + "::" + decl.name);
        if (!decl.guarded_by.empty()) {
          GuardedMember g;
          g.class_key = sc.name;
          g.qualified = chain + "::" + decl.name;
          g.name = decl.name;
          g.guard_expr = decl.guarded_by;
          g.file = fi;
          g.name_index = decl.name_index;
          maps.guarded.push_back(std::move(g));
        }
      } else if (sc.kind == ParsedScope::Kind::kFile ||
                 sc.kind == ParsedScope::Kind::kNamespace) {
        if (!is_mutex_type(decl.type_tokens)) continue;
        const std::string chain = scope_chain(parsed, decl.scope);
        maps.global_mutexes.emplace(
            decl.name, chain.empty() ? decl.name : chain + "::" + decl.name);
      }
    }
  }
  return maps;
}

/// Splits a concatenated token expression ("impl_->mutex", "this->mu_")
/// into its member-chain components.
std::vector<std::string> split_chain(std::string_view expr) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      parts.push_back(cur);
      cur.clear();
      ++i;
    } else if (expr[i] == '.') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += expr[i];
    }
  }
  parts.push_back(cur);
  return parts;
}

/// Everything the resolver needs about the lexical position of a use.
struct UseContext {
  const ParsedSource* parsed = nullptr;
  std::size_t at = 0;          ///< token index of the use
  std::string class_key;       ///< enclosing class ("", for free functions)
  std::string fn_qualified;    ///< enclosing function, for local identity
};

/// Coarse type tokens of `name` at the use point: a visible declaration
/// wins, then a member of the enclosing class (covers out-of-line method
/// bodies whose members live in the header). Empty when unknown.
std::vector<std::string> type_of_name(const SymbolMaps& maps,
                                      const UseContext& use,
                                      std::string_view name) {
  if (const ParsedDecl* d = use.parsed->lookup(name, use.at))
    return d->type_tokens;
  const auto it = maps.members.find(
      std::make_pair(use.class_key, std::string(name)));
  if (it != maps.members.end()) return it->second;
  return {};
}

/// Type tokens at the end of a member chain: "impl_->cv" resolves impl_'s
/// owner class, then cv inside it. Empty when any step is unknown.
std::vector<std::string> type_of_chain(const SymbolMaps& maps,
                                       const UseContext& use,
                                       const std::vector<std::string>& chain) {
  if (chain.empty()) return {};
  std::vector<std::string> type;
  std::size_t i = 0;
  if (chain[0] == "this") {
    if (chain.size() == 1) return {};
    type = type_of_name(maps, use, chain[1]);
    i = 2;
  } else {
    type = type_of_name(maps, use, chain[0]);
    i = 1;
  }
  for (; i < chain.size(); ++i) {
    const std::string owner = owner_type_of(type);
    if (owner.empty()) return {};
    const auto it = maps.members.find(std::make_pair(owner, chain[i]));
    if (it == maps.members.end()) return {};
    type = it->second;
  }
  return type;
}

/// The identifier chain a member call is invoked on, recovered from the
/// token stream: `impl_->done_cv.wait(...)` yields {"impl_", "done_cv"}.
/// ParsedCall::receiver alone keeps only the last segment, which would
/// resolve against the wrong class. Empty when the receiver is not a
/// plain chain (`f(x).g()`, `a[i].g()`).
std::vector<std::string> receiver_chain(const std::vector<Token>& toks,
                                        std::size_t name_index) {
  std::vector<std::string> chain;
  std::size_t k = name_index;
  while (k >= 2 && (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
         toks[k - 2].kind == TokenKind::kIdentifier) {
    chain.insert(chain.begin(), toks[k - 2].text);
    k -= 2;
  }
  return chain;
}

/// Resolves a mutex expression to its scope-qualified identity. Falls
/// back to the raw spelling when nothing matches -- an unknown-but-stable
/// name still orders consistently against itself.
std::string resolve_mutex(const SymbolMaps& maps, const UseContext& use,
                          std::string_view expr) {
  std::vector<std::string> chain = split_chain(expr);
  if (chain.size() > 1 && chain[0] == "this")
    chain.erase(chain.begin());
  if (chain.size() == 1) {
    const std::string& name = chain[0];
    if (const ParsedDecl* d = use.parsed->lookup(name, use.at)) {
      const ParsedScope& sc =
          use.parsed->scopes[static_cast<std::size_t>(d->scope)];
      if (sc.kind == ParsedScope::Kind::kClass)
        return scope_chain(*use.parsed, d->scope) + "::" + name;
      if (sc.kind == ParsedScope::Kind::kFile ||
          sc.kind == ParsedScope::Kind::kNamespace) {
        const std::string c = scope_chain(*use.parsed, d->scope);
        return c.empty() ? name : c + "::" + name;
      }
      return use.fn_qualified.empty() ? name
                                      : use.fn_qualified + "::" + name;
    }
    const auto mi = maps.class_mutexes.find(
        std::make_pair(use.class_key, name));
    if (mi != maps.class_mutexes.end()) return mi->second;
    const auto gi = maps.global_mutexes.find(name);
    if (gi != maps.global_mutexes.end()) return gi->second;
    return name;
  }
  // A chain: resolve the base's owner class, then the final member.
  const std::vector<std::string> base(chain.begin(), chain.end() - 1);
  const std::string& member = chain.back();
  const std::vector<std::string> base_type = type_of_chain(maps, use, base);
  const std::string owner = owner_type_of(base_type);
  if (!owner.empty()) {
    const auto mi = maps.class_mutexes.find(std::make_pair(owner, member));
    if (mi != maps.class_mutexes.end()) return mi->second;
    return owner + "::" + member;
  }
  return std::string(expr);
}

// --------------------------------------------------------- lock modeling

/// One modeled acquisition inside a function body: `mutex` is held over
/// tokens (begin, end).
struct Acq {
  std::string mutex;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 0;
  int group = -1;    ///< scoped_lock group: siblings never order-edge
  bool orders = true;  ///< false for adopt_lock (the raw .lock() ordered)
  int ctx = -1;      ///< deferred-lambda context of the acquisition
  std::string via;   ///< guard variable name, "" for raw .lock()
};

/// Per call-graph-node lock model.
struct FnInfo {
  std::vector<Acq> acqs;
  std::vector<int> kept_sites;  ///< global site indices the model walks
  std::set<std::string> acquires;  ///< direct top-level acquisitions
  bool blocking = false;
  std::string leaf_what;  ///< "sleep via 'sleep_for'"
  std::string leaf_where;  ///< "src/serve/loop.cpp:42"
};

/// Deferred-lambda ranges of one file: every lambda body except
/// condition-variable wait predicates (those run inline, lock held).
struct LambdaCtx {
  std::vector<std::pair<std::size_t, std::size_t>> deferred;  // (begin, end)

  int ctx_of(std::size_t k) const {
    int best = -1;
    std::size_t best_span = 0;
    for (int i = 0; i < static_cast<int>(deferred.size()); ++i) {
      const auto [b, e] = deferred[static_cast<std::size_t>(i)];
      if (k <= b || k >= e) continue;
      const std::size_t span = e - b;
      if (best < 0 || span < best_span) {
        best = i;
        best_span = span;
      }
    }
    return best;
  }
};

std::vector<LambdaCtx> build_lambda_ctx(const Project& project) {
  std::vector<LambdaCtx> out(project.files.size());
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    const ParsedSource& parsed = project.files[fi].parsed;
    for (const ParsedLambda& lam : parsed.lambdas) {
      bool wait_predicate = false;
      for (const ParsedCall& call : parsed.calls) {
        if (!call.member_call ||
            !in_set(kWaitCalls, std::string_view(call.callee)))
          continue;
        if (lam.intro > call.lparen && lam.intro < call.rparen) {
          wait_predicate = true;
          break;
        }
      }
      if (!wait_predicate && lam.body_begin < lam.body_end)
        out[fi].deferred.emplace_back(lam.body_begin, lam.body_end);
    }
  }
  return out;
}

/// Mutex expressions of a guard declaration's constructor arguments, tag
/// arguments stripped.
std::vector<std::string> guard_mutex_args(const ParsedDecl& decl) {
  std::vector<std::string> out;
  for (const std::string& arg : decl.init_args) {
    bool tag = false;
    for (const std::string_view t : kLockTags)
      if (arg.size() >= t.size() &&
          std::string_view(arg).substr(arg.size() - t.size()) == t)
        tag = true;
    if (!tag) out.push_back(arg);
  }
  return out;
}

bool decl_has_tag(const ParsedDecl& decl, std::string_view tag) {
  for (const std::string& arg : decl.init_args)
    if (arg.size() >= tag.size() &&
        std::string_view(arg).substr(arg.size() - tag.size()) == tag)
      return true;
  return false;
}

/// Builds the acquisition model of one function body.
void model_acquisitions(const SymbolMaps& maps, const Project& project,
                        const CallGraphNode& node, const LambdaCtx& lctx,
                        FnInfo& info) {
  const std::size_t fi = static_cast<std::size_t>(node.file);
  const ParsedSource& parsed = project.files[fi].parsed;
  const ParsedFunction& fn =
      parsed.functions[static_cast<std::size_t>(node.fn)];
  int group = 0;

  for (const ParsedDecl& decl : parsed.decls) {
    if (decl.name_index <= fn.body_begin || decl.name_index >= fn.body_end)
      continue;
    if (!is_guard_type(decl.type_tokens)) continue;
    const ParsedScope& sc =
        parsed.scopes[static_cast<std::size_t>(std::max(decl.scope, 0))];
    const std::size_t scope_end = std::min(sc.end, fn.body_end);
    UseContext use{&parsed, decl.name_index, node.class_name, node.qualified};
    const std::vector<std::string> args = guard_mutex_args(decl);
    // A deferred unique_lock holds from the explicit `name.lock()` on;
    // everything else holds from the declaration.
    std::size_t begin = decl.name_index;
    if (decl_has_tag(decl, "defer_lock")) {
      begin = 0;
      for (const ParsedCall& call : parsed.calls)
        if (call.member_call && call.callee == "lock" &&
            call.receiver == decl.name && call.name_index > decl.name_index &&
            call.name_index < scope_end) {
          begin = call.name_index;
          break;
        }
      if (begin == 0) continue;  // declared deferred, never locked
    }
    std::size_t end = scope_end;
    for (const ParsedCall& call : parsed.calls)
      if (call.member_call && call.callee == "unlock" &&
          call.receiver == decl.name && call.name_index > begin &&
          call.name_index < end)
        end = call.name_index;
    const bool adopted = decl_has_tag(decl, "adopt_lock");
    const int this_group = args.size() > 1 ? group++ : -1;
    for (const std::string& arg : args) {
      Acq a;
      a.mutex = resolve_mutex(maps, use, arg);
      a.begin = begin;
      a.end = end;
      a.line = decl.line;
      a.group = this_group;
      a.orders = !adopted;
      a.ctx = lctx.ctx_of(decl.name_index);
      a.via = decl.name;
      info.acqs.push_back(std::move(a));
    }
  }

  // Raw `m.lock()` on something that is not a guard variable.
  for (const ParsedCall& call : parsed.calls) {
    if (call.name_index <= fn.body_begin || call.name_index >= fn.body_end)
      continue;
    if (!call.member_call || call.callee != "lock" || call.receiver.empty())
      continue;
    UseContext use{&parsed, call.name_index, node.class_name, node.qualified};
    const std::vector<std::string> chain =
        receiver_chain(project.files[fi].lexed.tokens, call.name_index);
    const std::vector<std::string> rtype = type_of_chain(maps, use, chain);
    if (is_guard_type(rtype)) continue;  // deferred guard, handled above
    std::string expr;
    for (const std::string& seg : chain) {
      if (!expr.empty()) expr += ".";
      expr += seg;
    }
    Acq a;
    a.mutex = resolve_mutex(maps, use, expr);
    a.begin = call.name_index;
    a.end = fn.body_end;
    a.line = call.line;
    a.ctx = lctx.ctx_of(call.name_index);
    for (const ParsedCall& u : parsed.calls)
      if (u.member_call && u.callee == "unlock" &&
          u.receiver == call.receiver && u.name_index > a.begin &&
          u.name_index < a.end)
        a.end = u.name_index;
    info.acqs.push_back(std::move(a));
  }

  std::stable_sort(info.acqs.begin(), info.acqs.end(),
                   [](const Acq& a, const Acq& b) { return a.begin < b.begin; });
  for (const Acq& a : info.acqs)
    if (a.orders && a.ctx < 0) info.acquires.insert(a.mutex);
}

/// Acquisitions held over token `k`: the interval covers `k` and the
/// acquisition happened in the same deferred-lambda context (a lock taken
/// in the enclosing function is *not* held inside a thread-body lambda
/// that merely happens to be written under it, and vice versa).
std::vector<const Acq*> held_at(const FnInfo& info, std::size_t k, int ctx) {
  std::vector<const Acq*> held;
  for (const Acq& a : info.acqs)
    if (a.begin < k && k < a.end && a.ctx == ctx) held.push_back(&a);
  return held;
}

std::string held_names(const std::vector<const Acq*>& held) {
  std::set<std::string> names;
  for (const Acq* a : held) names.insert(a->mutex);
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += "'" + n + "'";
  }
  return out;
}

}  // namespace

std::vector<LintDiagnostic> check_locks(const Project& project,
                                        const CallGraph& graph,
                                        LockGraph* out_graph) {
  std::vector<LintDiagnostic> out;
  const Reporter report{project, out};
  const SymbolMaps maps = build_symbol_maps(project);
  const std::vector<LambdaCtx> lambda_ctx = build_lambda_ctx(project);

  // Resolve annotation guards in their class context.
  std::vector<GuardedMember> guarded = maps.guarded;
  for (GuardedMember& g : guarded) {
    const ParsedSource& parsed =
        project.files[static_cast<std::size_t>(g.file)].parsed;
    UseContext use{&parsed, g.name_index, g.class_key, ""};
    g.guard_id = resolve_mutex(maps, use, g.guard_expr);
  }

  // Per-file map from token index to parsed call, to line graph sites up
  // with the parser's richer call records.
  std::vector<std::map<std::size_t, const ParsedCall*>> call_at(
      project.files.size());
  for (std::size_t fi = 0; fi < project.files.size(); ++fi)
    for (const ParsedCall& call : project.files[fi].parsed.calls)
      call_at[fi].emplace(call.name_index, &call);

  // ---- per-function lock model -----------------------------------------
  std::vector<FnInfo> info(graph.nodes.size());
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    model_acquisitions(maps, project, node,
                       lambda_ctx[static_cast<std::size_t>(node.file)],
                       info[n]);
  }

  // Kept call sites: project-internal, outside contract macros, outside
  // deferred lambda bodies (those run on another thread, not under the
  // caller's locks), and not a member call on an opaque std type (the
  // may-call heuristic must not map `cv.wait` onto a project `wait`).
  for (std::size_t si = 0; si < graph.sites.size(); ++si) {
    const CallSite& site = graph.sites[si];
    if (site.caller < 0 || site.contract_site || site.targets.empty())
      continue;
    const std::size_t fi = static_cast<std::size_t>(site.file);
    if (lambda_ctx[fi].ctx_of(site.name_index) >= 0) continue;
    const auto ci = call_at[fi].find(site.name_index);
    if (ci != call_at[fi].end() && ci->second->member_call) {
      const CallGraphNode& caller =
          graph.nodes[static_cast<std::size_t>(site.caller)];
      const ParsedSource& parsed = project.files[fi].parsed;
      UseContext use{&parsed, site.name_index, caller.class_name,
                     caller.qualified};
      const std::vector<std::string> rtype = type_of_chain(
          maps, use,
          receiver_chain(project.files[fi].lexed.tokens, site.name_index));
      bool opaque = false;
      for (const std::string_view t : kStdOpaqueTypes)
        if (has_type_token(rtype, t)) opaque = true;
      if (opaque) continue;
    }
    info[static_cast<std::size_t>(site.caller)].kept_sites.push_back(
        static_cast<int>(si));
  }

  // ---- lexical blocking leaves -----------------------------------------
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    const std::size_t fi = static_cast<std::size_t>(node.file);
    const ParsedSource& parsed = project.files[fi].parsed;
    const ParsedFunction& fn =
        parsed.functions[static_cast<std::size_t>(node.fn)];
    for (const ParsedCall& call : parsed.calls) {
      if (call.name_index <= fn.body_begin || call.name_index >= fn.body_end)
        continue;
      if (lambda_ctx[fi].ctx_of(call.name_index) >= 0) continue;
      std::string what;
      if (in_set(kBlockingSyscalls, std::string_view(call.callee))) {
        what = "syscall '" + call.callee + "'";
      } else if (in_set(kSleepCalls, std::string_view(call.callee))) {
        what = "sleep via '" + call.callee + "'";
      } else if (call.member_call &&
                 in_set(kWaitCalls, std::string_view(call.callee))) {
        UseContext use{&parsed, call.name_index, node.class_name,
                       node.qualified};
        const std::vector<std::string> rtype = type_of_chain(
            maps, use,
            receiver_chain(project.files[fi].lexed.tokens, call.name_index));
        // Unresolvable receivers count as waits: missing a real cv wait
        // is worse than a false positive the fix-or-justify flow catches.
        if (has_type_token(rtype, "condition_variable") || rtype.empty())
          what = "condition wait via '." + call.callee + "()'";
      }
      if (what.empty()) continue;
      if (!info[n].blocking) {
        info[n].blocking = true;
        info[n].leaf_what = what;
        info[n].leaf_where = project.files[fi].path + ":" +
                             std::to_string(call.line);
      }
    }
  }

  // ---- transitive closures over kept sites -----------------------------
  // acquires*: every mutex a call into `n` may take, any depth.
  std::vector<std::set<std::string>> acq_star(graph.nodes.size());
  for (std::size_t n = 0; n < graph.nodes.size(); ++n)
    acq_star[n] = info[n].acquires;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n)
      for (const int si : info[n].kept_sites)
        for (const int t : graph.sites[static_cast<std::size_t>(si)].targets)
          for (const std::string& m : acq_star[static_cast<std::size_t>(t)])
            if (acq_star[n].insert(m).second) changed = true;
  }
  // blocking*: a function blocks when a kept callee blocks.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (info[n].blocking) continue;
      for (const int si : info[n].kept_sites) {
        for (const int t : graph.sites[static_cast<std::size_t>(si)].targets) {
          const FnInfo& ti = info[static_cast<std::size_t>(t)];
          if (!ti.blocking) continue;
          info[n].blocking = true;
          info[n].leaf_what = ti.leaf_what;
          info[n].leaf_where = ti.leaf_where;
          changed = true;
          break;
        }
        if (info[n].blocking) break;
      }
    }
  }

  // held-at-entry: the intersection over every kept call site of what the
  // caller holds there (plus what the caller itself was entered with).
  // Nodes with no kept caller at all are public entry points and must
  // assume nothing; nodes whose callers are all still unconstrained (top)
  // wait -- a top caller contributes no constraint yet. Caller-less call
  // cycles stay top forever and read as "nothing held", the conservative
  // answer for code only a thread entry reaches.
  struct Entry {
    bool top = true;
    std::set<std::string> held;  ///< empty while `top`
  };
  std::vector<Entry> entry(graph.nodes.size());
  {
    std::vector<bool> has_caller(graph.nodes.size(), false);
    for (std::size_t n = 0; n < graph.nodes.size(); ++n)
      for (const int si : info[n].kept_sites)
        for (const int t : graph.sites[static_cast<std::size_t>(si)].targets)
          has_caller[static_cast<std::size_t>(t)] = true;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n)
      if (!has_caller[n]) entry[n].top = false;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      const Entry& caller_entry = entry[n];
      if (caller_entry.top) continue;  // no constraint to propagate yet
      for (const int si : info[n].kept_sites) {
        const CallSite& site = graph.sites[static_cast<std::size_t>(si)];
        std::set<std::string> contrib = caller_entry.held;
        for (const Acq* a : held_at(info[n], site.name_index, -1))
          contrib.insert(a->mutex);
        for (const int t : site.targets) {
          Entry& e = entry[static_cast<std::size_t>(t)];
          if (e.top) {
            e.top = false;
            e.held = contrib;
            changed = true;
          } else {
            std::set<std::string> inter;
            std::set_intersection(e.held.begin(), e.held.end(),
                                  contrib.begin(), contrib.end(),
                                  std::inserter(inter, inter.begin()));
            if (inter != e.held) {
              e.held = std::move(inter);
              changed = true;
            }
          }
        }
      }
    }
  }

  // ---- lock-order edges ------------------------------------------------
  struct EdgeRec {
    std::string from, to;
    int file = -1;
    std::size_t line = 0;
    std::string holder;
  };
  std::vector<EdgeRec> raw_edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            int file, std::size_t line,
                            const std::string& holder) {
    if (from == to) return;
    const std::size_t fi = static_cast<std::size_t>(file);
    if (!project.files[fi].path.starts_with("src/")) return;
    if (lint_suppressed(project.raw_line(fi, line),
                        project.files[fi].content,
                        "lock-order-inversion"))
      return;
    if (justified(project, fi, line, "lock-order-inversion")) return;
    raw_edges.push_back(EdgeRec{from, to, file, line, holder});
  };

  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    // Lexical nesting: acquiring `a` while `h` is held orders h -> a.
    for (const Acq& a : info[n].acqs) {
      if (!a.orders) continue;
      for (const Acq* h : held_at(info[n], a.begin, a.ctx)) {
        if (h->group >= 0 && h->group == a.group) continue;
        add_edge(h->mutex, a.mutex, node.file, a.line, node.qualified);
      }
    }
    // Interprocedural: calling into anything that may acquire `m` while
    // `h` is held orders h -> m at the call site.
    for (const int si : info[n].kept_sites) {
      const CallSite& site = graph.sites[static_cast<std::size_t>(si)];
      const std::vector<const Acq*> held =
          held_at(info[n], site.name_index, -1);
      if (held.empty()) continue;
      std::set<std::string> callee_acqs;
      for (const int t : site.targets)
        callee_acqs.insert(acq_star[static_cast<std::size_t>(t)].begin(),
                           acq_star[static_cast<std::size_t>(t)].end());
      for (const Acq* h : held)
        for (const std::string& m : callee_acqs)
          add_edge(h->mutex, m, site.file, site.line, node.qualified);
    }
  }

  // Dedup to the earliest witness per (from, to), deterministically.
  std::stable_sort(raw_edges.begin(), raw_edges.end(),
                   [&](const EdgeRec& a, const EdgeRec& b) {
                     return std::tie(a.from, a.to,
                                     project.files[static_cast<std::size_t>(
                                         a.file)].path,
                                     a.line, a.holder) <
                            std::tie(b.from, b.to,
                                     project.files[static_cast<std::size_t>(
                                         b.file)].path,
                                     b.line, b.holder);
                   });
  raw_edges.erase(std::unique(raw_edges.begin(), raw_edges.end(),
                              [](const EdgeRec& a, const EdgeRec& b) {
                                return a.from == b.from && a.to == b.to;
                              }),
                  raw_edges.end());

  // ---- Tarjan SCC over the mutex graph ---------------------------------
  std::set<std::string> mutex_names;
  for (std::size_t n = 0; n < graph.nodes.size(); ++n)
    if (project.files[static_cast<std::size_t>(graph.nodes[n].file)]
            .path.starts_with("src/"))
      mutex_names.insert(info[n].acquires.begin(), info[n].acquires.end());
  for (const EdgeRec& e : raw_edges) {
    mutex_names.insert(e.from);
    mutex_names.insert(e.to);
  }
  std::map<std::string, int> mutex_id;
  std::vector<std::string> mutex_list(mutex_names.begin(), mutex_names.end());
  for (int i = 0; i < static_cast<int>(mutex_list.size()); ++i)
    mutex_id[mutex_list[static_cast<std::size_t>(i)]] = i;
  std::vector<std::vector<int>> adj(mutex_list.size());
  for (const EdgeRec& e : raw_edges)
    adj[static_cast<std::size_t>(mutex_id[e.from])].push_back(mutex_id[e.to]);

  const int kUnvisited = -1;
  std::vector<int> index_of(mutex_list.size(), kUnvisited);
  std::vector<int> lowlink(mutex_list.size(), 0);
  std::vector<bool> on_stack(mutex_list.size(), false);
  std::vector<int> comp(mutex_list.size(), -1);
  std::vector<int> comp_size;
  std::vector<int> stack;
  int next_index = 0;
  // Iterative Tarjan (explicit frames) so deep graphs cannot overflow.
  struct Frame {
    int v;
    std::size_t child = 0;
  };
  for (int root = 0; root < static_cast<int>(mutex_list.size()); ++root) {
    if (index_of[static_cast<std::size_t>(root)] != kUnvisited) continue;
    std::vector<Frame> frames{{root, 0}};
    index_of[static_cast<std::size_t>(root)] = lowlink[static_cast<std::size_t>(
        root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = static_cast<std::size_t>(f.v);
      if (f.child < adj[v].size()) {
        const int w = adj[v][f.child++];
        const std::size_t wu = static_cast<std::size_t>(w);
        if (index_of[wu] == kUnvisited) {
          index_of[wu] = lowlink[wu] = next_index++;
          stack.push_back(w);
          on_stack[wu] = true;
          frames.push_back({w, 0});
        } else if (on_stack[wu]) {
          lowlink[v] = std::min(lowlink[v], index_of[wu]);
        }
      } else {
        if (lowlink[v] == index_of[v]) {
          const int c = static_cast<int>(comp_size.size());
          int members = 0;
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = c;
            ++members;
            if (w == f.v) break;
          }
          comp_size.push_back(members);
        }
        frames.pop_back();
        if (!frames.empty()) {
          const std::size_t p = static_cast<std::size_t>(frames.back().v);
          lowlink[p] = std::min(lowlink[p], lowlink[v]);
        }
      }
    }
  }

  LockGraph lg;
  lg.mutexes = mutex_list;
  for (const EdgeRec& e : raw_edges) {
    const int cf = comp[static_cast<std::size_t>(mutex_id[e.from])];
    const int ct = comp[static_cast<std::size_t>(mutex_id[e.to])];
    LockOrderEdge edge;
    edge.from = e.from;
    edge.to = e.to;
    edge.witness_file = project.files[static_cast<std::size_t>(e.file)].path;
    edge.witness_line = e.line;
    edge.holder = e.holder;
    edge.in_cycle = cf == ct && comp_size[static_cast<std::size_t>(cf)] > 1;
    lg.edges.push_back(std::move(edge));
  }

  for (std::size_t i = 0; i < lg.edges.size(); ++i) {
    const LockOrderEdge& e = lg.edges[i];
    if (!e.in_cycle) continue;
    // Prefer the direct reverse edge's witness in the message; fall back
    // to naming the cycle's members for longer cycles.
    std::string elsewhere;
    for (const LockOrderEdge& r : lg.edges)
      if (r.from == e.to && r.to == e.from && r.in_cycle) {
        elsewhere = "'" + e.to + "' is acquired before '" + e.from +
                    "' at " + r.witness_file + ":" +
                    std::to_string(r.witness_line);
        break;
      }
    if (elsewhere.empty()) {
      std::string members;
      const int c = comp[static_cast<std::size_t>(mutex_id.at(e.from))];
      for (const std::string& m : mutex_list)
        if (comp[static_cast<std::size_t>(mutex_id.at(m))] == c) {
          if (!members.empty()) members += ", ";
          members += "'" + m + "'";
        }
      elsewhere = "the cycle runs through " + members;
    }
    report(static_cast<std::size_t>(raw_edges[i].file), e.witness_line,
           "lock-order-inversion",
           "'" + e.to + "' is acquired while '" + e.from + "' is held in '" +
               e.holder + "', but elsewhere the order is reversed (" +
               elsewhere +
               "); pick one global order or justify with "
               "ntr-lock-order-inversion(<why>)");
  }

  // ---- blocking-under-lock ---------------------------------------------
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    const std::size_t fi = static_cast<std::size_t>(node.file);
    if (!project.files[fi].path.starts_with("src/")) continue;
    const ParsedSource& parsed = project.files[fi].parsed;
    const ParsedFunction& fn =
        parsed.functions[static_cast<std::size_t>(node.fn)];

    // Lexical blocking operations under a held lock.
    for (const ParsedCall& call : parsed.calls) {
      if (call.name_index <= fn.body_begin || call.name_index >= fn.body_end)
        continue;
      const int ctx = lambda_ctx[fi].ctx_of(call.name_index);
      std::string what;
      std::set<std::string> exempt;
      if (in_set(kBlockingSyscalls, std::string_view(call.callee))) {
        what = "syscall '" + call.callee + "'";
      } else if (in_set(kSleepCalls, std::string_view(call.callee))) {
        what = "sleep via '" + call.callee + "'";
      } else if (call.member_call &&
                 in_set(kWaitCalls, std::string_view(call.callee))) {
        what = "condition wait via '." + call.callee + "()'";
        // Waiting *releases* the guard passed as the first argument --
        // that mutex is the wait's own discipline, not a finding.
        const std::vector<Token>& toks = project.files[fi].lexed.tokens;
        if (call.lparen + 1 < toks.size() &&
            toks[call.lparen + 1].kind == TokenKind::kIdentifier) {
          const std::string& arg = toks[call.lparen + 1].text;
          for (const Acq& a : info[n].acqs)
            if (!a.via.empty() && a.via == arg) exempt.insert(a.mutex);
        }
      }
      if (what.empty()) continue;
      std::vector<const Acq*> held = held_at(info[n], call.name_index, ctx);
      std::erase_if(held,
                    [&](const Acq* a) { return exempt.contains(a->mutex); });
      if (held.empty()) continue;
      report(fi, call.line, "blocking-under-lock",
             what + " while holding " + held_names(held) + " in '" +
                 node.qualified +
                 "' stalls every contender; move the blocking work outside "
                 "the critical section or justify with "
                 "ntr-blocking-under-lock(<why>)");
    }

    // Calls into transitively blocking callees under a held lock.
    for (const int si : info[n].kept_sites) {
      const CallSite& site = graph.sites[static_cast<std::size_t>(si)];
      const std::vector<const Acq*> held =
          held_at(info[n], site.name_index, -1);
      if (held.empty()) continue;
      int blocker = -1;
      for (const int t : site.targets)
        if (info[static_cast<std::size_t>(t)].blocking &&
            (blocker < 0 || t < blocker))
          blocker = t;
      if (blocker < 0) continue;
      const FnInfo& bi = info[static_cast<std::size_t>(blocker)];
      report(fi, site.line, "blocking-under-lock",
             "call to '" +
                 graph.nodes[static_cast<std::size_t>(blocker)].qualified +
                 "' may block (" + bi.leaf_what + " at " + bi.leaf_where +
                 ") while holding " + held_names(held) + " in '" +
                 node.qualified +
                 "'; move the blocking work outside the critical section or "
                 "justify with ntr-blocking-under-lock(<why>)");
    }
  }

  // ---- unguarded-member-access -----------------------------------------
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    if (!node.has_body) continue;
    const std::size_t fi = static_cast<std::size_t>(node.file);
    if (!project.files[fi].path.starts_with("src/")) continue;
    const ParsedSource& parsed = project.files[fi].parsed;
    const ParsedFunction& fn =
        parsed.functions[static_cast<std::size_t>(node.fn)];
    const std::vector<Token>& toks = project.files[fi].lexed.tokens;

    for (const GuardedMember& g : guarded) {
      for (std::size_t k = fn.body_begin; k < fn.body_end && k < toks.size();
           ++k) {
        if (toks[k].kind != TokenKind::kIdentifier || toks[k].text != g.name)
          continue;
        if (g.file == static_cast<int>(fi) && g.name_index == k)
          continue;  // the declaration itself
        if (k >= 1 && toks[k - 1].text == "::") continue;
        bool access = false;
        if (k >= 2 && (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
            toks[k - 2].kind == TokenKind::kIdentifier) {
          const std::string& recv = toks[k - 2].text;
          if (recv == "this") {
            access = node.class_name == g.class_key;
          } else {
            UseContext use{&parsed, k, node.class_name, node.qualified};
            access =
                owner_type_of(type_of_name(maps, use, recv)) == g.class_key;
          }
        } else if (k >= 1 &&
                   (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
          continue;  // member of a longer expression; documented limit
        } else if (node.class_name == g.class_key) {
          // Bare use inside a method of the owning class, unless a local
          // or parameter shadows the member.
          const ParsedDecl* d = parsed.lookup(g.name, k);
          access = d == nullptr ||
                   parsed.scopes[static_cast<std::size_t>(
                                     std::max(d->scope, 0))].kind ==
                       ParsedScope::Kind::kClass;
        }
        if (!access) continue;
        const int ctx = lambda_ctx[fi].ctx_of(k);
        std::set<std::string> held;
        for (const Acq* a : held_at(info[n], k, ctx)) held.insert(a->mutex);
        if (ctx < 0)
          held.insert(entry[n].held.begin(), entry[n].held.end());
        if (held.contains(g.guard_id)) continue;
        report(fi, toks[k].line, "unguarded-member-access",
               "'" + g.qualified + "' is NTR_GUARDED_BY('" + g.guard_id +
                   "') but '" + node.qualified +
                   "' touches it without that lock held; take the lock or "
                   "justify with ntr-unguarded-member-access(<why>)");
      }
    }
  }

  std::stable_sort(
      out.begin(), out.end(),
      [](const LintDiagnostic& a, const LintDiagnostic& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
      });
  if (out_graph != nullptr) *out_graph = std::move(lg);
  return out;
}

std::string lock_graph_dot(const LockGraph& graph) {
  std::string dot;
  dot += "digraph lockgraph {\n";
  dot += "  rankdir=LR;\n";
  dot += "  node [shape=box, fontname=\"Helvetica\", fontsize=10];\n";
  dot += "  edge [fontname=\"Helvetica\", fontsize=8];\n";
  for (const std::string& m : graph.mutexes)
    dot += "  \"" + m + "\";\n";
  for (const LockOrderEdge& e : graph.edges) {
    dot += "  \"" + e.from + "\" -> \"" + e.to + "\" [label=\"" + e.witness_file + "\"";
    if (e.in_cycle) dot += ", color=red, penwidth=2";
    dot += "];\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace ntr::analyze
