#include "analyze/taint.h"

#include <algorithm>
#include <array>
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

/// Calls whose *return value* crosses the trust boundary: socket reads,
/// environment, parsed JSON scalars, net-file readers, string-to-number
/// parsers applied to untrusted text.
constexpr std::array<std::string_view, 21> kSourceCalls = {
    "recv",         "recvfrom",     "chaos_recv",  "read",
    "getenv",       "as_number",    "as_string",   "read_net",
    "read_routing", "read_net_file", "read_routing_file",
    "try_read_net", "try_read_routing", "stoi",    "stol",
    "stoul",        "stoull",       "stod",        "strtod",
    "strtol",       "atoi"};

/// Source calls that also write untrusted bytes into an argument; the
/// value is the 0-based index of the buffer argument they fill.
constexpr std::array<std::pair<std::string_view, int>, 6> kSourceBufArg = {
    {{"recv", 1},
     {"recvfrom", 1},
     {"chaos_recv", 1},
     {"read", 1},
     {"getline", 1},
     {"fread", 0}}};

/// Calls whose result is range-bounded by construction; arguments passed
/// through them are treated as clamped.
constexpr std::array<std::string_view, 2> kClampCalls = {"min", "clamp"};

/// Contract macros whose argument list counts as a validating context,
/// exactly like an `if` condition.
constexpr std::array<std::string_view, 2> kCheckMacros = {"NTR_CHECK",
                                                          "NTR_DCHECK"};

/// Member calls whose argument sizes an allocation on the receiver.
/// (`assign` is deliberately absent: its arguments mix counts with
/// copied *values*, and a tainted value is data movement, not a size.)
constexpr std::array<std::string_view, 2> kSinkMembers = {"resize", "reserve"};

/// Members whose result is derived from data the process already holds:
/// the size of a materialized buffer is bounded by whatever admission
/// check let the buffer in (the frame cap, the file), so it is not
/// attacker-amplifiable the way a decoded length integer is.
constexpr std::array<std::string_view, 4> kCleanMembers = {"size", "length",
                                                           "empty", "capacity"};

/// Free sink calls, mapped to the 0-based indices of their size/length
/// arguments (-1: every argument counts).
constexpr std::array<std::pair<std::string_view, int>, 8> kSinkCallArg = {
    {{"memcpy", 2},
     {"memmove", 2},
     {"memset", 2},
     {"strncpy", 2},
     {"alloca", 0},
     {"malloc", 0},
     {"calloc", -1},
     {"realloc", 1}}};

constexpr std::array<std::string_view, 4> kRelational = {"<", ">", "<=", ">="};

bool is_ident(const Token& t);
bool is_punct(const Token& t, std::string_view s);

/// True when the identifier at `k` is read only through a clean member
/// (`x.size()`, `x->length()`): the use contributes no taint.
bool clean_member_use(const std::vector<Token>& toks, std::size_t k) {
  if (k + 3 >= toks.size()) return false;
  if (!is_punct(toks[k + 1], ".") && !is_punct(toks[k + 1], "->"))
    return false;
  return is_ident(toks[k + 2]) &&
         in_set(kCleanMembers, std::string_view(toks[k + 2].text)) &&
         is_punct(toks[k + 3], "(");
}

/// Container types whose operator[] is an associative lookup, not an
/// offset into storage -- indexing them with untrusted data is not an
/// out-of-bounds risk.
constexpr std::array<std::string_view, 4> kAssociativeTypes = {
    "map", "unordered_map", "set", "unordered_set"};

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }
bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

/// Matching closer of the opener at `open`, or `toks.size()` when
/// unbalanced. Counts only the one bracket kind, which is safe for the
/// bodies the recognizers hand it.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          std::string_view o, std::string_view c) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (is_punct(toks[k], o)) ++depth;
    if (is_punct(toks[k], c) && --depth == 0) return k;
  }
  return toks.size();
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

// ---------------------------------------------------------- taint lattice

/// The taint of one expression or declared name: whether untrusted source
/// data may reach it (with the first-seen provenance for messages), and
/// which of the enclosing function's parameters may flow into it.
struct Taint {
  bool src = false;
  std::string desc;     ///< provenance, e.g. "recv()" -- first seen wins
  std::set<int> params;

  bool any() const { return src || !params.empty(); }
  bool merge(const Taint& o) {
    bool changed = false;
    if (o.src && !src) {
      src = true;
      desc = o.desc;
      changed = true;
    }
    for (const int p : o.params) changed |= params.insert(p).second;
    return changed;
  }
};

Taint src_taint(std::string desc) {
  Taint t;
  t.src = true;
  t.desc = std::move(desc);
  return t;
}

/// One parameter-reaches-sink record in a function summary. `chain` is
/// the human-readable continuation of a witness message ("sinks it into
/// ... at file:line", or "forwards it to 'g', which <g's chain>");
/// `path` is the qualified functions from the summary's owner down to
/// the sinking function, for the flow graph.
struct SinkHit {
  std::string chain;
  std::string sink_id;  ///< "sink:<desc> @ <file>:<line>"
  std::vector<std::string> path;
};

/// The exported behavior of one function definition, iterated to
/// fixpoint over the call graph. Every field grows monotonically, so the
/// fixpoint terminates and first-seen provenance strings are stable.
struct Summary {
  bool returns_src = false;
  std::string src_desc;
  std::set<int> param_to_return;  ///< params that flow to the return value
  std::set<int> param_out_src;    ///< ref/ptr params written with source data
  std::string out_src_desc;
  std::map<int, SinkHit> param_to_sink;
};

// ------------------------------------------------------ per-function view

/// Everything syntactic the evaluator needs about one function body,
/// built once; the taint environment itself is rebuilt every fixpoint
/// round.
struct FnCtx {
  std::size_t file = 0;
  const ParsedSource* parsed = nullptr;
  const std::vector<Token>* toks = nullptr;
  const ParsedFunction* fn = nullptr;
  std::string qualified;
  bool skip = false;  ///< NTR_VALIDATED on the function: trusted boundary
  std::vector<const ParsedDecl*> params;            ///< in position order
  std::vector<const ParsedDecl*> body_decls;        ///< non-param, in body
  std::vector<std::pair<const ParsedDecl*, std::pair<std::size_t, std::size_t>>>
      decl_inits;                                   ///< decl -> init range
  std::vector<const ParsedCall*> calls;             ///< in body
  std::set<const ParsedDecl*> sanitized;
  std::set<std::size_t> decl_name_indices;  ///< for array-decl recognition
};

using Env = std::map<const ParsedDecl*, Taint>;

struct Pass {
  const Project& project;
  const CallGraph& graph;
  Reporter report;

  std::vector<Summary> summaries = {};
  std::vector<FnCtx> ctxs = {};
  /// Per file: token index of a callee -> its parsed call / graph site.
  std::vector<std::map<std::size_t, const ParsedCall*>> call_at = {};
  std::vector<std::map<std::size_t, int>> site_at = {};
  std::map<std::string, int> def_of = {};  ///< qualified -> defining node
  std::vector<std::set<std::size_t>> lambda_intros = {};  ///< per file

  // Flow-graph accumulators, deduplicated and sorted at the end.
  std::map<std::string, TaintFlowNode::Kind> gnodes = {};
  std::map<std::tuple<std::string, std::string, std::string>, bool> gedges =
      {};

  void add_node(const std::string& id, TaintFlowNode::Kind kind) {
    gnodes.emplace(id, kind);
  }
  void add_edge(const std::string& from, const std::string& to,
                const std::string& label, bool hot) {
    auto [it, inserted] = gedges.emplace(std::make_tuple(from, to, label), hot);
    if (!inserted) it->second = it->second || hot;
  }

  /// A site carries summaries only when resolution narrowed it to one
  /// entity: either truly resolved, or every candidate shares one
  /// qualified name -- the declaration/definition pair a header
  /// introduces for a cross-file free call. A may-call fan across
  /// *different* entities (`find`, `value`) stays excluded.
  bool single_entity(const CallSite& site) const {
    if (site.targets.empty()) return false;
    if (site.resolved) return true;
    const std::string& q =
        graph.nodes[static_cast<std::size_t>(site.targets.front())].qualified;
    for (const int t : site.targets)
      if (graph.nodes[static_cast<std::size_t>(t)].qualified != q) return false;
    return true;
  }

  const Summary* summary_of(int target) const {
    const CallGraphNode& node = graph.nodes[static_cast<std::size_t>(target)];
    if (node.has_body) return &summaries[static_cast<std::size_t>(target)];
    const auto it = def_of.find(node.qualified);
    if (it != def_of.end())
      return &summaries[static_cast<std::size_t>(it->second)];
    return nullptr;
  }

  Taint eval(const FnCtx& ctx, const Env& env, std::size_t b, std::size_t e,
             int depth) const;
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
      const FnCtx& ctx, const ParsedCall& call) const;
  const ParsedDecl* arg_root(const FnCtx& ctx,
                             std::pair<std::size_t, std::size_t> range) const;
  Summary compute(const FnCtx& ctx, bool report_pass,
                  std::vector<LintDiagnostic>* findings);
};

/// Splits a call's argument list at top-level commas into token ranges.
std::vector<std::pair<std::size_t, std::size_t>> Pass::arg_ranges(
    const FnCtx& ctx, const ParsedCall& call) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::vector<Token>& toks = *ctx.toks;
  if (call.lparen + 1 >= call.rparen || call.rparen >= toks.size()) return out;
  int depth = 0;
  std::size_t begin = call.lparen + 1;
  for (std::size_t k = begin; k < call.rparen; ++k) {
    const Token& t = toks[k];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) ++depth;
    if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) --depth;
    if (depth == 0 && is_punct(t, ",")) {
      out.emplace_back(begin, k);
      begin = k + 1;
    }
  }
  if (begin < call.rparen) out.emplace_back(begin, call.rparen);
  return out;
}

/// The declared name an argument expression roots in: the first
/// identifier token of the range (`&req` -> req, `buf.data()` -> buf).
/// Null when the range has no resolvable leading name.
const ParsedDecl* Pass::arg_root(
    const FnCtx& ctx, std::pair<std::size_t, std::size_t> range) const {
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t k = range.first; k < range.second; ++k) {
    if (!is_ident(toks[k])) continue;
    return ctx.parsed->lookup(toks[k].text, k);
  }
  return nullptr;
}

/// The taint of the expression spanning tokens [b, e): the union over
/// every tainted name read at top level, every source call, and every
/// project call whose summary propagates (its non-propagated arguments
/// are skipped, so `f(n)` does not taint through an `f` that ignores
/// `n`). `std::min`/`std::clamp` results are clean by construction;
/// unknown external calls propagate their arguments, the conservative
/// default.
Taint Pass::eval(const FnCtx& ctx, const Env& env, std::size_t b,
                 std::size_t e, int depth) const {
  Taint t;
  if (depth > 16) return t;
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t k = b; k < e && k < toks.size(); ++k) {
    const Token& tok = toks[k];
    if (!is_ident(tok)) continue;
    if (tok.text == "reinterpret_cast") {
      t.merge(src_taint("raw byte reinterpretation"));
      continue;
    }
    const auto ci = call_at[ctx.file].find(k);
    if (ci != call_at[ctx.file].end()) {
      const ParsedCall& call = *ci->second;
      if (in_set(kSourceCalls, std::string_view(call.callee))) {
        t.merge(src_taint(call.callee + "()"));
        k = call.rparen;
        continue;
      }
      if (in_set(kClampCalls, std::string_view(call.callee))) {
        k = call.rparen;
        continue;
      }
      const auto si = site_at[ctx.file].find(k);
      if (si != site_at[ctx.file].end()) {
        const CallSite& site =
            graph.sites[static_cast<std::size_t>(si->second)];
        // Summaries apply only through single-entity sites: a may-call
        // fan to every project method of a colliding name (`find`,
        // `value`) would flood the pass with cross-module phantom flows.
        if (single_entity(site)) {
          const auto args = arg_ranges(ctx, call);
          for (const int target : site.targets) {
            const Summary* s = summary_of(target);
            if (s == nullptr) continue;
            if (s->returns_src) t.merge(src_taint(s->src_desc));
            for (const int j : s->param_to_return)
              if (static_cast<std::size_t>(j) < args.size())
                t.merge(eval(ctx, env, args[static_cast<std::size_t>(j)].first,
                             args[static_cast<std::size_t>(j)].second,
                             depth + 1));
          }
          k = call.rparen;
          continue;
        }
      }
      continue;  // unknown external call: arguments propagate
    }
    if (k > 0 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->") ||
                  is_punct(toks[k - 1], "::")))
      continue;  // member/qualifier segment, not a name read
    if (clean_member_use(toks, k)) {
      k = match_forward(toks, k + 3, "(", ")");
      continue;
    }
    const ParsedDecl* d = ctx.parsed->lookup(tok.text, k);
    if (d == nullptr || ctx.sanitized.contains(d)) continue;
    const auto ei = env.find(d);
    if (ei != env.end()) t.merge(ei->second);
  }
  return t;
}

/// Root of an assignment target, walking left from the `=` token over
/// subscripts and member chains: `r.len` -> r, `*out` -> out,
/// `v[i].field` -> v. Reports whether the chain stepped through a
/// subscript (element writes must not taint the container's *size*
/// reads) or a member (`out->nets = ...` never taints an opaque
/// parameter object).
struct AssignTarget {
  const ParsedDecl* decl = nullptr;
  bool through_subscript = false;
  bool through_member = false;
};

AssignTarget assign_target(const FnCtx& ctx, std::size_t eq) {
  AssignTarget out;
  const std::vector<Token>& toks = *ctx.toks;
  std::size_t k = eq;
  while (k > 0) {
    --k;
    if (is_punct(toks[k], "]")) {
      int depth = 0;
      while (k > 0) {
        if (is_punct(toks[k], "]")) ++depth;
        if (is_punct(toks[k], "[") && --depth == 0) break;
        --k;
      }
      out.through_subscript = true;
      continue;
    }
    if (is_ident(toks[k])) {
      if (k >= 2 && (is_punct(toks[k - 1], ".") ||
                     is_punct(toks[k - 1], "->")) &&
          is_ident(toks[k - 2])) {
        out.through_member = true;
        k -= 1;  // step over the . / -> to the previous segment
        continue;
      }
      if (k >= 1 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->")))
        return {};  // chain rooted in a call/temporary; not a name
      out.decl = ctx.parsed->lookup(toks[k].text, eq);
      return out;
    }
    return {};
  }
  return {};
}

/// True for `=`, `+=`, `<<=`, ... and false for comparisons.
bool is_assign_punct(const Token& t) {
  if (t.kind != TokenKind::kPunct || t.text.empty() || t.text.back() != '=')
    return false;
  return t.text == "=" ||
         (t.text.size() >= 2 && t.text != "==" && t.text != "!=" &&
          t.text != "<=" && t.text != ">=" && t.text != "<=>");
}

/// First `;` at or after `from` (the statement terminator the init /
/// right-hand side runs to), bounded by the body end.
std::size_t stmt_end(const std::vector<Token>& toks, std::size_t from,
                     std::size_t bound) {
  for (std::size_t k = from; k < bound && k < toks.size(); ++k)
    if (is_punct(toks[k], ";")) return k;
  return bound;
}

/// End of a declaration's initializer: the first top-level `;` or `{` --
/// or the unbalanced `)` closing the head of a range-for
/// (`for (X x : expr)`) or an if/while condition declaration, so the
/// init range never leaks into the statement's own body.
std::size_t init_end(const std::vector<Token>& toks, std::size_t from,
                     std::size_t bound) {
  int depth = 0;
  for (std::size_t k = from; k < bound && k < toks.size(); ++k) {
    if (is_punct(toks[k], "(") || is_punct(toks[k], "[")) ++depth;
    if (is_punct(toks[k], ")") || is_punct(toks[k], "]")) {
      if (--depth < 0) return k;
    }
    if (depth == 0 && (is_punct(toks[k], ";") || is_punct(toks[k], "{")))
      return k;
  }
  return bound;
}

/// Computes one function's summary; when `report_pass`, also emits
/// findings and flow-graph edges. The structure is one local fixpoint
/// (declarations, assignments, call effects, union until stable --
/// flow-insensitive by construction), then the sink and return scans
/// over the final environment.
Summary Pass::compute(const FnCtx& ctx, bool report_pass,
                      std::vector<LintDiagnostic>* findings) {
  Summary sum;
  if (ctx.skip || ctx.fn == nullptr) return sum;
  const std::vector<Token>& toks = *ctx.toks;
  const std::size_t body_b = ctx.fn->body_begin;
  const std::size_t body_e = ctx.fn->body_end;
  const std::string& file_path = project.files[ctx.file].path;
  const bool in_src = file_path.starts_with("src/");

  Env env;
  for (std::size_t i = 0; i < ctx.params.size(); ++i) {
    const ParsedDecl* p = ctx.params[i];
    if (ctx.sanitized.contains(p)) continue;
    Taint t;
    t.params.insert(static_cast<int>(i));
    env.emplace(p, t);
  }

  const auto taint_name = [&](const ParsedDecl* d, const Taint& t) {
    if (d == nullptr || ctx.sanitized.contains(d) || !t.any()) return false;
    return env[d].merge(t);
  };

  // ---- local fixpoint --------------------------------------------------
  for (int round = 0; round < 32; ++round) {
    bool changed = false;
    for (const auto& [decl, range] : ctx.decl_inits)
      changed |= taint_name(decl, eval(ctx, env, range.first, range.second, 0));
    for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
      if (!is_assign_punct(toks[k])) continue;
      if (k >= 1 && ctx.decl_name_indices.contains(k - 1))
        continue;  // a declaration's own initializer, handled above
      const AssignTarget target = assign_target(ctx, k);
      if (target.decl == nullptr || target.through_subscript) continue;
      const bool target_is_param =
          std::find(ctx.params.begin(), ctx.params.end(), target.decl) !=
          ctx.params.end();
      if (target.through_member && target_is_param)
        continue;  // field of an opaque parameter object; documented limit
      changed |= taint_name(
          target.decl,
          eval(ctx, env, k + 1, stmt_end(toks, k + 1, body_e), 0));
    }
    for (const ParsedCall* call : ctx.calls) {
      for (const auto& [name, buf_arg] : kSourceBufArg) {
        if (call->callee != name) continue;
        const auto args = arg_ranges(ctx, *call);
        if (static_cast<std::size_t>(buf_arg) < args.size())
          changed |= taint_name(
              arg_root(ctx, args[static_cast<std::size_t>(buf_arg)]),
              src_taint(call->callee + "()"));
      }
      const auto si = site_at[ctx.file].find(call->name_index);
      if (si == site_at[ctx.file].end()) continue;
      const CallSite& site = graph.sites[static_cast<std::size_t>(si->second)];
      if (!single_entity(site)) continue;
      for (const int target : site.targets) {
        const Summary* s = summary_of(target);
        if (s == nullptr || s->param_out_src.empty()) continue;
        const auto args = arg_ranges(ctx, *call);
        for (const int j : s->param_out_src)
          if (static_cast<std::size_t>(j) < args.size())
            changed |= taint_name(
                arg_root(ctx, args[static_cast<std::size_t>(j)]),
                src_taint(s->out_src_desc));
      }
    }
    if (!changed) break;
  }

  // ---- exported out-parameters -----------------------------------------
  for (std::size_t i = 0; i < ctx.params.size(); ++i) {
    const auto ei = env.find(ctx.params[i]);
    if (ei == env.end() || !ei->second.src) continue;
    const ParsedDecl& p = *ctx.params[i];
    const bool writable =
        std::find(p.type_tokens.begin(), p.type_tokens.end(), "&") !=
            p.type_tokens.end() ||
        std::find(p.type_tokens.begin(), p.type_tokens.end(), "*") !=
            p.type_tokens.end();
    if (!writable) continue;
    sum.param_out_src.insert(static_cast<int>(i));
    if (sum.out_src_desc.empty()) sum.out_src_desc = ei->second.desc;
  }

  // ---- return values ----------------------------------------------------
  for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
    if (!is_ident(toks[k]) || toks[k].text != "return") continue;
    const Taint t = eval(ctx, env, k + 1, stmt_end(toks, k + 1, body_e), 0);
    if (t.src && !sum.returns_src) {
      sum.returns_src = true;
      sum.src_desc = t.desc;
    }
    sum.param_to_return.insert(t.params.begin(), t.params.end());
  }

  // ---- sinks -------------------------------------------------------------
  const auto hit_sink = [&](const Taint& t, std::string sink_desc,
                            std::size_t line) {
    const std::string where = file_path + ":" + std::to_string(line);
    const std::string sink_id = "sink:" + sink_desc + " @ " + where;
    if (t.src && report_pass && findings != nullptr) {
      const std::size_t before = findings->size();
      report(ctx.file, line, "wire-taint",
             "value from " + t.desc + " flows into " + sink_desc + " in '" +
                 ctx.qualified +
                 "' without validation; range-check or clamp it first, mark "
                 "it NTR_VALIDATED, or justify with ntr-wire-taint(<why>)");
      if (findings->size() > before) {
        add_node("source:" + t.desc, TaintFlowNode::Kind::kSource);
        add_node("fn:" + ctx.qualified, TaintFlowNode::Kind::kFunction);
        add_node(sink_id, TaintFlowNode::Kind::kSink);
        add_edge("source:" + t.desc, "fn:" + ctx.qualified, where, true);
        add_edge("fn:" + ctx.qualified, sink_id, where, true);
      }
    }
    for (const int j : t.params) {
      SinkHit hit;
      hit.chain = "sinks it into " + sink_desc + " at " + where;
      hit.sink_id = sink_id;
      hit.path = {ctx.qualified};
      sum.param_to_sink.emplace(j, std::move(hit));
    }
  };

  for (const ParsedCall* call : ctx.calls) {
    const auto args = arg_ranges(ctx, *call);
    if (call->member_call &&
        in_set(kSinkMembers, std::string_view(call->callee))) {
      for (const auto& [ab, ae] : args)
        hit_sink(eval(ctx, env, ab, ae, 0),
                 "allocation size ('." + call->callee + "')", call->line);
    }
    for (const auto& [name, size_arg] : kSinkCallArg) {
      if (call->callee != name || call->member_call) continue;
      for (std::size_t a = 0; a < args.size(); ++a) {
        if (size_arg >= 0 && a != static_cast<std::size_t>(size_arg)) continue;
        hit_sink(eval(ctx, env, args[a].first, args[a].second, 0),
                 "length argument of '" + call->callee + "'", call->line);
      }
    }
  }

  // Subscripts: array declarations, array-new, and raw indexing.
  for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
    if (!is_punct(toks[k], "[")) continue;
    if (lambda_intros[ctx.file].contains(k)) continue;
    if ((k + 1 < toks.size() && is_punct(toks[k + 1], "[")) ||
        (k >= 1 && is_punct(toks[k - 1], "[")))
      continue;  // [[attribute]]
    const std::size_t close = match_forward(toks, k, "[", "]");
    if (close >= toks.size() || close == k + 1) continue;
    std::string sink_desc;
    if (k >= 1 && ctx.decl_name_indices.contains(k - 1)) {
      sink_desc = "a stack array size";
    } else {
      bool array_new = false;
      for (std::size_t back = 1; back <= 6 && back <= k; ++back) {
        const Token& bt = toks[k - back];
        if (is_ident(bt) && bt.text == "new") {
          array_new = true;
          break;
        }
        if (!is_ident(bt) && !is_punct(bt, "::") && !is_punct(bt, "<") &&
            !is_punct(bt, ">") && !is_punct(bt, "*"))
          break;
      }
      if (array_new) {
        sink_desc = "an array-new size";
      } else if (k >= 1 && (is_ident(toks[k - 1]) ||
                            is_punct(toks[k - 1], "]") ||
                            is_punct(toks[k - 1], ")"))) {
        // Indexing an associative container is a lookup, not an offset.
        if (is_ident(toks[k - 1]) &&
            !(k >= 2 && (is_punct(toks[k - 2], ".") ||
                         is_punct(toks[k - 2], "->")))) {
          const ParsedDecl* recv = ctx.parsed->lookup(toks[k - 1].text, k);
          bool associative = false;
          if (recv != nullptr)
            for (const std::string_view at : kAssociativeTypes)
              for (const std::string& tt : recv->type_tokens)
                if (tt == at) associative = true;
          if (associative) continue;
        }
        sink_desc = "raw indexing ('" +
                    (is_ident(toks[k - 1]) ? toks[k - 1].text : "...") +
                    "[]')";
      } else {
        continue;
      }
    }
    hit_sink(eval(ctx, env, k + 1, close, 0), sink_desc, toks[k].line);
  }

  // Loop bounds: a tainted name directly compared in a for/while head.
  for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
    if (!is_ident(toks[k]) || (toks[k].text != "for" && toks[k].text != "while"))
      continue;
    if (k + 1 >= toks.size() || !is_punct(toks[k + 1], "(")) continue;
    const std::size_t close = match_forward(toks, k + 1, "(", ")");
    for (std::size_t p = k + 2; p < close && p < toks.size(); ++p) {
      if (!in_set(kRelational, std::string_view(toks[p].text)) ||
          toks[p].kind != TokenKind::kPunct)
        continue;
      for (const std::size_t nb : {p - 1, p + 1}) {
        if (nb >= toks.size() || !is_ident(toks[nb])) continue;
        if (nb > 0 && (is_punct(toks[nb - 1], ".") ||
                       is_punct(toks[nb - 1], "->") ||
                       is_punct(toks[nb - 1], "::")))
          continue;
        if (clean_member_use(toks, nb)) continue;
        const ParsedDecl* d = ctx.parsed->lookup(toks[nb].text, nb);
        if (d == nullptr || ctx.sanitized.contains(d)) continue;
        const auto ei = env.find(d);
        if (ei == env.end() || !ei->second.any()) continue;
        hit_sink(ei->second, "the loop bound '" + toks[nb].text + "'",
                 toks[p].line);
      }
    }
  }

  // ---- interprocedural forwarding: tainted arguments into sinking callees
  for (const ParsedCall* call : ctx.calls) {
    const auto si = site_at[ctx.file].find(call->name_index);
    if (si == site_at[ctx.file].end()) continue;
    const CallSite& site = graph.sites[static_cast<std::size_t>(si->second)];
    if (!single_entity(site)) continue;
    const auto args = arg_ranges(ctx, *call);
    std::set<const Summary*> applied;  // decl+def pairs share one summary
    for (const int target : site.targets) {
      const Summary* s = summary_of(target);
      if (s == nullptr || s->param_to_sink.empty()) continue;
      if (!applied.insert(s).second) continue;
      const std::string& callee_name =
          graph.nodes[static_cast<std::size_t>(target)].qualified;
      for (const auto& [j, hit] : s->param_to_sink) {
        if (static_cast<std::size_t>(j) >= args.size()) continue;
        const Taint t =
            eval(ctx, env, args[static_cast<std::size_t>(j)].first,
                 args[static_cast<std::size_t>(j)].second, 0);
        if (t.src && report_pass && findings != nullptr) {
          const std::size_t before = findings->size();
          report(ctx.file, call->line, "wire-taint",
                 "value from " + t.desc + " is passed to '" + callee_name +
                     "', which " + hit.chain +
                     "; validate it before the call or justify with "
                     "ntr-wire-taint(<why>)");
          if (findings->size() > before) {
            const std::string where =
                file_path + ":" + std::to_string(call->line);
            add_node("source:" + t.desc, TaintFlowNode::Kind::kSource);
            add_node("fn:" + ctx.qualified, TaintFlowNode::Kind::kFunction);
            add_edge("source:" + t.desc, "fn:" + ctx.qualified, where, true);
            std::string prev = ctx.qualified;
            for (const std::string& step : hit.path) {
              add_node("fn:" + step, TaintFlowNode::Kind::kFunction);
              add_edge("fn:" + prev, "fn:" + step, where, true);
              prev = step;
            }
            add_node(hit.sink_id, TaintFlowNode::Kind::kSink);
            add_edge("fn:" + prev, hit.sink_id, "", true);
          }
        }
        for (const int own : t.params) {
          SinkHit fwd;
          fwd.chain = "forwards it to '" + callee_name + "', which " +
                      hit.chain;
          fwd.sink_id = hit.sink_id;
          fwd.path.push_back(ctx.qualified);
          fwd.path.insert(fwd.path.end(), hit.path.begin(), hit.path.end());
          sum.param_to_sink.emplace(own, std::move(fwd));
        }
      }
    }
  }

  // ---- cold graph structure (sources observed, summary sink routes) ----
  if (report_pass && in_src) {
    static const std::map<int, SinkHit> kNoHits;
    std::set<std::string> seen;
    for (const ParsedCall* call : ctx.calls) {
      if (!in_set(kSourceCalls, std::string_view(call->callee))) continue;
      const std::string desc = call->callee + "()";
      if (!seen.insert(desc).second) continue;
      add_node("source:" + desc, TaintFlowNode::Kind::kSource);
      add_node("fn:" + ctx.qualified, TaintFlowNode::Kind::kFunction);
      add_edge("source:" + desc, "fn:" + ctx.qualified,
               file_path + ":" + std::to_string(call->line), false);
    }
    for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
      if (!is_ident(toks[k]) || toks[k].text != "reinterpret_cast") continue;
      const std::string desc = "raw byte reinterpretation";
      if (!seen.insert(desc).second) continue;
      add_node("source:" + desc, TaintFlowNode::Kind::kSource);
      add_node("fn:" + ctx.qualified, TaintFlowNode::Kind::kFunction);
      add_edge("source:" + desc, "fn:" + ctx.qualified,
               file_path + ":" + std::to_string(toks[k].line), false);
    }
    // Cold parameter-to-sink routes only for functions that sit on the
    // boundary themselves (observe a source): the full project-wide
    // summary relation would swamp the figure with benign internal
    // plumbing.
    for (const auto& [j, hit] : seen.empty() ? kNoHits : sum.param_to_sink) {
      const std::string pname =
          static_cast<std::size_t>(j) < ctx.params.size()
              ? ctx.params[static_cast<std::size_t>(j)]->name
              : std::to_string(j);
      std::string prev;
      for (const std::string& step : hit.path) {
        add_node("fn:" + step, TaintFlowNode::Kind::kFunction);
        if (!prev.empty()) add_edge("fn:" + prev, "fn:" + step, pname, false);
        prev = step;
      }
      add_node(hit.sink_id, TaintFlowNode::Kind::kSink);
      add_edge("fn:" + prev, hit.sink_id, pname, false);
    }
  }

  return sum;
}

/// Builds the syntactic view of one function body: parameters in
/// position order, local declarations with their initializer ranges, the
/// calls inside, and the sanitized-name set (purely syntactic, so it is
/// computed once -- a sanitized name never carries taint, which is how
/// "sanitization wins" is encoded in a flow-insensitive model).
FnCtx build_ctx(const Project& project, const CallGraph& graph, int n) {
  FnCtx ctx;
  const CallGraphNode& node = graph.nodes[static_cast<std::size_t>(n)];
  ctx.file = static_cast<std::size_t>(node.file);
  const SourceFile& sf = project.files[ctx.file];
  ctx.parsed = &sf.parsed;
  ctx.toks = &sf.lexed.tokens;
  ctx.fn = &sf.parsed.functions[static_cast<std::size_t>(node.fn)];
  ctx.qualified = node.qualified;
  if (return_type_has(*ctx.fn, "NTR_VALIDATED")) {
    ctx.skip = true;
    return ctx;
  }
  const std::vector<Token>& toks = *ctx.toks;
  const std::size_t body_b = ctx.fn->body_begin;
  const std::size_t body_e = ctx.fn->body_end;

  for (const ParsedDecl& d : sf.parsed.decls) {
    if (d.is_param && d.scope == ctx.fn->body_scope) {
      ctx.params.push_back(&d);
    } else if (!d.is_param && d.name_index > body_b && d.name_index < body_e) {
      ctx.body_decls.push_back(&d);
      ctx.decl_name_indices.insert(d.name_index);
      if (d.name_index + 1 < toks.size() &&
          is_punct(toks[d.name_index + 1], "{")) {
        ctx.decl_inits.emplace_back(
            &d, std::make_pair(d.name_index + 2,
                               match_forward(toks, d.name_index + 1, "{",
                                             "}")));
      } else {
        ctx.decl_inits.emplace_back(
            &d, std::make_pair(d.name_index + 1,
                               init_end(toks, d.name_index + 1, body_e)));
      }
    }
    if (decl_type_has(d, "NTR_VALIDATED")) ctx.sanitized.insert(&d);
  }
  std::sort(ctx.params.begin(), ctx.params.end(),
            [](const ParsedDecl* a, const ParsedDecl* b) {
              return a->name_index < b->name_index;
            });

  for (const ParsedCall& call : sf.parsed.calls)
    if (call.name_index > body_b && call.name_index < body_e)
      ctx.calls.push_back(&call);

  // Sanitizer 1: a checked Status/StatusOr -- `.ok()` invoked on the name.
  for (const ParsedCall* call : ctx.calls) {
    if (!call->member_call || call->callee != "ok" || call->receiver.empty())
      continue;
    if (const ParsedDecl* d =
            ctx.parsed->lookup(call->receiver, call->name_index))
      ctx.sanitized.insert(d);
  }
  // Sanitizer 2: a range comparison inside an `if` condition or a
  // contract macro's argument list (`==`/`!=` deliberately do not count:
  // equality does not bound a size).
  for (std::size_t k = body_b + 1; k + 1 < body_e && k < toks.size(); ++k) {
    if (!is_ident(toks[k])) continue;
    const bool opens =
        toks[k].text == "if" ||
        in_set(kCheckMacros, std::string_view(toks[k].text));
    if (!opens || k + 1 >= toks.size() || !is_punct(toks[k + 1], "("))
      continue;
    const std::size_t close = match_forward(toks, k + 1, "(", ")");
    for (std::size_t p = k + 2; p < close && p < toks.size(); ++p) {
      if (toks[p].kind != TokenKind::kPunct ||
          !in_set(kRelational, std::string_view(toks[p].text)))
        continue;
      for (const std::size_t nb : {p - 1, p + 1}) {
        if (nb >= toks.size() || !is_ident(toks[nb])) continue;
        if (nb > 0 && (is_punct(toks[nb - 1], ".") ||
                       is_punct(toks[nb - 1], "->") ||
                       is_punct(toks[nb - 1], "::")))
          continue;
        if (const ParsedDecl* d = ctx.parsed->lookup(toks[nb].text, nb))
          ctx.sanitized.insert(d);
      }
    }
  }
  // Sanitizer 3: passed through std::min / std::clamp.
  for (const ParsedCall* call : ctx.calls) {
    if (!in_set(kClampCalls, std::string_view(call->callee))) continue;
    for (std::size_t k = call->lparen + 1;
         k < call->rparen && k < toks.size(); ++k) {
      if (!is_ident(toks[k])) continue;
      if (k > 0 && (is_punct(toks[k - 1], ".") ||
                    is_punct(toks[k - 1], "->") ||
                    is_punct(toks[k - 1], "::")))
        continue;
      if (const ParsedDecl* d = ctx.parsed->lookup(toks[k].text, k))
        ctx.sanitized.insert(d);
    }
  }
  return ctx;
}

bool summaries_equal(const Summary& a, const Summary& b) {
  if (a.returns_src != b.returns_src) return false;
  if (a.param_to_return != b.param_to_return) return false;
  if (a.param_out_src != b.param_out_src) return false;
  if (a.param_to_sink.size() != b.param_to_sink.size()) return false;
  for (const auto& [j, hit] : a.param_to_sink)
    if (!b.param_to_sink.contains(j)) return false;
  return true;
}

}  // namespace

std::vector<LintDiagnostic> check_taint(const Project& project,
                                        const CallGraph& graph,
                                        TaintGraph* out_graph) {
  std::vector<LintDiagnostic> out;
  Pass pass{project, graph, Reporter{project, out}};

  pass.call_at.resize(project.files.size());
  pass.site_at.resize(project.files.size());
  pass.lambda_intros.resize(project.files.size());
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    for (const ParsedCall& call : project.files[fi].parsed.calls)
      pass.call_at[fi].emplace(call.name_index, &call);
    for (const ParsedLambda& lam : project.files[fi].parsed.lambdas)
      pass.lambda_intros[fi].insert(lam.intro);
  }
  for (std::size_t si = 0; si < graph.sites.size(); ++si) {
    const CallSite& site = graph.sites[si];
    pass.site_at[static_cast<std::size_t>(site.file)].emplace(
        site.name_index, static_cast<int>(si));
  }
  for (std::size_t n = 0; n < graph.nodes.size(); ++n)
    if (graph.nodes[n].has_body)
      pass.def_of.emplace(graph.nodes[n].qualified, static_cast<int>(n));

  pass.summaries.resize(graph.nodes.size());
  pass.ctxs.resize(graph.nodes.size());
  for (std::size_t n = 0; n < graph.nodes.size(); ++n)
    if (graph.nodes[n].has_body)
      pass.ctxs[n] = build_ctx(project, graph, static_cast<int>(n));

  // Interprocedural fixpoint: recompute every summary until none changes.
  // Every summary field grows monotonically, so this terminates; the cap
  // is a safety net for pathological graphs.
  for (int round = 0; round < 20; ++round) {
    bool changed = false;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (!graph.nodes[n].has_body) continue;
      Summary next = pass.compute(pass.ctxs[n], false, nullptr);
      if (!summaries_equal(next, pass.summaries[n])) {
        pass.summaries[n] = std::move(next);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Final pass: report findings and assemble the flow graph.
  for (std::size_t n = 0; n < graph.nodes.size(); ++n)
    if (graph.nodes[n].has_body) pass.compute(pass.ctxs[n], true, &out);

  std::stable_sort(
      out.begin(), out.end(),
      [](const LintDiagnostic& a, const LintDiagnostic& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
      });

  if (out_graph != nullptr) {
    TaintGraph tg;
    for (const auto& [id, kind] : pass.gnodes)
      tg.nodes.push_back(TaintFlowNode{id, kind});
    for (const auto& [key, hot] : pass.gedges)
      tg.edges.push_back(TaintFlowEdge{std::get<0>(key), std::get<1>(key),
                                       std::get<2>(key), hot});
    *out_graph = std::move(tg);
  }
  return out;
}

std::string taint_graph_dot(const TaintGraph& graph) {
  std::string dot;
  dot += "digraph taintgraph {\n";
  dot += "  rankdir=LR;\n";
  dot += "  node [fontname=\"Helvetica\", fontsize=10];\n";
  dot += "  edge [fontname=\"Helvetica\", fontsize=8];\n";
  for (const TaintFlowNode& n : graph.nodes) {
    std::string shape = "box";
    std::string extra;
    std::string label = n.id;
    if (n.kind == TaintFlowNode::Kind::kSource) {
      shape = "ellipse";
      extra = ", style=filled, fillcolor=\"#e8f5e9\"";
      label = n.id.substr(7);  // "source:"
    } else if (n.kind == TaintFlowNode::Kind::kSink) {
      shape = "octagon";
      extra = ", style=filled, fillcolor=\"#fff3e0\"";
      label = n.id.substr(5);  // "sink:"
    } else {
      label = n.id.substr(3);  // "fn:"
    }
    dot += "  \"" + n.id + "\" [shape=" + shape + ", label=\"" + label +
           "\"" + extra + "];\n";
  }
  for (const TaintFlowEdge& e : graph.edges) {
    dot += "  \"" + e.from + "\" -> \"" + e.to + "\" [label=\"" + e.label +
           "\"";
    if (e.hot) dot += ", color=red, penwidth=2";
    dot += "];\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace ntr::analyze
