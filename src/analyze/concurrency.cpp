#include "analyze/concurrency.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string>

#include "analyze/cpp_lexer.h"

namespace ntr::analyze {

namespace {

constexpr std::array<std::string_view, 2> kParallelEntryPoints = {
    "parallel_chunks", "parallel_for"};

constexpr std::array<std::string_view, 11> kAssignOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

constexpr std::array<std::string_view, 9> kAtomicMembers = {
    "load",      "store",     "exchange",
    "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or",  "fetch_xor", "compare_exchange_weak"};

constexpr std::array<std::string_view, 14> kContainerMutators = {
    "push_back", "emplace_back", "insert",     "emplace", "erase",
    "clear",     "resize",       "assign",     "push",    "pop",
    "pop_back",  "pop_front",    "push_front", "append"};

constexpr std::array<std::string_view, 4> kLockTypes = {
    "lock_guard", "scoped_lock", "unique_lock", "shared_lock"};

/// Keywords that read like postfix-chain roots at token level ("for (...)
/// ++x" would otherwise look like a write through "for").
constexpr std::array<std::string_view, 10> kControlKeywords = {
    "for", "while", "if", "switch", "return", "do",
    "else", "case", "break", "continue"};

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

bool stopish(std::string_view ident) {
  std::string lower(ident);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower.find("stop") != std::string::npos ||
         lower.find("cancel") != std::string::npos ||
         lower.find("deadline") != std::string::npos ||
         lower.find("poll") != std::string::npos;
}

/// Index of the token matching the open bracket at `open` ("(", "[", "{"),
/// or tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string_view o = toks[open].text;
  const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// The declaration heuristic: identifier whose previous token reads like
/// the tail of a type (another identifier, or punctuation ending in
/// '>', '*', or '&') and whose next token can close a declarator. This
/// over-approximates (locals in inline bodies, parameters), which only
/// makes the pass more permissive, never noisier.
bool looks_declared(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0 || i + 1 >= toks.size()) return false;
  const Token& prev = toks[i - 1];
  const bool type_ish =
      prev.kind == TokenKind::kIdentifier ||
      (prev.kind == TokenKind::kPunct && !prev.text.empty() &&
       (prev.text.back() == '>' || prev.text.back() == '*' ||
        prev.text.back() == '&'));
  if (!type_ish) return false;
  static constexpr std::array<std::string_view, 8> kAfter = {
      "=", ";", "{", "(", ",", ")", ":", "["};
  return toks[i + 1].kind == TokenKind::kPunct &&
         in_set(kAfter, std::string_view(toks[i + 1].text));
}

/// True when `name` is declared anywhere in the file with std::atomic in
/// the declaration's type tokens (a small window before the name).
bool declared_atomic(const std::vector<Token>& toks, std::string_view name) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != name) continue;
    if (!looks_declared(toks, i)) continue;
    const std::size_t from = i >= 8 ? i - 8 : 0;
    for (std::size_t k = from; k < i; ++k)
      if (toks[k].kind == TokenKind::kIdentifier && toks[k].text == "atomic")
        return true;
  }
  return false;
}

struct Lambda {
  bool default_by_ref = false;
  std::set<std::string, std::less<>> ref_captures;
  std::set<std::string, std::less<>> locals;  // params + body declarations
  std::size_t body_begin = 0;                 // token index of '{'
  std::size_t body_end = 0;                   // token index of matching '}'
};

/// Parses the lambda introduced by '[' at `lb`. Returns false when the
/// expected shape (captures, optional params, body) is not found.
bool parse_lambda(const std::vector<Token>& toks, std::size_t lb, Lambda& out) {
  const std::size_t rb = match_forward(toks, lb);
  if (rb >= toks.size()) return false;
  for (std::size_t i = lb + 1; i < rb; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "&")) {
      if (i + 1 < rb && toks[i + 1].kind == TokenKind::kIdentifier) {
        out.ref_captures.insert(toks[i + 1].text);
        ++i;
      } else {
        out.default_by_ref = true;
      }
    }
  }
  std::size_t pos = rb + 1;
  if (pos < toks.size() && is_punct(toks[pos], "(")) {
    const std::size_t rp = match_forward(toks, pos);
    if (rp >= toks.size()) return false;
    // Parameter names: the last identifier before each top-level ',' / ')'.
    int depth = 0;
    std::string last;
    for (std::size_t i = pos + 1; i < rp; ++i) {
      const Token& t = toks[i];
      if (is_punct(t, "(") || is_punct(t, "[")) ++depth;
      if (is_punct(t, ")") || is_punct(t, "]")) --depth;
      if (t.kind == TokenKind::kIdentifier) last = t.text;
      if (depth == 0 && is_punct(t, ",") && !last.empty()) {
        out.locals.insert(last);
        last.clear();
      }
    }
    if (!last.empty()) out.locals.insert(last);
    pos = rp + 1;
  }
  while (pos < toks.size() && !is_punct(toks[pos], "{")) ++pos;
  if (pos >= toks.size()) return false;
  out.body_begin = pos;
  out.body_end = match_forward(toks, pos);
  if (out.body_end >= toks.size()) return false;
  for (std::size_t i = out.body_begin + 1; i < out.body_end; ++i)
    if (toks[i].kind == TokenKind::kIdentifier && looks_declared(toks, i))
      out.locals.insert(toks[i].text);
  return true;
}

}  // namespace

std::vector<LintDiagnostic> check_concurrency(const Project& project) {
  std::vector<LintDiagnostic> out;
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    const SourceFile& sf = project.files[fi];
    const std::vector<Token>& toks = sf.lexed.tokens;
    const auto report = [&](std::size_t line, std::string_view rule,
                            std::string message) {
      if (lint_suppressed(project.raw_line(fi, line), sf.content, rule))
        return;
      out.push_back(LintDiagnostic{sf.path, line, std::string(rule),
                                   std::move(message)});
    };

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          !in_set(kParallelEntryPoints, std::string_view(toks[i].text)) ||
          !is_punct(toks[i + 1], "("))
        continue;
      const std::size_t close = match_forward(toks, i + 1);
      if (close >= toks.size()) continue;

      // Lane lambdas: every '[' in the argument list that follows '(' or
      // ',' (subscripts follow an identifier or a closing bracket, so
      // this cleanly separates the two).
      for (std::size_t j = i + 2; j < close; ++j) {
        if (!is_punct(toks[j], "[")) continue;
        if (!(is_punct(toks[j - 1], "(") || is_punct(toks[j - 1], ","))) continue;
        Lambda lam;
        if (!parse_lambda(toks, j, lam)) continue;
        j = lam.body_end;  // do not re-parse inside this lambda

        const bool locked = [&] {
          for (std::size_t k = lam.body_begin; k < lam.body_end; ++k) {
            if (toks[k].kind != TokenKind::kIdentifier) continue;
            if (in_set(kLockTypes, std::string_view(toks[k].text))) return true;
            if (toks[k].text == "lock" && k >= 1 &&
                (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->")) &&
                k + 1 < lam.body_end && is_punct(toks[k + 1], "("))
              return true;
          }
          return false;
        }();

        // -------------------------------------------- shared-write rule
        for (std::size_t k = lam.body_begin + 1; k < lam.body_end; ++k) {
          const Token& t = toks[k];
          if (t.kind != TokenKind::kIdentifier) continue;
          // Only roots of postfix chains: not a member or qualified name.
          if (k >= 1 && (is_punct(toks[k - 1], ".") ||
                         is_punct(toks[k - 1], "->") ||
                         is_punct(toks[k - 1], "::")))
            continue;
          if (in_set(kControlKeywords, std::string_view(t.text))) continue;
          if (lam.locals.contains(t.text)) continue;
          const bool captured_ref =
              lam.default_by_ref || lam.ref_captures.contains(t.text);
          if (!captured_ref) continue;

          // Walk the postfix chain: members, subscripts, calls.
          std::size_t pos = k;
          bool subscript_lane_local = false;
          bool atomic_op = false;
          std::string mutator;
          while (pos + 1 < lam.body_end) {
            const Token& nx = toks[pos + 1];
            if (is_punct(nx, ".") || is_punct(nx, "->")) {
              if (pos + 2 >= lam.body_end ||
                  toks[pos + 2].kind != TokenKind::kIdentifier)
                break;
              const std::string& member = toks[pos + 2].text;
              const bool call = pos + 3 < lam.body_end && is_punct(toks[pos + 3], "(");
              if (call && (in_set(kAtomicMembers, std::string_view(member)) ||
                           member == "compare_exchange_strong"))
                atomic_op = true;
              if (call && in_set(kContainerMutators, std::string_view(member)))
                mutator = member;
              pos += 2;
              continue;
            }
            if (is_punct(nx, "[")) {
              const std::size_t mb = match_forward(toks, pos + 1);
              if (mb >= lam.body_end) break;
              for (std::size_t s = pos + 2; s < mb; ++s)
                if (toks[s].kind == TokenKind::kIdentifier &&
                    lam.locals.contains(toks[s].text))
                  subscript_lane_local = true;
              pos = mb;
              continue;
            }
            if (is_punct(nx, "(")) {
              const std::size_t mp = match_forward(toks, pos + 1);
              if (mp >= lam.body_end) break;
              pos = mp;
              continue;
            }
            break;
          }

          bool is_write = !mutator.empty();
          if (pos + 1 < lam.body_end) {
            const Token& nx = toks[pos + 1];
            if (nx.kind == TokenKind::kPunct &&
                in_set(kAssignOps, std::string_view(nx.text)))
              is_write = true;
            if (is_punct(nx, "++") || is_punct(nx, "--")) is_write = true;
          }
          if (k >= 1 && (is_punct(toks[k - 1], "++") || is_punct(toks[k - 1], "--")))
            is_write = true;
          if (!is_write || atomic_op || locked || subscript_lane_local) continue;
          if (declared_atomic(toks, t.text)) continue;
          report(t.line, "parallel-shared-write",
                 "'" + t.text +
                     "' is captured by reference and written inside a "
                     "parallel lane without an atomic, a lock, or a "
                     "lane-local slot index" +
                     (mutator.empty() ? std::string()
                                      : " (mutating call ." + mutator + ")"));
        }

        // -------------------------------------------- missing-poll rule
        std::size_t first_loop_line = 0;
        bool sees_stop = false;
        for (std::size_t k = lam.body_begin + 1; k < lam.body_end; ++k) {
          if (toks[k].kind != TokenKind::kIdentifier) continue;
          if ((toks[k].text == "for" || toks[k].text == "while") &&
              first_loop_line == 0)
            first_loop_line = toks[k].line;
          if (stopish(toks[k].text)) sees_stop = true;
        }
        // Library lanes only: tests exercise the chunking machinery with
        // deliberately tiny, token-free loops.
        if (first_loop_line != 0 && !sees_stop && sf.path.starts_with("src/")) {
          report(first_loop_line, "parallel-missing-poll",
                 "parallel lane contains a loop that never polls a "
                 "StopToken/Deadline (directly or by forwarding the stop "
                 "token to its callee)");
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

}  // namespace ntr::analyze
