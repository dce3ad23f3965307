#include "analyze/include_hygiene.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "analyze/cpp_lexer.h"

namespace ntr::analyze {

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

constexpr std::array<std::string_view, 4> kTypeKeywords = {"struct", "class",
                                                           "enum", "union"};

/// Names a file declares at token level, generously: anything after a
/// class-key, alias/typedef/macro names, enumerators, plus the
/// declaration heuristic (identifier preceded by type-ish tokens and
/// followed by a declarator closer) that picks up functions, variables,
/// and parameters. Over-approximation is the point: a header is "used"
/// if the includer mentions anything it could plausibly declare.
struct DeclaredNames {
  std::set<std::string, std::less<>> weak;    ///< anything declared
  std::set<std::string, std::less<>> strong;  ///< definitions: types/aliases/macros
};

DeclaredNames declared_names(const std::vector<Token>& toks) {
  DeclaredNames out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    // class-key NAME [...]; `enum class NAME`; a `[[nodiscard]]`-style
    // attribute may sit between the class-key and the name.
    if (std::find(kTypeKeywords.begin(), kTypeKeywords.end(), t.text) !=
        kTypeKeywords.end()) {
      std::size_t j = i + 1;
      if (j < toks.size() && is_ident(toks[j], "class")) ++j;  // enum class
      if (j + 1 < toks.size() && is_punct(toks[j], "[") &&
          is_punct(toks[j + 1], "[")) {  // class [[attr]] NAME
        j += 2;
        while (j + 1 < toks.size() &&
               !(is_punct(toks[j], "]") && is_punct(toks[j + 1], "]")))
          ++j;
        j = j + 1 < toks.size() ? j + 2 : toks.size();
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        out.weak.insert(toks[j].text);
        // Definition (not a forward declaration): body or base clause
        // follows, optionally after `final` or an enum-base `: type`.
        std::size_t k = j + 1;
        if (k < toks.size() && is_ident(toks[k], "final")) ++k;
        if (k < toks.size() &&
            (is_punct(toks[k], "{") || is_punct(toks[k], ":")))
          out.strong.insert(toks[j].text);
        // Enumerators of `enum [class] NAME [: base] { A, B = 1, ... }`.
        if (t.text == "enum") {
          while (k < toks.size() && !is_punct(toks[k], "{") &&
                 !is_punct(toks[k], ";"))
            ++k;
          if (k < toks.size() && is_punct(toks[k], "{")) {
            int depth = 0;
            for (std::size_t e = k; e < toks.size(); ++e) {
              if (is_punct(toks[e], "{")) ++depth;
              if (is_punct(toks[e], "}") && --depth == 0) break;
              if (depth == 1 && toks[e].kind == TokenKind::kIdentifier &&
                  e + 1 < toks.size() &&
                  (is_punct(toks[e + 1], ",") || is_punct(toks[e + 1], "=") ||
                   is_punct(toks[e + 1], "}")))
                out.weak.insert(toks[e].text);
            }
          }
        }
      }
      continue;
    }

    // using NAME = ...;
    if (t.text == "using" && i + 2 < toks.size() &&
        toks[i + 1].kind == TokenKind::kIdentifier &&
        is_punct(toks[i + 2], "=")) {
      out.weak.insert(toks[i + 1].text);
      out.strong.insert(toks[i + 1].text);
      continue;
    }

    // #define NAME
    if (t.text == "define" && i >= 1 && is_punct(toks[i - 1], "#") &&
        i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kIdentifier) {
      out.weak.insert(toks[i + 1].text);
      out.strong.insert(toks[i + 1].text);
      continue;
    }

    // Declaration heuristic: functions, variables, constants, parameters.
    if (i >= 1 && i + 1 < toks.size()) {
      const Token& prev = toks[i - 1];
      const bool type_ish =
          prev.kind == TokenKind::kIdentifier ||
          (prev.kind == TokenKind::kPunct && !prev.text.empty() &&
           (prev.text.back() == '>' || prev.text.back() == '*' ||
            prev.text.back() == '&'));
      static constexpr std::array<std::string_view, 7> kAfter = {
          "=", ";", "{", "(", ",", ")", "["};
      if (type_ish && toks[i + 1].kind == TokenKind::kPunct &&
          std::find(kAfter.begin(), kAfter.end(),
                    std::string_view(toks[i + 1].text)) != kAfter.end())
        out.weak.insert(t.text);
    }
  }
  return out;
}

/// True when the raw include line carries an IWYU pragma (`export` makes
/// the includer an umbrella for it; `keep` asks every tool to hold it).
bool has_pragma(std::string_view raw_line, std::string_view which) {
  const std::size_t at = raw_line.find("IWYU pragma:");
  if (at == std::string_view::npos) return false;
  return raw_line.find(which, at) != std::string_view::npos;
}

std::string companion_header_path(const SourceFile& sf) {
  if (sf.is_header) return {};
  std::string p = sf.path;
  const std::size_t dot = p.rfind('.');
  if (dot == std::string::npos) return {};
  for (const char* ext : {".h", ".hpp"}) {
    const std::string candidate = p.substr(0, dot) + ext;
    if (!candidate.empty()) return candidate;  // existence checked by caller
  }
  return {};
}

}  // namespace

std::vector<LintDiagnostic> check_include_hygiene(const Project& project) {
  const std::size_t n = project.files.size();

  std::vector<DeclaredNames> decls(n);
  for (std::size_t i = 0; i < n; ++i)
    decls[i] = declared_names(project.files[i].lexed.tokens);

  // Export closure: file -> set of files whose provides it re-exports
  // (itself plus `IWYU pragma: export` includes, transitively).
  std::vector<std::vector<int>> exports(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SourceFile& sf = project.files[i];
    for (std::size_t k = 0; k < sf.resolved_includes.size(); ++k) {
      const int t = sf.resolved_includes[k];
      if (t < 0) continue;
      if (has_pragma(project.raw_line(i, sf.lexed.includes[k].line), "export"))
        exports[i].push_back(t);
    }
  }
  const auto export_closure = [&](std::size_t file) {
    std::vector<std::size_t> closure{file};
    std::set<std::size_t> seen{file};
    for (std::size_t q = 0; q < closure.size(); ++q)
      for (const int t : exports[closure[q]])
        if (seen.insert(static_cast<std::size_t>(t)).second)
          closure.push_back(static_cast<std::size_t>(t));
    return closure;
  };

  // Unique strong definition sites, for the transitive rule.
  std::map<std::string, int, std::less<>> strong_provider;  // -1 = ambiguous
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& s : decls[i].strong) {
      const auto [it, inserted] = strong_provider.emplace(s, static_cast<int>(i));
      if (!inserted && it->second != static_cast<int>(i)) it->second = -1;
    }
  }

  std::vector<LintDiagnostic> out;
  for (std::size_t fi = 0; fi < n; ++fi) {
    const SourceFile& sf = project.files[fi];
    const auto report = [&](std::size_t line, std::string_view rule,
                            std::string message) {
      if (lint_suppressed(project.raw_line(fi, line), sf.content, rule))
        return;
      out.push_back(LintDiagnostic{sf.path, line, std::string(rule),
                                   std::move(message)});
    };

    const int companion = [&] {
      const std::string p = companion_header_path(sf);
      if (p.empty()) return -1;
      int idx = project.find_index(p);
      if (idx < 0) {
        const std::size_t dot = p.rfind('.');
        idx = project.find_index(p.substr(0, dot) + ".hpp");
      }
      return idx;
    }();

    // ---------------------------------------------------- unused-include
    std::set<std::string, std::less<>> used;
    for (const Token& t : sf.lexed.tokens)
      if (t.kind == TokenKind::kIdentifier) used.insert(t.text);

    for (std::size_t k = 0; k < sf.resolved_includes.size(); ++k) {
      const int t = sf.resolved_includes[k];
      if (t < 0) continue;
      const std::size_t line = sf.lexed.includes[k].line;
      const std::string_view raw = project.raw_line(fi, line);
      if (has_pragma(raw, "keep") || has_pragma(raw, "export")) continue;
      if (t == companion) continue;
      bool any_used = false;
      for (const std::size_t e : export_closure(static_cast<std::size_t>(t))) {
        for (const std::string& s : decls[e].weak) {
          if (used.contains(s)) {
            any_used = true;
            break;
          }
        }
        if (any_used) break;
      }
      if (!any_used) {
        report(line, "unused-include",
               "nothing declared in '" + sf.lexed.includes[k].path +
                   "' is used here; drop the include (or mark it "
                   "// IWYU pragma: keep / export)");
      }
    }

    // ------------------------------------------------ transitive-include
    if (!sf.path.starts_with("src/")) continue;
    std::set<std::size_t> allowed{fi};
    const auto allow_with_exports = [&](int file) {
      if (file < 0) return;
      for (const std::size_t e : export_closure(static_cast<std::size_t>(file)))
        allowed.insert(e);
    };
    allow_with_exports(companion);
    for (const int t : sf.resolved_includes) allow_with_exports(t);
    if (companion >= 0)
      for (const int t :
           project.files[static_cast<std::size_t>(companion)].resolved_includes)
        allow_with_exports(t);

    std::set<std::string, std::less<>> reported;
    for (const Token& t : sf.lexed.tokens) {
      if (t.kind != TokenKind::kIdentifier) continue;
      if (decls[fi].weak.contains(t.text)) continue;  // its own declaration
      const auto it = strong_provider.find(t.text);
      if (it == strong_provider.end() || it->second < 0) continue;
      const auto provider = static_cast<std::size_t>(it->second);
      if (allowed.contains(provider)) continue;
      if (!project.files[provider].is_header) continue;
      if (!reported.insert(t.text).second) continue;
      report(t.line, "transitive-include",
             "'" + t.text + "' is defined in '" + project.files[provider].path +
                 "', which is only included transitively; include it directly");
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
