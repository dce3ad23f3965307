#include "analyze/lint.h"

#include <algorithm>
#include <cctype>

#include "analyze/cpp_lexer.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True iff `name` occurs in `code` as a whole token; with `require_call`,
/// the next non-space character must open an argument list.
bool has_token(std::string_view code, std::string_view name, bool require_call) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const std::size_t end = pos + name.size();
    const bool lb = pos == 0 || !is_ident(code[pos - 1]);
    const bool rb = end == code.size() || !is_ident(code[end]);
    if (lb && rb) {
      if (!require_call) return true;
      std::size_t next = end;
      while (next < code.size() && code[next] == ' ') ++next;
      if (next < code.size() && code[next] == '(') return true;
    }
    pos = end;
  }
  return false;
}

/// True iff `name` occurs as a member call on this line: preceded by
/// `.` or `->` and followed by an argument list. `try_lock`, bare
/// `lock(...)` calls, and guard declarations named `lock` never match.
bool has_member_call(std::string_view code, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const std::size_t end = pos + name.size();
    const bool member =
        (pos >= 1 && code[pos - 1] == '.') ||
        (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>');
    const bool rb = end == code.size() || !is_ident(code[end]);
    if (member && rb) {
      std::size_t next = end;
      while (next < code.size() && code[next] == ' ') ++next;
      if (next < code.size() && code[next] == '(') return true;
    }
    pos = end;
  }
  return false;
}

/// Default-constructed standard RNG engine: `mt19937 gen;`-style
/// declarations (or brace forms with an empty initializer).
bool has_unseeded_engine(std::string_view code) {
  static constexpr std::string_view kEngines[] = {
      "mt19937_64",   "mt19937",      "minstd_rand0", "minstd_rand",
      "ranlux24",     "ranlux48",     "knuth_b",      "default_random_engine"};
  for (const std::string_view engine : kEngines) {
    std::size_t pos = 0;
    while ((pos = code.find(engine, pos)) != std::string_view::npos) {
      const std::size_t end = pos + engine.size();
      const bool lb = pos == 0 || !is_ident(code[pos - 1]);
      const bool rb = end == code.size() || !is_ident(code[end]);
      pos = end;
      if (!lb || !rb) continue;
      std::size_t i = end;
      while (i < code.size() && code[i] == ' ') ++i;
      while (i < code.size() && is_ident(code[i])) ++i;  // variable name
      while (i < code.size() && code[i] == ' ') ++i;
      if (i >= code.size() || code[i] == ';' || code[i] == ',') return true;
      if (code[i] == '{') {
        std::size_t j = i + 1;
        while (j < code.size() && code[j] == ' ') ++j;
        if (j < code.size() && code[j] == '}') return true;
      }
    }
  }
  return false;
}

/// A `static_cast<narrow integral>(...)` whose argument is a size- or
/// wire-typed expression (`.size()`, `.length()`, `as_number()`) on the
/// same line. Sizes are 64-bit and wire numbers are doubles; casting one
/// to a narrower (or unsigned) integral without a preceding clamp or
/// range check is silent truncation at best and undefined behavior at
/// worst, so the serve layer must narrow through an explicit guard.
bool has_unchecked_narrowing(std::string_view code) {
  static constexpr std::string_view kNarrowTargets[] = {
      "std::uint8_t",  "std::uint16_t", "std::uint32_t", "std::int8_t",
      "std::int16_t",  "std::int32_t",  "uint8_t",       "uint16_t",
      "uint32_t",      "int8_t",        "int16_t",       "int32_t",
      "int",           "unsigned",      "unsigned int",  "short",
      "unsigned short", "std::size_t",  "size_t"};
  std::size_t pos = 0;
  while ((pos = code.find("static_cast<", pos)) != std::string_view::npos) {
    const std::size_t open = pos + 12;
    const std::size_t close = code.find('>', open);
    if (close == std::string_view::npos) return false;
    std::string_view target = code.substr(open, close - open);
    while (!target.empty() && target.front() == ' ') target.remove_prefix(1);
    while (!target.empty() && target.back() == ' ') target.remove_suffix(1);
    pos = close;
    if (std::find(std::begin(kNarrowTargets), std::end(kNarrowTargets),
                  target) == std::end(kNarrowTargets))
      continue;
    std::size_t lp = close + 1;
    while (lp < code.size() && code[lp] == ' ') ++lp;
    if (lp >= code.size() || code[lp] != '(') continue;
    int depth = 0;
    std::size_t rp = lp;
    for (; rp < code.size(); ++rp) {
      if (code[rp] == '(') ++depth;
      if (code[rp] == ')' && --depth == 0) break;
    }
    const std::string_view arg = code.substr(lp, rp - lp);
    if (arg.find(".size()") != std::string_view::npos ||
        arg.find(".length()") != std::string_view::npos ||
        arg.find("as_number") != std::string_view::npos)
      return true;
  }
  return false;
}

bool is_header(std::string_view path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

std::vector<LintDiagnostic> lint_lexed(std::string_view path,
                                       std::string_view content,
                                       const LexedSource& lexed) {
  std::vector<LintDiagnostic> out;
  const bool header = is_header(path);
  const bool rng_scope = path.find("src/core/") != std::string_view::npos ||
                         path.find("src/route/") != std::string_view::npos;
  const bool library_scope = path.find("src/") != std::string_view::npos;
  const bool serve_scope = path.find("src/serve/") != std::string_view::npos;
  const bool typed_throw_scope =
      path.find("src/core/") != std::string_view::npos ||
      path.find("src/sim/") != std::string_view::npos ||
      path.find("src/flow/") != std::string_view::npos ||
      path.find("src/linalg/") != std::string_view::npos ||
      path.find("src/runtime/") != std::string_view::npos ||
      path.find("src/delay/") != std::string_view::npos;

  const auto report = [&](std::string_view raw_line, std::size_t line,
                          std::string_view rule, std::string message) {
    if (lint_suppressed(raw_line, content, rule)) return;
    out.push_back(LintDiagnostic{std::string(path), line, std::string(rule),
                                 std::move(message)});
  };

  bool pragma_once_seen = false;
  for (std::size_t li = 0; li < lexed.raw_lines.size(); ++li) {
    const std::size_t line_no = li + 1;
    const std::string& raw = lexed.raw_lines[li];
    const std::string& code = lexed.stripped_lines[li];

    if (code.find("#pragma once") != std::string::npos) pragma_once_seen = true;

    if (has_token(code, "assert", /*require_call=*/true)) {
      report(raw, line_no, "raw-assert",
             "use NTR_ASSERT/NTR_CHECK/NTR_DCHECK instead of raw assert()");
    } else if (code.find("<cassert>") != std::string::npos ||
               code.find("<assert.h>") != std::string::npos) {
      report(raw, line_no, "raw-assert",
             "include check/contracts.h instead of <cassert>");
    }

    if (header && code.find("using namespace") != std::string::npos &&
        has_token(code, "using", /*require_call=*/false)) {
      report(raw, line_no, "using-namespace-header",
             "`using namespace` in a header leaks into every includer");
    }

    if (rng_scope) {
      if (has_token(code, "rand", true) || has_token(code, "srand", true) ||
          has_token(code, "random_shuffle", false)) {
        report(raw, line_no, "unseeded-rng",
               "rand()/srand()/random_shuffle in core/route code; inject a "
               "seeded std::mt19937 instead");
      } else if (has_unseeded_engine(code)) {
        report(raw, line_no, "unseeded-rng",
               "default-constructed RNG engine; results must be reproducible, "
               "pass an explicit seed");
      }
    }

    if (library_scope &&
        (code.find("std::cout") != std::string::npos ||
         has_token(code, "printf", true))) {
      report(raw, line_no, "cout-in-library",
             "library code must not print to stdout; return data or take an "
             "std::ostream&");
    }

    if (library_scope && (has_member_call(code, "lock") ||
                          has_member_call(code, "unlock"))) {
      report(raw, line_no, "raw-mutex-lock",
             "raw .lock()/.unlock() in library code; hold mutexes through "
             "RAII guards (std::lock_guard/std::scoped_lock, or a deferred "
             "std::unique_lock)");
    }

    if (serve_scope && has_unchecked_narrowing(code)) {
      report(raw, line_no, "unchecked-narrowing",
             "narrowing static_cast of a size/wire value; clamp or "
             "range-check before the cast (sizes are 64-bit, wire numbers "
             "are doubles -- out-of-range conversion is undefined behavior)");
    }

    if (typed_throw_scope && has_token(code, "throw", /*require_call=*/false) &&
        code.find("std::runtime_error") != std::string::npos) {
      report(raw, line_no, "untyped-throw",
             "solver/sim/flow/delay/runtime hot paths must throw typed "
             "ntr::runtime::NtrError (with a StatusCode), not bare "
             "std::runtime_error");
    }
  }

  if (header && !pragma_once_seen) {
    report("", 1, "pragma-once", "header is missing #pragma once");
  }
  return out;
}

}  // namespace

bool lint_suppressed(std::string_view raw_line, std::string_view file_content,
                     std::string_view rule) {
  const std::string line_tag = "ntr-lint-allow(" + std::string(rule) + ")";
  if (raw_line.find(line_tag) != std::string_view::npos) return true;
  if (raw_line.find("ntr-lint-allow(all)") != std::string_view::npos) return true;
  const std::string file_tag = "ntr-lint-allow-file(" + std::string(rule) + ")";
  return file_content.find(file_tag) != std::string_view::npos;
}

std::string format(const LintDiagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " + d.message;
}

std::vector<LintDiagnostic> lint_source(std::string_view path,
                                        std::string_view content) {
  return lint_lexed(path, content, lex_source(content));
}

std::vector<LintDiagnostic> check_lint(const Project& project) {
  std::vector<LintDiagnostic> out;
  for (const SourceFile& sf : project.files) {
    std::vector<LintDiagnostic> found =
        lint_lexed(sf.path, sf.content, sf.lexed);
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return out;
}

}  // namespace ntr::analyze
