#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ntr::analyze {

struct Project;

/// One finding from any ntr_analyze pass.
struct LintDiagnostic {
  std::string file;   ///< repo-relative path with '/' separators
  std::size_t line = 0;  ///< 1-based; 0 for whole-file findings
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" -- clickable in editors and CI logs.
[[nodiscard]] std::string format(const LintDiagnostic& d);

/// The lint pass: per-line repo rules over one file's text. `path`
/// (repo-relative, '/' separators) selects which rules apply:
///
///   raw-assert             everywhere: assert(...) calls or <cassert>
///                          includes instead of the NTR_* contract macros
///   pragma-once            headers (.h/.hpp) must contain #pragma once
///   using-namespace-header no `using namespace` at header scope
///   unseeded-rng           src/core/ and src/route/: rand()/srand()/
///                          random_shuffle or default-constructed standard
///                          engines (results must be reproducible, so
///                          randomness is always injected and seeded)
///   cout-in-library        src/: no std::cout / bare printf in library
///                          code (tools, benches and examples may print)
///   raw-mutex-lock         src/: no raw .lock()/.unlock() member calls;
///                          hold mutexes through RAII guards
///   untyped-throw          src/{core,sim,flow,linalg,runtime,delay}/: throw
///                          typed ntr::runtime::NtrError on hot paths, not
///                          bare std::runtime_error
///   unchecked-narrowing    src/serve/: no narrowing static_cast of a
///                          size- or wire-typed value (`.size()`,
///                          `.length()`, `as_number()`) -- clamp or
///                          range-check first; sizes are 64-bit and wire
///                          numbers are doubles, so an out-of-range
///                          conversion is undefined behavior
///
/// Comments and string/char literals are ignored. A line containing
/// `ntr-lint-allow(<rule>)` (or `ntr-lint-allow(all)`) suppresses findings
/// of that rule on that line; `ntr-lint-allow-file(<rule>)` anywhere in
/// the file suppresses the rule for the whole file.
[[nodiscard]] std::vector<LintDiagnostic> lint_source(std::string_view path,
                                                      std::string_view content);

/// lint_source over every file of a loaded project, on the lex
/// load_project already made.
[[nodiscard]] std::vector<LintDiagnostic> check_lint(const Project& project);

/// The suppression predicate behind `ntr-lint-allow(...)`, shared by
/// every pass so each finding in the repo obeys one syntax: true when
/// `raw_line` carries `ntr-lint-allow(<rule>)` or `ntr-lint-allow(all)`,
/// or `file_content` carries `ntr-lint-allow-file(<rule>)` anywhere.
[[nodiscard]] bool lint_suppressed(std::string_view raw_line,
                                   std::string_view file_content,
                                   std::string_view rule);

}  // namespace ntr::analyze
