#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ntr::analyze {

/// A lightweight C++ lexer shared by the lint pass and the other
/// `ntr_analyze` whole-program passes. It is not a compiler front end: it
/// splits a translation unit into identifier/number/literal/punctuator
/// tokens, understands line and block comments, plain and raw string
/// literals (including encoding prefixes and multi-line bodies), char
/// literals, and digit separators, and records every `#include`
/// directive. That is exactly the level at which the repo's static
/// passes reason -- no preprocessing, no name lookup.
enum class TokenKind {
  kIdentifier,  ///< identifiers and keywords (the lexer does not split them)
  kNumber,      ///< pp-number: 12, 0x1p3, 1'000'000, 1e-9, 3.f
  kString,      ///< any string literal; the body is not retained
  kCharLiteral, ///< any character literal; the body is not retained
  kPunct,       ///< one operator/punctuator, maximal munch (`::`, `+=`, ...)
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;      ///< spelling; literals are normalized to "" / ''
  std::size_t line = 0;  ///< 1-based line the token starts on
};

/// One `#include` directive, with the path preserved verbatim (the
/// stripped text blanks quoted-literal bodies, so this is the only place
/// the analyzer can read it back).
struct IncludeDirective {
  std::string path;      ///< between the quotes/brackets, untrimmed
  bool angled = false;   ///< `<...>` (system) vs `"..."` (project)
  std::size_t line = 0;  ///< 1-based
};

/// Everything the downstream passes need from one source file.
struct LexedSource {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  /// Input split on '\n' (no trailing entry for a final newline),
  /// matching std::getline over the same text.
  std::vector<std::string> raw_lines;
  /// raw_lines with comments and string/char-literal spans blanked to
  /// spaces (quotes included), so column positions survive. Multi-line
  /// comment and raw-string state carries across lines.
  std::vector<std::string> stripped_lines;
};

/// Lexes one translation unit. Never fails: malformed input (unterminated
/// literals, stray characters) degrades to blanked spans / skipped bytes
/// rather than an error, because lint passes must not die on fixtures.
[[nodiscard]] LexedSource lex_source(std::string_view content);

}  // namespace ntr::analyze
