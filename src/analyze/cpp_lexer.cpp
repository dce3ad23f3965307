#include "analyze/cpp_lexer.h"

#include <array>
#include <cctype>

namespace ntr::analyze {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Encoding prefixes that may glue onto a string or char literal.
bool is_raw_string_prefix(std::string_view s) {
  return s == "R" || s == "u8R" || s == "LR" || s == "uR" || s == "UR";
}

bool is_literal_prefix(std::string_view s) {
  return s == "u8" || s == "L" || s == "u" || s == "U";
}

constexpr std::array<std::string_view, 4> kPunct3 = {"<<=", ">>=", "->*", "..."};
constexpr std::array<std::string_view, 20> kPunct2 = {
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
};

}  // namespace

LexedSource lex_source(std::string_view src) {
  LexedSource out;
  std::string stripped(src);
  const std::size_t n = src.size();

  // Blanks [from, to) in the stripped copy, preserving newlines so the
  // per-line split and column positions survive.
  const auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < stripped.size(); ++k)
      if (stripped[k] != '\n') stripped[k] = ' ';
  };
  const auto count_newlines = [&](std::size_t from, std::size_t to) {
    std::size_t c = 0;
    for (std::size_t k = from; k < to && k < n; ++k)
      if (src[k] == '\n') ++c;
    return c;
  };

  std::size_t i = 0;
  std::size_t line = 1;
  bool token_seen_on_line = false;  // a '#' only opens a directive before any token

  const auto emit = [&](TokenKind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line});
    token_seen_on_line = true;
  };

  // Consumes one plain string/char literal starting at the opening quote
  // `q` at position `from` (prefix, if any, already consumed). Returns
  // one past the closing quote; an unterminated literal stops at the end
  // of the line, like the pre-lexer line stripper did.
  const auto skip_quoted = [&](std::size_t from, char q) {
    std::size_t j = from + 1;
    while (j < n && src[j] != q && src[j] != '\n') {
      if (src[j] == '\\' && j + 1 < n) ++j;
      ++j;
    }
    return j < n && src[j] == q ? j + 1 : j;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      token_seen_on_line = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Backslash-newline splices the logical line: the physical line count
    // advances, but the directive state does not reset (a '#' after a
    // continuation is still mid-directive, not a new one).
    if (c == '\\' && i + 1 < n &&
        (src[i + 1] == '\n' ||
         (src[i + 1] == '\r' && i + 2 < n && src[i + 2] == '\n'))) {
      ++line;
      i += src[i + 1] == '\n' ? 2 : 3;
      continue;
    }
    // Comments. A line comment whose line ends in a backslash continues
    // onto the next physical line (the splice happens before comment
    // recognition in real translation).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t eol = src.find('\n', i);
      while (eol != std::string_view::npos) {
        std::size_t b = eol;
        if (b > i && src[b - 1] == '\r') --b;
        if (b > i && src[b - 1] == '\\')
          eol = src.find('\n', eol + 1);
        else
          break;
      }
      if (eol == std::string_view::npos) eol = n;
      blank(i, eol);
      line += count_newlines(i, eol);
      i = eol;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t close = src.find("*/", i + 2);
      const std::size_t end = close == std::string_view::npos ? n : close + 2;
      blank(i, end);
      line += count_newlines(i, end);
      i = end;
      continue;
    }
    // Preprocessor directive: '#' first on its line. `#include` paths are
    // recorded (they live inside literals, which stripping blanks);
    // every other directive is lexed as ordinary tokens.
    if (c == '#' && !token_seen_on_line) {
      emit(TokenKind::kPunct, "#");
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::size_t w = j;
      while (w < n && is_ident(src[w])) ++w;
      const std::string_view word = src.substr(j, w - j);
      if (word == "include" || word == "include_next") {
        emit(TokenKind::kIdentifier, std::string(word));
        std::size_t p = w;
        while (p < n && (src[p] == ' ' || src[p] == '\t')) ++p;
        if (p < n && (src[p] == '"' || src[p] == '<')) {
          const char closer = src[p] == '"' ? '"' : '>';
          std::size_t q = p + 1;
          while (q < n && src[q] != closer && src[q] != '\n') ++q;
          IncludeDirective inc;
          inc.path = std::string(src.substr(p + 1, q - (p + 1)));
          inc.angled = closer == '>';
          inc.line = line;
          out.includes.push_back(inc);
          // Quoted paths are literals and get blanked like any string;
          // angled paths are not literals and stay visible.
          if (closer == '"') blank(p, q < n ? q + 1 : q);
          i = q < n && src[q] == closer ? q + 1 : q;
          continue;
        }
        i = p;
        continue;
      }
      i = i + 1;
      continue;
    }
    // Identifiers, possibly glued to a (raw) string/char literal prefix.
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      if (j < n && src[j] == '"' && is_raw_string_prefix(word)) {
        // R"delim( ... )delim" -- the body may span lines and contain
        // anything (comment markers, quotes, braces); it is consumed
        // atomically and never scanned for nested constructs. The
        // delimiter must be a valid d-char-seq (at most 16 characters,
        // none of space/'('/')'/'\\'/'"'); when it is not -- e.g. `R"x" +
        // f(b)` where R is really a macro -- this is not a raw string at
        // all, and the prefix falls back to an ordinary identifier so the
        // quote lexes as a plain string instead of swallowing the rest of
        // the file while hunting for a closing sequence.
        const std::size_t open = j + 1;
        std::size_t d = open;
        bool valid_delim = true;
        while (d < n && src[d] != '(') {
          const char dc = src[d];
          if (dc == ')' || dc == '\\' || dc == '"' ||
              std::isspace(static_cast<unsigned char>(dc)) != 0 ||
              d - open >= 16) {
            valid_delim = false;
            break;
          }
          ++d;
        }
        if (d >= n) valid_delim = false;
        if (valid_delim) {
          const std::string close =
              ")" + std::string(src.substr(open, d - open)) + "\"";
          const std::size_t endpos = src.find(close, d + 1);
          const std::size_t stop =
              endpos == std::string_view::npos ? n : endpos + close.size();
          emit(TokenKind::kString, "\"\"");
          blank(i, stop);
          line += count_newlines(i, stop);
          i = stop;
          continue;
        }
        emit(TokenKind::kIdentifier, std::string(word));
        i = j;
        continue;
      }
      if (j < n && (src[j] == '"' || src[j] == '\'') && is_literal_prefix(word)) {
        const char q = src[j];
        const std::size_t stop = skip_quoted(j, q);
        emit(q == '"' ? TokenKind::kString : TokenKind::kCharLiteral,
             q == '"' ? "\"\"" : "''");
        blank(i, stop);
        line += count_newlines(i, stop);  // backslash-continued literals
        i = stop;
        continue;
      }
      emit(TokenKind::kIdentifier, std::string(word));
      i = j;
      continue;
    }
    // pp-number (covers digit separators, exponents, hex floats, suffixes).
    if (is_digit(c) || (c == '.' && i + 1 < n && is_digit(src[i + 1]))) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = src[j];
        if (is_ident(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                    src[j - 1] == 'p' || src[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      emit(TokenKind::kNumber, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    // String / char literals without prefix.
    if (c == '"' || c == '\'') {
      const std::size_t stop = skip_quoted(i, c);
      emit(c == '"' ? TokenKind::kString : TokenKind::kCharLiteral,
           c == '"' ? "\"\"" : "''");
      blank(i, stop);
      line += count_newlines(i, stop);  // backslash-continued literals
      i = stop;
      continue;
    }
    // Punctuators, maximal munch.
    bool matched = false;
    for (const std::string_view p3 : kPunct3) {
      if (src.substr(i, 3) == p3) {
        emit(TokenKind::kPunct, std::string(p3));
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    const std::string_view two = src.substr(i, 2);
    for (const std::string_view p2 : kPunct2) {
      if (two == p2) {
        emit(TokenKind::kPunct, std::string(p2));
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    emit(TokenKind::kPunct, std::string(1, c));
    ++i;
  }

  // Split raw and stripped into getline-compatible lines (no trailing
  // empty line for a final '\n').
  const auto split = [](std::string_view text, std::vector<std::string>& lines) {
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t eol = text.find('\n', start);
      if (eol == std::string_view::npos) {
        if (start < text.size()) lines.emplace_back(text.substr(start));
        break;
      }
      lines.emplace_back(text.substr(start, eol - start));
      start = eol + 1;
    }
  };
  split(src, out.raw_lines);
  split(stripped, out.stripped_lines);
  return out;
}

}  // namespace ntr::analyze
