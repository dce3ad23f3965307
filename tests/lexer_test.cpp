// Edge-case sweep for the shared C++ lexer (analyze/cpp_lexer.h). The
// scope-aware parser and the ntr_analyze semantic passes lean on exactly
// these behaviors: raw string literals of every delimiter shape,
// backslash line continuations (in code and inside line comments),
// digit separators and exotic pp-numbers, and comment markers nested in
// string literals (and vice versa). Each case pins both the token stream
// and the line bookkeeping.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analyze/cpp_lexer.h"

namespace ntr::analyze {
namespace {

const Token* find_token(const LexedSource& lexed, std::string_view text) {
  for (const Token& t : lexed.tokens)
    if (t.text == text) return &t;
  return nullptr;
}

std::size_t count_kind(const LexedSource& lexed, TokenKind kind) {
  std::size_t n = 0;
  for (const Token& t : lexed.tokens)
    if (t.kind == kind) ++n;
  return n;
}

// ------------------------------------------------------------ raw strings

TEST(LexerRawStrings, PlainAndCustomDelimiters) {
  const LexedSource lexed = lex_source(
      "auto a = R\"(simple)\";\n"
      "auto b = R\"abc(with )\" inside)abc\";\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 2u);
  // Both raw bodies are normalized away; no token leaks from inside.
  EXPECT_EQ(find_token(lexed, "simple"), nullptr);
  EXPECT_EQ(find_token(lexed, "inside"), nullptr);
}

TEST(LexerRawStrings, MultiLineBodyKeepsLineNumbers) {
  const LexedSource lexed = lex_source(
      "auto s = R\"(line one\n"
      "line two\n"
      "line three)\";\n"
      "int after = 0;\n");
  const Token* after = find_token(lexed, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 4u);
}

TEST(LexerRawStrings, BodyHidesCommentsIncludesAndQuotes) {
  const LexedSource lexed = lex_source(
      "auto s = R\"(#include \"fake.h\" /* not a comment */ // neither)\";\n"
      "int live = 1;\n");
  EXPECT_TRUE(lexed.includes.empty());
  const Token* live = find_token(lexed, "live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->line, 2u);
}

TEST(LexerRawStrings, InvalidDelimiterFallsBackToPlainString) {
  // Here `R` is an ordinary identifier (say, a macro) followed by a plain
  // string literal: a quote cannot appear in a raw-string d-char-seq, so
  // the lexer must not eat the rest of the file as a raw body.
  const LexedSource lexed = lex_source(
      "auto a = R\"x\" + f(b);\n"
      "int live = 1;\n");
  EXPECT_NE(find_token(lexed, "R"), nullptr);
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 1u);
  EXPECT_NE(find_token(lexed, "b"), nullptr);
  EXPECT_NE(find_token(lexed, "live"), nullptr);
}

TEST(LexerRawStrings, OverlongDelimiterFallsBackToPlainString) {
  // A d-char-seq is at most 16 characters; 17 means "not a raw string".
  const LexedSource lexed = lex_source(
      "auto a = R\"abcdefghijklmnopq(body)abcdefghijklmnopq\";\n"
      "int live = 1;\n");
  EXPECT_NE(find_token(lexed, "R"), nullptr);
  EXPECT_NE(find_token(lexed, "live"), nullptr);
}

TEST(LexerRawStrings, EncodingPrefixes) {
  const LexedSource lexed = lex_source(
      "auto a = u8R\"(x)\"; auto b = LR\"(y)\"; auto c = uR\"(z)\"; "
      "auto d = UR\"(w)\";\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 4u);
}

// ------------------------------------------------------ line continuations

TEST(LexerContinuations, SplicedCodeLineEmitsNoBackslashToken) {
  const LexedSource lexed = lex_source(
      "int a = 1 + \\\n"
      "2;\n"
      "int b = 3;\n");
  EXPECT_EQ(find_token(lexed, "\\"), nullptr);
  const Token* two = find_token(lexed, "2");
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->line, 2u);  // physical line, logical line 1
  const Token* b = find_token(lexed, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->line, 3u);
}

TEST(LexerContinuations, LineCommentContinuesAcrossBackslash) {
  const LexedSource lexed = lex_source(
      "// a comment that continues \\\n"
      "int hidden = 1;\n"
      "int visible = 2;\n");
  EXPECT_EQ(find_token(lexed, "hidden"), nullptr);
  const Token* visible = find_token(lexed, "visible");
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->line, 3u);
}

TEST(LexerContinuations, CrLfSplices) {
  const LexedSource lexed = lex_source(
      "int a = 1 + \\\r\n"
      "2;\n"
      "// still a comment \\\r\n"
      "int hidden = 3;\n");
  EXPECT_EQ(find_token(lexed, "\\"), nullptr);
  EXPECT_NE(find_token(lexed, "2"), nullptr);
  EXPECT_EQ(find_token(lexed, "hidden"), nullptr);
}

TEST(LexerContinuations, MacroDefinitionBodySpansLines) {
  const LexedSource lexed = lex_source(
      "#define SUM(a, b) \\\n"
      "  ((a) + (b))\n"
      "int after = SUM(1, 2);\n");
  // The continuation keeps the directive line from resetting: the '(' of
  // the macro body must not open a fresh '#' directive.
  const Token* after = find_token(lexed, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 3u);
}

TEST(LexerContinuations, EscapeContinuedStringKeepsLineCount) {
  const LexedSource lexed = lex_source(
      "const char* s = \"first \\\n"
      "second\";\n"
      "int after = 0;\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 1u);
  const Token* after = find_token(lexed, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 3u);
}

// --------------------------------------------------------------- numbers

TEST(LexerNumbers, DigitSeparators) {
  const LexedSource lexed = lex_source("auto n = 1'000'000; auto m = 0b1010'0011u;\n");
  EXPECT_NE(find_token(lexed, "1'000'000"), nullptr);
  EXPECT_NE(find_token(lexed, "0b1010'0011u"), nullptr);
  EXPECT_EQ(count_kind(lexed, TokenKind::kCharLiteral), 0u);
}

TEST(LexerNumbers, ExponentsHexFloatsAndSuffixes) {
  const LexedSource lexed =
      lex_source("double a = 1e-9; double b = 0x1.8p-3; float c = 3.f;\n");
  EXPECT_NE(find_token(lexed, "1e-9"), nullptr);
  EXPECT_NE(find_token(lexed, "0x1.8p-3"), nullptr);
  EXPECT_NE(find_token(lexed, "3.f"), nullptr);
}

// ----------------------------------------------- comment/string nesting

TEST(LexerNesting, CommentMarkersInsideStringsStayStrings) {
  const LexedSource lexed = lex_source(
      "const char* a = \"/* not a comment */\";\n"
      "const char* b = \"// neither\";\n"
      "int live = 1;\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 2u);
  const Token* live = find_token(lexed, "live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->line, 3u);
}

TEST(LexerNesting, QuotesInsideBlockCommentsStayComments) {
  const LexedSource lexed = lex_source(
      "/* \"not a string\" and 'x' */ int live = 1;\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 0u);
  EXPECT_EQ(count_kind(lexed, TokenKind::kCharLiteral), 0u);
  EXPECT_NE(find_token(lexed, "live"), nullptr);
}

TEST(LexerNesting, BlockCommentSpansLinesAndStripsInPlace) {
  const LexedSource lexed = lex_source(
      "int a = 1; /* b = 2;\n"
      "c = 3; */ int d = 4;\n");
  EXPECT_EQ(find_token(lexed, "b"), nullptr);
  EXPECT_EQ(find_token(lexed, "c"), nullptr);
  const Token* d = find_token(lexed, "d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 2u);
  // stripped_lines blanks the comment but keeps columns aligned.
  ASSERT_EQ(lexed.stripped_lines.size(), 2u);
  EXPECT_EQ(lexed.stripped_lines[0].size(), lexed.raw_lines[0].size());
  EXPECT_EQ(lexed.stripped_lines[0].find("b = 2"), std::string::npos);
}

TEST(LexerNesting, EscapedQuotesDoNotEndStrings) {
  const LexedSource lexed = lex_source(
      "const char* s = \"a \\\" b\"; int live = 1;\n"
      "char c = '\\''; char bs = '\\\\';\n");
  EXPECT_EQ(count_kind(lexed, TokenKind::kString), 1u);
  EXPECT_EQ(count_kind(lexed, TokenKind::kCharLiteral), 2u);
  EXPECT_NE(find_token(lexed, "live"), nullptr);
}

// ------------------------------------------------------------- resilience

TEST(LexerResilience, UnterminatedConstructsDoNotDerail) {
  const LexedSource a = lex_source("const char* s = \"unterminated\n int next = 1;\n");
  EXPECT_NE(find_token(a, "next"), nullptr);  // literal ends at the newline
  const LexedSource b = lex_source("int before = 1; /* never closed\nmore\n");
  EXPECT_NE(find_token(b, "before"), nullptr);
  EXPECT_EQ(find_token(b, "more"), nullptr);
  const LexedSource c = lex_source("auto r = R\"(never closed\nstill raw\n");
  EXPECT_EQ(find_token(c, "still"), nullptr);
}

TEST(LexerResilience, IncludesStillResolveAfterEdgeCases) {
  const LexedSource lexed = lex_source(
      "// #include \"commented/out.h\" \\\n"
      "#include \"continued/comment.h\"\n"
      "#include \"real/one.h\"\n");
  ASSERT_EQ(lexed.includes.size(), 1u);
  EXPECT_EQ(lexed.includes[0].path, "real/one.h");
  EXPECT_EQ(lexed.includes[0].line, 3u);
}

}  // namespace
}  // namespace ntr::analyze
