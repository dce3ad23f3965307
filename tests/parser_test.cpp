// Unit tests for the scope-aware C++ front end (analyze/cpp_parser.h) the
// ntr_analyze semantic passes are built on. These pin down the exact
// recognizer behavior -- function boundaries, scope nesting, coarse
// declarations, lambda captures, call discardedness -- so a parser
// regression shows up here, not as a silently blind dataflow pass.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "analyze/cpp_lexer.h"
#include "analyze/cpp_parser.h"

namespace ntr::analyze {
namespace {

ParsedSource parse(std::string_view src) {
  return parse_source(lex_source(src));
}

const ParsedFunction* find_fn(const ParsedSource& p, std::string_view name) {
  for (const ParsedFunction& fn : p.functions)
    if (fn.name == name) return &fn;
  return nullptr;
}

const ParsedDecl* find_decl(const ParsedSource& p, std::string_view name) {
  for (const ParsedDecl& d : p.decls)
    if (d.name == name) return &d;
  return nullptr;
}

const ParsedCall* find_call(const ParsedSource& p, std::string_view callee) {
  for (const ParsedCall& c : p.calls)
    if (c.callee == callee) return &c;
  return nullptr;
}

// ------------------------------------------------------------- functions

TEST(CppParser, FindsFreeFunctionDefinitionWithReturnType) {
  const ParsedSource p = parse(
      "namespace x {\n"
      "runtime::StatusOr<int> try_parse(std::string_view s) {\n"
      "  return 1;\n"
      "}\n"
      "}\n");
  const ParsedFunction* fn = find_fn(p, "try_parse");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(return_type_has(*fn, "StatusOr"));
  EXPECT_FALSE(return_type_has(*fn, "Status"));
  EXPECT_NE(fn->body_begin, 0u);
  EXPECT_GT(fn->body_end, fn->body_begin);
  EXPECT_EQ(fn->line, 2u);
}

TEST(CppParser, FindsDeclarationOnlyFunctions) {
  const ParsedSource p = parse(
      "[[nodiscard]] runtime::Status validate(const Net& net);\n"
      "void run();\n");
  const ParsedFunction* validate = find_fn(p, "validate");
  ASSERT_NE(validate, nullptr);
  EXPECT_EQ(validate->body_begin, 0u);
  EXPECT_TRUE(return_type_has(*validate, "Status"));
  ASSERT_NE(find_fn(p, "run"), nullptr);
}

TEST(CppParser, CallStatementIsNotAFunctionDeclaration) {
  const ParsedSource p = parse(
      "void caller() {\n"
      "  helper(1, 2);\n"
      "  other.method();\n"
      "}\n");
  EXPECT_EQ(find_fn(p, "helper"), nullptr);
  EXPECT_EQ(find_fn(p, "method"), nullptr);
  ASSERT_NE(find_fn(p, "caller"), nullptr);
}

TEST(CppParser, HandlesQualifiedNamesCtorInitListsAndTrailingReturn) {
  const ParsedSource p = parse(
      "Foo::Foo(int x) : a_(x), b_{x + 1} { init(); }\n"
      "auto Foo::get() const -> const std::vector<int>& { return v_; }\n");
  const ParsedFunction* ctor = find_fn(p, "Foo");
  ASSERT_NE(ctor, nullptr);
  EXPECT_NE(ctor->body_begin, 0u);
  const ParsedFunction* get = find_fn(p, "get");
  ASSERT_NE(get, nullptr);
  EXPECT_NE(get->body_begin, 0u);
}

TEST(CppParser, ControlFlowKeywordsAreNeverFunctions) {
  const ParsedSource p = parse(
      "void f(bool c) {\n"
      "  if (c) { g(); }\n"
      "  while (c) { h(); }\n"
      "  for (int i = 0; i < 3; ++i) { }\n"
      "  switch (0) { default: break; }\n"
      "}\n");
  EXPECT_EQ(find_fn(p, "if"), nullptr);
  EXPECT_EQ(find_fn(p, "while"), nullptr);
  EXPECT_EQ(find_fn(p, "for"), nullptr);
  EXPECT_EQ(find_fn(p, "switch"), nullptr);
}

// ----------------------------------------------------------------- scopes

TEST(CppParser, ScopeFunctionTagsSurviveStatementPruning) {
  // `return compute(x);` first parses as a declaration-only
  // pseudo-function; it must be pruned before scopes are tagged with
  // function indices, or every later function's tag is stale -- here
  // `second` would be tagged 2 with only 2 functions surviving.
  const ParsedSource p = parse(
      "int helper(int x) {\n"
      "  return compute(x);\n"
      "}\n"
      "void second() {\n"
      "  int y = 0;\n"
      "}\n");
  EXPECT_EQ(find_fn(p, "compute"), nullptr);
  ASSERT_EQ(p.functions.size(), 2u);
  const ParsedDecl* y = find_decl(p, "y");
  ASSERT_NE(y, nullptr);
  const ParsedScope& ys = p.scopes[static_cast<std::size_t>(y->scope)];
  ASSERT_GE(ys.function, 0);
  ASSERT_LT(static_cast<std::size_t>(ys.function), p.functions.size());
  EXPECT_EQ(p.functions[static_cast<std::size_t>(ys.function)].name, "second");
}

TEST(CppParser, ScopesNestAndTagTheirFunction) {
  const ParsedSource p = parse(
      "void outer() {\n"
      "  {\n"
      "    int x = 0;\n"
      "  }\n"
      "}\n"
      "int later;\n");
  const ParsedFunction* outer = find_fn(p, "outer");
  ASSERT_NE(outer, nullptr);
  const ParsedDecl* x = find_decl(p, "x");
  ASSERT_NE(x, nullptr);
  const ParsedScope& xs = p.scopes[static_cast<std::size_t>(x->scope)];
  EXPECT_GE(xs.function, 0);
  EXPECT_EQ(p.functions[static_cast<std::size_t>(xs.function)].name, "outer");
  const ParsedDecl* later = find_decl(p, "later");
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(later->scope, 0);
}

// ----------------------------------------------------------- declarations

TEST(CppParser, RecordsLocalsWithCoarseTypes) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  const std::unordered_map<std::string, int>& m = get();\n"
      "  std::vector<double> out;\n"
      "  runtime::Status st = check();\n"
      "}\n");
  const ParsedDecl* m = find_decl(p, "m");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(decl_type_has(*m, "unordered_map"));
  EXPECT_FALSE(decl_type_has(*m, "unordered_set"));
  const ParsedDecl* out = find_decl(p, "out");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(decl_type_has(*out, "vector"));
  const ParsedDecl* st = find_decl(p, "st");
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(decl_type_has(*st, "Status"));
}

TEST(CppParser, RecordsFunctionParameters) {
  const ParsedSource p = parse(
      "int sum(const std::vector<int>& values, std::size_t limit) {\n"
      "  return 0;\n"
      "}\n");
  const ParsedDecl* values = find_decl(p, "values");
  ASSERT_NE(values, nullptr);
  EXPECT_TRUE(values->is_param);
  EXPECT_TRUE(decl_type_has(*values, "vector"));
  const ParsedDecl* limit = find_decl(p, "limit");
  ASSERT_NE(limit, nullptr);
  EXPECT_TRUE(limit->is_param);
}

TEST(CppParser, RecordsRangeForAndMultiDeclarators) {
  const ParsedSource p = parse(
      "void f(const std::unordered_set<int>& pool) {\n"
      "  int a = 0, b = 1;\n"
      "  for (const int v : pool) { (void)v; }\n"
      "}\n");
  EXPECT_NE(find_decl(p, "a"), nullptr);
  EXPECT_NE(find_decl(p, "b"), nullptr);
  const ParsedDecl* v = find_decl(p, "v");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(decl_type_has(*v, "int"));
}

TEST(CppParser, RecordsIfWithInitializerDeclarations) {
  // C++17 `if (init; cond)` is the canonical checked-Status idiom the
  // taint pass's sanitizer recognition depends on; the declared name
  // must be visible to lookups inside the condition and the body.
  const ParsedSource p = parse(
      "void f() {\n"
      "  if (auto s = try_commit(1); s.ok()) { use(s); }\n"
      "  if (std::size_t n = q.size()) { use(n); }\n"
      "  while (Token t = next()) { use(t); }\n"
      "  switch (int m = mode(); m) { default: break; }\n"
      "}\n");
  const ParsedDecl* s = find_decl(p, "s");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(decl_type_has(*s, "auto"));
  const ParsedDecl* n = find_decl(p, "n");
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(decl_type_has(*n, "size_t"));
  const ParsedDecl* t = find_decl(p, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(decl_type_has(*t, "Token"));
  EXPECT_NE(find_decl(p, "m"), nullptr);
  // The .ok() member call resolves its receiver to the new declaration.
  const ParsedCall* ok = find_call(p, "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->receiver, "s");
  EXPECT_NE(p.lookup("s", ok->name_index), nullptr);
}

TEST(CppParser, PlainConditionExpressionsAreNotDeclarations) {
  // `a && b` / `a * b` in a condition are expressions; without the
  // initializer requirement they would false-parse as declarations of
  // `b` with junk types, poisoning lookup for the real `b`.
  const ParsedSource p = parse(
      "void f(int a, int b, bool* c) {\n"
      "  if (a && b) { }\n"
      "  if (a * b) { }\n"
      "  while (a < b) { }\n"
      "  if (c && *c) { }\n"
      "}\n");
  for (const ParsedDecl& d : p.decls) EXPECT_TRUE(d.is_param) << d.name;
}

TEST(CppParser, NestedTemplateClosersParseAsDeclarations) {
  // `>>` lexes as one token by maximal munch; inside a template argument
  // list at depth >= 2 it closes two lists, it is not a right shift.
  const ParsedSource p = parse(
      "void f() {\n"
      "  std::unordered_map<int, std::vector<int>> grouped;\n"
      "  std::vector<std::vector<std::vector<int>>> deep;\n"
      "}\n");
  const ParsedDecl* grouped = find_decl(p, "grouped");
  ASSERT_NE(grouped, nullptr);
  EXPECT_TRUE(decl_type_has(*grouped, "unordered_map"));
  const ParsedDecl* deep = find_decl(p, "deep");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(decl_type_has(*deep, "vector"));
}

TEST(CppParser, QualifiedCallStatementsAreNotCtorInitDecls) {
  // `io::try_read_net(buf);` is a call statement; recording it as a
  // direct-initialized declaration named `try_read_net` would shadow
  // real outer declarations in later lookups.
  const ParsedSource p = parse(
      "void f(Buffer& buf) {\n"
      "  io::try_read_net(buf);\n"
      "  net::Grid grid(3);\n"
      "}\n");
  EXPECT_EQ(find_decl(p, "try_read_net"), nullptr);
  const ParsedDecl* grid = find_decl(p, "grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_TRUE(decl_type_has(*grid, "Grid"));
}

TEST(CppParser, LookupPrefersTheInnermostDeclaration) {
  const ParsedSource p = parse(
      "std::unordered_map<int, int> m;\n"
      "void f() {\n"
      "  std::vector<int> m;\n"
      "  use(m);\n"
      "}\n");
  const ParsedCall* use = find_call(p, "use");
  ASSERT_NE(use, nullptr);
  const ParsedDecl* inner = p.lookup("m", use->name_index);
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(decl_type_has(*inner, "vector"));
  // At file scope (before f's body) the global is the visible one.
  const ParsedDecl* outerm = p.lookup("m", 1);
  ASSERT_NE(outerm, nullptr);
  EXPECT_TRUE(decl_type_has(*outerm, "unordered_map"));
}

// ---------------------------------------------------------------- lambdas

TEST(CppParser, DecomposesCaptureLists) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  int a = 0, b = 0;\n"
      "  auto l1 = [&]() { return a; };\n"
      "  auto l2 = [=]() { return b; };\n"
      "  auto l3 = [&a, b, this]() { return a + b; };\n"
      "  auto l4 = [&total = a](int x) { return total + x; };\n"
      "}\n");
  ASSERT_EQ(p.lambdas.size(), 4u);
  EXPECT_TRUE(p.lambdas[0].default_by_ref);
  EXPECT_TRUE(p.lambdas[1].default_by_value);
  ASSERT_EQ(p.lambdas[2].ref_captures.size(), 1u);
  EXPECT_EQ(p.lambdas[2].ref_captures[0], "a");
  ASSERT_EQ(p.lambdas[2].value_captures.size(), 1u);
  EXPECT_EQ(p.lambdas[2].value_captures[0], "b");
  EXPECT_TRUE(p.lambdas[2].captures_this);
  ASSERT_EQ(p.lambdas[3].ref_captures.size(), 1u);
  EXPECT_EQ(p.lambdas[3].ref_captures[0], "total");
}

TEST(CppParser, LambdaParametersBecomeBodyScopeDecls) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  auto l = [](std::size_t lane, std::size_t begin) { use(lane, begin); };\n"
      "}\n");
  ASSERT_EQ(p.lambdas.size(), 1u);
  const ParsedDecl* lane = find_decl(p, "lane");
  ASSERT_NE(lane, nullptr);
  EXPECT_TRUE(lane->is_param);
  EXPECT_EQ(lane->scope, p.lambdas[0].body_scope);
}

TEST(CppParser, SubscriptsAndAttributesAreNotLambdas) {
  const ParsedSource p = parse(
      "[[nodiscard]] int f(std::vector<int>& v) {\n"
      "  v[0] = 1;\n"
      "  return v[0];\n"
      "}\n");
  EXPECT_TRUE(p.lambdas.empty());
}

// ------------------------------------------------------------------ calls

TEST(CppParser, ClassifiesDiscardedCalls) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  helper();\n"
      "  int x = used();\n"
      "  (void)explicitly_ignored();\n"
      "  if (tested()) { }\n"
      "  return;\n"
      "}\n");
  const ParsedCall* helper = find_call(p, "helper");
  ASSERT_NE(helper, nullptr);
  EXPECT_TRUE(helper->discarded);
  const ParsedCall* used = find_call(p, "used");
  ASSERT_NE(used, nullptr);
  EXPECT_FALSE(used->discarded);
  const ParsedCall* ignored = find_call(p, "explicitly_ignored");
  ASSERT_NE(ignored, nullptr);
  EXPECT_FALSE(ignored->discarded);
  EXPECT_TRUE(ignored->void_cast);
  const ParsedCall* tested = find_call(p, "tested");
  ASSERT_NE(tested, nullptr);
  EXPECT_FALSE(tested->discarded);
}

TEST(CppParser, MemberAndQualifiedChainsRootCorrectly) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  io::try_read_net(\"x\");\n"
      "  result.status();\n"
      "  obj.chain().next();\n"
      "  if (r.ok()) { }\n"
      "}\n");
  const ParsedCall* try_read = find_call(p, "try_read_net");
  ASSERT_NE(try_read, nullptr);
  EXPECT_TRUE(try_read->discarded);
  EXPECT_FALSE(try_read->member_call);
  const ParsedCall* status = find_call(p, "status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->member_call);
  EXPECT_TRUE(status->discarded);
  // chain() feeds .next(), so only next() is the discarded one.
  const ParsedCall* chain = find_call(p, "chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_FALSE(chain->discarded);
  const ParsedCall* next = find_call(p, "next");
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->discarded);
  const ParsedCall* ok = find_call(p, "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->discarded);
}

TEST(CppParser, ReturnedCallsAreUsed) {
  const ParsedSource p = parse(
      "int f() {\n"
      "  return compute();\n"
      "}\n");
  const ParsedCall* compute = find_call(p, "compute");
  ASSERT_NE(compute, nullptr);
  EXPECT_FALSE(compute->discarded);
}

// --------------------------------------------------- scope classification

const ParsedScope* find_scope(const ParsedSource& p, ParsedScope::Kind kind,
                              std::string_view name) {
  for (const ParsedScope& s : p.scopes)
    if (s.kind == kind && s.name == name) return &s;
  return nullptr;
}

TEST(CppParser, ClassifiesScopeKindsAndNames) {
  const ParsedSource p = parse(
      "namespace outer::inner {\n"
      "class Widget final : public Base, private util::Mixin<int> {\n"
      " public:\n"
      "  void poke() { }\n"
      "};\n"
      "struct Pod { int x; };\n"
      "enum class Mode { kA, kB };\n"
      "void f() { { int block = 0; } }\n"
      "}  // namespace outer::inner\n");
  ASSERT_FALSE(p.scopes.empty());
  EXPECT_EQ(p.scopes[0].kind, ParsedScope::Kind::kFile);

  const ParsedScope* ns =
      find_scope(p, ParsedScope::Kind::kNamespace, "outer::inner");
  ASSERT_NE(ns, nullptr);

  const ParsedScope* widget =
      find_scope(p, ParsedScope::Kind::kClass, "Widget");
  ASSERT_NE(widget, nullptr);
  // Direct bases, access/virtual keywords and template args stripped.
  ASSERT_EQ(widget->bases.size(), 2u);
  EXPECT_EQ(widget->bases[0], "Base");
  EXPECT_EQ(widget->bases[1], "Mixin");

  const ParsedScope* pod = find_scope(p, ParsedScope::Kind::kClass, "Pod");
  ASSERT_NE(pod, nullptr);
  EXPECT_TRUE(pod->bases.empty());

  // An enum body is a plain block, never a class scope.
  EXPECT_EQ(find_scope(p, ParsedScope::Kind::kClass, "Mode"), nullptr);

  // Function bodies are kFunction; the nested bare block stays kBlock.
  const ParsedFunction* f = find_fn(p, "f");
  ASSERT_NE(f, nullptr);
  ASSERT_GE(f->body_scope, 0);
  EXPECT_EQ(p.scopes[static_cast<std::size_t>(f->body_scope)].kind,
            ParsedScope::Kind::kFunction);
}

TEST(CppParser, RecordsOutOfLineDefinitionQualifiers) {
  const ParsedSource p = parse(
      "void RoutingGraph::add_edge(int u) { (void)u; }\n"
      "int A::B::f() { return 0; }\n"
      "void g() { }\n");
  const ParsedFunction* add_edge = find_fn(p, "add_edge");
  ASSERT_NE(add_edge, nullptr);
  EXPECT_EQ(add_edge->qualifier, "RoutingGraph");
  const ParsedFunction* f = find_fn(p, "f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->qualifier, "A::B");
  const ParsedFunction* g = find_fn(p, "g");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->qualifier.empty());
}

TEST(CppParser, CallsRecordQualifierAndReceiver) {
  const ParsedSource p = parse(
      "void f() {\n"
      "  io::try_read_net(1);\n"
      "  std::chrono::floor(2);\n"
      "  s.ok();\n"
      "  this->poke();\n"
      "  make().next();\n"
      "}\n");
  const ParsedCall* try_read = find_call(p, "try_read_net");
  ASSERT_NE(try_read, nullptr);
  EXPECT_EQ(try_read->qualifier, "io");
  EXPECT_TRUE(try_read->receiver.empty());
  const ParsedCall* floor = find_call(p, "floor");
  ASSERT_NE(floor, nullptr);
  EXPECT_EQ(floor->qualifier, "std::chrono");
  const ParsedCall* ok = find_call(p, "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->member_call);
  EXPECT_EQ(ok->receiver, "s");
  EXPECT_TRUE(ok->qualifier.empty());
  const ParsedCall* poke = find_call(p, "poke");
  ASSERT_NE(poke, nullptr);
  EXPECT_EQ(poke->receiver, "this");
  // A longer postfix chain has no single-identifier receiver.
  const ParsedCall* next = find_call(p, "next");
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->member_call);
  EXPECT_TRUE(next->receiver.empty());
}

TEST(CppParser, RecordsDirectInitArgumentsForGuardDeclarations) {
  const ParsedSource p = parse(
      "void f(std::mutex& m1, std::mutex& m2) {\n"
      "  std::scoped_lock both(m1, m2);\n"
      "  std::lock_guard<std::mutex> one(m1);\n"
      "}\n");
  const ParsedDecl* both = find_decl(p, "both");
  ASSERT_NE(both, nullptr);
  ASSERT_EQ(both->init_args.size(), 2u);
  EXPECT_EQ(both->init_args[0], "m1");
  EXPECT_EQ(both->init_args[1], "m2");
  const ParsedDecl* one = find_decl(p, "one");
  ASSERT_NE(one, nullptr);
  ASSERT_EQ(one->init_args.size(), 1u);
  EXPECT_EQ(one->init_args[0], "m1");
}

TEST(CppParser, RecordsUniqueLockTagArguments) {
  const ParsedSource p = parse(
      "void f(std::mutex& m) {\n"
      "  std::unique_lock<std::mutex> lk(m, std::defer_lock);\n"
      "  std::unique_lock<std::mutex> ad(m, std::adopt_lock);\n"
      "}\n");
  const ParsedDecl* lk = find_decl(p, "lk");
  ASSERT_NE(lk, nullptr);
  ASSERT_EQ(lk->init_args.size(), 2u);
  EXPECT_EQ(lk->init_args[0], "m");
  EXPECT_EQ(lk->init_args[1], "std::defer_lock");
  const ParsedDecl* ad = find_decl(p, "ad");
  ASSERT_NE(ad, nullptr);
  ASSERT_EQ(ad->init_args.size(), 2u);
  EXPECT_EQ(ad->init_args[1], "std::adopt_lock");
}

TEST(CppParser, RecordsGuardedByAnnotations) {
  const ParsedSource p = parse(
      "class Q {\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_ NTR_GUARDED_BY(mu_);\n"
      "  int total_ NTR_GUARDED_BY(mu_) = 0;\n"
      "  int plain_ = 0;\n"
      "};\n");
  const ParsedDecl* items = find_decl(p, "items_");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->guarded_by, "mu_");
  const ParsedDecl* total = find_decl(p, "total_");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->guarded_by, "mu_");
  const ParsedDecl* plain = find_decl(p, "plain_");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->guarded_by.empty());
}

TEST(CppParser, QualifiedOutOfLineClassBodiesAreClassScopes) {
  // `struct Outer::Impl { ... }` (the pimpl idiom) must open a class
  // scope named by the last segment, so its members resolve.
  const ParsedSource p = parse(
      "struct Pool::Impl {\n"
      "  std::mutex mutex;\n"
      "  void poke() { }\n"
      "};\n");
  const ParsedScope* impl = find_scope(p, ParsedScope::Kind::kClass, "Impl");
  ASSERT_NE(impl, nullptr);
  const ParsedDecl* mutex = find_decl(p, "mutex");
  ASSERT_NE(mutex, nullptr);
  EXPECT_EQ(mutex->scope, static_cast<int>(impl - p.scopes.data()));
}

TEST(CppParser, DestructorsRecordTheirQualifier) {
  const ParsedSource p = parse(
      "Pool::~Pool() { stop(); }\n"
      "struct T { ~T() { } };\n");
  const ParsedFunction* pool_dtor = find_fn(p, "~Pool");
  ASSERT_NE(pool_dtor, nullptr);
  EXPECT_EQ(pool_dtor->qualifier, "Pool");
  EXPECT_GT(pool_dtor->body_end, pool_dtor->body_begin);
  const ParsedFunction* t_dtor = find_fn(p, "~T");
  ASSERT_NE(t_dtor, nullptr);
  EXPECT_TRUE(t_dtor->qualifier.empty());
}

}  // namespace
}  // namespace ntr::analyze
