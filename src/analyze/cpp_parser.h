#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/cpp_lexer.h"

namespace ntr::analyze {

/// A lightweight declaration/scope-aware front end on top of `cpp_lexer`,
/// shared by the `ntr_analyze` semantic passes. It recovers exactly the
/// structure those passes reason about -- function boundaries, the block
/// scope tree, local/parameter declarations with *coarse* types, lambda
/// capture lists, and call expressions -- and deliberately nothing more:
/// no preprocessing, no template instantiation, no overload resolution,
/// no name lookup across files. Every recognizer is a documented
/// heuristic tuned to the repo's style; see docs/static_analysis.md
/// ("Semantic passes") for the known limits.

/// One `{ ... }` region (or the whole file for scope 0). A function body,
/// a lambda body, a class body, and a bare block each get one scope.
struct ParsedScope {
  /// What kind of construct opened this scope, recovered from the tokens
  /// directly before the '{'. `kBlock` is the catch-all (bare blocks,
  /// loop/if bodies, brace initializers, enum bodies).
  enum class Kind { kFile, kNamespace, kClass, kFunction, kLambda, kBlock };

  std::size_t begin = 0;    ///< token index of '{' (0 for the file scope)
  std::size_t end = 0;      ///< token index of the matching '}' (token count
                            ///< for the file scope or an unbalanced brace)
  int parent = -1;          ///< index into ParsedSource::scopes, -1 for file
  int function = -1;        ///< innermost enclosing function, -1 outside
  Kind kind = Kind::kBlock;
  /// Namespace or class/struct name ("" for anonymous namespaces and
  /// non-namespace/class scopes). `namespace a::b {` records "a::b".
  std::string name;
  /// For kClass scopes: the unqualified names of the direct bases, e.g.
  /// {"DelayEvaluator"} for `class TransientEvaluator final : public
  /// DelayEvaluator {`. Empty for everything else.
  std::vector<std::string> bases;
};

/// A declared name with the coarse spelling of its type. Covers function
/// parameters, block-scope locals, and class/namespace-scope members that
/// match the `type-tokens name terminator` shape. The classic `a * b;`
/// expression/declaration ambiguity is resolved toward "declaration",
/// which is harmless for the consumers (they look types *up*, never
/// report a declaration itself).
struct ParsedDecl {
  std::string name;
  std::vector<std::string> type_tokens;  ///< e.g. {"const","std","::",
                                         ///< "unordered_map","<","int",",",
                                         ///< "int",">","&"}
  std::size_t name_index = 0;            ///< token index of `name`
  std::size_t line = 0;
  int scope = -1;                        ///< scope the name is visible in
  bool is_param = false;                 ///< function/lambda parameter
  /// Constructor arguments of a direct-initialized declaration
  /// `T x(a, b);`, one entry per top-level comma segment with the tokens
  /// concatenated ("m1", "impl_->mutex", "std::defer_lock"). This is how
  /// the lock-discipline pass reads the mutexes out of a multi-mutex
  /// `std::scoped_lock l(m1, m2);` and the defer/adopt tag out of a
  /// `std::unique_lock l(m, std::defer_lock);`. Empty for `=`/brace
  /// initializers and plain declarations.
  std::vector<std::string> init_args;
  /// Argument of a trailing `NTR_GUARDED_BY(<mutex-expr>)` annotation on
  /// a member declaration (tokens concatenated, e.g. "mutex_"); "" when
  /// the declaration is unannotated. See core/annotations.h.
  std::string guarded_by;
};

/// True when `ident` appears as a whole token in the declaration's type.
[[nodiscard]] bool decl_type_has(const ParsedDecl& decl, std::string_view ident);

/// One function definition or declaration. Heuristic: an identifier
/// followed by a balanced `(...)` that is followed -- after cv/ref/
/// noexcept/override qualifiers, a trailing return type, or a constructor
/// initializer list -- by `{` (definition) or `;` (declaration; only kept
/// when a return type was seen, so plain call statements never match).
struct ParsedFunction {
  std::string name;                        ///< unqualified ("try_read_net")
  std::vector<std::string> return_tokens;  ///< coarse return type; empty for
                                           ///< constructors/destructors and
                                           ///< macro-shaped definitions
  /// Explicit name qualifier of an out-of-line definition: "RoutingGraph"
  /// for `void RoutingGraph::add_edge(...)`, "A::B" for `void
  /// A::B::f(...)`, "" when the name is unqualified.
  std::string qualifier;
  std::size_t name_index = 0;
  std::size_t line = 0;
  std::size_t body_begin = 0;  ///< token index of '{'; 0 for declarations
  std::size_t body_end = 0;    ///< matching '}'; 0 for declarations
  int body_scope = -1;         ///< index into scopes; -1 for declarations
};

/// True when `ident` appears as a whole token in the return type.
[[nodiscard]] bool return_type_has(const ParsedFunction& fn,
                                   std::string_view ident);

/// One lambda expression, with its capture list decomposed. Init-captures
/// (`x = expr`, `&x = expr`) record the introduced name.
struct ParsedLambda {
  std::size_t intro = 0;       ///< token index of '['
  std::size_t body_begin = 0;  ///< token index of '{'
  std::size_t body_end = 0;    ///< matching '}'
  std::size_t line = 0;
  bool default_by_ref = false;    ///< [&]
  bool default_by_value = false;  ///< [=]
  bool captures_this = false;     ///< [this] or [*this]
  std::vector<std::string> ref_captures;    ///< [&name], [&name = expr]
  std::vector<std::string> value_captures;  ///< [name], [name = expr]
  int body_scope = -1;
};

/// One call expression `callee(...)`. `discarded` is the property the
/// unchecked-status pass keys on: the call roots a full-expression
/// statement and nothing consumes its value -- the token after the
/// closing ')' is ';' and the postfix chain starts the statement.
struct ParsedCall {
  std::string callee;       ///< last identifier before '(' ("try_read_net"
                            ///< for io::try_read_net, "ok" for s.ok())
  /// The `a::b` chain directly before the callee: "io" for
  /// `io::try_read_net(...)`, "std::chrono" for a nested one, "" for
  /// unqualified and member calls.
  std::string qualifier;
  /// For member calls, the single identifier the call is invoked on ("s"
  /// for `s.ok()`, "this" for `this->f()`); "" when the receiver is a
  /// longer expression (`f(x).g()`, `a[i].g()`) or the call is free.
  std::string receiver;
  std::size_t name_index = 0;
  std::size_t lparen = 0;
  std::size_t rparen = 0;
  std::size_t line = 0;
  bool member_call = false;  ///< preceded by '.' or '->'
  bool discarded = false;    ///< statement-rooted, result unused
  bool void_cast = false;    ///< preceded by a `(void)` cast
  int scope = -1;
};

/// The parse of one translation unit. All vectors are ordered by token
/// position, so passes can scan them front to back deterministically.
struct ParsedSource {
  std::vector<ParsedScope> scopes;  ///< scopes[0] is the file scope
  std::vector<ParsedFunction> functions;
  std::vector<ParsedDecl> decls;
  std::vector<ParsedLambda> lambdas;
  std::vector<ParsedCall> calls;

  /// Innermost scope containing token `index` (0, the file scope, when no
  /// braced scope contains it).
  [[nodiscard]] int scope_at(std::size_t index) const;

  /// True when `maybe_ancestor` is `scope` or one of its ancestors.
  [[nodiscard]] bool scope_within(int scope, int maybe_ancestor) const;

  /// The declaration of `name` visible at token `index`: the match in the
  /// deepest enclosing scope, preferring the last one declared at or
  /// before `index` (class members used before their declaration point
  /// still resolve -- position only breaks ties within one scope).
  /// Returns nullptr when no declaration matches.
  [[nodiscard]] const ParsedDecl* lookup(std::string_view name,
                                         std::size_t index) const;
};

/// Parses one lexed translation unit. Never fails: unrecognized syntax is
/// simply not recorded, because analysis passes must not die on fixtures
/// or on code the heuristics do not cover.
[[nodiscard]] ParsedSource parse_source(const LexedSource& lexed);

}  // namespace ntr::analyze
