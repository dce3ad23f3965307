#include "analyze/cpp_parser.h"

#include <algorithm>
#include <array>

namespace ntr::analyze {

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

/// Keywords that read like a callee or a declared name at token level but
/// never are one.
constexpr std::array<std::string_view, 22> kNotACallee = {
    "if",       "for",           "while",    "switch",   "catch",
    "return",   "sizeof",        "alignof",  "alignas",  "decltype",
    "noexcept", "static_assert", "constexpr", "consteval", "typeid",
    "throw",    "new",           "delete",   "co_await", "co_return",
    "co_yield", "requires"};

/// Storage/cv/type keywords that may open or pad a declaration's type.
constexpr std::array<std::string_view, 17> kTypeKeywords = {
    "const",    "constexpr", "static",   "inline", "mutable", "volatile",
    "unsigned", "signed",    "long",     "short",  "auto",    "register",
    "thread_local", "typename", "struct", "class",  "union"};

/// Keywords that must never be recorded as a declared *name*.
constexpr std::array<std::string_view, 14> kNotAName = {
    "const", "constexpr", "static",   "inline", "mutable",  "volatile",
    "auto",  "return",    "if",       "else",   "operator", "public",
    "private", "protected"};

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

std::size_t match_backward(const std::vector<Token>& toks, std::size_t close) {
  const std::string_view c = toks[close].text;
  const std::string_view o = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == c) ++depth;
    if (toks[i].text == o && --depth == 0) return i;
  }
  return toks.size();
}

/// Matching '>' of a template argument list opened at `open`, tracking
/// only '<'/'>' nesting and giving up at ';' or braces (a bare less-than
/// comparison). A '>>' token while two or more lists are open closes two
/// of them (`vector<vector<int>>` lexes the tail as one '>>' by maximal
/// munch); at lower depth it is an actual right shift and ends the
/// attempt, as does '<<'.
std::size_t match_template(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(") {  // function types: function<void(std::size_t)>
      const std::size_t c = match_forward(toks, i);
      if (c >= toks.size()) break;
      i = c;
      continue;
    }
    if (t.text == "<") ++depth;
    if (t.text == ">" && --depth == 0) return i;
    if (t.text == ">>" && depth >= 2) {
      depth -= 2;
      if (depth == 0) return i;
      continue;
    }
    if (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ")" ||
        t.text == "<<" || t.text == ">>")
      break;  // a bare less-than comparison, not a template argument list
  }
  return toks.size();
}

/// Start of the postfix chain the call at `name_index` belongs to:
/// walks back over `a::b`, `x.y`, `p->q`, and call/subscript groups, so
/// `io::try_read_net`, `result.status`, and `f(x).g` all root at their
/// leftmost token.
std::size_t chain_start(const std::vector<Token>& toks, std::size_t name_index) {
  std::size_t i = name_index;
  while (i >= 1) {
    const Token& prev = toks[i - 1];
    if (is_punct(prev, "::") || is_punct(prev, ".") || is_punct(prev, "->")) {
      if (i >= 2 && is_ident(toks[i - 2])) {
        i -= 2;
        continue;
      }
      if (i >= 2 && (is_punct(toks[i - 2], ")") || is_punct(toks[i - 2], "]"))) {
        const std::size_t open = match_backward(toks, i - 2);
        if (open >= toks.size() || open == 0) return i - 2;
        // The group itself may be a call/subscript on a longer chain.
        if (is_ident(toks[open - 1])) {
          i = open - 1;
          continue;
        }
        return open;
      }
      return i;  // e.g. `::global_fn(...)`
    }
    break;
  }
  return i;
}

bool type_tokens_have(const std::vector<std::string>& type,
                      std::string_view ident) {
  return std::find(type.begin(), type.end(), ident) != type.end();
}

}  // namespace

bool decl_type_has(const ParsedDecl& decl, std::string_view ident) {
  return type_tokens_have(decl.type_tokens, ident);
}

bool return_type_has(const ParsedFunction& fn, std::string_view ident) {
  return type_tokens_have(fn.return_tokens, ident);
}

int ParsedSource::scope_at(std::size_t index) const {
  int best = 0;
  for (std::size_t s = 1; s < scopes.size(); ++s) {
    const ParsedScope& sc = scopes[s];
    if (sc.begin < index && index < sc.end &&
        (best == 0 || sc.begin > scopes[static_cast<std::size_t>(best)].begin))
      best = static_cast<int>(s);
  }
  return best;
}

bool ParsedSource::scope_within(int scope, int maybe_ancestor) const {
  for (int s = scope; s >= 0;
       s = scopes[static_cast<std::size_t>(s)].parent) {
    if (s == maybe_ancestor) return true;
  }
  return false;
}

const ParsedDecl* ParsedSource::lookup(std::string_view name,
                                       std::size_t index) const {
  const int at = scope_at(index);
  const ParsedDecl* best = nullptr;
  for (const ParsedDecl& d : decls) {
    if (d.name != name) continue;
    if (!scope_within(at, d.scope)) continue;
    if (best == nullptr) {
      best = &d;
      continue;
    }
    const ParsedScope& ds = scopes[static_cast<std::size_t>(d.scope)];
    const ParsedScope& bs = scopes[static_cast<std::size_t>(best->scope)];
    if (ds.begin > bs.begin) {
      best = &d;  // deeper scope wins
    } else if (d.scope == best->scope) {
      // Same scope: last declaration at or before the use site wins.
      if (d.name_index <= index &&
          (best->name_index > index || d.name_index > best->name_index))
        best = &d;
    }
  }
  return best;
}

ParsedSource parse_source(const LexedSource& lexed) {
  const std::vector<Token>& toks = lexed.tokens;
  ParsedSource out;

  // ----------------------------------------------------------- scope tree
  out.scopes.push_back(ParsedScope{0, toks.size(), -1, -1,
                                   ParsedScope::Kind::kFile, "", {}});
  {
    std::vector<int> stack{0};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_punct(toks[i], "{")) {
        ParsedScope sc;
        sc.begin = i;
        sc.end = match_forward(toks, i);
        sc.parent = stack.back();
        stack.push_back(static_cast<int>(out.scopes.size()));
        out.scopes.push_back(sc);
      } else if (is_punct(toks[i], "}") && stack.size() > 1) {
        stack.pop_back();
      }
    }
  }
  const auto scope_of_body = [&](std::size_t body_begin) {
    for (std::size_t s = 1; s < out.scopes.size(); ++s)
      if (out.scopes[s].begin == body_begin) return static_cast<int>(s);
    return -1;
  };

  // Splits the parameter list (lparen, rparen) into coarse declarations
  // for `scope`. A parameter's name is the last identifier of its
  // top-level segment, before any default argument; segments whose only
  // identifier-ish content is the type (unnamed parameters) are skipped.
  const auto parse_params = [&](std::size_t lparen, std::size_t rparen,
                                int scope) {
    std::size_t seg_begin = lparen + 1;
    int depth = 0;
    for (std::size_t i = lparen + 1; i <= rparen; ++i) {
      const bool at_end = i == rparen;
      if (!at_end && toks[i].kind == TokenKind::kPunct) {
        const std::string& p = toks[i].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (p == "<") {
          const std::size_t close = match_template(toks, i);
          if (close < rparen) i = close;
          continue;
        }
      }
      if (!at_end && !(depth == 0 && is_punct(toks[i], ","))) continue;
      // Segment [seg_begin, i): trim a default argument, find the name.
      std::size_t seg_end = i;
      for (std::size_t k = seg_begin; k < i; ++k) {
        if (is_punct(toks[k], "=")) {
          seg_end = k;
          break;
        }
      }
      std::size_t name_at = toks.size();
      std::size_t ident_count = 0;
      for (std::size_t k = seg_begin; k < seg_end; ++k) {
        if (is_ident(toks[k]) &&
            !in_set(kTypeKeywords, std::string_view(toks[k].text))) {
          name_at = k;
        }
        if (is_ident(toks[k])) ++ident_count;
      }
      if (name_at < toks.size() && ident_count >= 2 &&
          (name_at + 1 == seg_end || !is_punct(toks[name_at + 1], "::")) &&
          !in_set(kNotAName, std::string_view(toks[name_at].text))) {
        ParsedDecl d;
        d.name = toks[name_at].text;
        for (std::size_t k = seg_begin; k < name_at; ++k)
          d.type_tokens.push_back(toks[k].text);
        d.name_index = name_at;
        d.line = toks[name_at].line;
        d.scope = scope;
        d.is_param = true;
        out.decls.push_back(std::move(d));
      }
      seg_begin = i + 1;
    }
  };

  // -------------------------------------------------------------- lambdas
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "[")) continue;
    // Subscripts follow a value; attributes are a second '[' deep.
    if (i >= 1 && (is_ident(toks[i - 1]) || is_punct(toks[i - 1], ")") ||
                   is_punct(toks[i - 1], "]")))
      continue;
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "[")) {
      i = match_forward(toks, i);  // [[attribute]]
      if (i >= toks.size()) break;
      continue;
    }
    const std::size_t rb = match_forward(toks, i);
    if (rb >= toks.size()) continue;

    ParsedLambda lam;
    lam.intro = i;
    lam.line = toks[i].line;
    // Capture entries are separated by top-level commas.
    std::size_t entry = i + 1;
    int depth = 0;
    for (std::size_t k = i + 1; k <= rb; ++k) {
      const bool at_end = k == rb;
      if (!at_end && toks[k].kind == TokenKind::kPunct) {
        const std::string& p = toks[k].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
      }
      if (!at_end && !(depth == 0 && is_punct(toks[k], ","))) continue;
      const std::size_t b = entry, e = k;
      entry = k + 1;
      if (b >= e) continue;
      if (is_punct(toks[b], "&")) {
        if (b + 1 == e) {
          lam.default_by_ref = true;
        } else if (is_ident(toks[b + 1])) {
          lam.ref_captures.push_back(toks[b + 1].text);
        }
        continue;
      }
      if (is_punct(toks[b], "=") && b + 1 == e) {
        lam.default_by_value = true;
        continue;
      }
      if (is_punct(toks[b], "*") && b + 1 < e && toks[b + 1].text == "this") {
        lam.captures_this = true;
        continue;
      }
      if (is_ident(toks[b])) {
        if (toks[b].text == "this") {
          lam.captures_this = true;
        } else {
          lam.value_captures.push_back(toks[b].text);
        }
      }
    }

    std::size_t pos = rb + 1;
    std::size_t lparen = 0, rparen = 0;
    if (pos < toks.size() && is_punct(toks[pos], "(")) {
      lparen = pos;
      rparen = match_forward(toks, pos);
      if (rparen >= toks.size()) continue;
      pos = rparen + 1;
    }
    // Skip mutable/noexcept/attributes/trailing return up to the body.
    int tdepth = 0;
    while (pos < toks.size()) {
      const Token& t = toks[pos];
      if (tdepth == 0 && is_punct(t, "{")) break;
      if (tdepth == 0 && (is_punct(t, ";") || is_punct(t, ")") ||
                          is_punct(t, ",") || is_punct(t, "}")))
        break;  // captureless-reference `[]` misparse or lambda-free brackets
      if (is_punct(t, "(") || is_punct(t, "<")) ++tdepth;
      if (is_punct(t, ")") || is_punct(t, ">")) --tdepth;
      ++pos;
    }
    if (pos >= toks.size() || !is_punct(toks[pos], "{")) continue;
    lam.body_begin = pos;
    lam.body_end = match_forward(toks, pos);
    if (lam.body_end >= toks.size()) continue;
    lam.body_scope = scope_of_body(lam.body_begin);
    if (lparen != 0 && lam.body_scope >= 0)
      parse_params(lparen, rparen, lam.body_scope);
    out.lambdas.push_back(std::move(lam));
  }
  const auto inside_lambda_intro = [&](std::size_t idx) {
    for (const ParsedLambda& lam : out.lambdas)
      if (lam.intro <= idx && idx < lam.body_begin) return true;
    return false;
  };

  // ------------------------------------------------------------ functions
  // Candidate: identifier + balanced (...) followed (after qualifiers, a
  // trailing return type, or a constructor initializer list) by '{' or,
  // for declarations with a visible return type, ';'.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !is_punct(toks[i + 1], "(")) continue;
    if (in_set(kNotACallee, std::string_view(toks[i].text))) continue;
    const std::size_t rp = match_forward(toks, i + 1);
    if (rp >= toks.size()) continue;

    std::size_t pos = rp + 1;
    bool gave_up = false;
    while (pos < toks.size()) {
      const Token& t = toks[pos];
      if (is_ident(t) && (t.text == "const" || t.text == "noexcept" ||
                          t.text == "override" || t.text == "final" ||
                          t.text == "mutable")) {
        if (pos + 1 < toks.size() && is_punct(toks[pos + 1], "(")) {
          const std::size_t c = match_forward(toks, pos + 1);  // noexcept(...)
          if (c >= toks.size()) {
            gave_up = true;
            break;
          }
          pos = c + 1;
        } else {
          ++pos;
        }
        continue;
      }
      if (is_punct(t, "&") || is_punct(t, "&&")) {
        ++pos;
        continue;
      }
      if (is_punct(t, "->")) {  // trailing return type: skip to '{' or ';'
        ++pos;
        int depth = 0;
        while (pos < toks.size()) {
          const Token& u = toks[pos];
          if (depth == 0 && (is_punct(u, "{") || is_punct(u, ";"))) break;
          if (is_punct(u, "(") || is_punct(u, "[")) ++depth;
          if (is_punct(u, ")") || is_punct(u, "]")) --depth;
          if (is_punct(u, "<")) {
            const std::size_t c = match_template(toks, pos);
            if (c < toks.size()) pos = c;
          }
          ++pos;
        }
        continue;
      }
      if (is_punct(t, ":")) {  // constructor initializer list
        ++pos;
        while (pos < toks.size()) {
          const Token& u = toks[pos];
          if (is_punct(u, "{")) {
            // `member{init}` vs the body: the body '{' follows ','-list
            // exhaustion, i.e. a '{' not directly after a member name.
            const bool member_init =
                pos >= 1 && (is_ident(toks[pos - 1]) || is_punct(toks[pos - 1], ">"));
            if (!member_init) break;
            const std::size_t c = match_forward(toks, pos);
            if (c >= toks.size()) break;
            pos = c + 1;
            continue;
          }
          if (is_punct(u, "(")) {
            const std::size_t c = match_forward(toks, pos);
            if (c >= toks.size()) break;
            pos = c + 1;
            continue;
          }
          if (is_punct(u, ";")) break;
          ++pos;
        }
        continue;
      }
      break;
    }
    if (gave_up || pos >= toks.size()) continue;
    const bool has_body = is_punct(toks[pos], "{");
    const bool is_decl_end = is_punct(toks[pos], ";");
    if (!has_body && !is_decl_end) continue;

    // Return type: tokens between the previous hard boundary and the
    // (possibly qualified) name chain. Attribute groups are dropped. A
    // '~' belongs to the chain (`ThreadPool::~ThreadPool`), so the
    // qualifier walk steps over it and the destructor keeps its class.
    std::size_t head_begin = i;
    const bool is_dtor = head_begin >= 1 && is_punct(toks[head_begin - 1], "~");
    if (is_dtor) --head_begin;
    while (head_begin >= 2 && is_punct(toks[head_begin - 1], "::") &&
           is_ident(toks[head_begin - 2]))
      head_begin -= 2;  // Foo::Bar::name
    std::vector<std::string> head;
    {
      std::size_t k = head_begin;
      while (k >= 1) {
        const Token& p = toks[k - 1];
        const bool head_token =
            is_ident(p) ||
            (p.kind == TokenKind::kPunct &&
             (p.text == "::" || p.text == "<" || p.text == ">" ||
              p.text == "," || p.text == "*" || p.text == "&" ||
              p.text == "&&" || p.text == "]" || p.text == "["));
        if (!head_token) break;
        --k;
      }
      bool in_attr = false;
      for (std::size_t h = k; h < head_begin; ++h) {
        if (is_punct(toks[h], "[") && h + 1 < head_begin &&
            is_punct(toks[h + 1], "["))
          in_attr = true;
        if (!in_attr && toks[h].kind != TokenKind::kPunct)
          head.push_back(toks[h].text);
        else if (!in_attr && toks[h].kind == TokenKind::kPunct &&
                 toks[h].text != "[" && toks[h].text != "]")
          head.push_back(toks[h].text);
        if (in_attr && is_punct(toks[h], "]") && h >= 1 &&
            is_punct(toks[h - 1], "]"))
          in_attr = false;
      }
      // `template`, storage keywords and `,`s from misc context add noise
      // but never the exact tokens the consumers test for.
    }
    // A comma directly before the chain means we are inside an argument
    // or declarator list, not in front of a return type.
    if (!head.empty() && head.front() == ",") continue;
    if (is_decl_end) {
      // Declarations require a visible return type (otherwise this is a
      // plain call statement) and must not sit inside executable code.
      bool typed = false;
      for (const std::string& h : head)
        if (h != "," && h != "*" && h != "&" && h != "&&" && h != "::" &&
            h != "<" && h != ">")
          typed = true;
      if (!typed) continue;
      if (inside_lambda_intro(i)) continue;
    }

    ParsedFunction fn;
    fn.name = is_dtor ? "~" + toks[i].text : toks[i].text;
    for (std::size_t q = head_begin; q < i; ++q) {
      if (!is_ident(toks[q])) continue;  // the :: / ~ of the chain
      if (!fn.qualifier.empty()) fn.qualifier += "::";
      fn.qualifier += toks[q].text;  // Foo::Bar:: chain walked above
    }
    fn.return_tokens = head;
    fn.name_index = i;
    fn.line = toks[i].line;
    if (has_body) {
      fn.body_begin = pos;
      fn.body_end = match_forward(toks, pos);
      if (fn.body_end >= toks.size()) continue;
      fn.body_scope = scope_of_body(pos);
    }
    out.functions.push_back(std::move(fn));
  }

  // Drop "declarations" that sit inside a function body: those are call
  // statements or `T x(3);` locals the declaration heuristic cannot
  // distinguish, and keeping them would pollute the project-wide
  // return-type map. This must happen before scopes are tagged with
  // function indices below: erasing afterwards would leave the tags
  // pointing into the shrunken vector.
  {
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (const ParsedFunction& fn : out.functions)
      if (fn.body_begin != 0) bodies.emplace_back(fn.body_begin, fn.body_end);
    std::erase_if(out.functions, [&](const ParsedFunction& fn) {
      if (fn.body_begin != 0) return false;
      for (const auto& [begin, end] : bodies)
        if (begin < fn.name_index && fn.name_index < end) return true;
      return false;
    });
  }

  // Tag every scope with its innermost enclosing function definition.
  for (std::size_t s = 0; s < out.scopes.size(); ++s) {
    std::size_t best_begin = 0;
    for (std::size_t f = 0; f < out.functions.size(); ++f) {
      const ParsedFunction& fn = out.functions[f];
      if (fn.body_begin == 0) continue;
      if (fn.body_begin <= out.scopes[s].begin &&
          out.scopes[s].end <= fn.body_end && fn.body_begin >= best_begin) {
        best_begin = fn.body_begin;
        out.scopes[s].function = static_cast<int>(f);
      }
    }
  }

  // Classify every scope. Function and lambda bodies are known exactly
  // from the recognizers above; namespace and class bodies are recovered
  // from the tokens between the previous hard boundary (';'/'{'/'}') and
  // the opening '{'. Everything else stays kBlock.
  {
    const auto body_of = [](const auto& items, std::size_t begin) {
      for (const auto& it : items)
        if (it.body_begin == begin && it.body_begin != 0) return true;
      return false;
    };
    for (std::size_t s = 1; s < out.scopes.size(); ++s) {
      ParsedScope& sc = out.scopes[s];
      if (body_of(out.lambdas, sc.begin)) {
        sc.kind = ParsedScope::Kind::kLambda;
        continue;
      }
      if (body_of(out.functions, sc.begin)) {
        sc.kind = ParsedScope::Kind::kFunction;
        continue;
      }
      std::size_t lo = 0;
      for (std::size_t k = sc.begin; k-- > 0;) {
        if (toks[k].kind == TokenKind::kPunct &&
            (toks[k].text == ";" || toks[k].text == "{" ||
             toks[k].text == "}")) {
          lo = k + 1;
          break;
        }
      }
      bool is_enum = false;
      std::size_t ns = toks.size();  // first 'namespace' keyword in window
      std::size_t kw = toks.size();  // last class/struct/union keyword
      for (std::size_t k = lo; k < sc.begin; ++k) {
        if (!is_ident(toks[k])) continue;
        const std::string& w = toks[k].text;
        if (w == "enum") is_enum = true;
        if (w == "namespace" && ns == toks.size()) ns = k;
        if (w == "class" || w == "struct" || w == "union") kw = k;
      }
      if (is_enum) continue;  // enum bodies are plain blocks
      if (ns < toks.size()) {
        sc.kind = ParsedScope::Kind::kNamespace;
        for (std::size_t k = ns + 1; k < sc.begin; ++k) {
          if (is_ident(toks[k])) {
            if (!sc.name.empty()) sc.name += "::";
            sc.name += toks[k].text;
          } else if (!is_punct(toks[k], "::")) {
            break;
          }
        }
        continue;
      }
      if (kw < toks.size() && kw + 1 < sc.begin && is_ident(toks[kw + 1])) {
        // Qualified nested definitions (`struct Server::Impl {`) carry the
        // declared class's own name in the last segment; the qualifier is
        // an out-of-line detail, exactly as for functions.
        std::size_t name_at = kw + 1;
        while (name_at + 2 < sc.begin && is_punct(toks[name_at + 1], "::") &&
               is_ident(toks[name_at + 2]))
          name_at += 2;
        // The name must head straight into the body or a base clause, so
        // `template <class T>` parameters never classify as a class.
        const std::size_t after = name_at + 1;
        const bool heads_body =
            after == sc.begin || is_punct(toks[after], ":") ||
            (is_ident(toks[after]) && toks[after].text == "final");
        if (heads_body &&
            !in_set(kNotAName, std::string_view(toks[name_at].text))) {
          sc.kind = ParsedScope::Kind::kClass;
          sc.name = toks[name_at].text;
          // Base clause: one base per top-level ','-segment, named by its
          // last identifier (`public std::logic_error` -> "logic_error",
          // `Base<T>` -> "Base").
          std::size_t b = after;
          while (b < sc.begin && !is_punct(toks[b], ":")) ++b;
          std::string base;
          for (std::size_t k = b + 1; k <= sc.begin && k <= toks.size(); ++k) {
            if (k == sc.begin || is_punct(toks[k], ",")) {
              if (!base.empty()) sc.bases.push_back(base);
              base.clear();
              continue;
            }
            if (is_punct(toks[k], "<")) {
              const std::size_t close = match_template(toks, k);
              if (close >= sc.begin) break;
              k = close;
              continue;
            }
            if (is_ident(toks[k]) && toks[k].text != "public" &&
                toks[k].text != "private" && toks[k].text != "protected" &&
                toks[k].text != "virtual")
              base = toks[k].text;
          }
        }
      }
    }
  }

  // Parameters of function definitions.
  for (const ParsedFunction& fn : out.functions) {
    if (fn.body_begin == 0 || fn.body_scope < 0) continue;
    const std::size_t lparen = fn.name_index + 1;
    parse_params(lparen, match_forward(toks, lparen), fn.body_scope);
  }

  // ----------------------------------------------------- declarations
  // `type-tokens name terminator` at statement starts. The type must
  // contribute at least one identifier besides the name.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // A '(' directly after if/while/switch also starts a declaration
    // context: the C++17 init-statement form `if (auto s = f(); s.ok())`
    // and the condition-declaration form `while (Token t = next())`
    // both declare a name the condition (and the controlled scope)
    // reads, so the passes must see it. Unlike `for (`, an expression
    // condition is the common case there (`if (a && b)`), so such a
    // candidate is only accepted when it carries an initializer.
    const bool cond_start =
        i >= 2 && toks[i - 1].kind == TokenKind::kPunct &&
        toks[i - 1].text == "(" && is_ident(toks[i - 2]) &&
        (toks[i - 2].text == "if" || toks[i - 2].text == "while" ||
         toks[i - 2].text == "switch");
    const bool stmt_start =
        i == 0 || cond_start ||
        (toks[i - 1].kind == TokenKind::kPunct &&
         (toks[i - 1].text == ";" || toks[i - 1].text == "{" ||
          toks[i - 1].text == "}" || toks[i - 1].text == ":" ||
          (toks[i - 1].text == "(" && i >= 2 && is_ident(toks[i - 2]) &&
           toks[i - 2].text == "for")));
    if (!stmt_start || !is_ident(toks[i])) continue;
    if (in_set(kNotACallee, std::string_view(toks[i].text))) continue;

    // Parse the type: identifiers, '::', balanced template args, then
    // any '*' / '&' / '&&' declarator decoration.
    std::size_t k = i;
    std::size_t last_type_ident = toks.size();
    std::size_t ident_count = 0;
    while (k < toks.size()) {
      const Token& t = toks[k];
      if (is_ident(t)) {
        // A trailing NTR_GUARDED_BY(...) annotation is not part of the
        // declarator; stop so the identifier before it stays the name.
        if (t.text == "NTR_GUARDED_BY") break;
        // Two identifiers in a row with no '::' between them: the second
        // may be the declared name; remember the first as type material.
        last_type_ident = k;
        ++ident_count;
        ++k;
        continue;
      }
      if (is_punct(t, "::")) {
        ++k;
        continue;
      }
      if (is_punct(t, "<") && k >= 1 && is_ident(toks[k - 1])) {
        const std::size_t close = match_template(toks, k);
        if (close >= toks.size()) break;
        k = close + 1;
        continue;
      }
      if (is_punct(t, "*") || is_punct(t, "&") || is_punct(t, "&&")) {
        ++k;
        continue;
      }
      break;
    }
    if (ident_count < 2 || last_type_ident >= toks.size()) continue;
    // The declared name is the last identifier parsed, and it must not be
    // type-keyword padding (`unsigned long x` parses x, not long).
    const std::size_t name_at = last_type_ident;
    if (in_set(kTypeKeywords, std::string_view(toks[name_at].text))) continue;
    if (in_set(kNotAName, std::string_view(toks[name_at].text))) continue;
    // Name must be followed directly by a declarator terminator; '*'/'&'
    // between name and terminator means `a * b` style, already handled by
    // the loop having consumed them as type tokens.
    if (k != name_at + 1) continue;
    if (k >= toks.size()) continue;
    // `NTR_GUARDED_BY(<mutex-expr>)` between the name and the terminator:
    // record the guarding expression and resume at the real terminator.
    std::string guarded_by;
    if (is_ident(toks[k]) && toks[k].text == "NTR_GUARDED_BY" &&
        k + 1 < toks.size() && is_punct(toks[k + 1], "(")) {
      const std::size_t close = match_forward(toks, k + 1);
      if (close >= toks.size()) continue;
      for (std::size_t h = k + 2; h < close; ++h) guarded_by += toks[h].text;
      k = close + 1;
      if (k >= toks.size()) continue;
    }
    static constexpr std::array<std::string_view, 7> kTerm = {
        "=", ";", ",", "{", "[", ":", ")"};
    // Direct-initialization `T x(3);` -- but only when the name is not
    // itself qualified: `io::try_read_net(buf);` is a call statement, not
    // a declaration of `try_read_net` with type tokens {io, ::}.
    const bool ctor_init =
        is_punct(toks[k], "(") &&
        !(name_at >= 1 && is_punct(toks[name_at - 1], "::")) &&
        out.scopes[static_cast<std::size_t>(out.scope_at(i))].function != -1;
    if (!ctor_init &&
        !(toks[k].kind == TokenKind::kPunct &&
          in_set(kTerm, std::string_view(toks[k].text))))
      continue;
    // In an if/while/switch head, `a && b` / `a * b` are expressions far
    // more often than declarations; require a visible initializer there.
    if (cond_start && !ctor_init && !is_punct(toks[k], "=") &&
        !is_punct(toks[k], "{"))
      continue;
    if (is_punct(toks[k], "[")) {
      // Array declarator `int a[4]` is fine; `a[i] = ...` subscript writes
      // were already excluded because they need a preceding value context.
      const std::size_t close = match_forward(toks, k);
      if (close >= toks.size()) continue;
    }

    ParsedDecl d;
    d.name = toks[name_at].text;
    for (std::size_t h = i; h < name_at; ++h) d.type_tokens.push_back(toks[h].text);
    d.name_index = name_at;
    d.line = toks[name_at].line;
    d.scope = out.scope_at(name_at);
    d.guarded_by = std::move(guarded_by);
    if (ctor_init) {
      // Top-level comma segments of `T x(a, b, ...)`, tokens concatenated;
      // this is the multi-mutex scoped_lock / tagged unique_lock surface
      // the lock-discipline pass consumes.
      const std::size_t close = match_forward(toks, k);
      if (close < toks.size()) {
        std::size_t depth = 0;
        std::string arg;
        for (std::size_t h = k + 1; h < close; ++h) {
          const Token& t = toks[h];
          if (t.kind == TokenKind::kPunct) {
            if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
            if (t.text == ")" || t.text == "]" || t.text == "}")
              depth = depth == 0 ? 0 : depth - 1;
            if (t.text == "," && depth == 0) {
              if (!arg.empty()) d.init_args.push_back(arg);
              arg.clear();
              continue;
            }
          }
          arg += t.text;
        }
        if (!arg.empty()) d.init_args.push_back(std::move(arg));
      }
    }
    out.decls.push_back(std::move(d));

    // Multi-declarator `int a, b = 0;`: record the trailing names too.
    std::size_t m = k;
    while (m < toks.size() && !is_punct(toks[m], ";")) {
      if (is_punct(toks[m], "(") || is_punct(toks[m], "[") ||
          is_punct(toks[m], "{")) {
        const std::size_t close = match_forward(toks, m);
        if (close >= toks.size()) break;
        m = close + 1;
        continue;
      }
      if (is_punct(toks[m], ",") && m + 1 < toks.size() &&
          is_ident(toks[m + 1]) && m + 2 < toks.size() &&
          toks[m + 2].kind == TokenKind::kPunct &&
          (toks[m + 2].text == "=" || toks[m + 2].text == ";" ||
           toks[m + 2].text == ",")) {
        ParsedDecl extra;
        extra.name = toks[m + 1].text;
        extra.type_tokens = out.decls.back().type_tokens;
        extra.name_index = m + 1;
        extra.line = toks[m + 1].line;
        extra.scope = out.decls.back().scope;
        out.decls.push_back(std::move(extra));
        m += 2;
        continue;
      }
      if (is_punct(toks[m], "}") || is_punct(toks[m], ")")) break;
      ++m;
    }
    i = name_at;  // resume after the declared name
  }

  // ----------------------------------------------------------------- calls
  const auto is_function_name_index = [&](std::size_t idx) {
    for (const ParsedFunction& fn : out.functions)
      if (fn.name_index == idx) return true;
    return false;
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !is_punct(toks[i + 1], "(")) continue;
    if (in_set(kNotACallee, std::string_view(toks[i].text))) continue;
    if (is_function_name_index(i)) continue;
    const std::size_t rp = match_forward(toks, i + 1);
    if (rp >= toks.size()) continue;

    ParsedCall call;
    call.callee = toks[i].text;
    call.name_index = i;
    call.lparen = i + 1;
    call.rparen = rp;
    call.line = toks[i].line;
    call.member_call =
        i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (call.member_call && i >= 2 && is_ident(toks[i - 2]))
      call.receiver = toks[i - 2].text;  // "" for f(x).g(), a[i].g()
    if (!call.member_call && i >= 2 && is_punct(toks[i - 1], "::") &&
        is_ident(toks[i - 2])) {
      std::size_t q = i;
      while (q >= 2 && is_punct(toks[q - 1], "::") && is_ident(toks[q - 2]))
        q -= 2;
      for (std::size_t h = q; h + 1 < i; h += 2) {
        if (!call.qualifier.empty()) call.qualifier += "::";
        call.qualifier += toks[h].text;
      }
    }
    call.scope = out.scope_at(i);

    const std::size_t start = chain_start(toks, i);
    const bool stmt_rooted =
        start == 0 ||
        (toks[start - 1].kind == TokenKind::kPunct &&
         (toks[start - 1].text == ";" || toks[start - 1].text == "{" ||
          toks[start - 1].text == "}"));
    call.void_cast = start >= 3 && is_punct(toks[start - 1], ")") &&
                     toks[start - 2].text == "void" &&
                     is_punct(toks[start - 3], "(");
    const bool chain_ends_here =
        rp + 1 < toks.size() && is_punct(toks[rp + 1], ";");
    call.discarded = stmt_rooted && chain_ends_here && !call.void_cast;
    out.calls.push_back(std::move(call));
  }

  return out;
}

}  // namespace ntr::analyze
