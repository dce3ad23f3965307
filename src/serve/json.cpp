#include "serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "check/faultinject.h"

namespace ntr::serve {

namespace {

using runtime::NtrError;
using runtime::Status;
using runtime::StatusCode;

/// Nesting cap: deep enough for any real request, shallow enough that a
/// hostile payload cannot blow the parser's stack.
constexpr int kMaxDepth = 64;

[[noreturn]] void kind_error(const char* wanted) {
  throw NtrError(StatusCode::kBadInput,
                 std::string("json: value is not ") + wanted);
}

}  // namespace

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  if (!std::isfinite(v))
    throw NtrError(StatusCode::kNonFinite, "json: non-finite number");
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array(std::vector<Json> items) {
  Json j;
  j.kind_ = Kind::kArray;
  j.items_ = std::move(items);
  return j;
}

Json Json::object(std::vector<Member> members) {
  Json j;
  j.kind_ = Kind::kObject;
  j.members_ = std::move(members);
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return number_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return items_;
}

const std::vector<Json::Member>& Json::members() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return members_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : members_)
    if (m.first == key) return &m.second;
  return nullptr;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) kind_error("an array");
  items_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("an object");
  members_.emplace_back(std::move(key), std::move(v));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void dump_number(std::string& out, double v) {
  // Integral values (the common case: ids, counts, codes) print without a
  // fraction; everything else round-trips through %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void dump_value(std::string& out, const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      out += "null";
      return;
    case Json::Kind::kBool:
      out += j.as_bool() ? "true" : "false";
      return;
    case Json::Kind::kNumber:
      dump_number(out, j.as_number());
      return;
    case Json::Kind::kString:
      out += '"';
      out += json_escape(j.as_string());
      out += '"';
      return;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(out, item);
      }
      out += ']';
      return;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const Json::Member& m : j.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(m.first);
        out += "\":";
        dump_value(out, m.second);
      }
      out += '}';
      return;
    }
  }
}

/// Strict recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status parse_document(Json& out) {
    Status s = parse_value(out, 0);
    if (!s.ok()) return s;
    skip_ws();
    if (pos_ != text_.size())
      return reject("trailing characters after the document");
    return Status::ok_status();
  }

 private:
  Status reject(const std::string& why) const {
    return Status(StatusCode::kBadInput,
                  "json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return reject("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return reject("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      std::string s;
      Status st = parse_string(s);
      if (!st.ok()) return st;
      out = Json::string(std::move(s));
      return Status::ok_status();
    }
    if (consume_word("true")) {
      out = Json::boolean(true);
      return Status::ok_status();
    }
    if (consume_word("false")) {
      out = Json::boolean(false);
      return Status::ok_status();
    }
    if (consume_word("null")) {
      out = Json();
      return Status::ok_status();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return reject("unexpected character");
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
      // fallthrough: digits must follow
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      return reject("malformed number");
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return reject("malformed number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return reject("malformed number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) return reject("number out of range");
    out = Json::number(v);
    return Status::ok_status();
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return reject("expected '\"'");
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return reject("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::ok_status();
      if (static_cast<unsigned char>(c) < 0x20)
        return reject("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return reject("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          Status st = parse_hex4(code);
          if (!st.ok()) return st;
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!consume('\\') || !consume('u'))
              return reject("lone high surrogate");
            unsigned low = 0;
            st = parse_hex4(low);
            if (!st.ok()) return st;
            if (low < 0xDC00 || low > 0xDFFF)
              return reject("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return reject("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return reject("unknown escape");
      }
    }
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return reject("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<unsigned>(c - 'A' + 10);
      else
        return reject("bad hex digit in \\u escape");
    }
    return Status::ok_status();
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status parse_array(Json& out, int depth) {
    consume('[');
    out = Json::array();
    skip_ws();
    if (consume(']')) return Status::ok_status();
    while (true) {
      Json item;
      Status st = parse_value(item, depth + 1);
      if (!st.ok()) return st;
      out.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return Status::ok_status();
      if (!consume(',')) return reject("expected ',' or ']'");
    }
  }

  Status parse_object(Json& out, int depth) {
    consume('{');
    out = Json::object();
    skip_ws();
    if (consume('}')) return Status::ok_status();
    while (true) {
      skip_ws();
      std::string key;
      Status st = parse_string(key);
      if (!st.ok()) return st;
      skip_ws();
      if (!consume(':')) return reject("expected ':'");
      Json value;
      st = parse_value(value, depth + 1);
      if (!st.ok()) return st;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return Status::ok_status();
      if (!consume(',')) return reject("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_value(out, *this);
  return out;
}

runtime::StatusOr<Json> Json::parse(std::string_view text) {
  try {
    NTR_FAULT_POINT(kServeJsonParse);
  } catch (const NtrError& e) {
    // Injected parse failure surfaces exactly like malformed JSON: a
    // typed Status the caller maps to a bad-request response.
    return Status(e.code(), e.what());
  }
  Parser parser(text);
  Json doc;
  Status status = parser.parse_document(doc);
  if (!status.ok()) return status;
  return doc;
}

}  // namespace ntr::serve
