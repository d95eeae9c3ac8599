#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace tqec::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw TqecError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > 128) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    Value v;
    switch (c) {
      case '{': {
        v.type = Value::Type::Object;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        for (;;) {
          skip_ws();
          if (peek() != '"') fail("expected object key");
          std::string key = parse_string_body();
          skip_ws();
          expect(':');
          v.object.emplace_back(std::move(key), parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.type = Value::Type::Array;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        for (;;) {
          v.array.push_back(parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.type = Value::Type::String;
        v.string = parse_string_body();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = Value::Type::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = Value::Type::Bool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default:
        return parse_number();
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("bad number");
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("bad number");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("bad number");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    Value v;
    v.type = Value::Type::Number;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  /// Parse a string starting at the opening quote; returns the decoded body.
  std::string parse_string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs in our own
          // artifacts never occur; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Writer& Writer::token(std::string_view text) {
  if (!after_key_ && !first_.empty()) {
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
  after_key_ = false;
  out_ += text;
  return *this;
}

Writer& Writer::open(char bracket) {
  token(std::string_view(&bracket, 1));
  first_.push_back(true);
  return *this;
}

Writer& Writer::close(char bracket) {
  first_.pop_back();
  out_ += bracket;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  token('"' + escape(k) + "\": ");
  after_key_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];  // the longest shortest-form double is 24 characters
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return token(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

}  // namespace tqec::json
