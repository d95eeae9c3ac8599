// Minimal JSON reader and writer for this repo's own observability
// artifacts (stats_json reports, Chrome trace-event files, tqec_serve
// responses and access logs). No external dependency: a small
// recursive-descent parser covering the full RFC 8259 grammar is all
// tqec_report and the round-trip tests need, and one streaming Writer
// produces every JSON document the repo emits but one: geom::to_json keeps
// its own compact layout (no spaces after separators), since golden
// digests pin those bytes; it escapes the name through escape().
//
// Numbers are stored as double (the reports never exceed 2^53) and object
// members keep insertion order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace tqec::json {

class Value {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::Null; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_array() const { return type == Type::Array; }
  bool is_object() const { return type == Type::Object; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  /// Member access; throws TqecError when absent.
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    TQEC_REQUIRE(v != nullptr, "json: missing member '" + key + "'");
    return *v;
  }

  // Typed accessors; throw TqecError on a type mismatch.
  bool as_bool() const {
    TQEC_REQUIRE(is_bool(), "json: not a bool");
    return boolean;
  }
  double as_double() const {
    TQEC_REQUIRE(is_number(), "json: not a number");
    return number;
  }
  std::int64_t as_int() const {
    TQEC_REQUIRE(is_number(), "json: not a number");
    return static_cast<std::int64_t>(number);
  }
  const std::string& as_string() const {
    TQEC_REQUIRE(is_string(), "json: not a string");
    return string;
  }
};

/// Parse one JSON document; trailing non-whitespace or malformed input
/// raises TqecError with the byte offset of the problem.
Value parse(const std::string& text);

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes added).
std::string escape(std::string_view s);

/// Streaming JSON writer. Output is one line with `", "` and `": "`
/// separators; the writer places every comma itself, so callers only open,
/// key, fill and close. Numbers: integers exactly (the full int64 and
/// uint64 ranges), doubles at the shortest precision that parses back to
/// the same bits (std::to_chars), and non-finite doubles as `null` (JSON
/// has no NaN or infinity literal). Strings go through escape().
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// Member name of the next value (inside an object).
  Writer& key(std::string_view k);

  Writer& null() { return token("null"); }
  Writer& value(bool v) { return token(v ? "true" : "false"); }
  Writer& value(std::int64_t v) { return token(std::to_string(v)); }
  Writer& value(std::uint64_t v) { return token(std::to_string(v)); }
  Writer& value(double v);
  Writer& value(std::string_view v) { return token('"' + escape(v) + '"'); }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  /// Every other integer type widens to int64 / uint64.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Writer& value(T v) {
    if constexpr (std::is_signed_v<T>)
      return value(static_cast<std::int64_t>(v));
    else
      return value(static_cast<std::uint64_t>(v));
  }

  /// key(k) then value(v).
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  /// A JSON array of the range's scalar elements.
  template <typename Range>
  Writer& array(const Range& values) {
    begin_array();
    for (const auto& v : values) value(v);
    return end_array();
  }

  /// The document written so far.
  const std::string& str() const { return out_; }

 private:
  /// Append one value, after a comma unless it is the first element of its
  /// container or follows a key.
  Writer& token(std::string_view text);
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

}  // namespace tqec::json
