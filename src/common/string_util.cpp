#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.h"

namespace tqec {

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

namespace {

template <typename T>
std::optional<T> from_chars_all(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

[[noreturn]] void parse_throw(std::string_view what, const char* kind,
                              std::string_view text) {
  throw TqecError(std::string(what) + ": expected " + kind + ", got '" +
                  std::string(text) + "'");
}

}  // namespace

std::optional<int> try_parse_int(std::string_view text) {
  return from_chars_all<int>(text);
}

std::optional<std::int64_t> try_parse_i64(std::string_view text) {
  return from_chars_all<std::int64_t>(text);
}

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  // from_chars<unsigned> accepts no sign; an explicit check keeps "-1"
  // from wrapping on libstdc++ variants that ever did.
  const std::string_view trimmed = trim(text);
  if (!trimmed.empty() && trimmed.front() == '-') return std::nullopt;
  return from_chars_all<std::uint64_t>(trimmed);
}

std::optional<double> try_parse_double(std::string_view text) {
  // strtod with a full-match check: std::from_chars for double is not
  // available on every libstdc++ this repo targets. The copy bounds the
  // parse (string_view is not NUL-terminated).
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) return std::nullopt;
  const std::string copy(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || errno == ERANGE ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

int parse_int(std::string_view text, std::string_view what) {
  const auto v = try_parse_int(text);
  if (!v) parse_throw(what, "an integer", text);
  return *v;
}

std::int64_t parse_i64(std::string_view text, std::string_view what) {
  const auto v = try_parse_i64(text);
  if (!v) parse_throw(what, "an integer", text);
  return *v;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  const auto v = try_parse_u64(text);
  if (!v) parse_throw(what, "a non-negative integer", text);
  return *v;
}

double parse_double(std::string_view text, std::string_view what) {
  const auto v = try_parse_double(text);
  if (!v) parse_throw(what, "a number", text);
  return *v;
}

}  // namespace tqec
