// Small string helpers for the RevLib parser and report formatting, plus
// checked numeric parsing for every input surface (CLI flags, environment
// variables, circuit file tokens). The checked parsers reject empty text,
// trailing garbage, and out-of-range values instead of the silent-zero /
// uncaught-std::invalid_argument behaviour of atoi/stoi.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tqec {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Split on a single delimiter character; keeps empty tokens.
std::vector<std::string> split(std::string_view s, char delim);

/// True if s starts with the given prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// Format an integer with thousands separators ("1234567" -> "1,234,567").
std::string with_commas(long long value);

// ---------------------------------------------------------------------------
// Checked numeric parsing.
//
// The try_* forms return nullopt on any defect (empty text, non-numeric
// characters, trailing garbage, overflow). The throwing forms raise
// TqecError naming the offending context and text, e.g.
//   parse_int("banana", "--jobs")
//     -> TqecError("--jobs: expected an integer, got 'banana'")
// so a malformed flag or file token becomes a diagnosable error instead of
// an uncaught std::invalid_argument abort. Leading/trailing ASCII
// whitespace is accepted; leading '+' is not (matching strtol-free
// from_chars semantics, and no input format here uses it).

/// Parse a signed int; nullopt on malformed text or a value outside int.
std::optional<int> try_parse_int(std::string_view text);
/// Parse a signed 64-bit integer; nullopt on malformed/overflow.
std::optional<std::int64_t> try_parse_i64(std::string_view text);
/// Parse an unsigned 64-bit integer; nullopt on malformed/overflow/sign.
std::optional<std::uint64_t> try_parse_u64(std::string_view text);
/// Parse a finite double; nullopt on malformed text or trailing garbage.
std::optional<double> try_parse_double(std::string_view text);

/// Checked parse of a signed int; throws TqecError naming `what`.
int parse_int(std::string_view text, std::string_view what);
/// Checked parse of a signed 64-bit integer; throws TqecError naming `what`.
std::int64_t parse_i64(std::string_view text, std::string_view what);
/// Checked parse of an unsigned 64-bit integer; throws TqecError naming
/// `what`.
std::uint64_t parse_u64(std::string_view text, std::string_view what);
/// Checked parse of a finite double; throws TqecError naming `what`.
double parse_double(std::string_view text, std::string_view what);

}  // namespace tqec
