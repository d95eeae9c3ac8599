// Unit tests for the common substrate: geometry primitives, deterministic
// RNG, union-find, string helpers, JSON reading and writing, and log
// formatting.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>

#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/union_find.h"
#include "common/vec3.h"

namespace tqec {
namespace {

TEST(Vec3Test, ArithmeticAndNorms) {
  const Vec3 a{1, -2, 3};
  const Vec3 b{4, 5, -6};
  EXPECT_EQ(a + b, Vec3(5, 3, -3));
  EXPECT_EQ(b - a, Vec3(3, 7, -9));
  EXPECT_EQ(2 * a, Vec3(2, -4, 6));
  EXPECT_EQ(a.l1(), 6);
  EXPECT_EQ(a.linf(), 3);
  EXPECT_EQ(manhattan(a, b), 19);
  EXPECT_EQ(chebyshev(a, b), 9);
}

TEST(Vec3Test, AxisIndexing) {
  Vec3 v{7, 8, 9};
  EXPECT_EQ(v[Axis::X], 7);
  EXPECT_EQ(v[Axis::Y], 8);
  EXPECT_EQ(v[Axis::Z], 9);
  v[Axis::Y] = 42;
  EXPECT_EQ(v.y, 42);
  EXPECT_EQ(unit(Axis::X), Vec3(1, 0, 0));
  EXPECT_EQ(unit(Axis::Y), Vec3(0, 1, 0));
  EXPECT_EQ(unit(Axis::Z), Vec3(0, 0, 1));
}

TEST(Vec3Test, HashDistinguishesNeighbours) {
  std::unordered_set<Vec3> cells;
  for (int x = -3; x <= 3; ++x)
    for (int y = -3; y <= 3; ++y)
      for (int z = -3; z <= 3; ++z) cells.insert(Vec3{x, y, z});
  EXPECT_EQ(cells.size(), 7u * 7u * 7u);
}

TEST(Box3Test, EmptyAndDims) {
  const Box3 empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.volume(), 0);
  EXPECT_EQ(empty.dims(), Vec3(0, 0, 0));

  const Box3 unit_box{{0, 0, 0}, {0, 0, 0}};
  EXPECT_FALSE(unit_box.empty());
  EXPECT_EQ(unit_box.volume(), 1);

  const Box3 b{{1, 2, 3}, {3, 5, 3}};
  EXPECT_EQ(b.dims(), Vec3(3, 4, 1));
  EXPECT_EQ(b.volume(), 12);
}

TEST(Box3Test, SpanningIsOrderInsensitive) {
  const Box3 a = Box3::spanning({5, 0, -2}, {1, 3, 4});
  EXPECT_EQ(a.lo, Vec3(1, 0, -2));
  EXPECT_EQ(a.hi, Vec3(5, 3, 4));
}

TEST(Box3Test, ContainsAndIntersects) {
  const Box3 b{{0, 0, 0}, {4, 4, 4}};
  EXPECT_TRUE(b.contains({0, 0, 0}));
  EXPECT_TRUE(b.contains({4, 4, 4}));
  EXPECT_FALSE(b.contains({5, 0, 0}));
  EXPECT_TRUE(b.intersects(Box3{{4, 4, 4}, {9, 9, 9}}));
  EXPECT_FALSE(b.intersects(Box3{{5, 0, 0}, {6, 4, 4}}));
  EXPECT_FALSE(b.intersects(Box3{}));
}

TEST(Box3Test, MergeExpandInflate) {
  Box3 b;
  b = b.expanded({1, 1, 1});
  b = b.expanded({-1, 3, 1});
  EXPECT_EQ(b.lo, Vec3(-1, 1, 1));
  EXPECT_EQ(b.hi, Vec3(1, 3, 1));
  const Box3 merged = b.merged(Box3{{5, 5, 5}, {6, 6, 6}});
  EXPECT_EQ(merged.hi, Vec3(6, 6, 6));
  const Box3 inflated = b.inflated(2);
  EXPECT_EQ(inflated.lo, Vec3(-3, -1, -1));
}

TEST(Box3Test, Separation) {
  const Box3 a{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(a.separation(Box3{{3, 0, 0}, {4, 1, 1}}), 1);
  EXPECT_EQ(a.separation(Box3{{2, 0, 0}, {3, 1, 1}}), 0);   // touching
  EXPECT_EQ(a.separation(Box3{{1, 1, 1}, {2, 2, 2}}), 0);   // overlapping
  EXPECT_EQ(a.separation(Box3{{0, 5, 0}, {1, 6, 1}}), 3);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, SeedsProduceDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i)
    if (a() != b()) ++differing;
  EXPECT_GT(differing, 30);
}

TEST(RngTest, BelowIsInRangeAndCoversValues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(42);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LE(same, 1);
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.component_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.component_count(), 3u);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.set_size(3), 4u);
  EXPECT_EQ(uf.set_size(4), 1u);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(4);
  uf.unite(0, 3);
  uf.reset(2);
  EXPECT_EQ(uf.size(), 2u);
  EXPECT_EQ(uf.component_count(), 2u);
  EXPECT_FALSE(uf.same(0, 1));
}

TEST(StringUtilTest, TrimAndSplit) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  const auto ws = split_ws("  a  bb\tccc \n");
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0], "a");
  EXPECT_EQ(ws[2], "ccc");
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, MiscHelpers) {
  EXPECT_TRUE(starts_with(".numvars 4", ".numvars"));
  EXPECT_FALSE(starts_with("num", "numvars"));
  EXPECT_EQ(to_lower("TqEc"), "tqec");
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(111335928), "111,335,928");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(JsonTest, ParsesScalarsAndContainers) {
  const json::Value doc = json::parse(
      R"({"int": 42, "neg": -3.5, "exp": 1e3, "flag": true, "off": false,
          "none": null, "text": "hi", "list": [1, 2, 3], "nested": {"k": 0}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("int").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("neg").as_double(), -3.5);
  EXPECT_DOUBLE_EQ(doc.at("exp").as_double(), 1000.0);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_FALSE(doc.at("off").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("text").as_string(), "hi");
  ASSERT_EQ(doc.at("list").array.size(), 3u);
  EXPECT_EQ(doc.at("list").array[2].as_int(), 3);
  EXPECT_EQ(doc.at("nested").at("k").as_int(), 0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonTest, DecodesStringEscapes) {
  const json::Value doc = json::parse(
      R"(["a\"b", "tab\there", "line\nbreak", "back\\slash", "\u00e9", "é"])");
  ASSERT_EQ(doc.array.size(), 6u);
  EXPECT_EQ(doc.array[0].as_string(), "a\"b");
  EXPECT_EQ(doc.array[1].as_string(), "tab\there");
  EXPECT_EQ(doc.array[2].as_string(), "line\nbreak");
  EXPECT_EQ(doc.array[3].as_string(), "back\\slash");
  EXPECT_EQ(doc.array[4].as_string(), "\xc3\xa9");  // é decoded to UTF-8
  EXPECT_EQ(doc.array[5].as_string(), "\xc3\xa9");  // raw UTF-8 passes through
}

TEST(JsonTest, PreservesObjectInsertionOrder) {
  const json::Value doc = json::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.object.size(), 3u);
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  EXPECT_EQ(doc.object[2].first, "m");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), TqecError);
  EXPECT_THROW(json::parse("{"), TqecError);
  EXPECT_THROW(json::parse("[1, 2,]"), TqecError);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), TqecError);
  EXPECT_THROW(json::parse("'single'"), TqecError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), TqecError);
}

TEST(JsonTest, EscapeHexEncodesControlsAndRoundTrips) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("x\ny\tz\r"), "x\\ny\\tz\\r");
  // Other control characters become \u00XX, never a raw byte or a space.
  EXPECT_EQ(json::escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json::escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json::escape("\xc3\xa9"), "\xc3\xa9");  // UTF-8 passes through

  std::string all;
  for (int c = 1; c < 128; ++c) all.push_back(static_cast<char>(c));
  all += "\xc3\xa9";
  const json::Value doc = json::parse("\"" + json::escape(all) + "\"");
  EXPECT_EQ(doc.as_string(), all);
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const json::Value doc = json::parse(R"({"n": 1})");
  EXPECT_THROW(doc.at("n").as_string(), TqecError);
  EXPECT_THROW(doc.at("n").as_bool(), TqecError);
  EXPECT_THROW(doc.at("missing"), TqecError);
}

TEST(JsonWriterTest, NestsAndPlacesCommas) {
  json::Writer w;
  w.begin_object().field("a", 1).key("list").begin_array();
  w.value(true).begin_object().end_object().begin_array().end_array();
  w.null().begin_array().value(2).value("x").end_array();
  w.end_array().key("empty").begin_object().end_object();
  w.key("nested").begin_object().field("k", false).end_object();
  w.field("s", "t").end_object();
  EXPECT_EQ(w.str(),
            R"({"a": 1, "list": [true, {}, [], null, [2, "x"]], )"
            R"("empty": {}, "nested": {"k": false}, "s": "t"})");
  EXPECT_NO_THROW(json::parse(w.str()));

  json::Writer top;  // a bare top-level value takes no separator
  top.value(7);
  EXPECT_EQ(top.str(), "7");
  json::Writer list;
  list.array(std::vector<int>{3, 1, 2});
  EXPECT_EQ(list.str(), "[3, 1, 2]");
}

TEST(JsonWriterTest, EscapesKeysAndStringsThroughEscape) {
  const std::string nasty = std::string("q\"b\\n\nc\t\x01", 9) + "\xc3\xa9";
  json::Writer w;
  w.begin_object().field(nasty, nasty).end_object();
  EXPECT_EQ(w.str(), "{\"" + json::escape(nasty) + "\": \"" +
                         json::escape(nasty) + "\"}");
  EXPECT_EQ(w.str().find('\n'), std::string::npos);  // stays one line
  const json::Value doc = json::parse(w.str());
  ASSERT_EQ(doc.object.size(), 1u);
  EXPECT_EQ(doc.object[0].first, nasty);
  EXPECT_EQ(doc.object[0].second.as_string(), nasty);
}

TEST(JsonWriterTest, IntegerExtremesAreExact) {
  json::Writer w;
  w.begin_array().value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(-1).value(0u).value(static_cast<short>(-7)).end_array();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808, 18446744073709551615, "
            "9223372036854775807, -1, 0, -7]");
}

TEST(JsonWriterTest, DoublesRoundTripBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -2.5,
                           1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           123456.789,
                           0.0,
                           -0.0,
                           1e21,
                           2.0 / 7.0 * 1e-7,
                           9007199254740993.0};
  for (const double v : values) {
    json::Writer w;
    w.value(v);
    const json::Value doc = json::parse(w.str());
    ASSERT_TRUE(doc.is_number()) << w.str();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(doc.as_double()),
              std::bit_cast<std::uint64_t>(v))
        << w.str();
  }
  // Shortest form: no padding digits.
  json::Writer w;
  w.begin_array().value(0.1).value(1.0).value(2.5e-7).end_array();
  EXPECT_EQ(w.str(), "[0.1, 1, 2.5e-07]");
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  json::Writer w;
  w.begin_object().field("nan", std::numeric_limits<double>::quiet_NaN());
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("ninf", -std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(w.str(), R"({"nan": null, "inf": null, "ninf": null})");
  const json::Value doc = json::parse(w.str());
  EXPECT_TRUE(doc.at("nan").is_null());
  EXPECT_TRUE(doc.at("inf").is_null());
  EXPECT_TRUE(doc.at("ninf").is_null());
}


TEST(ParseNumberTest, TryFormsAcceptValidRejectMalformed) {
  EXPECT_EQ(try_parse_i64("42"), 42);
  EXPECT_EQ(try_parse_i64("  -7 "), -7);   // surrounding whitespace ok
  EXPECT_EQ(try_parse_i64("banana"), std::nullopt);
  EXPECT_EQ(try_parse_i64("12x"), std::nullopt);   // trailing junk
  EXPECT_EQ(try_parse_i64(""), std::nullopt);
  EXPECT_EQ(try_parse_i64("99999999999999999999"), std::nullopt);  // range

  EXPECT_EQ(try_parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(try_parse_u64("-1"), std::nullopt);  // no negative wraparound

  EXPECT_EQ(try_parse_double("1.5"), 1.5);
  EXPECT_EQ(try_parse_double("1e3"), 1000.0);
  EXPECT_EQ(try_parse_double("nanner"), std::nullopt);
  EXPECT_EQ(try_parse_double("inf"), std::nullopt);  // must be finite
  EXPECT_EQ(try_parse_double("1.5.5"), std::nullopt);
}

TEST(ParseNumberTest, TryParseIntRangeChecksAgainstInt) {
  EXPECT_EQ(try_parse_int("42"), 42);
  EXPECT_EQ(try_parse_int(" -7\t"), -7);
  EXPECT_EQ(try_parse_int("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(try_parse_int("-2147483648"), std::numeric_limits<int>::min());
  // Fits in 64 bits but not in int: rejected, not truncated.
  EXPECT_EQ(try_parse_int("2147483648"), std::nullopt);
  EXPECT_EQ(try_parse_int("-2147483649"), std::nullopt);
  EXPECT_EQ(try_parse_int("3000000000"), std::nullopt);
  EXPECT_EQ(try_parse_int("1.5"), std::nullopt);
  EXPECT_EQ(try_parse_int("+3"), std::nullopt);
  EXPECT_EQ(try_parse_int(""), std::nullopt);
}

TEST(ParseNumberTest, ThrowingFormsNameTheFlagAndOffendingText) {
  EXPECT_EQ(parse_int("8", "--jobs"), 8);
  EXPECT_EQ(parse_u64("7", "--seed"), 7u);
  EXPECT_EQ(parse_double("1.5", "--effort"), 1.5);
  try {
    parse_int("banana", "--jobs");
    FAIL() << "expected TqecError";
  } catch (const TqecError& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
  // int form also range-checks beyond int, not just i64.
  EXPECT_THROW(parse_int("3000000000", "--jobs"), TqecError);
  EXPECT_THROW(parse_u64("-3", "--seed"), TqecError);
  EXPECT_THROW(parse_double("fast", "--effort"), TqecError);
}

TEST(ParseErrorTest, FormatsSourceAndLine) {
  const ParseError with_line("file.real", 12, "bad token");
  EXPECT_STREQ(with_line.what(), "file.real:12: bad token");
  EXPECT_EQ(with_line.source(), "file.real");
  EXPECT_EQ(with_line.line(), 12);
  EXPECT_EQ(with_line.brief(), "bad token");
  const ParseError whole_doc("file.icm", 0, "missing header");
  EXPECT_STREQ(whole_doc.what(), "file.icm: missing header");
}

TEST(Fnv1aTest, KnownVectorsAndChaining) {
  // FNV-1a 64-bit reference vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  // Chaining two halves equals hashing the whole.
  EXPECT_EQ(fnv1a64("world", fnv1a64("hello ")), fnv1a64("hello world"));
  Digest128 d;
  d.update("hello");
  Digest128 e;
  e.update("hellp");
  EXPECT_TRUE(d.lo != e.lo || d.hi != e.hi);
}

TEST(Fnv1aTest, Digest128HexIsLoThenHi) {
  Digest128 d;
  d.lo = 0x0123456789abcdefull;
  d.hi = 0xfedcba9876543210ull;
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Digest128{}.hex().size(), 32u);
}

TEST(LoggingTest, Iso8601UtcNowIsWellFormed) {
  const std::string ts = iso8601_utc_now();
  // "2026-08-08T12:34:56.789Z" — fixed-width fields, millisecond precision.
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts.back(), 'Z');
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u,
                              14u, 15u, 17u, 18u, 20u, 21u, 22u})
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ts[i]))) << i;
}

TEST(LoggingTest, WallclockModeSwapsTheLinePrefix) {
  struct CerrCapture {
    std::ostringstream captured;
    std::streambuf* saved = std::cerr.rdbuf();
    CerrCapture() { std::cerr.rdbuf(captured.rdbuf()); }
    ~CerrCapture() { std::cerr.rdbuf(saved); }
  };
  const bool saved = log_wallclock();

  std::string elapsed_line, wallclock_line;
  {
    CerrCapture capture;
    set_log_wallclock(false);
    log_line(LogLevel::Warn, "elapsed mode");
    elapsed_line = capture.captured.str();
  }
  {
    CerrCapture capture;
    set_log_wallclock(true);
    log_line(LogLevel::Warn, "wallclock mode");
    wallclock_line = capture.captured.str();
  }
  set_log_wallclock(saved);

  // Elapsed (default) keeps the seconds-since-start field.
  EXPECT_NE(elapsed_line.find("s T"), std::string::npos) << elapsed_line;
  EXPECT_EQ(elapsed_line.find("Z T"), std::string::npos) << elapsed_line;
  // Wallclock carries an ISO-8601 UTC timestamp instead.
  EXPECT_NE(wallclock_line.find("Z T"), std::string::npos) << wallclock_line;
  EXPECT_NE(wallclock_line.find("T"), std::string::npos);
  EXPECT_NE(wallclock_line.find("WARN"), std::string::npos);
  EXPECT_NE(wallclock_line.find("wallclock mode"), std::string::npos);
}

}  // namespace
}  // namespace tqec
