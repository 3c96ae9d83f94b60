// Unit tests for the utils subsystem (strings, csv, flags, table).
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "scratch_dir.hpp"
#include "utils/csv.hpp"
#include "utils/flags.hpp"
#include "utils/stopwatch.hpp"
#include "utils/strings.hpp"
#include "utils/table.hpp"

namespace dpbyz {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(strings::split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(strings::split("a,", ','), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(strings::split("", ','), (std::vector<std::string>{}));
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(strings::trim("  x y  "), "x y");
  EXPECT_EQ(strings::trim("\t\n"), "");
}

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(strings::to_lower("AbC"), "abc");
  EXPECT_TRUE(strings::starts_with("--flag", "--"));
  EXPECT_FALSE(strings::starts_with("-", "--"));
}

TEST(Strings, FormatDoubleTrimsZeros) {
  EXPECT_EQ(strings::format_double(1.5), "1.5");
  EXPECT_EQ(strings::format_double(2.0), "2");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(strings::join({}, ","), "");
}

TEST(Csv, WriteThenReadRoundTrips) {
  const std::string path = testing_support::scratch_dir() + "csv_test.csv";
  {
    csv::Writer w(path, {"a", "b"});
    w.row({1.0, 2.5});
    w.row_strings({"x", "y"});
  }
  const csv::Table t = csv::read(path);
  ASSERT_EQ(t.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][t.col("a")], "1");
  EXPECT_EQ(t.rows[0][t.col("b")], "2.5");
  EXPECT_EQ(t.rows[1][1], "y");
  std::remove(path.c_str());
}

TEST(Csv, ArityMismatchThrows) {
  const std::string path = testing_support::scratch_dir() + "csv_test2.csv";
  csv::Writer w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), std::invalid_argument);
  w.close();
  std::remove(path.c_str());
}

TEST(Csv, UnknownColumnThrows) {
  csv::Table t;
  t.header = {"x"};
  EXPECT_THROW(t.col("nope"), std::invalid_argument);
}

TEST(Flags, ParsesAllForms) {
  // Note: a bare boolean flag must come last or use --name=true, since
  // `--name value` greedily consumes the next non-flag token.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "pos", "--gamma"};
  flags::Parser p(6, argv, {"alpha", "beta", "gamma"});
  EXPECT_EQ(p.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(p.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(p.get_bool("gamma", false));
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "pos");
}

TEST(Flags, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(flags::Parser(2, argv, {"known"}), std::invalid_argument);
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  flags::Parser p(1, argv, {"x"});
  EXPECT_FALSE(p.has("x"));
  EXPECT_EQ(p.get_int("x", 7), 7);
  EXPECT_EQ(p.get_string("x", "d"), "d");
}

TEST(Flags, MalformedValuesThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  flags::Parser p(2, argv, {"n"});
  EXPECT_THROW(p.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(p.get_double("n", 0), std::invalid_argument);
  EXPECT_THROW(p.get_bool("n", false), std::invalid_argument);
  EXPECT_THROW(p.get_count("n", 0), std::invalid_argument);
}

TEST(Flags, ValuesMustParseWhole) {
  const char* argv[] = {"prog", "--steps=12abc", "--seeds=-1", "--eps=0.2x", "--n=+3",
                        "--ok=12", "--x=0.25"};
  flags::Parser p(7, argv, {"steps", "seeds", "eps", "n", "ok", "x"});
  // Trailing characters were silently dropped: "12abc" read 12, "0.2x" 0.2.
  EXPECT_THROW(p.get_int("steps", 0), std::invalid_argument);
  EXPECT_THROW(p.get_count("steps", 0), std::invalid_argument);
  EXPECT_THROW(p.get_double("eps", 0), std::invalid_argument);
  // A negative count used to wrap to 2^64 - 1 seeds through static_cast.
  EXPECT_EQ(p.get_int("seeds", 0), -1);
  EXPECT_THROW(p.get_count("seeds", 0), std::invalid_argument);
  EXPECT_THROW(p.get_count("n", 0), std::invalid_argument);
  EXPECT_EQ(p.get_count("ok", 0), 12u);
  EXPECT_EQ(p.get_count("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(p.get_double("x", 0), 0.25);
}

TEST(Strings, ParseCountTakesDecimalDigitsOnly) {
  EXPECT_EQ(strings::parse_count("0"), std::optional<size_t>(0));
  EXPECT_EQ(strings::parse_count("18446744073709551615"),
            std::optional<size_t>(18446744073709551615ull));
  for (const char* bad : {"", "-1", "+2", " 3", "3 ", "1x", "0x10", "1.0",
                          "18446744073709551616"})
    EXPECT_EQ(strings::parse_count(bad), std::nullopt) << bad;
}

TEST(Stopwatch, MeasuresElapsedTimeMonotonically) {
  Stopwatch w;
  const double t1 = w.seconds();
  EXPECT_GE(t1, 0.0);
  // Busy-wait a tiny amount of work so time strictly advances.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  const double t2 = w.seconds();
  EXPECT_GE(t2, t1);
  // milliseconds() and seconds() are separate clock reads; compare loosely.
  EXPECT_NEAR(w.milliseconds() / 1000.0, w.seconds(), 0.05);
  w.reset();
  EXPECT_LT(w.seconds(), t2 + 1.0);
}

TEST(Table, RowsPaddedToHeaderArity) {
  table::Printer t({"a", "b", "c"});
  t.row({"only-one"});
  const std::string s = t.str();
  EXPECT_NE(s.find("only-one"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  table::Printer t({"name", "v"});
  t.row({"long-name", "1"});
  t.row_numeric({2.0, 3.5});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("3.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

}  // namespace
}  // namespace dpbyz
