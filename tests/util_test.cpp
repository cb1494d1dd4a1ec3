// Tests for st::util — table/CSV rendering, ASCII charts, the thread pool,
// CLI parsing, and logging levels.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace st::util {
namespace {

// --- Table ----------------------------------------------------------------------

TEST(TableTest, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| long-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_EQ(t.cell(1, 0), "long-name");
}

TEST(TableTest, ArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, RowValuesFormatting) {
  Table t({"x", "y"});
  t.add_row_values({1.23456, 2.0}, 2);
  EXPECT_EQ(t.cell(0, 0), "1.23");
  EXPECT_EQ(t.cell(0, 1), "2.00");
}

TEST(TableTest, CsvEscaping) {
  Table t({"name", "note"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quoted", "say \"hi\""});
  std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ci(1.0, 0.25, 2), "1.00 ± 0.25");
}

TEST(Csv, WriteRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  auto dir = std::filesystem::temp_directory_path() / "st_csv_test";
  auto path = write_csv(t, dir, "out.csv");
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(row, "1,2");
  std::filesystem::remove_all(dir);
}

// --- ASCII charts ----------------------------------------------------------------

TEST(Charts, BarChartScalesToWidth) {
  std::vector<std::pair<std::string, double>> bars{{"a", 1.0}, {"b", 2.0}};
  std::string chart = bar_chart(bars, 10);
  // The largest bar spans the full width.
  EXPECT_NE(chart.find("##########"), std::string::npos);
  EXPECT_NE(chart.find("#####  1"), std::string::npos);
}

TEST(Charts, BarChartNegativeValues) {
  std::vector<std::pair<std::string, double>> bars{{"neg", -1.0}};
  std::string chart = bar_chart(bars, 5);
  EXPECT_NE(chart.find("<<<<<"), std::string::npos);
}

TEST(Charts, BarChartEmpty) {
  EXPECT_EQ(bar_chart({}, 10), "(no data)\n");
}

TEST(Charts, LineChartContainsPoints) {
  std::vector<SeriesPoint> pts{{0, 0}, {1, 1}, {2, 4}};
  std::string chart = line_chart(pts, 20, 8);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("x: [0, 2]"), std::string::npos);
}

TEST(Charts, BucketizeMeans) {
  std::vector<double> values{1, 1, 3, 3};
  auto buckets = bucketize(values, 2);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].first, "[1-2]");
  EXPECT_DOUBLE_EQ(buckets[0].second, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].second, 3.0);
}

TEST(Charts, BucketizeClampsToSize) {
  std::vector<double> values{5.0};
  auto buckets = bucketize(values, 10);
  EXPECT_EQ(buckets.size(), 1u);
}

// --- ThreadPool ------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

// --- CLI -------------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndValues) {
  // Note: a bare flag greedily consumes the next non-flag token as its
  // value, so positionals must precede flags or follow an `=`-form flag.
  const char* argv[] = {"prog",  "--seed", "42",      "--csv=out",
                        "pos1",  "--quiet", "--runs", "5"};
  CliArgs args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get_u64("seed", 0), 42u);
  EXPECT_EQ(args.get_or("csv", ""), "out");
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.get_int("runs", 0), 5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_FALSE(args.has("seed"));
  EXPECT_EQ(args.get_u64("seed", 7), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("b", 0.6), 0.6);
  EXPECT_EQ(args.get_or("csv", "default"), "default");
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--b", "0.25"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("b", 0.0), 0.25);
}

TEST(Cli, FlagFollowedByFlagHasEmptyValue) {
  const char* argv[] = {"prog", "--quiet", "--seed", "3"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.get_u64("seed", 0), 3u);
}

TEST(Cli, WellFormedNumbersParseExactly) {
  const char* argv[] = {"prog",   "--a", "-5",   "--b", "+7",
                        "--c",    "18446744073709551615",
                        "--d",    "1e-3", "--e", "0.002",
                        "--f",    "-9223372036854775808"};
  CliArgs args(13, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("a", 0), -5);
  EXPECT_EQ(args.get_int("b", 0), 7);
  EXPECT_EQ(args.get_u64("b", 0), 7u);
  EXPECT_EQ(args.get_u64("c", 0), 18446744073709551615ULL);
  EXPECT_EQ(args.get_double("d", 0.0), 1e-3);
  EXPECT_EQ(args.get_double("e", 0.0), 0.002);
  EXPECT_EQ(args.get_int("f", 0), INT64_MIN);
}

TEST(Cli, RejectsValuesNotConsumedWhole) {
  const char* argv[] = {"prog", "--runs",  "abc", "--nodes", "10k",
                        "--b",  "0.5x",   "--hex", "0x10"};
  CliArgs args(9, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("runs", 1), std::invalid_argument);
  EXPECT_THROW(args.get_u64("runs", 1), std::invalid_argument);
  EXPECT_THROW(args.get_double("runs", 1.0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("nodes", 1), std::invalid_argument);
  EXPECT_THROW(args.get_int("nodes", 1), std::invalid_argument);
  EXPECT_THROW(args.get_double("b", 0.6), std::invalid_argument);
  EXPECT_THROW(args.get_int("hex", 0), std::invalid_argument);
}

TEST(Cli, RejectsOutOfRangeValues) {
  const char* argv[] = {"prog",  "--i", "9223372036854775808",
                        "--u",   "18446744073709551616",
                        "--big", "1e999", "--inf", "inf", "--nan", "nan"};
  CliArgs args(11, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("i", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("u", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("big", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_double("nan", 0.0), std::invalid_argument);
}

TEST(Cli, RejectsNegativeUnsignedValues) {
  const char* argv[] = {"prog", "--seed", "-1", "--zero", "-0"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_THROW(args.get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("zero", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("seed", 0), -1);  // fine where a sign is allowed
}

TEST(Cli, RejectionNamesTheFlagAndItsValue) {
  const char* argv[] = {"prog", "--nodes", "10k"};
  CliArgs args(3, const_cast<char**>(argv));
  try {
    args.get_u64("nodes", 0);
    FAIL() << "--nodes 10k parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("10k"), std::string::npos) << what;
  }
}

// --- logging ----------------------------------------------------------------------

TEST(Log, LevelFiltering) {
  LogLevel original = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Smoke: these must not crash regardless of level.
  log_debug("invisible ", 1);
  log_info("invisible ", 2);
  log_warn("visible ", 3);
  log_error("visible ", 4.5);
  set_log_level(original);
}

}  // namespace
}  // namespace st::util
