#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace coverage {
namespace {

// ---------------------------------------------------------------- Status --

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad things");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad things");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad things");
}

TEST(Status, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, WorksWithMoveOnlyLikeTypes) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(v.ok());
  const std::vector<int> taken = std::move(v).value();
  EXPECT_EQ(taken.size(), 3u);
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(1000), b.NextUint64(1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    differing += a.NextUint64(1 << 30) != b.NextUint64(1 << 30);
  }
  EXPECT_GT(differing, 40);
}

TEST(Rng, NextUint64RespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(7), 7u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextBoolRoughlyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  auto sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (std::size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(CategoricalSampler, RespectsWeights) {
  Rng rng(21);
  const CategoricalSampler sampler({1.0, 3.0, 0.0, 6.0});
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(ZipfSampler, SkewsTowardsSmallIndices) {
  Rng rng(31);
  const ZipfSampler sampler(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

// ----------------------------------------------------------- string_util --

TEST(StringUtil, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtil, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(3.14, 4), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 4), "3");
  EXPECT_EQ(FormatDouble(0.5, 2), "0.5");
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
}

TEST(StringUtil, FormatCountGroupsThousands) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

// --------------------------------------------------------- table_printer --

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.Row().Cell("alpha").Cell(std::uint64_t{7}).Done();
  table.Row().Cell("b").Cell(std::uint64_t{123456}).Done();
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| name  | value  |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 7      |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 123456 |"), std::string::npos);
}

TEST(TablePrinter, MixedCellTypes) {
  TablePrinter table({"a", "b", "c", "d"});
  table.Row().Cell(1).Cell(2.5, 2).Cell(std::int64_t{-3}).Cell("x").Done();
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_NE(table.ToString().find("| 1 | 2.5 | -3 | x |"), std::string::npos);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace coverage
