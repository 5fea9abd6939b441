// Dedicated tests for the threshold query kernel (CoverageAtLeast): it is
// the operation the searches issue millions of times, with two early exits
// (empty accumulator, partial-sum cutoff) and selectivity-ordered ANDs that
// must never change the answer.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/scan_coverage.h"
#include "datagen/bluenile.h"
#include "dataset/aggregate.h"
#include "mups/mups.h"
#include "pattern/pattern_graph.h"

namespace coverage {
namespace {

Dataset RandomData(const Schema& schema, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(schema);
  std::vector<Value> row(static_cast<std::size_t>(schema.num_attributes()));
  for (std::size_t r = 0; r < n; ++r) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      const auto c = static_cast<std::uint64_t>(schema.cardinality(a));
      row[static_cast<std::size_t>(a)] =
          static_cast<Value>(std::min(rng.NextUint64(c), rng.NextUint64(c)));
    }
    data.AppendRow(row);
  }
  return data;
}

TEST(CoverageAtLeast, MatchesExactCountOnFullGraph) {
  const Schema schema = Schema::Uniform({3, 2, 4, 2});
  const Dataset data = RandomData(schema, 400, 5);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  PatternGraph graph(schema);
  auto all = graph.EnumerateAll(100000);
  ASSERT_TRUE(all.ok());
  QueryContext ctx;
  for (const Pattern& p : *all) {
    const std::uint64_t exact = oracle.Coverage(p, ctx);
    for (const std::uint64_t tau : {1u, 2u, 5u, 50u, 400u, 401u}) {
      EXPECT_EQ(oracle.CoverageAtLeast(p, tau, ctx), exact >= tau)
          << p.ToString() << " tau=" << tau;
    }
  }
}

TEST(CoverageAtLeast, BoundaryTaus) {
  const Schema schema = Schema::Binary(3);
  Dataset data(schema);
  for (int i = 0; i < 7; ++i) data.AppendRow(std::vector<Value>{1, 0, 1});
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const Pattern p = *Pattern::Parse("1X1", schema);
  QueryContext ctx;
  EXPECT_TRUE(oracle.CoverageAtLeast(p, 7, ctx));
  EXPECT_FALSE(oracle.CoverageAtLeast(p, 8, ctx));
  EXPECT_TRUE(oracle.CoverageAtLeast(Pattern::Root(3), 7, ctx));
  EXPECT_FALSE(oracle.CoverageAtLeast(Pattern::Root(3), 8, ctx));
}

TEST(CoverageAtLeast, ZeroMatchPatterns) {
  const Schema schema = Schema::Binary(3);
  Dataset data(schema);
  data.AppendRow(std::vector<Value>{0, 0, 0});
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  QueryContext ctx;
  EXPECT_FALSE(oracle.CoverageAtLeast(*Pattern::Parse("1XX", schema), 1, ctx));
  EXPECT_FALSE(oracle.CoverageAtLeast(*Pattern::Parse("111", schema), 1, ctx));
}

TEST(CoverageAtLeast, SingleCellFastPath) {
  const Schema schema = Schema::Uniform({4, 2});
  const Dataset data = RandomData(schema, 300, 9);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  ScanCoverage scan(data);
  QueryContext ctx;
  for (Value v = 0; v < 4; ++v) {
    const Pattern p = Pattern::Root(2).WithCell(0, v);
    const std::uint64_t exact = scan.Coverage(p, ctx);
    EXPECT_TRUE(oracle.CoverageAtLeast(p, exact == 0 ? 0 : exact, ctx));
    EXPECT_FALSE(oracle.CoverageAtLeast(p, exact + 1, ctx));
  }
}

TEST(CoverageAtLeast, HighCardinalitySchema) {
  const Dataset data = datagen::MakeBlueNile(5000, 2);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  ScanCoverage scan(data);
  Rng rng(3);
  QueryContext ctx;
  const Schema& schema = data.schema();
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> cells(7, kWildcard);
    for (int a = 0; a < 7; ++a) {
      if (rng.NextBool(0.4)) {
        cells[static_cast<std::size_t>(a)] = static_cast<Value>(
            rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
      }
    }
    const Pattern p(std::move(cells));
    const std::uint64_t exact = scan.Coverage(p, ctx);
    const std::uint64_t tau = 1 + rng.NextUint64(100);
    EXPECT_EQ(oracle.CoverageAtLeast(p, tau, ctx), exact >= tau) << p.ToString();
  }
}

TEST(CoverageAtLeast, ScanOracleDefaultImplementation) {
  // The base-class default routes through the exact count.
  const Schema schema = Schema::Binary(2);
  Dataset data(schema);
  data.AppendRow(std::vector<Value>{1, 1});
  data.AppendRow(std::vector<Value>{1, 0});
  ScanCoverage scan(data);
  QueryContext ctx;
  EXPECT_TRUE(scan.CoverageAtLeast(*Pattern::Parse("1X", schema), 2, ctx));
  EXPECT_FALSE(scan.CoverageAtLeast(*Pattern::Parse("1X", schema), 3, ctx));
  EXPECT_TRUE(scan.IsCovered(*Pattern::Parse("11", schema), 1, ctx));
}

TEST(CoverageAtLeast, QueryCounterAdvances) {
  const Schema schema = Schema::Binary(2);
  Dataset data(schema);
  data.AppendRow(std::vector<Value>{0, 0});
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  // The default context backs num_queries() for serial callers; passing it
  // explicitly is the only way to reach it.
  oracle.ResetQueryCounter();
  QueryContext& ctx = oracle.default_context();
  oracle.CoverageAtLeast(Pattern::Root(2), 1, ctx);
  oracle.CoverageAtLeast(*Pattern::Parse("0X", schema), 1, ctx);
  oracle.Coverage(*Pattern::Parse("00", schema), ctx);
  EXPECT_EQ(oracle.num_queries(), 3u);
}

TEST(AprioriGuard, EnumerationLimitTriggers) {
  // A wide, dense dataset makes the item lattice explode; the guard must
  // refuse rather than hang.
  const Schema schema = Schema::Binary(16);
  Rng rng(1);
  Dataset data(schema);
  std::vector<Value> row(16);
  for (int i = 0; i < 200; ++i) {
    for (int a = 0; a < 16; ++a) {
      row[static_cast<std::size_t>(a)] =
          static_cast<Value>(rng.NextUint64(2));
    }
    data.AppendRow(row);
  }
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  // A low threshold keeps most item-sets frequent, so the candidate count
  // blows past the guard during the level-2 join.
  MupSearchOptions options{.tau = 2};
  options.enumeration_limit = 200;
  const auto result = FindMupsApriori(oracle, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace coverage
