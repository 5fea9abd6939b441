// The contract of MupSearchOptions::num_threads: for any worker count, the
// parallel PATTERN-BREAKER and PATTERN-COMBINER return *exactly* the serial
// MUP set (same patterns, same order) with the serial query counts.
// Exercised on the COMPAS workload and on adversarial data whose MUPs sit at
// many different levels, plus the thread-safety contract of a shared
// BitmapCoverage.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "coverage_lib.h"

namespace coverage {
namespace {

std::string Render(const std::vector<Pattern>& mups) {
  std::string out;
  for (const Pattern& p : mups) {
    out += p.ToString();
    out += '\n';
  }
  return out;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismTest, PatternBreakerMatchesSerialOnCompas) {
  const Dataset data = datagen::MakeCompas().data;
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  const auto serial = FindMupsPatternBreaker(oracle, options);
  ASSERT_FALSE(serial.empty());

  options.num_threads = GetParam();
  MupSearchStats stats;
  const auto parallel = FindMupsPatternBreaker(oracle, options, &stats);
  EXPECT_EQ(Render(parallel), Render(serial));
  EXPECT_EQ(stats.num_mups, serial.size());
  // The parallel frontier evaluation issues exactly the serial queries.
  MupSearchStats serial_stats;
  options.num_threads = 1;
  FindMupsPatternBreaker(oracle, options, &serial_stats);
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
}

TEST_P(ParallelDeterminismTest, PatternBreakerMatchesOnDiagonalData) {
  // MakeDiagonal spreads MUPs across levels, so the parallel merge has to
  // get every frontier right; serial DEEPDIVER is the independent reference.
  const Dataset data = datagen::MakeDiagonal(8);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 1;
  MupSearchStats serial_stats;
  const auto serial = FindMupsPatternBreaker(oracle, options, &serial_stats);
  EXPECT_EQ(Render(FindMupsDeepDiver(oracle, options)), Render(serial));

  options.num_threads = GetParam();
  MupSearchStats stats;
  EXPECT_EQ(Render(FindMupsPatternBreaker(oracle, options, &stats)),
            Render(serial));
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
}

TEST_P(ParallelDeterminismTest, PatternCombinerMatchesSerialOnCompas) {
  // The sharded level-d pass: identical uncovered-combination map contents
  // for any worker count, so the MUP set and every stat are bit-identical.
  const Dataset data = datagen::MakeCompas(2000, 3).data;
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  MupSearchStats serial_stats;
  const auto serial = FindMupsPatternCombiner(oracle, options, &serial_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->empty());

  options.num_threads = GetParam();
  MupSearchStats stats;
  const auto parallel = FindMupsPatternCombiner(oracle, options, &stats);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Render(*parallel), Render(*serial));
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
  EXPECT_EQ(stats.num_mups, serial_stats.num_mups);
}

TEST_P(ParallelDeterminismTest, PatternCombinerMatchesSerialOnRandomSchemas) {
  // Property sweep: mixed cardinalities (block sharding cuts across several
  // attribute prefixes) and a tau high enough to leave many uncovered
  // combinations. Parallel output must equal DEEPDIVER's too.
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    Rng rng(seed);
    const Schema schema = Schema::Uniform({3, 2, 4, 2, 3});
    Dataset data(schema);
    std::vector<Value> row(5);
    for (int i = 0; i < 400; ++i) {
      for (int a = 0; a < 5; ++a) {
        row[static_cast<std::size_t>(a)] = static_cast<Value>(std::min(
            rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))),
            rng.NextUint64(
                static_cast<std::uint64_t>(schema.cardinality(a)))));
      }
      data.AppendRow(row);
    }
    const AggregatedData agg(data);
    const BitmapCoverage oracle(agg);
    MupSearchOptions options;
    options.tau = 5;
    const auto serial = FindMupsPatternCombiner(oracle, options);
    ASSERT_TRUE(serial.ok());

    options.num_threads = GetParam();
    const auto parallel = FindMupsPatternCombiner(oracle, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(Render(*parallel), Render(*serial)) << "seed=" << seed;
    options.num_threads = 1;
    EXPECT_EQ(Render(*parallel), Render(FindMupsDeepDiver(oracle, options)))
        << "seed=" << seed;
  }
}

TEST_P(ParallelDeterminismTest, LevelLimitedSearchMatchesSerial) {
  // A level-capped BFS (the planner's wide-schema fallback) stops merging
  // at level 4; the capped parallel search must still match the serial one.
  const Dataset data = datagen::MakeAirbnb(20000, 10);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 40;
  options.max_level = 4;
  MupSearchStats serial_stats;
  const auto serial = FindMupsPatternBreaker(oracle, options, &serial_stats);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(Render(FindMupsDeepDiver(oracle, options)), Render(serial));

  options.num_threads = GetParam();
  MupSearchStats stats;
  EXPECT_EQ(Render(FindMupsPatternBreaker(oracle, options, &stats)),
            Render(serial));
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelDeterminismTest,
                         ::testing::Values(1, 2, 8));

TEST(SharedOracle, ConcurrentQueriesOneInstance) {
  // The thread-safety contract of the redesigned oracle: many threads, one
  // BitmapCoverage, one QueryContext per thread. Under TSan this is the
  // canary for any shared mutable query state.
  const Dataset data = datagen::MakeAirbnb(20000, 8);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const ScanCoverage reference(data);

  PatternGraph graph(data.schema());
  const auto all = graph.EnumerateAll(1u << 20);
  ASSERT_TRUE(all.ok());
  // The scan reference is counted once, serially, before the threads start:
  // it is the expected answer, not part of the concurrency under test.
  std::vector<std::uint64_t> expected(all->size());
  {
    QueryContext scan_ctx;
    for (std::size_t i = 0; i < all->size(); ++i) {
      expected[i] = reference.Coverage((*all)[i], scan_ctx);
    }
  }

  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      for (std::size_t i = static_cast<std::size_t>(t); i < all->size();
           i += 8) {
        const Pattern& p = (*all)[i];
        if (oracle.Coverage(p, ctx) != expected[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (oracle.CoverageAtLeast(p, 25, ctx) != (expected[i] >= 25)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
}

}  // namespace
}  // namespace coverage
