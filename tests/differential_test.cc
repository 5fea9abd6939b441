// Differential check of the packed MUP searches against the paper's
// by-definition reference. FindMupsNaive (§III-A) enumerates the pattern
// graph, counts every pattern and keeps the maximal uncovered ones; every
// search — PATTERN-BREAKER serial and with workers, DEEPDIVER in each
// dominance mode, PATTERN-COMBINER, APRIORI — the service audit and the
// incremental engine at every append and retract epoch must return exactly
// that set. The searches' work counters (coverage queries, nodes generated
// and pruned) and a digest of each MUP set are pinned in
// tests/golden/search_counts_v1.json. Regenerate it only after an
// intentional change to a search's traversal order or pruning:
//
//     COVERAGE_UPDATE_GOLDEN=1 ./build/differential_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "engine/coverage_engine.h"
#include "mups/mups.h"
#include "server/json.h"
#include "server/wire.h"
#include "service/coverage_service.h"

namespace coverage {
namespace {

using DominanceMode = MupSearchOptions::DominanceMode;

struct DiffCase {
  std::vector<int> cardinalities;
  std::size_t num_rows;
  std::uint64_t tau;
  std::uint64_t seed;
  double skew;
  /// Workers of PATTERN-COMBINER, the service audit and the engine;
  /// PATTERN-BREAKER runs at 1, 2 and 4 workers on every case.
  int num_threads;
};

std::string CaseName(const DiffCase& c) {
  std::string name = "c";
  for (int card : c.cardinalities) name += std::to_string(card);
  name += "_n" + std::to_string(c.num_rows);
  name += "_tau" + std::to_string(c.tau);
  name += "_s" + std::to_string(c.seed);
  name += "_t" + std::to_string(c.num_threads);
  return name;
}

void PrintTo(const DiffCase& c, std::ostream* os) { *os << CaseName(c); }

Dataset GenerateSkewed(const std::vector<int>& cardinalities,
                       std::size_t num_rows, std::uint64_t seed, double skew) {
  const Schema schema = Schema::Uniform(cardinalities);
  Rng rng(seed);
  Dataset data(schema);
  std::vector<Value> row(cardinalities.size());
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t a = 0; a < cardinalities.size(); ++a) {
      const auto card = static_cast<std::uint64_t>(cardinalities[a]);
      std::uint64_t v = rng.NextUint64(card);
      if (rng.NextBool(skew)) v = std::min(v, rng.NextUint64(card));
      row[a] = static_cast<Value>(v);
    }
    data.AppendRow(row);
  }
  return data;
}

/// A dataset with its aggregated relation and oracle; not movable, since
/// the oracle references the relation.
struct Instance {
  Instance(const std::vector<int>& cardinalities, std::size_t num_rows,
           std::uint64_t seed, double skew)
      : data(GenerateSkewed(cardinalities, num_rows, seed, skew)),
        agg(data),
        oracle(agg) {}
  explicit Instance(const DiffCase& c)
      : Instance(c.cardinalities, c.num_rows, c.seed, c.skew) {}
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Dataset data;
  AggregatedData agg;
  BitmapCoverage oracle;
};

/// The reference MUP set: Problem 1 solved by definition.
std::vector<Pattern> Naive(const BitmapCoverage& oracle, std::uint64_t tau) {
  auto mups = FindMupsNaive(oracle, oracle.data().schema(),
                            MupSearchOptions{.tau = tau});
  EXPECT_TRUE(mups.ok()) << mups.status().ToString();
  return mups.ok() ? *mups : std::vector<Pattern>{};
}

// ------------------------------------------------------------- golden ----

std::string GoldenPath() {
  return std::string(COVERAGE_REPO_DIR) +
         "/tests/golden/search_counts_v1.json";
}

/// FNV-1a over the sorted MUP strings, newline-terminated.
std::string MupDigest(const std::vector<Pattern>& mups) {
  std::vector<std::string> strings;
  strings.reserve(mups.size());
  for (const Pattern& p : mups) strings.push_back(p.ToString());
  std::sort(strings.begin(), strings.end());
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (const std::string& s : strings) {
    for (const char ch : s) mix(static_cast<unsigned char>(ch));
    mix('\n');
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

json::JsonValue::Object& GoldenEntries() {
  static json::JsonValue::Object entries = [] {
    std::ifstream in(GoldenPath());
    if (!in.good()) return json::JsonValue::Object{};
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = json::Parse(text.str());
    if (!parsed.ok() || !parsed->is_object()) {
      return json::JsonValue::Object{};
    }
    return parsed->AsObject();
  }();
  return entries;
}

/// Compares one search's counters and MUP digest with the golden entry
/// `instance`.`algorithm`, or records them when COVERAGE_UPDATE_GOLDEN is
/// set (the file is rewritten after every recorded entry).
void ExpectGolden(const std::string& instance, const std::string& algorithm,
                  const MupSearchStats& stats,
                  const std::vector<Pattern>& mups) {
  json::JsonValue::Object actual;
  actual["coverage_queries"] = stats.coverage_queries;
  actual["nodes_generated"] = stats.nodes_generated;
  actual["nodes_pruned"] = stats.nodes_pruned;
  actual["num_mups"] = static_cast<std::uint64_t>(stats.num_mups);
  actual["mups_digest"] = MupDigest(mups);

  json::JsonValue::Object& golden = GoldenEntries();
  if (std::getenv("COVERAGE_UPDATE_GOLDEN") != nullptr) {
    if (!golden[instance].is_object()) {
      golden[instance] = json::JsonValue::Object{};
    }
    golden[instance].AsObject()[algorithm] = actual;
    std::ofstream out(GoldenPath());
    out << json::SerializePretty(json::JsonValue(golden));
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    return;
  }
  const auto it = golden.find(instance);
  ASSERT_NE(it, golden.end())
      << "golden lacks instance " << instance
      << " (regenerate per tests/golden/README.md)";
  const json::JsonValue* want = it->second.Find(algorithm);
  ASSERT_NE(want, nullptr) << instance << " lacks " << algorithm;
  for (const auto& [key, value] : actual) {
    const json::JsonValue* field = want->Find(key);
    ASSERT_NE(field, nullptr) << instance << "." << algorithm << " lacks "
                              << key;
    EXPECT_EQ(json::Serialize(value), json::Serialize(*field))
        << instance << "." << algorithm << "." << key
        << " drifted from the golden";
  }
}

// -------------------------------------------------------------- sweep ----

class SearchesMatchNaive : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SearchesMatchNaive, PatternBreaker) {
  const DiffCase& c = GetParam();
  const Instance in(c);
  const std::vector<Pattern> reference = Naive(in.oracle, c.tau);

  MupSearchStats serial;
  for (const int workers : {1, 2, 4}) {
    MupSearchOptions options{.tau = c.tau};
    options.num_threads = workers;
    MupSearchStats stats;
    EXPECT_EQ(FindMupsPatternBreaker(in.oracle, options, &stats), reference)
        << workers << " workers";
    if (workers == 1) {
      serial = stats;
      continue;
    }
    // The level merge is queue-ordered, so the counters do not depend on
    // the worker count.
    EXPECT_EQ(stats.coverage_queries, serial.coverage_queries);
    EXPECT_EQ(stats.nodes_generated, serial.nodes_generated);
    EXPECT_EQ(stats.num_mups, serial.num_mups);
  }
  ExpectGolden(CaseName(c), "pattern_breaker", serial, reference);
}

TEST_P(SearchesMatchNaive, DeepDiverEveryDominanceMode) {
  const DiffCase& c = GetParam();
  const Instance in(c);
  const std::vector<Pattern> reference = Naive(in.oracle, c.tau);

  const std::pair<DominanceMode, const char*> modes[] = {
      {DominanceMode::kBitmapIndex, "deep_diver_bitmap"},
      {DominanceMode::kLinearScan, "deep_diver_linear"},
      {DominanceMode::kNoPruning, "deep_diver_none"},
  };
  for (const auto& [mode, key] : modes) {
    MupSearchOptions options{.tau = c.tau};
    options.dominance_mode = mode;
    options.num_threads = c.num_threads;  // ignored: DEEPDIVER is serial
    MupSearchStats stats;
    EXPECT_EQ(FindMupsDeepDiver(in.oracle, options, &stats), reference)
        << key;
    ExpectGolden(CaseName(c), key, stats, reference);
  }
}

TEST_P(SearchesMatchNaive, PatternCombiner) {
  const DiffCase& c = GetParam();
  const Instance in(c);
  const std::vector<Pattern> reference = Naive(in.oracle, c.tau);
  MupSearchOptions options{.tau = c.tau};
  options.num_threads = c.num_threads;
  MupSearchStats stats;
  auto mups = FindMupsPatternCombiner(in.oracle, options, &stats);
  ASSERT_TRUE(mups.ok()) << mups.status().ToString();
  EXPECT_EQ(*mups, reference);
  ExpectGolden(CaseName(c), "pattern_combiner", stats, reference);
}

TEST_P(SearchesMatchNaive, Apriori) {
  const DiffCase& c = GetParam();
  const Instance in(c);
  const std::vector<Pattern> reference = Naive(in.oracle, c.tau);
  MupSearchOptions options{.tau = c.tau};
  options.num_threads = c.num_threads;
  MupSearchStats stats;
  auto mups = FindMupsApriori(in.oracle, options, &stats);
  ASSERT_TRUE(mups.ok()) << mups.status().ToString();
  EXPECT_EQ(*mups, reference);
  ExpectGolden(CaseName(c), "apriori", stats, reference);
}

TEST_P(SearchesMatchNaive, ServiceAudit) {
  // The full service path: the materialized and the packed-only
  // (materialize_patterns = false) responses carry the reference set and
  // serialize to the same JSON.
  const DiffCase& c = GetParam();
  const Instance in(c);
  ServiceOptions sopts;
  sopts.num_threads = c.num_threads;
  auto service = CoverageService::FromDataset(in.data, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  AuditRequest request;
  request.tau = c.tau;
  request.materialize_patterns = true;
  auto materialized = service->Audit(request);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized->mups, Naive(in.oracle, c.tau));
  ASSERT_TRUE(materialized->packed.has_value());
  EXPECT_EQ(materialized->mups, materialized->packed->Materialize());

  request.materialize_patterns = false;
  auto packed_only = service->Audit(request);
  ASSERT_TRUE(packed_only.ok());
  EXPECT_TRUE(packed_only->mups.empty());

  // Wall-clock is legitimately nondeterministic; the MUP set and the search
  // counters are deterministic at any worker count.
  materialized->stats.seconds = 0.0;
  packed_only->stats.seconds = 0.0;
  EXPECT_EQ(json::Serialize(wire::ToJson(*materialized, service->schema())),
            json::Serialize(wire::ToJson(*packed_only, service->schema())));
}

TEST_P(SearchesMatchNaive, EngineEveryEpoch) {
  // Append three batches, retract two of them, then re-append one (which
  // revives tombstoned combinations). After every epoch the maintained MUP
  // set must equal the reference over the live rows.
  const DiffCase& c = GetParam();
  const Dataset data =
      GenerateSkewed(c.cardinalities, c.num_rows, c.seed, c.skew);
  EngineOptions options;
  options.tau = c.tau;
  options.num_threads = c.num_threads;
  CoverageEngine engine(data.schema(), options);

  const std::size_t third = data.num_rows() / 3;
  std::vector<Dataset> batches;
  for (std::size_t b = 0; b < 3; ++b) {
    Dataset batch(data.schema());
    const std::size_t begin = b * third;
    const std::size_t end = b == 2 ? data.num_rows() : begin + third;
    for (std::size_t r = begin; r < end; ++r) batch.AppendRow(data.row(r));
    batches.push_back(std::move(batch));
  }
  std::vector<bool> live(batches.size(), false);
  const auto expect_reference = [&](const std::string& epoch) {
    Dataset rows(data.schema());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (!live[b]) continue;
      for (std::size_t r = 0; r < batches[b].num_rows(); ++r) {
        rows.AppendRow(batches[b].row(r));
      }
    }
    const AggregatedData agg(rows);
    const BitmapCoverage oracle(agg);
    EXPECT_EQ(engine.Mups(), Naive(oracle, c.tau)) << "after " << epoch;
  };
  const auto append = [&](std::size_t b) {
    ASSERT_TRUE(engine.AppendRows(batches[b]).ok());
    live[b] = true;
    expect_reference("appending batch " + std::to_string(b));
  };
  const auto retract = [&](std::size_t b) {
    ASSERT_TRUE(engine.RetractRows(batches[b]).ok());
    live[b] = false;
    expect_reference("retracting batch " + std::to_string(b));
  };

  expect_reference("construction");
  append(0);
  append(1);
  append(2);
  retract(1);
  retract(0);
  append(1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchesMatchNaive,
    ::testing::Values(DiffCase{{2, 2, 2}, 40, 3, 101, 0.4, 1},
                      DiffCase{{2, 2, 2, 2}, 80, 4, 102, 0.5, 1},
                      DiffCase{{2, 2, 2, 2, 2}, 150, 5, 103, 0.6, 1},
                      DiffCase{{3, 2, 4}, 90, 4, 104, 0.5, 1},
                      DiffCase{{4, 3, 3, 2}, 160, 5, 105, 0.5, 1},
                      DiffCase{{5, 2, 4}, 110, 6, 106, 0.6, 1},
                      DiffCase{{1, 2, 3}, 40, 3, 107, 0.4, 1},
                      DiffCase{{2, 6, 2, 3}, 140, 4, 108, 0.4, 1},
                      DiffCase{{3, 3}, 3, 10, 109, 0.2, 1},
                      DiffCase{{2, 3, 3}, 30, 1, 110, 0.7, 1},
                      // Parallel configurations (2 and 4 workers).
                      DiffCase{{2, 2, 2, 2}, 120, 4, 111, 0.5, 2},
                      DiffCase{{3, 3, 3}, 90, 9, 112, 0.8, 2},
                      DiffCase{{2, 2, 2, 2, 2}, 200, 6, 113, 0.4, 4},
                      DiffCase{{4, 4}, 12, 1, 114, 0.6, 4}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return CaseName(info.param);
    });

// --------------------------------------------------------- rank bound ----

// Both sides of the rank bound. PATTERN-BREAKER remembers covered nodes in
// a rank-indexed bitset while Π (cᵢ+1) <= kPlannerPatternGraphBudget and in
// a packed-key hash set above it. 13 attributes of cardinality 3 give
// Π = 4^13 = 2^26 exactly (bitset, at its largest); a cardinality-7
// attribute in place of one of them gives 4^12 · 8 = 2^27 (hash set,
// level-capped like the planner's wide searches). These graphs are too
// large for the naive reference, so the result is validated against the
// oracle directly (ValidateMupSet) and its counters pinned in the golden.
struct RankBoundCase {
  std::vector<int> cardinalities;
  int max_level;
  bool rank_path;
  int num_threads;
};

std::string RankBoundName(const RankBoundCase& c) {
  return std::string(c.rank_path ? "Bitset" : "Hash") + "_t" +
         std::to_string(c.num_threads);
}

class PatternBreakerRankBound
    : public ::testing::TestWithParam<RankBoundCase> {};

TEST_P(PatternBreakerRankBound, ValidAndPinned) {
  const RankBoundCase& c = GetParam();
  const Instance in(c.cardinalities, 300, 121, 0.6);
  const std::uint64_t num_patterns = in.agg.schema().NumPatterns();
  if (c.rank_path) {
    EXPECT_EQ(num_patterns, kPlannerPatternGraphBudget);
  } else {
    EXPECT_EQ(num_patterns, 2 * kPlannerPatternGraphBudget);
  }
  MupSearchOptions options{.tau = 15};
  options.max_level = c.max_level;
  options.num_threads = c.num_threads;

  MupSearchStats stats;
  const auto mups = FindMupsPatternBreaker(in.oracle, options, &stats);
  ASSERT_FALSE(mups.empty());
  const Status valid = ValidateMupSet(mups, in.oracle, options.tau);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  ExpectGolden("rank_bound_" + RankBoundName(c), "pattern_breaker", stats,
               mups);
}

std::vector<int> RankBound26() { return std::vector<int>(13, 3); }
std::vector<int> RankBound27() {
  std::vector<int> cards(13, 3);
  cards.back() = 7;
  return cards;
}

INSTANTIATE_TEST_SUITE_P(
    Bound, PatternBreakerRankBound,
    ::testing::Values(RankBoundCase{RankBound26(), -1, true, 1},
                      RankBoundCase{RankBound26(), -1, true, 4},
                      RankBoundCase{RankBound27(), 3, false, 1},
                      RankBoundCase{RankBound27(), 3, false, 4}),
    [](const ::testing::TestParamInfo<RankBoundCase>& info) {
      return RankBoundName(info.param);
    });

// ------------------------------------------------------- wide schemas ----

TEST(PackedCapacity, WideSchemaIsRejected) {
  // 50 binary attributes (2 packed bits each) plus 160 cardinality-1
  // attributes (1 bit each) need 260 bits > PackedPattern's 256-bit
  // capacity, while the combination space stays 2^50 — small enough for
  // AggregatedData. Every StatusOr entry point refuses the schema.
  std::vector<int> wide(50, 2);
  wide.insert(wide.end(), 160, 1);
  const Schema schema = Schema::Uniform(wide);
  const auto expect_rejected = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("256"), std::string::npos)
        << status.ToString();
  };
  expect_rejected(PatternCodec::Build(schema).status());

  Dataset data(schema);
  std::vector<Value> row(wide.size(), 0);
  data.AppendRow(row);
  row[0] = 1;
  data.AppendRow(row);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options{.tau = 1};
  options.max_level = 1;
  for (const MupAlgorithm algorithm :
       {MupAlgorithm::kPatternBreaker, MupAlgorithm::kDeepDiver,
        MupAlgorithm::kPatternCombiner, MupAlgorithm::kApriori,
        MupAlgorithm::kAuto}) {
    SCOPED_TRACE(ToString(algorithm));
    expect_rejected(FindMups(algorithm, oracle, options).status());
    expect_rejected(FindMupsPacked(algorithm, oracle, options).status());
  }
  expect_rejected(FindMupsPatternCombiner(oracle, options).status());
  expect_rejected(FindMupsApriori(oracle, options).status());

  expect_rejected(CoverageService::FromDataset(data).status());
  expect_rejected(CoverageService::OpenSession(schema).status());

  EngineImage image;
  image.schema = schema;
  image.agg_cells.assign(data.row(0).begin(), data.row(0).end());
  image.agg_counts = {1};
  expect_rejected(CoverageEngine::Restore(std::move(image)).status());
}

}  // namespace
}  // namespace coverage
