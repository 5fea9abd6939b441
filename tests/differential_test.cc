// Differential proof of the packed-pattern refactor: for every algorithm,
// every DEEPDIVER dominance mode, and serial + parallel execution, the
// packed implementation must be bit-identical to the legacy vector<int> one
// — same MUP sets, same per-algorithm query counts, and same audit wire
// bytes. The legacy implementations survive in
// src/mups/legacy_mups.cc exactly so this suite can shadow-run them
// (MupSearchOptions::use_packed_representation picks the side).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "engine/coverage_engine.h"
#include "mups/legacy_mups.h"
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
  DominanceMode mode;
  int num_threads;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  std::string name = "c";
  for (int c : info.param.cardinalities) name += std::to_string(c);
  name += "_n" + std::to_string(info.param.num_rows);
  name += "_tau" + std::to_string(info.param.tau);
  name += "_s" + std::to_string(info.param.seed);
  switch (info.param.mode) {
    case DominanceMode::kBitmapIndex: name += "_bitmap"; break;
    case DominanceMode::kLinearScan: name += "_linear"; break;
    case DominanceMode::kNoPruning: name += "_none"; break;
  }
  name += "_t" + std::to_string(info.param.num_threads);
  return name;
}

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

class PackedLegacyDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PackedLegacyDifferential, PatternBreakerBitIdentical) {
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options{.tau = c.tau};
  options.dominance_mode = c.mode;
  options.num_threads = c.num_threads;

  MupSearchStats legacy_stats, packed_stats;
  options.use_packed_representation = false;
  const auto legacy = FindMupsPatternBreaker(oracle, options, &legacy_stats);
  options.use_packed_representation = true;
  const auto packed = FindMupsPatternBreaker(oracle, options, &packed_stats);

  EXPECT_EQ(legacy, packed);
  // The breaker's merge is queue-ordered and deterministic even in
  // parallel, so query counts must agree exactly.
  EXPECT_EQ(legacy_stats.coverage_queries, packed_stats.coverage_queries);
  EXPECT_EQ(legacy_stats.nodes_generated, packed_stats.nodes_generated);
  EXPECT_EQ(legacy_stats.num_mups, packed_stats.num_mups);
}

TEST_P(PackedLegacyDifferential, DeepDiverBitIdentical) {
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options{.tau = c.tau};
  options.dominance_mode = c.mode;
  options.num_threads = c.num_threads;

  MupSearchStats legacy_stats, packed_stats;
  options.use_packed_representation = false;
  const auto legacy = FindMupsDeepDiver(oracle, options, &legacy_stats);
  options.use_packed_representation = true;
  const auto packed = FindMupsDeepDiver(oracle, options, &packed_stats);

  EXPECT_EQ(legacy, packed);
  // DEEPDIVER is serial whatever num_threads says, so its dive order — and
  // with it every counter — is deterministic at any worker count.
  EXPECT_EQ(legacy_stats.coverage_queries, packed_stats.coverage_queries);
  EXPECT_EQ(legacy_stats.nodes_generated, packed_stats.nodes_generated);
  EXPECT_EQ(legacy_stats.nodes_pruned, packed_stats.nodes_pruned);
  EXPECT_EQ(legacy_stats.num_mups, packed_stats.num_mups);
}

TEST_P(PackedLegacyDifferential, CombinerAndAprioriBitIdentical) {
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options{.tau = c.tau};
  options.num_threads = c.num_threads;

  MupSearchStats legacy_stats, packed_stats;
  options.use_packed_representation = false;
  auto legacy = FindMupsPatternCombiner(oracle, options, &legacy_stats);
  options.use_packed_representation = true;
  auto packed = FindMupsPatternCombiner(oracle, options, &packed_stats);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(*legacy, *packed);
  EXPECT_EQ(legacy_stats.coverage_queries, packed_stats.coverage_queries);
  EXPECT_EQ(legacy_stats.nodes_generated, packed_stats.nodes_generated);

  options.use_packed_representation = false;
  auto legacy_ap = FindMupsApriori(oracle, options, &legacy_stats);
  options.use_packed_representation = true;
  auto packed_ap = FindMupsApriori(oracle, options, &packed_stats);
  ASSERT_TRUE(legacy_ap.ok());
  ASSERT_TRUE(packed_ap.ok());
  EXPECT_EQ(*legacy_ap, *packed_ap);
  EXPECT_EQ(legacy_stats.coverage_queries, packed_stats.coverage_queries);
  EXPECT_EQ(legacy_stats.nodes_generated, packed_stats.nodes_generated);
}

TEST_P(PackedLegacyDifferential, DirectLegacyEntryPointsAgree) {
  // Call the relocated legacy implementations directly (not through the
  // dispatch flag) and the packed cores directly: same sets.
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const Schema& schema = data.schema();
  MupSearchOptions options{.tau = c.tau};
  options.dominance_mode = c.mode;
  options.num_threads = c.num_threads;

  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());

  const auto legacy = legacy::FindMupsPatternBreaker(oracle, schema, options,
                                                     nullptr);
  const auto packed =
      FindMupsPatternBreakerPacked(oracle, schema, *codec, options, nullptr);
  std::vector<Pattern> decoded;
  decoded.reserve(packed.size());
  for (const PackedPattern& p : packed) decoded.push_back(codec->Decode(p));
  EXPECT_EQ(legacy, decoded);
}

TEST_P(PackedLegacyDifferential, AuditWireBytesBitIdentical) {
  // The full service path: a materialized legacy-encoded response and a
  // packed-encoded (materialize_patterns = false) response must serialize
  // to the same bytes.
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  ServiceOptions sopts;
  sopts.num_threads = c.num_threads;
  auto service = CoverageService::FromDataset(data, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  AuditRequest request;
  request.tau = c.tau;

  request.materialize_patterns = true;
  auto materialized = service->Audit(request);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_TRUE(materialized->packed.has_value());
  EXPECT_EQ(materialized->mups, materialized->packed->Materialize());

  request.materialize_patterns = false;
  auto packed_only = service->Audit(request);
  ASSERT_TRUE(packed_only.ok());
  EXPECT_TRUE(packed_only->mups.empty());

  // Wall-clock is legitimately nondeterministic; everything else — the
  // MUP set and the search counters — is deterministic at any worker count.
  materialized->stats.seconds = 0.0;
  packed_only->stats.seconds = 0.0;

  // Wire bytes from the packed encoder, both responses.
  const std::string a =
      json::Serialize(wire::ToJson(*materialized, service->schema()));
  const std::string b =
      json::Serialize(wire::ToJson(*packed_only, service->schema()));
  EXPECT_EQ(a, b);

  // And against the legacy encoder: strip the packed form so ToJson takes
  // the Pattern path, byte-identical by construction.
  AuditResult legacy_encoded = *materialized;
  legacy_encoded.packed.reset();
  const std::string l =
      json::Serialize(wire::ToJson(legacy_encoded, service->schema()));
  EXPECT_EQ(l, a);
}

TEST_P(PackedLegacyDifferential, EngineMaintenanceBitIdentical) {
  // Append + retract epochs through both engine representations: identical
  // MUP sets and identical maintenance query counts at every epoch.
  const DiffCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, c.num_rows, c.seed,
                                      c.skew);
  EngineOptions lopts;
  lopts.tau = c.tau;
  lopts.num_threads = c.num_threads;
  lopts.use_packed_representation = false;
  EngineOptions popts = lopts;
  popts.use_packed_representation = true;

  CoverageEngine legacy_engine(data.schema(), lopts);
  CoverageEngine packed_engine(data.schema(), popts);

  // Split the rows into three append batches, then retract the middle one.
  const std::size_t third = data.num_rows() / 3;
  std::vector<Dataset> batches;
  for (int b = 0; b < 3; ++b) {
    Dataset batch(data.schema());
    const std::size_t begin = static_cast<std::size_t>(b) * third;
    const std::size_t end =
        b == 2 ? data.num_rows() : begin + third;
    for (std::size_t r = begin; r < end; ++r) batch.AppendRow(data.row(r));
    batches.push_back(std::move(batch));
  }
  for (const Dataset& batch : batches) {
    EngineUpdateStats ls, ps;
    ASSERT_TRUE(legacy_engine.AppendRows(batch, &ls).ok());
    ASSERT_TRUE(packed_engine.AppendRows(batch, &ps).ok());
    EXPECT_EQ(legacy_engine.Mups(), packed_engine.Mups());
    EXPECT_EQ(ls.coverage_queries, ps.coverage_queries);
    EXPECT_EQ(ls.mups_added, ps.mups_added);
    EXPECT_EQ(ls.mups_newly_covered, ps.mups_newly_covered);
  }
  if (batches[1].num_rows() > 0) {
    EngineUpdateStats ls, ps;
    ASSERT_TRUE(legacy_engine.RetractRows(batches[1], &ls).ok());
    ASSERT_TRUE(packed_engine.RetractRows(batches[1], &ps).ok());
    EXPECT_EQ(legacy_engine.Mups(), packed_engine.Mups());
    EXPECT_EQ(ls.coverage_queries, ps.coverage_queries);
    EXPECT_EQ(ls.mups_demoted, ps.mups_demoted);
    EXPECT_EQ(ls.mups_added, ps.mups_added);
  }
}

// >= 12 random schema / dominance / thread configurations (the dominance
// mode reaches DEEPDIVER only); word-boundary shapes are covered by packed_pattern_test.
INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedLegacyDifferential,
    ::testing::Values(
        DiffCase{{2, 2, 2}, 40, 3, 101, 0.4, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 2, 2, 2}, 80, 4, 102, 0.5, DominanceMode::kLinearScan,
                 1},
        DiffCase{{2, 2, 2, 2, 2}, 150, 5, 103, 0.6,
                 DominanceMode::kNoPruning, 1},
        DiffCase{{3, 2, 4}, 90, 4, 104, 0.5, DominanceMode::kBitmapIndex, 1},
        DiffCase{{4, 3, 3, 2}, 160, 5, 105, 0.5, DominanceMode::kLinearScan,
                 1},
        DiffCase{{5, 2, 4}, 110, 6, 106, 0.6, DominanceMode::kBitmapIndex,
                 1},
        DiffCase{{1, 2, 3}, 40, 3, 107, 0.4, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 6, 2, 3}, 140, 4, 108, 0.4, DominanceMode::kNoPruning,
                 1},
        DiffCase{{3, 3}, 3, 10, 109, 0.2, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 3, 3}, 30, 1, 110, 0.7, DominanceMode::kLinearScan, 1},
        // Parallel configurations (2 and 4 workers).
        DiffCase{{2, 2, 2, 2}, 120, 4, 111, 0.5, DominanceMode::kBitmapIndex,
                 2},
        DiffCase{{3, 3, 3}, 90, 9, 112, 0.8, DominanceMode::kBitmapIndex, 2},
        DiffCase{{2, 2, 2, 2, 2}, 200, 6, 113, 0.4,
                 DominanceMode::kLinearScan, 4},
        DiffCase{{4, 4}, 12, 1, 114, 0.6, DominanceMode::kBitmapIndex, 4}),
    CaseName);

// Both sides of the rank bound. The packed PATTERN-BREAKER remembers covered
// nodes in a rank-indexed bitset while Π (cᵢ+1) <= kPlannerPatternGraphBudget
// and in a packed-key hash set above it. 13 attributes of cardinality 3 give
// Π = 4^13 = 2^26 exactly (bitset, at its largest); a cardinality-7 attribute
// in place of one of them gives 4^12 · 8 = 2^27 (hash set, level-capped like
// the planner's wide searches). Either way the search must match legacy
// exactly, serial and with workers reading the shared covered set. Its own
// fixture runs PATTERN-BREAKER only: the sweep's PATTERN-COMBINER case
// would enumerate all 3^13 or more full combinations of these schemas.
struct RankBoundCase {
  std::vector<int> cardinalities;
  int max_level;
  bool rank_path;
  int num_threads;
};

class PackedLegacyRankBound : public ::testing::TestWithParam<RankBoundCase> {
};

TEST_P(PackedLegacyRankBound, PatternBreakerBitIdentical) {
  const RankBoundCase& c = GetParam();
  const Dataset data = GenerateSkewed(c.cardinalities, 300, 121, 0.6);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const std::uint64_t num_patterns = agg.schema().NumPatterns();
  if (c.rank_path) {
    EXPECT_EQ(num_patterns, kPlannerPatternGraphBudget);
  } else {
    EXPECT_EQ(num_patterns, 2 * kPlannerPatternGraphBudget);
  }
  MupSearchOptions options{.tau = 15};
  options.max_level = c.max_level;
  options.num_threads = c.num_threads;

  MupSearchStats legacy_stats, packed_stats;
  options.use_packed_representation = false;
  const auto legacy = FindMupsPatternBreaker(oracle, options, &legacy_stats);
  options.use_packed_representation = true;
  const auto packed = FindMupsPatternBreaker(oracle, options, &packed_stats);

  ASSERT_FALSE(legacy.empty());
  EXPECT_EQ(legacy, packed);
  EXPECT_EQ(legacy_stats.coverage_queries, packed_stats.coverage_queries);
  EXPECT_EQ(legacy_stats.nodes_generated, packed_stats.nodes_generated);
  EXPECT_EQ(legacy_stats.num_mups, packed_stats.num_mups);
}

std::string RankBoundName(
    const ::testing::TestParamInfo<RankBoundCase>& info) {
  return std::string(info.param.rank_path ? "Bitset" : "Hash") + "_t" +
         std::to_string(info.param.num_threads);
}

std::vector<int> RankBound26() { return std::vector<int>(13, 3); }
std::vector<int> RankBound27() {
  std::vector<int> cards(13, 3);
  cards.back() = 7;
  return cards;
}

INSTANTIATE_TEST_SUITE_P(
    Bound, PackedLegacyRankBound,
    ::testing::Values(RankBoundCase{RankBound26(), -1, true, 1},
                      RankBoundCase{RankBound26(), -1, true, 4},
                      RankBoundCase{RankBound27(), 3, false, 1},
                      RankBoundCase{RankBound27(), 3, false, 4}),
    RankBoundName);

TEST(PackedFallback, WideSchemaRoutesToLegacy) {
  // 50 binary attributes (2 packed bits each) plus 160 cardinality-1
  // attributes (1 bit each) need 260 bits > PackedPattern's 256-bit
  // capacity, while the combination space stays 2^50 — small enough for
  // AggregatedData. The codec must refuse and the public entry points must
  // still answer (via the legacy representation).
  std::vector<int> wide(50, 2);
  wide.insert(wide.end(), 160, 1);
  const Schema schema = Schema::Uniform(wide);
  EXPECT_FALSE(PatternCodec::Build(schema).ok());

  Dataset data(schema);
  std::vector<Value> row(wide.size(), 0);
  data.AppendRow(row);
  row[0] = 1;
  data.AppendRow(row);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options{.tau = 1};
  options.max_level = 1;
  const auto mups = FindMupsPatternBreaker(oracle, options);
  EXPECT_FALSE(mups.empty());

  // The packed dispatch reports the capacity failure explicitly.
  auto packed = FindMupsPacked(MupAlgorithm::kPatternBreaker, oracle, options);
  EXPECT_FALSE(packed.ok());
  EXPECT_EQ(packed.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace coverage
