#include "mups/packed_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "pattern/packed_pattern.h"

namespace coverage {
namespace {

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// Every pattern of `schema`'s graph (each cell a value or the wildcard).
std::vector<Pattern> AllPatterns(const Schema& schema) {
  std::vector<Pattern> out = {Pattern::Root(schema.num_attributes())};
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (Value v = 0; v < static_cast<Value>(schema.cardinality(a)); ++v) {
        out.push_back(out[i].WithCell(a, v));
      }
    }
  }
  return out;
}

/// The index must answer every probe like a scan of `live`: membership,
/// strict dominance from above, strict dominance from below.
void ExpectAgreesWithDirectChecks(const PackedMupIndex& index,
                                  const PatternCodec& codec,
                                  const std::vector<Pattern>& live,
                                  const std::vector<Pattern>& probes) {
  ASSERT_EQ(index.size(), live.size());
  for (const Pattern& p : probes) {
    bool dominated = false, dominates = false, member = false;
    for (const Pattern& m : live) {
      dominated = dominated || m.Dominates(p);
      dominates = dominates || p.Dominates(m);
      member = member || m == p;
    }
    const PackedPattern packed = codec.Encode(p);
    EXPECT_EQ(index.Contains(packed), member) << p.ToString();
    EXPECT_EQ(index.IsDominated(packed), dominated) << p.ToString();
    EXPECT_EQ(index.DominatesSome(packed), dominates) << p.ToString();
  }
}

std::vector<PackedPattern> EncodeAll(const PatternCodec& codec,
                                     const std::vector<Pattern>& patterns) {
  std::vector<PackedPattern> out;
  for (const Pattern& p : patterns) out.push_back(codec.Encode(p));
  return out;
}

TEST(PackedMupIndex, MembershipIsExact) {
  const Schema schema = Schema::Binary(3);
  const PatternCodec codec = *PatternCodec::Build(schema);
  PackedMupIndex index(schema, codec);
  ExpectAgreesWithDirectChecks(index, codec, {}, AllPatterns(schema));
  index.Add(codec.Encode(P("1XX", schema)));
  EXPECT_TRUE(index.Contains(codec.Encode(P("1XX", schema))));
  EXPECT_FALSE(index.Contains(codec.Encode(P("0XX", schema))));
  ExpectAgreesWithDirectChecks(index, codec, {P("1XX", schema)},
                               AllPatterns(schema));
}

TEST(PackedMupIndex, MixedCardinalities) {
  // Antichains over non-binary attributes of different widths, probed over
  // the whole pattern graph.
  const Schema schema = Schema::Uniform({3, 4, 2});
  const PatternCodec codec = *PatternCodec::Build(schema);
  PackedMupIndex index(schema, codec);
  const std::vector<Pattern> mups = {P("2XX", schema), P("X31", schema),
                                     P("01X", schema)};
  for (const Pattern& m : mups) index.Add(codec.Encode(m));
  ExpectAgreesWithDirectChecks(index, codec, mups, AllPatterns(schema));
}

TEST(PackedMupIndex, GrowsPastWordBoundary) {
  // 100 MUPs: the slot vectors span two words, once by single Adds and once
  // by an AddBatch that starts mid-word (after 60 Adds).
  const Schema schema = Schema::Uniform({100, 2});
  const PatternCodec codec = *PatternCodec::Build(schema);
  std::vector<Pattern> mups;
  for (Value v = 0; v < 100; ++v) mups.push_back(Pattern({v, kWildcard}));

  PackedMupIndex added(schema, codec);
  for (const Pattern& m : mups) added.Add(codec.Encode(m));
  ExpectAgreesWithDirectChecks(added, codec, mups, AllPatterns(schema));

  PackedMupIndex mixed(schema, codec);
  for (std::size_t i = 0; i < 60; ++i) mixed.Add(codec.Encode(mups[i]));
  mixed.AddBatch(EncodeAll(
      codec, std::vector<Pattern>(mups.begin() + 60, mups.end())));
  ExpectAgreesWithDirectChecks(mixed, codec, mups, AllPatterns(schema));
}

TEST(PackedMupIndex, AddBatchMatchesSequentialAdds) {
  const Schema schema = Schema::Uniform({5, 3, 4});
  const PatternCodec codec = *PatternCodec::Build(schema);
  // An antichain mixing levels and wildcard positions.
  const std::vector<Pattern> mups = {
      Pattern({Value{0}, kWildcard, Value{1}}),
      Pattern({Value{1}, Value{2}, kWildcard}),
      Pattern({kWildcard, Value{0}, Value{3}}),
      Pattern({Value{4}, kWildcard, kWildcard}),
  };
  PackedMupIndex batched(schema, codec);
  batched.AddBatch(EncodeAll(codec, mups));
  PackedMupIndex sequential(schema, codec);
  for (const Pattern& m : mups) sequential.Add(codec.Encode(m));

  EXPECT_EQ(batched.mups(), sequential.mups());
  ExpectAgreesWithDirectChecks(batched, codec, mups, AllPatterns(schema));
  ExpectAgreesWithDirectChecks(sequential, codec, mups, AllPatterns(schema));
}

TEST(PackedMupIndex, AddBatchEmptyIsNoOp) {
  const Schema schema = Schema::Binary(3);
  const PatternCodec codec = *PatternCodec::Build(schema);
  PackedMupIndex index(schema, codec);
  index.AddBatch({});
  EXPECT_EQ(index.size(), 0u);
  index.Add(codec.Encode(P("1XX", schema)));
  index.AddBatch({});
  ExpectAgreesWithDirectChecks(index, codec, {P("1XX", schema)},
                               AllPatterns(schema));
}

TEST(PackedMupIndex, RandomAddRemoveAgreesWithDirectChecks) {
  // The packed index's fused dominance kernels against the definition:
  // after Adds, AddBatches and Removes that cross several 64-bit words,
  // every probe — members, the root, descendants with one or many
  // dominating MUPs — answers like a scan of the surviving set.
  const Schema schema = Schema::Uniform({40, 2, 3, 2});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok()) << codec.status().ToString();
  PackedMupIndex index(schema, *codec);
  std::vector<Pattern> live;
  Rng rng(91);
  const auto random_pattern = [&](Rng& r) {
    return Pattern({static_cast<Value>(r.NextInt(-1, 39)),
                    static_cast<Value>(r.NextInt(-1, 1)),
                    static_cast<Value>(r.NextInt(-1, 2)),
                    static_cast<Value>(r.NextInt(-1, 1))});
  };
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.NextUint64(4);
    if (op == 0 && !live.empty()) {
      const std::size_t pick = rng.NextUint64(live.size());
      ASSERT_TRUE(index.Remove(codec->Encode(live[pick])));
      live[pick] = live.back();
      live.pop_back();
    } else if (op == 1) {
      std::vector<PackedPattern> batch;
      for (int k = 0; k < 5; ++k) {
        const Pattern p = random_pattern(rng);
        const PackedPattern packed = codec->Encode(p);
        if (index.Contains(packed) ||
            std::find(batch.begin(), batch.end(), packed) != batch.end()) {
          continue;
        }
        batch.push_back(packed);
        live.push_back(p);
      }
      index.AddBatch(batch);
    } else {
      const Pattern p = random_pattern(rng);
      if (index.Contains(codec->Encode(p))) continue;
      index.Add(codec->Encode(p));
      live.push_back(p);
    }
  }
  ASSERT_GT(live.size(), 128u);  // spans at least three words

  std::vector<Pattern> probes = live;
  probes.push_back(Pattern({kWildcard, kWildcard, kWildcard, kWildcard}));
  Rng probe_rng(92);
  for (int trial = 0; trial < 1000; ++trial) {
    probes.push_back(random_pattern(probe_rng));
  }
  ExpectAgreesWithDirectChecks(index, *codec, live, probes);
}

TEST(PackedMupIndex, RootProbeCountsOnlyLiveSlots) {
  // The root fixes no cell, so DominatesSome(root) ANDs no index vector at
  // all: only the live slots of the last word may count as hits.
  const Schema schema = Schema::Uniform({3, 2});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok()) << codec.status().ToString();
  PackedMupIndex index(schema, *codec);
  index.Add(codec->Root());
  EXPECT_FALSE(index.DominatesSome(codec->Root()));
  EXPECT_FALSE(index.IsDominated(codec->Root()));
  ASSERT_TRUE(index.Remove(codec->Root()));
  index.Add(codec->Encode(Pattern({1, kWildcard})));
  EXPECT_TRUE(index.DominatesSome(codec->Root()));
  EXPECT_FALSE(index.IsDominated(codec->Root()));
}

}  // namespace
}  // namespace coverage
