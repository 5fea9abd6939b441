// Property tests for the packed pattern key: over hundreds of random
// schemas (including word-boundary and max-cardinality shapes), every
// PackedPattern operation must agree with the vector<int> Pattern it
// mirrors — round-trip, cell access, parent/child moves, dominance, level,
// rightmost scans, ordering, hashing, and string rendering.

#include "pattern/packed_pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "pattern/packed_set.h"
#include "pattern/pattern.h"

namespace coverage {
namespace {

/// A random pattern over `schema`: each cell wildcard with probability
/// `wild`, else a uniform value.
Pattern RandomPattern(const Schema& schema, Rng& rng, double wild) {
  std::vector<Value> cells(static_cast<std::size_t>(schema.num_attributes()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (rng.NextBool(wild)) {
      cells[static_cast<std::size_t>(i)] = kWildcard;
    } else {
      cells[static_cast<std::size_t>(i)] = static_cast<Value>(
          rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(i))));
    }
  }
  return Pattern(std::move(cells));
}

/// One schema's worth of agreement checks between the two representations.
void CheckSchema(const Schema& schema, std::uint64_t seed) {
  auto built = PatternCodec::Build(schema);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PatternCodec& codec = *built;
  const int d = schema.num_attributes();
  ASSERT_EQ(codec.num_attributes(), d);

  Rng rng(seed);
  std::vector<Pattern> samples;
  samples.push_back(Pattern::Root(d));
  // A fully deterministic max-value pattern exercises every field's top
  // code (the one adjacent to the all-ones wildcard encoding).
  {
    std::vector<Value> cells(static_cast<std::size_t>(d));
    for (int i = 0; i < d; ++i) {
      cells[static_cast<std::size_t>(i)] =
          static_cast<Value>(schema.cardinality(i) - 1);
    }
    samples.push_back(Pattern(std::move(cells)));
  }
  for (int k = 0; k < 12; ++k) {
    samples.push_back(RandomPattern(schema, rng, 0.4));
  }

  for (const Pattern& p : samples) {
    const PackedPattern packed = codec.Encode(p);

    // Round-trip and cell-level agreement.
    EXPECT_EQ(codec.Decode(packed), p);
    EXPECT_EQ(packed.level(), p.level());
    for (int i = 0; i < d; ++i) {
      EXPECT_EQ(codec.cell(packed, i), p.cell(i));
      EXPECT_EQ(codec.is_deterministic(packed, i), p.is_deterministic(i));
    }
    EXPECT_EQ(codec.RightmostDeterministic(packed),
              p.RightmostDeterministic());
    EXPECT_EQ(codec.RightmostWildcard(packed), p.RightmostWildcard());

    // Iteration order: ascending attributes, exactly the det/wild split.
    std::vector<int> det, wild;
    codec.ForEachDeterministic(packed, [&](int a) { det.push_back(a); });
    codec.ForEachWildcard(packed, [&](int a) { wild.push_back(a); });
    std::vector<int> expect_det, expect_wild;
    for (int i = 0; i < d; ++i) {
      (p.is_deterministic(i) ? expect_det : expect_wild).push_back(i);
    }
    EXPECT_EQ(det, expect_det);
    EXPECT_EQ(wild, expect_wild);

    // Rendering is byte-identical.
    EXPECT_EQ(codec.ToString(packed), p.ToString());
    EXPECT_EQ(codec.ToLabelledString(packed, schema),
              p.ToLabelledString(schema));

    // Parent/child moves through WithCell agree cell-for-cell.
    for (int i = 0; i < d; ++i) {
      const Value flip = p.is_deterministic(i) ? kWildcard : Value{0};
      EXPECT_EQ(codec.Decode(codec.WithCell(packed, i, flip)),
                p.WithCell(i, flip));
    }

    // Pairwise dominance, equality, ordering, and hashing against every
    // other sample.
    for (const Pattern& q : samples) {
      const PackedPattern packed_q = codec.Encode(q);
      EXPECT_EQ(packed.Dominates(packed_q), p.Dominates(q));
      EXPECT_EQ(packed.DominatesOrEquals(packed_q), p.DominatesOrEquals(q));
      EXPECT_EQ(packed == packed_q, p == q);
      EXPECT_EQ(codec.Less(packed, packed_q), p < q);
      if (p == q) EXPECT_EQ(packed.Hash(), packed_q.Hash());
    }
  }

  // EncodeTuple matches Pattern::FromTuple on a random full combination.
  std::vector<Value> tuple(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    tuple[static_cast<std::size_t>(i)] = static_cast<Value>(
        rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(i))));
  }
  EXPECT_EQ(codec.Decode(codec.EncodeTuple(tuple)),
            Pattern::FromTuple(tuple));
}

TEST(PackedPattern, FiveHundredRandomSchemas) {
  Rng rng(2026);
  for (int s = 0; s < 500; ++s) {
    const int d = 1 + static_cast<int>(rng.NextUint64(12));
    std::vector<int> cardinalities(static_cast<std::size_t>(d));
    for (int i = 0; i < d; ++i) {
      // Cardinality 1 is legal and degenerate; skewing low keeps the
      // schemas representative of bucketized categorical data.
      cardinalities[static_cast<std::size_t>(i)] =
          1 + static_cast<int>(rng.NextUint64(9));
    }
    const Schema schema = Schema::Uniform(cardinalities);
    CheckSchema(schema, 3000 + static_cast<std::uint64_t>(s));
  }
}

TEST(PackedPattern, WordBoundaryBinarySchema) {
  // Binary attributes take 2-bit fields (value, plus the all-ones wildcard
  // code): 32 fit in word 0, so the 33rd binary attribute is the first to
  // land in word 1. Check shapes straddling that boundary.
  for (int d : {32, 33, 34, 64, 65, 96, 97, 128}) {
    const Schema schema = Schema::Uniform(std::vector<int>(
        static_cast<std::size_t>(d), 2));
    CheckSchema(schema, 5000 + static_cast<std::uint64_t>(d));
  }
}

TEST(PackedPattern, WordBoundaryHighCardinalitySchema) {
  // Cardinality-30 attributes take 5-bit fields; 12 fit in a word (60 bits,
  // 4 spare), so the 13th starts word 1 — and because fields never straddle
  // words, its field begins at bit 0 of word 1, not bit 60 of word 0.
  for (int d : {12, 13, 14, 25, 26, 48}) {
    const Schema schema = Schema::Uniform(std::vector<int>(
        static_cast<std::size_t>(d), 30));
    CheckSchema(schema, 6000 + static_cast<std::uint64_t>(d));
  }
}

TEST(PackedPattern, MaxCardinalityAttribute) {
  // A large-cardinality attribute next to tiny ones exercises wide fields
  // and mixed layouts. 32767 is the largest cardinality Value (int16_t) can
  // express; its 15-bit field's wildcard code is the all-ones 32767.
  CheckSchema(Schema::Uniform({1024, 2, 3}), 7001);
  CheckSchema(Schema::Uniform({2, 32767, 2}), 7002);
  CheckSchema(Schema::Uniform({32767, 32767, 32767}), 7003);
}

TEST(PackedPattern, CapacityLimit) {
  // 128 binary attributes = 256 bits: exactly at capacity. 129 exceeds it.
  EXPECT_TRUE(
      PatternCodec::Build(Schema::Uniform(std::vector<int>(128, 2))).ok());
  auto over = PatternCodec::Build(Schema::Uniform(std::vector<int>(129, 2)));
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
}

TEST(PackedPattern, ZeroAttributeSchema) {
  const Schema schema = Schema::Uniform(std::vector<int>{});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  const PackedPattern root = codec->Root();
  EXPECT_EQ(root.level(), 0);
  EXPECT_EQ(codec->Decode(root), Pattern::Root(0));
  EXPECT_EQ(codec->ToString(root), Pattern::Root(0).ToString());
}

TEST(PackedPatternSet, InsertContainsAgainstStdSet) {
  const Schema schema = Schema::Uniform({3, 4, 2, 5});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  Rng rng(99);
  Arena arena;
  PackedPatternSet set(&arena);
  std::unordered_set<Pattern, PatternHash> reference;
  for (int i = 0; i < 2000; ++i) {
    const Pattern p = RandomPattern(schema, rng, 0.3);
    const bool inserted_ref = reference.insert(p).second;
    const bool inserted = set.Insert(codec->Encode(p));
    EXPECT_EQ(inserted, inserted_ref);
    EXPECT_EQ(set.size(), reference.size());
  }
  for (const Pattern& p : reference) {
    EXPECT_TRUE(set.Contains(codec->Encode(p)));
  }
  // The fully deterministic all-zeros pattern packs to all-zero value
  // words; the set has no in-band empty sentinel, so it must behave like
  // any other key.
  const Pattern zeros(std::vector<Value>(4, Value{0}));
  const PackedPattern packed_zeros = codec->Encode(zeros);
  EXPECT_EQ(set.Contains(packed_zeros), reference.contains(zeros));
  set.Insert(packed_zeros);
  EXPECT_TRUE(set.Contains(packed_zeros));
}

TEST(PackedPatternMap, FindOrInsertAccumulates) {
  const Schema schema = Schema::Uniform({4, 4, 4});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  Arena arena;
  PackedPatternMap<std::uint64_t> map(&arena);
  Rng rng(7);
  std::vector<Pattern> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(RandomPattern(schema, rng, 0.5));
  for (int round = 0; round < 3; ++round) {
    for (const Pattern& p : keys) {
      ++map.FindOrInsert(codec->Encode(p), std::uint64_t{0});
    }
  }
  std::unordered_set<Pattern, PatternHash> distinct(keys.begin(), keys.end());
  EXPECT_EQ(map.size(), distinct.size());
  std::size_t visited = 0;
  std::uint64_t total = 0;
  map.ForEach([&](const PackedPattern& k, const std::uint64_t& v) {
    ++visited;
    total += v;
    EXPECT_TRUE(distinct.contains(codec->Decode(k)));
  });
  EXPECT_EQ(visited, distinct.size());
  EXPECT_EQ(total, std::uint64_t{3} * keys.size());
}

}  // namespace
}  // namespace coverage
