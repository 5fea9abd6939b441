#include "mups/mup_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "mups/packed_index.h"
#include "pattern/packed_pattern.h"

namespace coverage {
namespace {

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(MupDominanceIndex, EmptyIndexDominatesNothing) {
  const Schema schema = Schema::Binary(3);
  MupDominanceIndex index(schema);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.IsDominated(P("111", schema)));
  EXPECT_FALSE(index.DominatesSome(Pattern::Root(3)));
  EXPECT_FALSE(index.Contains(Pattern::Root(3)));
}

TEST(MupDominanceIndex, MembershipIsExact) {
  const Schema schema = Schema::Binary(3);
  MupDominanceIndex index(schema);
  index.Add(P("1XX", schema));
  EXPECT_TRUE(index.Contains(P("1XX", schema)));
  EXPECT_FALSE(index.Contains(P("0XX", schema)));
  EXPECT_EQ(index.size(), 1u);
}

TEST(MupDominanceIndex, DescendantIsDominated) {
  const Schema schema = Schema::Binary(4);
  MupDominanceIndex index(schema);
  index.Add(P("1XXX", schema));
  EXPECT_TRUE(index.IsDominated(P("10X1", schema)));
  EXPECT_TRUE(index.IsDominated(P("1111", schema)));
  EXPECT_TRUE(index.IsDominated(P("1XX0", schema)));
}

TEST(MupDominanceIndex, NonDescendantNotDominated) {
  const Schema schema = Schema::Binary(4);
  MupDominanceIndex index(schema);
  index.Add(P("1XXX", schema));
  EXPECT_FALSE(index.IsDominated(P("0XXX", schema)));
  EXPECT_FALSE(index.IsDominated(P("X1XX", schema)));  // incomparable
  EXPECT_FALSE(index.IsDominated(Pattern::Root(4)));   // ancestor
  EXPECT_FALSE(index.IsDominated(P("1XXX", schema)));  // equality is strict
}

TEST(MupDominanceIndex, AncestorDominatesSome) {
  const Schema schema = Schema::Binary(4);
  MupDominanceIndex index(schema);
  index.Add(P("10X1", schema));
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(4)));
  EXPECT_TRUE(index.DominatesSome(P("1XXX", schema)));
  EXPECT_TRUE(index.DominatesSome(P("10XX", schema)));
  EXPECT_FALSE(index.DominatesSome(P("11XX", schema)));
  EXPECT_FALSE(index.DominatesSome(P("10X1", schema)));  // strict
  EXPECT_FALSE(index.DominatesSome(P("1011", schema)));  // descendant
}

TEST(MupDominanceIndex, MultipleMupsAnyMatchCounts) {
  const Schema schema = Schema::Binary(4);
  MupDominanceIndex index(schema);
  index.Add(P("1XXX", schema));
  index.Add(P("X0X0", schema));
  EXPECT_TRUE(index.IsDominated(P("1010", schema)));  // dominated by both
  EXPECT_TRUE(index.IsDominated(P("X0X0", schema).WithCell(0, 0)));  // 00X0
  EXPECT_TRUE(index.DominatesSome(P("XXX0", schema)));  // ancestor of X0X0
  EXPECT_FALSE(index.IsDominated(P("01X1", schema)));
}

TEST(MupDominanceIndex, MixedCardinalities) {
  const Schema schema = Schema::Uniform({3, 4, 2});
  MupDominanceIndex index(schema);
  index.Add(P("2XX", schema));
  index.Add(P("X31", schema));
  EXPECT_TRUE(index.IsDominated(P("23X", schema)));
  EXPECT_TRUE(index.IsDominated(P("231", schema)));
  EXPECT_FALSE(index.IsDominated(P("13X", schema)));
  EXPECT_TRUE(index.DominatesSome(P("X3X", schema)));
  EXPECT_TRUE(index.DominatesSome(P("XX1", schema)));
  EXPECT_FALSE(index.DominatesSome(P("X2X", schema)));
}

TEST(MupDominanceIndex, AgreesWithDirectDominanceChecks) {
  // Property: index answers equal brute-force checks over all patterns of a
  // small graph for an arbitrary antichain.
  const Schema schema = Schema::Uniform({2, 3, 2});
  MupDominanceIndex index(schema);
  const std::vector<Pattern> mups = {P("1XX", schema), P("X2X", schema),
                                     P("X01", schema)};
  for (const Pattern& m : mups) index.Add(m);

  for (Value a = -1; a < 2; ++a) {
    for (Value b = -1; b < 3; ++b) {
      for (Value c = -1; c < 2; ++c) {
        const Pattern p({a, b, c});
        bool dominated = false, dominates = false;
        for (const Pattern& m : mups) {
          dominated = dominated || m.Dominates(p);
          dominates = dominates || p.Dominates(m);
        }
        EXPECT_EQ(index.IsDominated(p), dominated) << p.ToString();
        EXPECT_EQ(index.DominatesSome(p), dominates) << p.ToString();
      }
    }
  }
}

TEST(MupDominanceIndex, GrowsPastWordBoundary) {
  // More than 64 MUPs exercises multi-word bit vectors.
  const Schema schema = Schema::Uniform({100, 2});
  MupDominanceIndex index(schema);
  for (Value v = 0; v < 100; ++v) {
    index.Add(Pattern({v, kWildcard}));
  }
  EXPECT_EQ(index.size(), 100u);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(index.IsDominated(Pattern({v, Value{1}})));
  }
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(2)));
  EXPECT_FALSE(index.IsDominated(Pattern({kWildcard, Value{1}})));
}

TEST(MupDominanceIndex, AddBatchMatchesSequentialAdds) {
  const Schema schema = Schema::Uniform({5, 3, 4});
  // An antichain mixing levels and wildcard positions.
  const std::vector<Pattern> batch = {
      Pattern({Value{0}, kWildcard, Value{1}}),
      Pattern({Value{1}, Value{2}, kWildcard}),
      Pattern({kWildcard, Value{0}, Value{3}}),
      Pattern({Value{4}, kWildcard, kWildcard}),
  };
  MupDominanceIndex batched(schema);
  batched.AddBatch(batch);
  MupDominanceIndex sequential(schema);
  for (const Pattern& m : batch) sequential.Add(m);

  ASSERT_EQ(batched.size(), sequential.size());
  EXPECT_EQ(batched.mups(), sequential.mups());
  // Every probe answer must agree over the full level-<=2 pattern space.
  for (Value a = -1; a < 5; ++a) {
    for (Value b = -1; b < 3; ++b) {
      for (Value c = -1; c < 4; ++c) {
        const Pattern p({a, b, c});
        EXPECT_EQ(batched.Contains(p), sequential.Contains(p));
        EXPECT_EQ(batched.IsDominated(p), sequential.IsDominated(p))
            << p.ToString();
        EXPECT_EQ(batched.DominatesSome(p), sequential.DominatesSome(p))
            << p.ToString();
      }
    }
  }
}

TEST(MupDominanceIndex, AddBatchAfterAddsCrossesWordBoundary) {
  // Seed 60 single Adds so the batch append starts mid-word, then grow past
  // the 64-bit boundary in one AddBatch.
  const Schema schema = Schema::Uniform({100, 2});
  MupDominanceIndex index(schema);
  std::vector<Pattern> batch;
  for (Value v = 0; v < 100; ++v) {
    if (v < 60) {
      index.Add(Pattern({v, kWildcard}));
    } else {
      batch.push_back(Pattern({v, kWildcard}));
    }
  }
  index.AddBatch(batch);
  EXPECT_EQ(index.size(), 100u);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(index.Contains(Pattern({v, kWildcard})));
    EXPECT_TRUE(index.IsDominated(Pattern({v, Value{1}}))) << v;
  }
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(2)));
  EXPECT_FALSE(index.IsDominated(Pattern({kWildcard, Value{1}})));
}

TEST(MupDominanceIndex, AddBatchEmptyIsNoOp) {
  const Schema schema = Schema::Binary(3);
  MupDominanceIndex index(schema);
  index.AddBatch({});
  EXPECT_EQ(index.size(), 0u);
  index.Add(Pattern({Value{1}, kWildcard, kWildcard}));
  index.AddBatch({});
  EXPECT_EQ(index.size(), 1u);
}

TEST(MupDominanceIndex, RemoveUnregistersAndCompacts) {
  const Schema schema = Schema::Uniform({2, 3, 2});
  MupDominanceIndex index(schema);
  index.Add(P("1XX", schema));
  index.Add(P("X2X", schema));
  index.Add(P("X01", schema));

  // Removing an unknown pattern is a rejected no-op.
  EXPECT_FALSE(index.Remove(P("0XX", schema)));
  EXPECT_EQ(index.size(), 3u);

  // Removing the middle entry swaps the last into its position; probes must
  // behave as if only the two survivors were ever added.
  EXPECT_TRUE(index.Remove(P("X2X", schema)));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.Contains(P("X2X", schema)));
  EXPECT_FALSE(index.Remove(P("X2X", schema)));
  EXPECT_FALSE(index.IsDominated(P("X21", schema)));  // only X2X dominated it
  EXPECT_TRUE(index.IsDominated(P("101", schema)));
  EXPECT_TRUE(index.DominatesSome(P("XX1", schema)));  // above X01
  EXPECT_FALSE(index.DominatesSome(P("X2X", schema)));

  // Removing down to empty and re-adding keeps the bit layout consistent.
  EXPECT_TRUE(index.Remove(P("1XX", schema)));
  EXPECT_TRUE(index.Remove(P("X01", schema)));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.IsDominated(P("101", schema)));
  index.Add(P("0XX", schema));
  EXPECT_TRUE(index.IsDominated(P("01X", schema)));
  EXPECT_FALSE(index.IsDominated(P("11X", schema)));
}

TEST(MupDominanceIndex, RandomAddRemoveAgreesWithDirectChecks) {
  // Property: after an arbitrary interleaving of Adds and Removes (crossing
  // the 64-bit word boundary), every probe equals the brute-force check
  // against the surviving set.
  const Schema schema = Schema::Uniform({40, 2, 2});
  MupDominanceIndex index(schema);
  std::vector<Pattern> live;
  Rng rng(77);
  for (int step = 0; step < 300; ++step) {
    const bool remove = !live.empty() && rng.NextUint64(3) == 0;
    if (remove) {
      const std::size_t pick = rng.NextUint64(live.size());
      ASSERT_TRUE(index.Remove(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Level-1 patterns on a wide attribute keep the set an antichain-ish
      // mix; skip duplicates to respect the Add contract.
      const Pattern p({static_cast<Value>(rng.NextUint64(40)),
                       static_cast<Value>(rng.NextInt(-1, 1)),
                       static_cast<Value>(rng.NextInt(-1, 1))});
      if (index.Contains(p)) continue;
      index.Add(p);
      live.push_back(p);
    }
  }
  ASSERT_EQ(index.size(), live.size());
  ASSERT_GT(live.size(), 64u);  // crossed a word boundary at some point

  Rng probe_rng(78);
  for (int trial = 0; trial < 500; ++trial) {
    const Pattern p({static_cast<Value>(probe_rng.NextInt(-1, 39)),
                     static_cast<Value>(probe_rng.NextInt(-1, 1)),
                     static_cast<Value>(probe_rng.NextInt(-1, 1))});
    bool dominated = false, dominates = false, member = false;
    for (const Pattern& m : live) {
      dominated = dominated || m.Dominates(p);
      dominates = dominates || p.Dominates(m);
      member = member || m == p;
    }
    EXPECT_EQ(index.Contains(p), member) << p.ToString();
    EXPECT_EQ(index.IsDominated(p), dominated) << p.ToString();
    EXPECT_EQ(index.DominatesSome(p), dominates) << p.ToString();
  }
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
  ASSERT_EQ(index.size(), live.size());
  ASSERT_GT(live.size(), 128u);  // spans at least three words

  std::vector<Pattern> probes = live;
  probes.push_back(Pattern({kWildcard, kWildcard, kWildcard, kWildcard}));
  Rng probe_rng(92);
  for (int trial = 0; trial < 1000; ++trial) {
    probes.push_back(random_pattern(probe_rng));
  }
  for (const Pattern& p : probes) {
    bool dominated = false, dominates = false, member = false;
    for (const Pattern& m : live) {
      dominated = dominated || m.Dominates(p);
      dominates = dominates || p.Dominates(m);
      member = member || m == p;
    }
    const PackedPattern packed = codec->Encode(p);
    EXPECT_EQ(index.Contains(packed), member) << p.ToString();
    EXPECT_EQ(index.IsDominated(packed), dominated) << p.ToString();
    EXPECT_EQ(index.DominatesSome(packed), dominates) << p.ToString();
  }
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
