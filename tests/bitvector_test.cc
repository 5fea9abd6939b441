#include "common/bitvector.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace coverage {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector bv;
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_TRUE(bv.empty());
  EXPECT_EQ(bv.Count(), 0u);
  EXPECT_FALSE(bv.Any());
}

TEST(BitVector, ConstructAllZero) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.Count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVector, ConstructAllOne) {
  BitVector bv(100, true);
  EXPECT_EQ(bv.Count(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_TRUE(bv.Get(i));
}

TEST(BitVector, AllOnePaddingIsClean) {
  // 70 bits spans two words; the upper 58 bits of word 1 must stay clear.
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
  EXPECT_EQ(bv.words()[1], (std::uint64_t{1} << 6) - 1);
}

TEST(BitVector, SetAndGet) {
  BitVector bv(130);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Set(64, false);
  EXPECT_FALSE(bv.Get(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVector, FillTrueThenFalse) {
  BitVector bv(77);
  bv.Fill(true);
  EXPECT_EQ(bv.Count(), 77u);
  bv.Fill(false);
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVector, PushBackGrows) {
  BitVector bv;
  for (int i = 0; i < 200; ++i) bv.PushBack(i % 3 == 0);
  EXPECT_EQ(bv.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(bv.Get(static_cast<std::size_t>(i)),
                                          i % 3 == 0);
}

TEST(BitVector, ResizeGrowWithOnes) {
  BitVector bv(10);
  bv.Set(3);
  bv.Resize(100, true);
  EXPECT_TRUE(bv.Get(3));
  EXPECT_FALSE(bv.Get(4));
  for (std::size_t i = 10; i < 100; ++i) EXPECT_TRUE(bv.Get(i));
  EXPECT_EQ(bv.Count(), 91u);
}

TEST(BitVector, ResizeShrinkClearsPadding) {
  BitVector bv(100, true);
  bv.Resize(65);
  EXPECT_EQ(bv.size(), 65u);
  EXPECT_EQ(bv.Count(), 65u);
  bv.Resize(128, false);
  EXPECT_EQ(bv.Count(), 65u);
}

TEST(BitVector, AndWith) {
  BitVector a(130), b(130);
  a.Set(5);
  a.Set(64);
  a.Set(100);
  b.Set(64);
  b.Set(100);
  b.Set(101);
  a.AndWith(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_TRUE(a.Get(64));
  EXPECT_TRUE(a.Get(100));
  EXPECT_FALSE(a.Get(5));
}

TEST(BitVector, OrWith) {
  BitVector a(70), b(70);
  a.Set(1);
  b.Set(69);
  a.OrWith(b);
  EXPECT_TRUE(a.Get(1));
  EXPECT_TRUE(a.Get(69));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(BitVector, AndNotWith) {
  BitVector a(70, true), b(70);
  b.Set(0);
  b.Set(69);
  a.AndNotWith(b);
  EXPECT_FALSE(a.Get(0));
  EXPECT_FALSE(a.Get(69));
  EXPECT_EQ(a.Count(), 68u);
}

TEST(BitVector, IntersectsWith) {
  BitVector a(200), b(200);
  a.Set(150);
  b.Set(151);
  EXPECT_FALSE(a.IntersectsWith(b));
  b.Set(150);
  EXPECT_TRUE(a.IntersectsWith(b));
}

TEST(BitVector, AndCount) {
  BitVector a(128), b(128);
  for (std::size_t i = 0; i < 128; i += 2) a.Set(i);
  for (std::size_t i = 0; i < 128; i += 3) b.Set(i);
  // Multiples of 6 below 128: 0, 6, ..., 126 -> 22 values.
  EXPECT_EQ(a.AndCount(b), 22u);
}

TEST(BitVector, AndCount3) {
  BitVector a(64, true), b(64), c(64);
  for (std::size_t i = 0; i < 64; i += 2) b.Set(i);
  for (std::size_t i = 0; i < 64; i += 4) c.Set(i);
  EXPECT_EQ(BitVector::AndCount3(a, b, c), 16u);
}

TEST(BitVector, DotProduct) {
  BitVector bv(5);
  bv.Set(1);
  bv.Set(3);
  const std::vector<std::uint64_t> counts = {10, 20, 30, 40, 50};
  EXPECT_EQ(bv.Dot(counts), 60u);
}

TEST(BitVector, DotProductEmpty) {
  BitVector bv(0);
  EXPECT_EQ(bv.Dot({}), 0u);
}

TEST(BitVector, DotProductAllSet) {
  BitVector bv(70, true);
  std::vector<std::uint64_t> counts(70, 2);
  EXPECT_EQ(bv.Dot(counts), 140u);
}

TEST(BitVector, FindFirstAndNext) {
  BitVector bv(200);
  EXPECT_EQ(bv.FindFirst(), 200u);
  bv.Set(3);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.FindFirst(), 3u);
  EXPECT_EQ(bv.FindNext(3), 64u);
  EXPECT_EQ(bv.FindNext(64), 199u);
  EXPECT_EQ(bv.FindNext(199), 200u);
  EXPECT_EQ(bv.FindNext(0), 3u);
}

TEST(BitVector, ForEachSetBit) {
  BitVector bv(150);
  const std::vector<std::size_t> expected = {0, 63, 64, 65, 149};
  for (std::size_t i : expected) bv.Set(i);
  std::vector<std::size_t> seen;
  bv.ForEachSetBit([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector a(10), b(11);
  EXPECT_NE(a, b);
  BitVector c(10);
  EXPECT_EQ(a, c);
  c.Set(9);
  EXPECT_NE(a, c);
}

TEST(BitVector, ToStringLsbFirst) {
  BitVector bv(4);
  bv.Set(1);
  EXPECT_EQ(bv.ToString(), "0100");
}

TEST(BitVector, RandomizedAgainstReference) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    std::vector<bool> ra(n), rb(n);
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      ra[i] = rng() % 2;
      rb[i] = rng() % 2;
      a.Set(i, ra[i]);
      b.Set(i, rb[i]);
    }
    std::size_t expected_and = 0, expected_count = 0;
    bool expected_intersects = false;
    for (std::size_t i = 0; i < n; ++i) {
      expected_and += ra[i] && rb[i];
      expected_count += ra[i];
      expected_intersects = expected_intersects || (ra[i] && rb[i]);
    }
    EXPECT_EQ(a.Count(), expected_count);
    EXPECT_EQ(a.AndCount(b), expected_and);
    EXPECT_EQ(a.IntersectsWith(b), expected_intersects);
    BitVector c = a;
    c.AndWith(b);
    EXPECT_EQ(c.Count(), expected_and);
  }
}

// --- fused AND-chain kernels ------------------------------------------------

namespace {

/// Naive composition the fused kernels must agree with: materialise the AND
/// chain, then dot.
std::uint64_t NaiveAndChainDot(const std::vector<BitVector>& ops,
                               const std::vector<std::uint64_t>& counts) {
  BitVector acc = ops[0];
  for (std::size_t i = 1; i < ops.size(); ++i) acc.AndWith(ops[i]);
  return acc.Dot(counts);
}

std::vector<const BitVector*> Pointers(const std::vector<BitVector>& ops) {
  std::vector<const BitVector*> ptrs;
  for (const BitVector& op : ops) ptrs.push_back(&op);
  return ptrs;
}

std::vector<BitVector> RandomOperands(int n, std::size_t bits, double density,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  std::vector<BitVector> ops;
  for (int k = 0; k < n; ++k) {
    BitVector bv(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (coin(rng)) bv.Set(i);
    }
    ops.push_back(std::move(bv));
  }
  return ops;
}

std::vector<std::uint64_t> RandomCounts(std::size_t bits, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> dist(1, 1000);
  std::vector<std::uint64_t> counts(bits);
  for (auto& c : counts) c = dist(rng);
  return counts;
}

}  // namespace

TEST(AndChainDot, MatchesNaiveComposition) {
  // Sweep operand counts and sizes across the unroll boundaries (sizes that
  // are 0/1/2/3 mod 4 words, with and without a padded tail word).
  for (const std::size_t bits : {1u, 63u, 64u, 100u, 256u, 300u, 1000u}) {
    for (const int n : {1, 2, 3, 5, 8}) {
      const auto ops = RandomOperands(n, bits, 0.3, bits * 31 + n);
      const auto counts = RandomCounts(bits, bits * 7 + n);
      const auto ptrs = Pointers(ops);
      EXPECT_EQ(BitVector::AndChainDot(ptrs.data(), n, counts),
                NaiveAndChainDot(ops, counts))
          << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(AndChainDot, EmptyIntersectionIsZero) {
  std::vector<BitVector> ops = {BitVector(200), BitVector(200, true)};
  const auto counts = RandomCounts(200, 1);
  const auto ptrs = Pointers(ops);
  EXPECT_EQ(BitVector::AndChainDot(ptrs.data(), 2, counts), 0u);
}

TEST(AndChainAtLeast, AgreesWithDotAcrossTauSweep) {
  const std::size_t bits = 300;
  for (const int n : {1, 2, 4}) {
    const auto ops = RandomOperands(n, bits, 0.4, 17 + n);
    const auto counts = RandomCounts(bits, 29 + n);
    const auto ptrs = Pointers(ops);
    const std::uint64_t exact = NaiveAndChainDot(ops, counts);
    for (const std::uint64_t tau :
         {std::uint64_t{0}, std::uint64_t{1}, exact > 0 ? exact - 1 : 0,
          exact, exact + 1, exact * 2 + 5}) {
      EXPECT_EQ(BitVector::AndChainAtLeast(ptrs.data(), n, counts, tau),
                exact >= tau)
          << "n=" << n << " tau=" << tau << " exact=" << exact;
    }
  }
}

TEST(AndChainAtLeast, TauZeroIsAlwaysTrue) {
  const BitVector empty(128);
  const BitVector* op = &empty;
  const std::vector<std::uint64_t> counts(128, 5);
  EXPECT_TRUE(BitVector::AndChainAtLeast(&op, 1, counts, 0));
  EXPECT_FALSE(BitVector::AndChainAtLeast(&op, 1, counts, 1));
}

TEST(BitVector, AppendWordsToEmpty) {
  BitVector bv;
  const std::vector<std::uint64_t> words = {0b1011, 0b1};
  bv.AppendWords(words.data(), 65);
  EXPECT_EQ(bv.size(), 65u);
  EXPECT_EQ(bv.Count(), 4u);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_FALSE(bv.Get(2));
  EXPECT_TRUE(bv.Get(64));
}

TEST(BitVector, AppendWordsWordAligned) {
  BitVector bv(64);
  bv.Set(63, true);
  const std::uint64_t word = ~std::uint64_t{0};
  bv.AppendWords(&word, 10);
  EXPECT_EQ(bv.size(), 74u);
  EXPECT_EQ(bv.Count(), 11u);  // bit 63 plus ten appended ones
  for (std::size_t i = 64; i < 74; ++i) EXPECT_TRUE(bv.Get(i));
  // Input bits past num_bits must not leak into the padding.
  EXPECT_EQ(bv.words()[1], (std::uint64_t{1} << 10) - 1);
}

TEST(BitVector, AppendWordsCrossesWordBoundary) {
  // Start mid-word so every appended word is shift-merged across a boundary.
  BitVector bv;
  for (int i = 0; i < 40; ++i) bv.PushBack(i % 3 == 0);
  BitVector expected = bv;
  const std::vector<std::uint64_t> words = {0xdeadbeefcafef00dULL,
                                            0x0123456789abcdefULL};
  bv.AppendWords(words.data(), 100);
  for (std::size_t i = 0; i < 100; ++i) {
    expected.PushBack((words[i / 64] >> (i % 64)) & 1);
  }
  EXPECT_EQ(bv, expected);
  EXPECT_EQ(bv.size(), 140u);
}

TEST(BitVector, AppendWordsIgnoresBitsPastCount) {
  BitVector bv;
  for (int i = 0; i < 60; ++i) bv.PushBack(false);
  // Only the low 7 bits of the input are live; the all-ones rest must be
  // dropped whether it lands in the merged word or the trimmed overflow.
  const std::uint64_t word = ~std::uint64_t{0};
  bv.AppendWords(&word, 7);
  EXPECT_EQ(bv.size(), 67u);
  EXPECT_EQ(bv.Count(), 7u);
  EXPECT_EQ(bv.num_words(), 2u);
}

TEST(BitVector, AppendWordsZeroBitsIsNoOp) {
  BitVector bv(10, true);
  bv.AppendWords(nullptr, 0);
  EXPECT_EQ(bv.size(), 10u);
  EXPECT_EQ(bv.Count(), 10u);
}

TEST(BitVector, ReservePreservesContentAndSize) {
  BitVector bv(70, true);
  bv.Reserve(4096);
  EXPECT_EQ(bv.size(), 70u);
  EXPECT_EQ(bv.Count(), 70u);
  bv.PushBack(true);
  EXPECT_EQ(bv.size(), 71u);
  EXPECT_EQ(bv.Count(), 71u);
}

TEST(BitVector, AppendWordsRandomizedAgainstPushBack) {
  std::mt19937_64 rng(2024);
  BitVector appended;
  BitVector reference;
  for (int round = 0; round < 50; ++round) {
    const std::size_t num_bits = rng() % 150;
    std::vector<std::uint64_t> words((num_bits + 63) / 64 + 1);
    for (auto& w : words) w = rng();
    appended.AppendWords(words.data(), num_bits);
    for (std::size_t i = 0; i < num_bits; ++i) {
      reference.PushBack((words[i / 64] >> (i % 64)) & 1);
    }
    ASSERT_EQ(appended, reference) << "round " << round;
  }
}

TEST(AndChainDot, PaddingBitsDoNotLeak) {
  // 70 bits leaves 58 dead bits in the last word; an all-ones operand pair
  // must sum exactly the 70 live counts.
  std::vector<BitVector> ops = {BitVector(70, true), BitVector(70, true)};
  const std::vector<std::uint64_t> counts(70, 3);
  const auto ptrs = Pointers(ops);
  EXPECT_EQ(BitVector::AndChainDot(ptrs.data(), 2, counts), 210u);
}

TEST(AndCountWords, WritesIntersectionAndReturnsItsCount) {
  std::mt19937_64 rng(77);
  for (std::size_t n : {0u, 1u, 3u, 17u}) {
    std::vector<BitVector::Word> a(n), b(n), out(n, ~BitVector::Word{0});
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng();
      b[i] = rng();
      expected += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
    }
    EXPECT_EQ(AndCountWords(a.data(), b.data(), out.data(), n), expected);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] & b[i]);
    // In place: the DFS narrows a scratch row by the pick's rows.
    EXPECT_EQ(AndCountWords(a.data(), b.data(), a.data(), n), expected);
    EXPECT_EQ(a, out);
  }
}

}  // namespace
}  // namespace coverage
