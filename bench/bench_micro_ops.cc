// Micro-benchmarks (google-benchmark) of the kernels behind every search:
// bit-vector AND/dot, inverted-index coverage queries, MUP dominance checks,
// Rule-1/Rule-2 candidate generation, and the greedy hit-count descent.
// These quantify the constants the macro benches (one per paper figure)
// build on.

#include <benchmark/benchmark.h>

#include "coverage_lib.h"

namespace coverage {
namespace {

BitVector MakeRandomBits(std::size_t n, double density, std::uint64_t seed) {
  Rng rng(seed);
  BitVector bv(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextBool(density)) bv.Set(i);
  }
  return bv;
}

void BM_BitVectorAnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BitVector a = MakeRandomBits(n, 0.3, 1);
  const BitVector b = MakeRandomBits(n, 0.3, 2);
  for (auto _ : state) {
    BitVector c = a;
    c.AndWith(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorAnd)->Arg(1024)->Arg(32768)->Arg(262144);

void BM_BitVectorDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitVector a = MakeRandomBits(n, 0.2, 3);
  std::vector<std::uint64_t> counts(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(counts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorDot)->Arg(1024)->Arg(32768)->Arg(262144);

struct AirbnbFixture {
  Dataset data;
  AggregatedData agg;
  BitmapCoverage oracle;
  explicit AirbnbFixture(std::size_t n, int d)
      : data(datagen::MakeAirbnb(n, d)), agg(data), oracle(agg) {}
};

void BM_AndChainDotFused(benchmark::State& state) {
  // The fused coverage kernel vs the materialise-then-dot composition below:
  // the fused form must never lose, or threshold queries regressed.
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitVector a = MakeRandomBits(n, 0.3, 1);
  const BitVector b = MakeRandomBits(n, 0.3, 2);
  const BitVector c = MakeRandomBits(n, 0.3, 4);
  const BitVector* ops[3] = {&a, &b, &c};
  std::vector<std::uint64_t> counts(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitVector::AndChainDot(ops, 3, counts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AndChainDotFused)->Arg(1024)->Arg(32768)->Arg(262144);

void BM_AndChainDotMaterialised(benchmark::State& state) {
  // The seed's composition: copy, AND chain, then dot.
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitVector a = MakeRandomBits(n, 0.3, 1);
  const BitVector b = MakeRandomBits(n, 0.3, 2);
  const BitVector c = MakeRandomBits(n, 0.3, 4);
  std::vector<std::uint64_t> counts(n, 3);
  for (auto _ : state) {
    BitVector acc = a;
    acc.AndWith(b);
    acc.AndWith(c);
    benchmark::DoNotOptimize(acc.Dot(counts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AndChainDotMaterialised)->Arg(1024)->Arg(32768)->Arg(262144);

void BM_CoverageQuery(benchmark::State& state) {
  static const AirbnbFixture fixture(100000, 15);
  Rng rng(11);
  std::vector<Pattern> probes;
  for (int i = 0; i < 256; ++i) {
    std::vector<Value> cells(15, kWildcard);
    for (int a = 0; a < 15; ++a) {
      if (rng.NextBool(0.4)) {
        cells[static_cast<std::size_t>(a)] =
            static_cast<Value>(rng.NextUint64(2));
      }
    }
    probes.emplace_back(std::move(cells));
  }
  QueryContext ctx;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.oracle.Coverage(probes[i++ & 255], ctx));
  }
}
BENCHMARK(BM_CoverageQuery);

void BM_CoverageAtLeastQuery(benchmark::State& state) {
  // The cov(P) >= τ oracle call PATTERN-BREAKER and DEEPDIVER issue millions
  // of times, through an explicit reused QueryContext.
  static const AirbnbFixture fixture(100000, 15);
  Rng rng(19);
  std::vector<Pattern> probes;
  for (int i = 0; i < 256; ++i) {
    std::vector<Value> cells(15, kWildcard);
    for (int a = 0; a < 15; ++a) {
      if (rng.NextBool(0.4)) {
        cells[static_cast<std::size_t>(a)] =
            static_cast<Value>(rng.NextUint64(2));
      }
    }
    probes.emplace_back(std::move(cells));
  }
  QueryContext ctx;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.oracle.CoverageAtLeast(probes[i++ & 255], 100, ctx));
  }
}
BENCHMARK(BM_CoverageAtLeastQuery);

void BM_ScanCoverageQuery(benchmark::State& state) {
  static const Dataset data = datagen::MakeAirbnb(100000, 15);
  static const ScanCoverage oracle(data);
  const Pattern probe = *Pattern::Parse("1XX0XXXXX1XXXXX", data.schema());
  QueryContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Coverage(probe, ctx));
  }
}
BENCHMARK(BM_ScanCoverageQuery);

void BM_MupDominanceCheck(benchmark::State& state) {
  const Schema schema = Schema::Binary(15);
  const PatternCodec codec = *PatternCodec::Build(schema);
  PackedMupIndex index(schema, codec);
  Rng rng(13);
  const auto num_mups = static_cast<std::size_t>(state.range(0));
  for (std::size_t m = 0; m < num_mups; ++m) {
    std::vector<Value> cells(15, kWildcard);
    // Random level-5 patterns; collisions are skipped.
    for (int k = 0; k < 5; ++k) {
      cells[rng.NextUint64(15)] = static_cast<Value>(rng.NextUint64(2));
    }
    const PackedPattern p = codec.Encode(Pattern(std::move(cells)));
    if (!index.Contains(p)) index.Add(p);
  }
  const PackedPattern probe =
      codec.Encode(*Pattern::Parse("1X0X1XXXXXXXXXX", schema));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.IsDominated(probe));
    benchmark::DoNotOptimize(index.DominatesSome(probe));
  }
}
BENCHMARK(BM_MupDominanceCheck)->Arg(100)->Arg(10000)->Arg(100000);

// --- Packed pattern key vs the legacy vector<int> representation: the
// hash / equality / dominance constants every frontier set and dominance
// index pays once per node visit. The packed form must stay >= 2x ahead on
// hash+equality or the frontier rewrite lost its reason to exist.

std::vector<Pattern> RandomPatterns(const Schema& schema, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pattern> out;
  for (int i = 0; i < 256; ++i) {
    std::vector<Value> cells(
        static_cast<std::size_t>(schema.num_attributes()), kWildcard);
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (rng.NextBool(0.4)) {
        cells[static_cast<std::size_t>(a)] = static_cast<Value>(
            rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
      }
    }
    out.emplace_back(std::move(cells));
  }
  return out;
}

void BM_PatternHashLegacy(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const std::vector<Pattern> probes = RandomPatterns(schema, 17);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probes[i++ & 255].Hash());
  }
}
BENCHMARK(BM_PatternHashLegacy)->Arg(15)->Arg(60);

void BM_PatternHashPacked(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const PatternCodec codec = *PatternCodec::Build(schema);
  std::vector<PackedPattern> probes;
  for (const Pattern& p : RandomPatterns(schema, 17)) {
    probes.push_back(codec.Encode(p));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probes[i++ & 255].Hash());
  }
}
BENCHMARK(BM_PatternHashPacked)->Arg(15)->Arg(60);

void BM_PatternEqualityLegacy(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const std::vector<Pattern> probes = RandomPatterns(schema, 23);
  // Half the compares are against self so the equal (full-scan) path is
  // exercised, not just an early first-cell mismatch.
  std::size_t i = 0;
  for (auto _ : state) {
    const Pattern& a = probes[i & 255];
    const Pattern& b = probes[(i & 1) ? (i & 255) : ((i + 1) & 255)];
    benchmark::DoNotOptimize(a == b);
    ++i;
  }
}
BENCHMARK(BM_PatternEqualityLegacy)->Arg(15)->Arg(60);

void BM_PatternEqualityPacked(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const PatternCodec codec = *PatternCodec::Build(schema);
  std::vector<PackedPattern> probes;
  for (const Pattern& p : RandomPatterns(schema, 23)) {
    probes.push_back(codec.Encode(p));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const PackedPattern& a = probes[i & 255];
    const PackedPattern& b = probes[(i & 1) ? (i & 255) : ((i + 1) & 255)];
    benchmark::DoNotOptimize(a == b);
    ++i;
  }
}
BENCHMARK(BM_PatternEqualityPacked)->Arg(15)->Arg(60);

void BM_PatternDominanceLegacy(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const std::vector<Pattern> probes = RandomPatterns(schema, 31);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probes[i & 255].DominatesOrEquals(probes[(i + 7) & 255]));
    ++i;
  }
}
BENCHMARK(BM_PatternDominanceLegacy)->Arg(15)->Arg(60);

void BM_PatternDominancePacked(benchmark::State& state) {
  const Schema schema = Schema::Binary(static_cast<int>(state.range(0)));
  const PatternCodec codec = *PatternCodec::Build(schema);
  std::vector<PackedPattern> probes;
  for (const Pattern& p : RandomPatterns(schema, 31)) {
    probes.push_back(codec.Encode(p));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probes[i & 255].DominatesOrEquals(probes[(i + 7) & 255]));
    ++i;
  }
}
BENCHMARK(BM_PatternDominancePacked)->Arg(15)->Arg(60);

void BM_Rule1Children(benchmark::State& state) {
  const Schema schema = Schema::Binary(20);
  const Pattern p = *Pattern::Parse("1X0XXXXXXXXXXXXXXXXX", schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rule1Children(p, schema));
  }
}
BENCHMARK(BM_Rule1Children);

void BM_Rule2Parents(benchmark::State& state) {
  const Schema schema = Schema::Binary(20);
  const Pattern p = *Pattern::Parse("XX000000001111100000", schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rule2Parents(p));
  }
}
BENCHMARK(BM_Rule2Parents);

void BM_GreedyHittingSet(benchmark::State& state) {
  const Schema schema = Schema::Binary(13);
  Rng rng(7);
  std::vector<Pattern> patterns;
  const auto m = static_cast<std::size_t>(state.range(0));
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<Value> cells(13, kWildcard);
    for (int k = 0; k < 4; ++k) {
      cells[rng.NextUint64(13)] = static_cast<Value>(rng.NextUint64(2));
    }
    patterns.emplace_back(std::move(cells));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyHittingSet(patterns, schema));
  }
}
BENCHMARK(BM_GreedyHittingSet)->Arg(64)->Arg(512)->Arg(4096);

void BM_DeepDiverEndToEnd(benchmark::State& state) {
  static const AirbnbFixture fixture(50000, 13);
  const MupSearchOptions options{.tau = 50};
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindMupsDeepDiver(fixture.oracle, options));
  }
}
BENCHMARK(BM_DeepDiverEndToEnd)->Unit(benchmark::kMillisecond);

void BM_AggregateBuild(benchmark::State& state) {
  static const Dataset data = datagen::MakeAirbnb(100000, 15);
  for (auto _ : state) {
    AggregatedData agg(data);
    benchmark::DoNotOptimize(agg.num_combinations());
  }
}
BENCHMARK(BM_AggregateBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coverage

BENCHMARK_MAIN();
