#include <algorithm>
#include <cassert>
#include <vector>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "mups/mups.h"
#include "mups/packed_index.h"
#include "pattern/packed_set.h"

namespace coverage {

namespace {

/// Covered/uncovered answers with a memo over packed keys. The climb phase
/// re-examines parents that later dives may touch again, so the memo keeps
/// the query count near the number of distinct nodes actually inspected.
/// Its storage comes from the search's arena, so a dive session costs zero
/// per-node allocations.
class CachingCoverage {
 public:
  CachingCoverage(const CoverageOracle& oracle, const PatternCodec& codec,
                  std::uint64_t tau, Arena* arena)
      : oracle_(oracle), codec_(codec), tau_(tau), cache_(arena) {}

  bool Covered(const PackedPattern& p) {
    if (const bool* hit = cache_.Find(p)) return *hit;
    const bool covered = oracle_.CoverageAtLeast(p, codec_, tau_, ctx_);
    cache_.FindOrInsert(p, covered);
    return covered;
  }

  std::uint64_t num_queries() const { return ctx_.num_queries(); }

 private:
  const CoverageOracle& oracle_;
  const PatternCodec& codec_;
  const std::uint64_t tau_;
  QueryContext ctx_;
  PackedPatternMap<bool> cache_;
};

using DominanceMode = MupSearchOptions::DominanceMode;

/// Discovered-MUP set answering the pruning queries with the strategy
/// selected by MupSearchOptions::dominance_mode: the Appendix-B index, a
/// linear scan, or no pruning at all (the ablation study). Membership is
/// exact in every mode (needed for termination).
class DominanceChecker {
 public:
  DominanceChecker(const Schema& schema, const PatternCodec& codec,
                   DominanceMode mode)
      : mode_(mode), index_(schema, codec) {}

  void Add(const PackedPattern& mup) { index_.Add(mup); }
  bool Contains(const PackedPattern& p) const { return index_.Contains(p); }

  bool IsDominated(const PackedPattern& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.IsDominated(p);
      case DominanceMode::kLinearScan:
        for (const PackedPattern& m : index_.mups()) {
          if (m.Dominates(p)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

  bool DominatesSome(const PackedPattern& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.DominatesSome(p);
      case DominanceMode::kLinearScan:
        for (const PackedPattern& m : index_.mups()) {
          if (p.Dominates(m)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

  const std::vector<PackedPattern>& mups() const { return index_.mups(); }

 private:
  DominanceMode mode_;
  PackedMupIndex index_;
};

/// Climbs from an uncovered node through uncovered parents until every
/// parent is covered; that node is a MUP. The climb can only move up, so it
/// terminates at the root at the latest. Parents are tried in ascending
/// attribute order (same as Pattern::Parents()), which fixes the climb
/// endpoint and with it the query sequence.
PackedPattern ClimbToMup(const PackedPattern& start, const PatternCodec& codec,
                         CachingCoverage& cov) {
  PackedPattern current = start;
  const int d = codec.num_attributes();
  for (;;) {
    bool moved = false;
    for (int i = 0; i < d; ++i) {
      if (!codec.is_deterministic(current, i)) continue;
      const PackedPattern parent = codec.WithCell(current, i, kWildcard);
      if (!cov.Covered(parent)) {
        current = parent;
        moved = true;
        break;
      }
    }
    if (!moved) return current;
  }
}

/// Appends p's Rule-1 children to `out`; returns how many were generated.
std::size_t PushRule1Children(const PackedPattern& p, const PatternCodec& codec,
                              const Schema& schema,
                              ArenaVector<PackedPattern>& out) {
  std::size_t generated = 0;
  const int d = codec.num_attributes();
  const int start = codec.RightmostDeterministic(p) + 1;
  for (int a = start; a < d; ++a) {
    const Value c = static_cast<Value>(schema.cardinality(a));
    for (Value v = 0; v < c; ++v) {
      out.push_back(codec.WithCell(p, a, v));
      ++generated;
    }
  }
  return generated;
}

}  // namespace

std::vector<PackedPattern> FindMupsDeepDiverPacked(
    const CoverageOracle& oracle, const Schema& schema,
    const PatternCodec& codec, const MupSearchOptions& options,
    MupSearchStats* stats) {
  Stopwatch timer;
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  Arena arena;
  CachingCoverage cov(oracle, codec, options.tau, &arena);
  DominanceChecker index(schema, codec, options.dominance_mode);
  ArenaVector<PackedPattern> stack(&arena);
  stack.push_back(codec.Root());
  std::uint64_t nodes_generated = 1;
  std::uint64_t nodes_pruned = 0;

  while (!stack.empty()) {
    const PackedPattern p = stack.back();
    stack.pop_back();

    if (index.Contains(p) || index.IsDominated(p)) {
      ++nodes_pruned;
      continue;
    }

    bool covered;
    if (index.DominatesSome(p)) {
      covered = true;
    } else {
      covered = cov.Covered(p);
    }

    if (covered) {
      if (p.level() < max_level) {
        nodes_generated += PushRule1Children(p, codec, schema, stack);
      }
      continue;
    }

    const PackedPattern mup = ClimbToMup(p, codec, cov);
    if (!index.Contains(mup)) index.Add(mup);
  }

  std::vector<PackedPattern> mups = index.mups();
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    stats->coverage_queries = cov.num_queries();
    stats->nodes_generated = nodes_generated;
    stats->nodes_pruned = nodes_pruned;
    stats->num_mups = mups.size();
    stats->seconds = timer.ElapsedSeconds();
  }
  return mups;
}

std::vector<Pattern> FindMupsDeepDiver(const CoverageOracle& oracle,
                                       const Schema& schema,
                                       const MupSearchOptions& options,
                                       MupSearchStats* stats) {
  auto codec = PatternCodec::Build(schema);
  assert(codec.ok() && "schema exceeds the packed pattern limit");
  if (!codec.ok()) return {};
  return codec->DecodeAll(
      FindMupsDeepDiverPacked(oracle, schema, *codec, options, stats));
}

}  // namespace coverage
