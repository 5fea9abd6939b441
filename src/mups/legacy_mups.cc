#include "mups/legacy_mups.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mups/mup_index.h"
#include "mups/mups.h"
#include "pattern/pattern_ops.h"

namespace coverage {
namespace legacy {

// ---------------------------------------------------------------------------
// PATTERN-BREAKER (§III-C, Algorithm 1)

namespace {

using PatternSet = std::unordered_set<Pattern, PatternHash>;

/// Per-frontier-node outcome of the (parallelisable) evaluation step. The
/// decision for a node depends only on state frozen at the start of its BFS
/// level — the previous level's covered set and the MUPs discovered on
/// earlier levels — plus the (immutable) oracle, so frontier nodes can be
/// evaluated in any order or concurrently and merged back in queue order to
/// reproduce the serial output bit for bit.
enum class NodeOutcome : std::uint8_t { kSkipped, kMup, kCovered };

NodeOutcome EvaluateNode(const Pattern& p, const CoverageOracle& oracle,
                         std::uint64_t tau, const PatternSet& prev_covered,
                         const PatternSet& mup_set, QueryContext& ctx) {
  // Skip candidates with an unverified or uncovered parent; they cannot
  // be MUPs (either pruned region or dominated by one).
  for (const Pattern& parent : p.Parents()) {
    if (!prev_covered.contains(parent) || mup_set.contains(parent)) {
      return NodeOutcome::kSkipped;
    }
  }
  return oracle.CoverageAtLeast(p, tau, ctx) ? NodeOutcome::kCovered
                                             : NodeOutcome::kMup;
}

}  // namespace

std::vector<Pattern> FindMupsPatternBreaker(const CoverageOracle& oracle,
                                            const Schema& schema,
                                            const MupSearchOptions& options,
                                            MupSearchStats* stats) {
  Stopwatch timer;
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  const int num_workers = options.num_threads > 1 ? options.num_threads : 1;
  ThreadPool pool(num_workers);
  std::vector<QueryContext> contexts(
      static_cast<std::size_t>(pool.num_workers()));

  std::vector<Pattern> queue = {Pattern::Root(d)};
  std::vector<Pattern> mups;
  PatternSet mup_set;
  // Covered candidates of the previous level (see the header's
  // implementation note: tracking only covered candidates keeps the parent
  // check sound).
  PatternSet prev_covered;
  std::uint64_t nodes_generated = 1;
  std::vector<NodeOutcome> outcomes;

  for (int level = 0; level <= max_level && !queue.empty(); ++level) {
    // The level loop runs on the calling thread (ParallelFor blocks), so
    // recording into the caller's trace is safe.
    obs::ScopedStage level_stage(options.trace,
                                 "search_level_" + std::to_string(level));
    // Evaluate the frontier: reads only level-start state, so the pool can
    // chew through it in dynamically balanced chunks.
    outcomes.assign(queue.size(), NodeOutcome::kSkipped);
    if (num_workers > 1 && queue.size() > 1) {
      pool.ParallelFor(queue.size(), /*chunk=*/16,
                       [&](int worker, std::size_t i) {
                         outcomes[i] = EvaluateNode(
                             queue[i], oracle, options.tau, prev_covered,
                             mup_set, contexts[static_cast<std::size_t>(
                                 worker)]);
                       });
    } else {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        outcomes[i] = EvaluateNode(queue[i], oracle, options.tau, prev_covered,
                                   mup_set, contexts[0]);
      }
    }

    // Deterministic merge in queue order: identical to the serial loop.
    std::vector<Pattern> next_queue;
    PatternSet covered_here;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      Pattern& p = queue[i];
      switch (outcomes[i]) {
        case NodeOutcome::kSkipped:
          break;
        case NodeOutcome::kMup:
          mup_set.insert(p);
          mups.push_back(std::move(p));
          break;
        case NodeOutcome::kCovered:
          if (level < max_level) {
            for (Pattern& child : Rule1Children(p, schema)) {
              ++nodes_generated;
              next_queue.push_back(std::move(child));
            }
          }
          covered_here.insert(std::move(p));
          break;
      }
    }
    prev_covered = std::move(covered_here);
    queue = std::move(next_queue);
  }

  std::sort(mups.begin(), mups.end());
  if (stats != nullptr) {
    std::uint64_t queries = 0;
    for (const QueryContext& ctx : contexts) queries += ctx.num_queries();
    stats->coverage_queries = queries;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

// ---------------------------------------------------------------------------
// DEEPDIVER (§III-E, Algorithm 3)

namespace {

/// Covered/uncovered answers with a memo; the climb phase re-examines
/// parents that later dives may touch again, so a small cache keeps the
/// query count near the number of distinct nodes actually inspected.
class CachingCoverage {
 public:
  CachingCoverage(const CoverageOracle& oracle, std::uint64_t tau)
      : oracle_(oracle), tau_(tau) {}

  bool Covered(const Pattern& p) {
    const auto it = cache_.find(p);
    if (it != cache_.end()) return it->second;
    const bool covered = oracle_.CoverageAtLeast(p, tau_, ctx_);
    cache_.emplace(p, covered);
    return covered;
  }

  std::uint64_t num_queries() const { return ctx_.num_queries(); }

 private:
  const CoverageOracle& oracle_;
  const std::uint64_t tau_;
  QueryContext ctx_;
  std::unordered_map<Pattern, bool, PatternHash> cache_;
};

using DominanceMode = MupSearchOptions::DominanceMode;

/// Discovered-MUP set answering the pruning queries with the strategy
/// selected by MupSearchOptions::dominance_mode: the Appendix-B index, a
/// linear scan, or no pruning at all (the ablation study). Membership is
/// exact in every mode (needed for termination).
class DominanceChecker {
 public:
  DominanceChecker(const Schema& schema, DominanceMode mode)
      : mode_(mode), index_(schema) {}

  void Add(const Pattern& mup) { index_.Add(mup); }
  bool Contains(const Pattern& p) const { return index_.Contains(p); }

  bool IsDominated(const Pattern& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.IsDominated(p);
      case DominanceMode::kLinearScan:
        for (const Pattern& m : index_.mups()) {
          if (m.Dominates(p)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

  bool DominatesSome(const Pattern& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.DominatesSome(p);
      case DominanceMode::kLinearScan:
        for (const Pattern& m : index_.mups()) {
          if (p.Dominates(m)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

  const std::vector<Pattern>& mups() const { return index_.mups(); }

 private:
  DominanceMode mode_;
  MupDominanceIndex index_;
};

/// Climbs from an uncovered node through uncovered parents until every
/// parent is covered; that node is a MUP. The climb can only move up, so it
/// terminates at the root at the latest.
Pattern ClimbToMup(Pattern start, CachingCoverage& cov) {
  Pattern current = std::move(start);
  for (;;) {
    bool moved = false;
    for (const Pattern& parent : current.Parents()) {
      if (!cov.Covered(parent)) {
        current = parent;
        moved = true;
        break;
      }
    }
    if (!moved) return current;
  }
}

}  // namespace

std::vector<Pattern> FindMupsDeepDiver(const CoverageOracle& oracle,
                                       const Schema& schema,
                                       const MupSearchOptions& options,
                                       MupSearchStats* stats) {
  Stopwatch timer;
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  CachingCoverage cov(oracle, options.tau);
  DominanceChecker index(schema, options.dominance_mode);
  std::vector<Pattern> stack = {Pattern::Root(d)};
  std::uint64_t nodes_generated = 1;
  std::uint64_t nodes_pruned = 0;

  while (!stack.empty()) {
    Pattern p = std::move(stack.back());
    stack.pop_back();

    // A node dominated by a discovered MUP is uncovered but not maximal;
    // its entire subtree is pruned. A node that *is* a discovered MUP can be
    // popped later if a climb reached it before its turn in the stack.
    if (index.Contains(p) || index.IsDominated(p)) {
      ++nodes_pruned;
      continue;
    }

    bool covered;
    if (index.DominatesSome(p)) {
      // Strict ancestor of a MUP: covered by monotonicity, no query needed.
      covered = true;
    } else {
      covered = cov.Covered(p);
    }

    if (covered) {
      if (p.level() < max_level) {
        for (Pattern& child : Rule1Children(p, schema)) {
          ++nodes_generated;
          stack.push_back(std::move(child));
        }
      }
      continue;
    }

    // With dominance pruning on, the climb endpoint is always new: it
    // dominates-or-equals the dive point, which was checked against the
    // index above. Without pruning (ablation) a dive can rediscover a MUP.
    const Pattern mup = ClimbToMup(std::move(p), cov);
    if (!index.Contains(mup)) index.Add(mup);
  }

  std::vector<Pattern> mups = index.mups();
  std::sort(mups.begin(), mups.end());
  if (stats != nullptr) {
    stats->coverage_queries = cov.num_queries();
    stats->nodes_generated = nodes_generated;
    stats->nodes_pruned = nodes_pruned;
    stats->num_mups = mups.size();
    stats->seconds = timer.ElapsedSeconds();
  }
  return mups;
}

// ---------------------------------------------------------------------------
// PATTERN-COMBINER (§III-D, Algorithm 2)

StatusOr<std::vector<Pattern>> FindMupsPatternCombiner(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats) {
  Stopwatch timer;
  const Schema& schema = oracle.data().schema();
  const AggregatedData& data = oracle.data();
  const int d = schema.num_attributes();

  if (schema.NumValueCombinations() > options.enumeration_limit) {
    return Status::ResourceExhausted(
        "PATTERN-COMBINER's level-d pass needs " +
        std::to_string(schema.NumValueCombinations()) +
        " combinations, limit is " + std::to_string(options.enumeration_limit));
  }

  using CountMap = std::unordered_map<Pattern, std::uint64_t, PatternHash>;

  // Level-d pass: the coverage of a full combination is its multiplicity in
  // the aggregated relation (0 for absent combinations, which are uncovered
  // and must participate). The pass is embarrassingly parallel — each
  // combination is probed independently — so with num_threads > 1 the
  // combination space is sharded into blocks that fix a prefix of the
  // attributes, one worker enumerating each block's suffix, and the per-block
  // uncovered lists are merged in block order. The resulting map contents
  // (and therefore the final sorted MUP set and every stat) are identical to
  // the serial pass for any worker count.
  std::uint64_t nodes_generated = 0;
  std::uint64_t level_d_queries = 0;
  CountMap count;
  const int num_workers = options.num_threads > 1 ? options.num_threads : 1;
  // Enough blocks to balance dynamically, but no finer than one attribute's
  // worth of prefix values per step.
  std::uint64_t num_blocks = 1;
  int prefix_len = 0;
  while (prefix_len < d &&
         num_blocks < static_cast<std::uint64_t>(4 * num_workers)) {
    num_blocks *= static_cast<std::uint64_t>(schema.cardinality(prefix_len));
    ++prefix_len;
  }
  if (num_workers > 1 && num_blocks > 1) {
    using Uncovered = std::vector<std::pair<Pattern, std::uint64_t>>;
    std::vector<Uncovered> block_uncovered(num_blocks);
    std::vector<std::uint64_t> block_nodes(num_blocks, 0);
    ThreadPool pool(num_workers);
    pool.ParallelFor(
        num_blocks, /*chunk=*/1, [&](int /*worker*/, std::size_t b) {
          // Decode block id -> prefix values (attribute 0 most significant,
          // so blocks enumerate in the same lexicographic order as the
          // serial pass).
          Pattern block = Pattern::Root(d);
          std::uint64_t rest = b;
          for (int a = prefix_len - 1; a >= 0; --a) {
            const auto c = static_cast<std::uint64_t>(schema.cardinality(a));
            block = block.WithCell(a, static_cast<Value>(rest % c));
            rest /= c;
          }
          const Status st = ForEachMatchingCombination(
              block, schema, options.enumeration_limit,
              [&](const std::vector<Value>& combo) {
                ++block_nodes[b];
                const std::uint64_t c = data.CountOf(combo);
                if (c < options.tau) {
                  block_uncovered[b].emplace_back(Pattern::FromTuple(combo),
                                                  c);
                }
              });
          // Cannot fire: the whole space already passed the upfront guard,
          // and each block enumerates a subset of it.
          (void)st;
        });
    for (std::size_t b = 0; b < num_blocks; ++b) {
      nodes_generated += block_nodes[b];
      level_d_queries += block_nodes[b];
      for (auto& [p, c] : block_uncovered[b]) {
        count.emplace(std::move(p), c);
      }
    }
  } else {
    const Status st = ForEachMatchingCombination(
        Pattern::Root(d), schema, options.enumeration_limit,
        [&](const std::vector<Value>& combo) {
          ++nodes_generated;
          ++level_d_queries;
          const std::uint64_t c = data.CountOf(combo);
          if (c < options.tau) {
            count.emplace(Pattern::FromTuple(combo), c);
          }
        });
    COVERAGE_RETURN_IF_ERROR(st);
  }

  std::vector<Pattern> mups;
  if (!count.empty()) {
    for (int level = d; level >= 0; --level) {
      // Combine: generate the uncovered candidates one level up. Each parent
      // is generated exactly once (Rule 2 / Theorem 4); its coverage is the
      // sum over the partition family at its right-most wildcard, where
      // children absent from `count` are covered and contribute at least τ
      // (capped — only the "< τ" outcome matters).
      CountMap next_count;
      for (const auto& [p, cnt] : count) {
        (void)cnt;
        for (const Pattern& parent : Rule2Parents(p)) {
          ++nodes_generated;
          const int pivot = parent.RightmostWildcard();
          std::uint64_t sum = 0;
          bool covered = false;
          for (const Pattern& sibling :
               PartitionChildren(parent, schema, pivot)) {
            const auto it = count.find(sibling);
            if (it == count.end()) {
              covered = true;  // a covered child already implies sum >= tau
              break;
            }
            sum += it->second;
            if (sum >= options.tau) {
              covered = true;
              break;
            }
          }
          if (!covered) next_count.emplace(parent, sum);
        }
      }
      // A node at this level is a MUP iff none of its parents is uncovered.
      for (const auto& [p, cnt] : count) {
        (void)cnt;
        if (options.max_level >= 0 && p.level() > options.max_level) continue;
        bool has_uncovered_parent = false;
        for (const Pattern& parent : p.Parents()) {
          if (next_count.contains(parent)) {
            has_uncovered_parent = true;
            break;
          }
        }
        if (!has_uncovered_parent) mups.push_back(p);
      }
      if (next_count.empty()) break;
      count = std::move(next_count);
    }
  }

  std::sort(mups.begin(), mups.end());
  if (stats != nullptr) {
    stats->coverage_queries = level_d_queries;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

// ---------------------------------------------------------------------------
// APRIORI (§V-C)

namespace {

/// An item is one (attribute, value) pair; an item-set is a sorted vector of
/// item ids. The lattice over item-sets is much larger than the pattern graph
/// (the paper's core criticism of this adaptation): item-sets mixing two
/// values of one attribute are representable and must be generated, counted,
/// and finally discarded as invalid.
struct ItemCatalog {
  std::vector<int> attr_of;    // item id -> attribute
  std::vector<Value> value_of; // item id -> value

  explicit ItemCatalog(const Schema& schema) {
    for (int i = 0; i < schema.num_attributes(); ++i) {
      for (Value v = 0; v < static_cast<Value>(schema.cardinality(i)); ++v) {
        attr_of.push_back(i);
        value_of.push_back(v);
      }
    }
  }

  std::size_t size() const { return attr_of.size(); }
};

using ItemSet = std::vector<int>;

std::uint64_t Support(const ItemSet& items, const ItemCatalog& catalog,
                      const BitmapCoverage& oracle) {
  if (items.empty()) return oracle.data().total_count();
  BitVector acc = oracle.index(catalog.attr_of[static_cast<std::size_t>(
                                   items[0])],
                               catalog.value_of[static_cast<std::size_t>(
                                   items[0])]);
  for (std::size_t k = 1; k < items.size(); ++k) {
    acc.AndWith(oracle.index(
        catalog.attr_of[static_cast<std::size_t>(items[k])],
        catalog.value_of[static_cast<std::size_t>(items[k])]));
    if (acc.None()) return 0;
  }
  return acc.Dot(oracle.data().counts());
}

/// True iff every (k-1)-subset of `candidate` is in the sorted `frequent`
/// list — the apriori prune step.
bool AllSubsetsFrequent(const ItemSet& candidate,
                        const std::vector<ItemSet>& frequent) {
  ItemSet subset(candidate.size() - 1);
  for (std::size_t skip = 0; skip < candidate.size(); ++skip) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) subset[out++] = candidate[i];
    }
    if (!std::binary_search(frequent.begin(), frequent.end(), subset)) {
      return false;
    }
  }
  return true;
}

/// Converts a valid item-set (distinct attributes) to a pattern; returns
/// false for invalid ones (two values of the same attribute).
bool ToPattern(const ItemSet& items, const ItemCatalog& catalog, int d,
               Pattern* out) {
  std::vector<Value> cells(static_cast<std::size_t>(d), kWildcard);
  for (int item : items) {
    const int attr = catalog.attr_of[static_cast<std::size_t>(item)];
    if (cells[static_cast<std::size_t>(attr)] != kWildcard) return false;
    cells[static_cast<std::size_t>(attr)] =
        catalog.value_of[static_cast<std::size_t>(item)];
  }
  *out = Pattern(std::move(cells));
  return true;
}

}  // namespace

StatusOr<std::vector<Pattern>> FindMupsApriori(const BitmapCoverage& oracle,
                                               const MupSearchOptions& options,
                                               MupSearchStats* stats) {
  Stopwatch timer;
  const std::uint64_t queries_before = oracle.num_queries();
  const Schema& schema = oracle.data().schema();
  const int d = schema.num_attributes();
  const ItemCatalog catalog(schema);

  std::vector<Pattern> mups;
  std::uint64_t nodes_generated = 0;
  std::uint64_t support_queries = 0;

  // Level 0: the empty item-set (the root pattern). If even it is
  // infrequent, it is the only MUP.
  if (oracle.data().total_count() < options.tau) {
    mups.push_back(Pattern::Root(d));
    std::sort(mups.begin(), mups.end());
    if (stats != nullptr) {
      stats->coverage_queries = 0;
      stats->nodes_generated = 1;
      stats->seconds = timer.ElapsedSeconds();
      stats->num_mups = mups.size();
    }
    return mups;
  }

  const int max_level = options.max_level < 0 ? d : options.max_level;

  // Level 1: singleton item-sets.
  std::vector<ItemSet> frequent;
  for (int item = 0; item < static_cast<int>(catalog.size()); ++item) {
    ItemSet candidate = {item};
    ++nodes_generated;
    ++support_queries;
    if (Support(candidate, catalog, oracle) >= options.tau) {
      frequent.push_back(std::move(candidate));
    } else {
      Pattern p;
      if (ToPattern(candidate, catalog, d, &p)) mups.push_back(p);
    }
  }

  // Levels 2..max: apriori-gen join + prune over the item lattice.
  for (int k = 2; k <= max_level && !frequent.empty(); ++k) {
    std::vector<ItemSet> next_frequent;
    // `frequent` is sorted lexicographically: singletons were generated in
    // order and joins below preserve order.
    for (std::size_t a = 0; a < frequent.size(); ++a) {
      for (std::size_t b = a + 1; b < frequent.size(); ++b) {
        // Join two sets sharing their first k-2 items.
        if (!std::equal(frequent[a].begin(), frequent[a].end() - 1,
                        frequent[b].begin())) {
          break;  // sorted order: later b cannot share the prefix either
        }
        ItemSet candidate = frequent[a];
        candidate.push_back(frequent[b].back());
        ++nodes_generated;
        if (nodes_generated > options.enumeration_limit) {
          return Status::ResourceExhausted(
              "APRIORI generated more than " +
              std::to_string(options.enumeration_limit) + " item-sets");
        }
        if (!AllSubsetsFrequent(candidate, frequent)) continue;
        ++support_queries;
        if (Support(candidate, catalog, oracle) >= options.tau) {
          next_frequent.push_back(std::move(candidate));
        } else {
          // Negative border: infrequent, all subsets frequent. Valid members
          // are exactly the MUPs; invalid ones (duplicate attribute) are the
          // wasted work this adaptation cannot avoid.
          Pattern p;
          if (ToPattern(candidate, catalog, d, &p)) mups.push_back(p);
        }
      }
    }
    frequent = std::move(next_frequent);
  }

  std::sort(mups.begin(), mups.end());
  if (stats != nullptr) {
    stats->coverage_queries = oracle.num_queries() - queries_before;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
    (void)support_queries;
  }
  return mups;
}

}  // namespace legacy
}  // namespace coverage
