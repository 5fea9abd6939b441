#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mups/mups.h"
#include "pattern/packed_set.h"

namespace coverage {

namespace {

/// Per-frontier-node outcome of the (parallelisable) evaluation step. The
/// decision for a node depends only on state frozen at the start of its BFS
/// level — the covered nodes of earlier levels — plus the (immutable)
/// oracle, so frontier nodes can be evaluated in any order or concurrently
/// and merged back in queue order to reproduce the serial output, and its
/// query counts, bit for bit.
enum class NodeOutcome : std::uint8_t { kSkipped, kMup, kCovered };

/// A BFS queue entry. `rank` is the node's mixed-radix rank
/// r = Σ (vᵢ+1)·sᵢ with s₀ = 1, sᵢ₊₁ = sᵢ·(cᵢ+1) and a wildcard counting 0:
/// a bijection from the Π (cᵢ+1) pattern-graph nodes onto [0, Π). Setting
/// attribute a to v adds (v+1)·s_a, so a Rule-1 child's rank and a parent's
/// rank are one multiply-add away. On the hash path every stride is 0 and
/// every rank reads 0.
struct QueueNode {
  PackedPattern pattern;
  std::uint64_t rank;
};

/// One bit per pattern-graph node, indexed by rank. calloc hands back zeroed
/// pages that cost nothing until touched, so a level-capped search over a
/// graph near the 2^26-node bound does not pay for an 8 MiB memset.
class RankBitset {
 public:
  explicit RankBitset(std::uint64_t num_bits)
      : words_(static_cast<std::uint64_t*>(
            std::calloc(num_bits / 64 + 1, sizeof(std::uint64_t)))) {
    if (words_ == nullptr) throw std::bad_alloc();
  }

  void Set(std::uint64_t rank) {
    words_[rank >> 6] |= std::uint64_t{1} << (rank & 63);
  }
  bool Test(std::uint64_t rank) const {
    return (words_[rank >> 6] >> (rank & 63)) & 1u;
  }

 private:
  struct Free {
    void operator()(std::uint64_t* p) const { std::free(p); }
  };
  std::unique_ptr<std::uint64_t[], Free> words_;
};

/// Skips candidates with an unverified or uncovered parent; they cannot be
/// MUPs (either pruned region or dominated by one). Parents are visited in
/// ascending attribute order, matching Pattern::Parents();
/// `parent_covered(node, i, v)` answers for the parent that clears
/// attribute i, whose value in `node` is v.
template <typename ParentCovered>
NodeOutcome EvaluateNode(const QueueNode& node, const PatternCodec& codec,
                         const CoverageOracle& oracle, std::uint64_t tau,
                         const ParentCovered& parent_covered,
                         QueryContext& ctx) {
  const int d = codec.num_attributes();
  for (int i = 0; i < d; ++i) {
    const Value v = codec.cell(node.pattern, i);
    if (v != kWildcard && !parent_covered(node, i, v)) {
      return NodeOutcome::kSkipped;
    }
  }
  return oracle.CoverageAtLeast(node.pattern, codec, tau, ctx)
             ? NodeOutcome::kCovered
             : NodeOutcome::kMup;
}

}  // namespace

std::vector<PackedPattern> FindMupsPatternBreakerPacked(
    const CoverageOracle& oracle, const Schema& schema,
    const PatternCodec& codec, const MupSearchOptions& options,
    MupSearchStats* stats) {
  Stopwatch timer;
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  const int num_workers = options.num_threads > 1 ? options.num_threads : 1;
  ThreadPool pool(num_workers);
  std::vector<QueryContext> contexts(
      static_cast<std::size_t>(pool.num_workers()));

  // Covered nodes (see mups.h's implementation note: tracking only covered
  // candidates keeps the parent check sound). When the whole pattern graph
  // fits kPlannerPatternGraphBudget they live in one rank-indexed bitset of
  // at most 8 MiB, and a parent check is a bit test. A parent always lies on
  // the previous level, so one cumulative bitset answers the per-level
  // question exactly. Larger graphs (in practice the level-capped wide
  // searches) keep a per-level hash set of packed keys.
  std::vector<std::uint64_t> strides(static_cast<std::size_t>(d), 0);
  std::optional<RankBitset> covered_ranks;
  if (schema.NumPatterns() <= kPlannerPatternGraphBudget) {
    std::uint64_t stride = 1;
    for (int a = 0; a < d; ++a) {
      strides[static_cast<std::size_t>(a)] = stride;
      stride *= static_cast<std::uint64_t>(schema.cardinality(a)) + 1;
    }
    covered_ranks.emplace(stride);
  }

  // Frontier memory: the queue and covered set of one BFS level live in one
  // arena; each new level builds into the other arena and the exhausted one
  // is bulk-reset. Steady state allocates nothing from the OS beyond the
  // high-water level. A covered node whose Rule-1 children start at
  // attribute a has tail_children[a] = Σ_{j≥a} c_j of them, so each level's
  // queue is sized exactly once instead of growing by copies.
  std::vector<std::size_t> tail_children(static_cast<std::size_t>(d) + 1, 0);
  for (int a = d - 1; a >= 0; --a) {
    tail_children[static_cast<std::size_t>(a)] =
        tail_children[static_cast<std::size_t>(a) + 1] +
        static_cast<std::size_t>(schema.cardinality(a));
  }
  Arena level_arenas[2];
  Arena* cur_arena = &level_arenas[0];
  Arena* next_arena = &level_arenas[1];

  ArenaVector<QueueNode> queue(cur_arena);
  queue.push_back({codec.Root(), 0});
  std::vector<PackedPattern> mups;
  PackedPatternSet prev_covered(cur_arena);  // hash path only
  std::uint64_t nodes_generated = 1;
  std::vector<NodeOutcome> outcomes;

  for (int level = 0; level <= max_level && !queue.empty(); ++level) {
    obs::ScopedStage level_stage(options.trace,
                                 "search_level_" + std::to_string(level));
    outcomes.assign(queue.size(), NodeOutcome::kSkipped);
    const auto evaluate = [&](const auto& parent_covered) {
      if (num_workers > 1 && queue.size() > 1) {
        pool.ParallelFor(queue.size(), /*chunk=*/16,
                         [&](int worker, std::size_t i) {
                           outcomes[i] = EvaluateNode(
                               queue[i], codec, oracle, options.tau,
                               parent_covered,
                               contexts[static_cast<std::size_t>(worker)]);
                         });
      } else {
        for (std::size_t i = 0; i < queue.size(); ++i) {
          outcomes[i] = EvaluateNode(queue[i], codec, oracle, options.tau,
                                     parent_covered, contexts[0]);
        }
      }
    };
    // Workers only read the covered set; the merge below is its one writer.
    if (covered_ranks) {
      evaluate([&](const QueueNode& node, int i, Value v) {
        return covered_ranks->Test(node.rank -
                                   (static_cast<std::uint64_t>(v) + 1) *
                                       strides[static_cast<std::size_t>(i)]);
      });
    } else {
      evaluate([&](const QueueNode& node, int i, Value) {
        return prev_covered.Contains(
            codec.WithCell(node.pattern, i, kWildcard));
      });
    }

    // Deterministic merge in queue order: identical to the serial loop.
    next_arena->Reset();
    ArenaVector<QueueNode> next_queue(next_arena);
    if (level < max_level) {
      std::size_t num_children = 0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (outcomes[i] != NodeOutcome::kCovered) continue;
        num_children += tail_children[static_cast<std::size_t>(
            codec.RightmostDeterministic(queue[i].pattern) + 1)];
      }
      next_queue.reserve(num_children);
    }
    PackedPatternSet covered_here(next_arena);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const QueueNode& node = queue[i];
      switch (outcomes[i]) {
        case NodeOutcome::kSkipped:
          break;
        case NodeOutcome::kMup:
          mups.push_back(node.pattern);
          break;
        case NodeOutcome::kCovered:
          if (level < max_level) {
            // Rule-1 children: every attribute right of the right-most
            // deterministic cell is a wildcard; assign each of its values.
            const int start = codec.RightmostDeterministic(node.pattern) + 1;
            for (int a = start; a < d; ++a) {
              const Value c = static_cast<Value>(schema.cardinality(a));
              const std::uint64_t stride =
                  strides[static_cast<std::size_t>(a)];
              std::uint64_t rank = node.rank;
              for (Value v = 0; v < c; ++v) {
                ++nodes_generated;
                rank += stride;
                next_queue.push_back(
                    {codec.WithCell(node.pattern, a, v), rank});
              }
            }
          }
          if (covered_ranks) {
            covered_ranks->Set(node.rank);
          } else {
            covered_here.Insert(node.pattern);
          }
          break;
      }
    }
    prev_covered = covered_here;
    queue = next_queue;
    std::swap(cur_arena, next_arena);
  }

  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
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

std::vector<Pattern> FindMupsPatternBreaker(const CoverageOracle& oracle,
                                            const Schema& schema,
                                            const MupSearchOptions& options,
                                            MupSearchStats* stats) {
  auto codec = PatternCodec::Build(schema);
  assert(codec.ok() && "schema exceeds the packed pattern limit");
  if (!codec.ok()) return {};
  return codec->DecodeAll(
      FindMupsPatternBreakerPacked(oracle, schema, *codec, options, stats));
}

}  // namespace coverage
