#include "cluster/distributed_audit.h"

#include <algorithm>
#include <cstddef>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "mups/packed_index.h"
#include "pattern/packed_pattern.h"

namespace coverage {
namespace cluster {

namespace {

/// Runs `fn(shard_index)` once per shard, concurrently. Shard RPCs are
/// dominated by network/search latency, so one thread per shard (the caller
/// is worker 0) is the right shape at realistic shard counts.
template <typename Fn>
void ForEachShard(std::size_t num_shards, Fn&& fn) {
  if (num_shards == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_shards - 1);
  for (std::size_t s = 1; s < num_shards; ++s) {
    workers.emplace_back([&fn, s] { fn(s); });
  }
  fn(0);
  for (std::thread& w : workers) w.join();
}

/// First failing slot in shard order, for a deterministic error/503.
template <typename T>
Status FirstError(const std::vector<ShardBackend*>& shards,
                  const std::vector<StatusOr<T>>& slots,
                  std::string* failed_shard) {
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].ok()) {
      if (failed_shard != nullptr) *failed_shard = shards[s]->name();
      return slots[s].status();
    }
  }
  return Status::OK();
}

/// Tier 1: "is `p` under shard i's local-MUP antichain?" — i.e. still
/// possibly uncovered there — answered by one Appendix-B index per shard
/// over the codec-encoded candidates. `codec` must outlive the check.
class DownClosureCheck {
 public:
  DownClosureCheck(const Schema& schema, const PatternCodec& codec,
                   const std::vector<ShardCandidatesResponse>& candidates)
      : codec_(codec) {
    indices_.reserve(candidates.size());
    std::vector<PackedPattern> packed;
    for (const ShardCandidatesResponse& c : candidates) {
      packed.clear();
      for (const Pattern& mup : c.audit.mups) {
        packed.push_back(codec.Encode(mup));
      }
      indices_.emplace_back(schema, codec).AddBatch(packed);
    }
  }

  bool MaybeUncoveredEverywhere(const Pattern& p) const {
    const PackedPattern probe = codec_.Encode(p);
    for (const PackedMupIndex& index : indices_) {
      if (!index.Contains(probe) && !index.IsDominated(probe)) return false;
    }
    return true;
  }

 private:
  const PatternCodec& codec_;
  std::vector<PackedMupIndex> indices_;
};

enum class NodeState : std::uint8_t { kSkipped, kPending, kCovered, kMup };

}  // namespace

Status DistributedAuditOptions::Validate() const {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  if (max_batch_patterns < 1) {
    return Status::InvalidArgument("max_batch_patterns must be >= 1");
  }
  return Status::OK();
}

AuditResult DistributedAuditResult::ToAuditResult() const {
  AuditResult result;
  result.mups = mups;
  result.algorithm = "DISTRIBUTED-BREAKER";
  result.max_level = max_level;
  result.tau = tau;
  result.num_rows = num_rows;
  result.planner_rationale =
      "scatter-gather over " + std::to_string(shards.size()) + " shard(s)";
  result.stats.nodes_generated = stats.nodes_generated;
  result.stats.nodes_pruned = stats.nodes_pruned_local;
  result.stats.seconds = stats.seconds;
  result.stats.num_mups = mups.size();
  for (const DistributedShardStats& s : shards) {
    result.stats.coverage_queries += s.coverage_queries;
  }
  return result;
}

StatusOr<DistributedAuditResult> RunDistributedAudit(
    const Schema& schema, const std::vector<ShardBackend*>& shards,
    const DistributedAuditOptions& options, std::string* failed_shard) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  if (shards.empty()) {
    return Status::InvalidArgument("distributed audit needs >= 1 shard");
  }
  auto codec = PatternCodec::Build(schema);
  COVERAGE_RETURN_IF_ERROR(codec.status());
  Stopwatch timer;
  const int d = schema.num_attributes();
  const std::size_t num_shards = shards.size();

  // --- Phase 1: one candidate scatter — every shard's local MUP search with
  // the global tau, fetched up front and never refreshed (the data is
  // immutable for the duration of the audit).
  AuditRequest shard_request;
  shard_request.tau = options.tau;
  shard_request.max_level = options.max_level;
  shard_request.algorithm = options.shard_algorithm;
  shard_request.enumeration_limit = options.enumeration_limit;
  COVERAGE_RETURN_IF_ERROR(shard_request.Validate());

  std::vector<StatusOr<ShardCandidatesResponse>> slots(
      num_shards, StatusOr<ShardCandidatesResponse>(
                      Status::Internal("shard response missing")));
  ForEachShard(num_shards, [&](std::size_t s) {
    slots[s] = shards[s]->Candidates(shard_request);
  });
  COVERAGE_RETURN_IF_ERROR(FirstError(shards, slots, failed_shard));

  DistributedAuditResult result;
  result.tau = options.tau;
  result.shards.resize(num_shards);
  std::vector<ShardCandidatesResponse> candidates;
  candidates.reserve(num_shards);
  int cap = options.max_level;
  for (std::size_t s = 0; s < num_shards; ++s) {
    candidates.push_back(std::move(*slots[s]));
    const ShardCandidatesResponse& c = candidates.back();
    DistributedShardStats& ss = result.shards[s];
    ss.name = shards[s]->name();
    ss.num_rows = c.num_rows;
    ss.local_mups = c.audit.mups.size();
    ss.candidate_seconds = c.audit.stats.seconds;
    ss.coverage_queries = c.audit.stats.coverage_queries;
    result.num_rows += c.num_rows;
    // A shard that clamped its search bounds how deep tier 1 stays sound.
    if (c.audit.max_level >= 0) {
      cap = cap < 0 ? c.audit.max_level : std::min(cap, c.audit.max_level);
    }
  }
  result.max_level = cap;
  const int bfs_max = cap < 0 ? d : std::min(cap, d);

  const DownClosureCheck closure(schema, *codec, candidates);

  // --- Phase 2: the PATTERN-BREAKER BFS, verbatim except that the coverage
  // probe is tier-1-or-scatter. See pattern_breaker.cc for the structure
  // this mirrors; the merge below is the same queue-order loop.
  std::vector<Pattern> queue;
  queue.push_back(Pattern::Root(d));
  std::vector<Pattern> mups;
  std::unordered_set<Pattern, PatternHash> prev_covered;
  DistributedAuditStats& stats = result.stats;
  stats.nodes_generated = 1;

  for (int level = 0; level <= bfs_max && !queue.empty(); ++level) {
    stats.levels = static_cast<std::uint64_t>(level) + 1;
    std::vector<NodeState> state(queue.size(), NodeState::kSkipped);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Pattern& p = queue[i];
      // Skip candidates with an unverified or uncovered parent — identical
      // to EvaluateNode's parent check (parents in ascending attr order).
      bool skip = false;
      for (int a = 0; a < d && !skip; ++a) {
        if (!p.is_deterministic(a)) continue;
        const Pattern parent = p.WithCell(a, kWildcard);
        if (!prev_covered.contains(parent)) skip = true;
      }
      if (skip) continue;
      ++stats.nodes_evaluated;
      if (!closure.MaybeUncoveredEverywhere(p)) {
        // Covered somewhere locally ⇒ covered globally. Zero RPCs.
        state[i] = NodeState::kCovered;
        ++stats.nodes_pruned_local;
      } else {
        state[i] = NodeState::kPending;
        pending.push_back(i);
      }
    }

    // Exact tier: scatter the pending nodes (in chunks) and sum counts.
    for (std::size_t begin = 0; begin < pending.size();
         begin += options.max_batch_patterns) {
      const std::size_t end =
          std::min(begin + options.max_batch_patterns, pending.size());
      std::vector<Pattern> batch;
      batch.reserve(end - begin);
      for (std::size_t j = begin; j < end; ++j) batch.push_back(queue[pending[j]]);

      std::vector<StatusOr<ShardCountsResponse>> counts(
          num_shards, StatusOr<ShardCountsResponse>(
                          Status::Internal("shard response missing")));
      ForEachShard(num_shards,
                   [&](std::size_t s) { counts[s] = shards[s]->Counts(batch); });
      COVERAGE_RETURN_IF_ERROR(FirstError(shards, counts, failed_shard));
      ++stats.count_rounds;
      stats.patterns_counted += batch.size();

      for (std::size_t s = 0; s < num_shards; ++s) {
        if (counts[s]->counts.size() != batch.size()) {
          return Status::Internal("shard " + shards[s]->name() +
                                  ": counts size mismatch");
        }
        DistributedShardStats& ss = result.shards[s];
        ++ss.count_rpcs;
        ss.patterns_counted += batch.size();
        ss.coverage_queries += counts[s]->coverage_queries;
      }
      for (std::size_t j = begin; j < end; ++j) {
        std::uint64_t total = 0;
        for (std::size_t s = 0; s < num_shards; ++s) {
          total += counts[s]->counts[j - begin];
        }
        state[pending[j]] =
            total >= options.tau ? NodeState::kCovered : NodeState::kMup;
      }
    }

    // Deterministic merge in queue order: identical to the single-node loop.
    std::vector<Pattern> next_queue;
    std::unordered_set<Pattern, PatternHash> covered_here;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Pattern& p = queue[i];
      switch (state[i]) {
        case NodeState::kSkipped:
          break;
        case NodeState::kPending:
          return Status::Internal("BFS node left pending after scatter");
        case NodeState::kMup:
          mups.push_back(p);
          break;
        case NodeState::kCovered:
          if (level < bfs_max) {
            // Rule-1 children: every attribute right of the right-most
            // deterministic cell, one child per value.
            const int start = p.RightmostDeterministic() + 1;
            for (int a = start; a < d; ++a) {
              const Value c = static_cast<Value>(schema.cardinality(a));
              for (Value v = 0; v < c; ++v) {
                ++stats.nodes_generated;
                next_queue.push_back(p.WithCell(a, v));
              }
            }
          }
          covered_here.insert(p);
          break;
      }
    }
    prev_covered = std::move(covered_here);
    queue = std::move(next_queue);
  }

  std::sort(mups.begin(), mups.end());
  result.mups = std::move(mups);
  stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace cluster
}  // namespace coverage
