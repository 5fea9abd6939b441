#ifndef COVERAGE_CLUSTER_DISTRIBUTED_AUDIT_H_
#define COVERAGE_CLUSTER_DISTRIBUTED_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/shard_backend.h"
#include "common/status.h"
#include "dataset/schema.h"
#include "mups/mups.h"
#include "pattern/pattern.h"
#include "service/coverage_service.h"

namespace coverage {
namespace cluster {

/// Scatter-gather Problem 1 over row-sharded data.
///
/// Coverage is additive across row shards — cov(P) = Σᵢ covᵢ(P) — but MUP
/// sets are not: a pattern can be locally uncovered everywhere yet globally
/// covered, and a local MUP of one shard can sit strictly above or below a
/// global MUP. What *is* transferable is one inclusion: a pattern covered in
/// any single shard is globally covered. Equivalently, since every locally
/// uncovered pattern lies (dominates-or-equal-wise) under some local MUP,
///
///     globally-uncovered  ⊆  R := ∩ᵢ down-closure(Mᵢ)
///
/// where Mᵢ is shard i's local MUP set computed with the *global* τ.
///
/// RunDistributedAudit therefore mirrors the paper's PATTERN-BREAKER BFS at
/// the coordinator — same root, same Rule-1 child generation, same
/// parent-prune, same queue-order merge — but answers "is this node
/// covered?" in two tiers:
///
///   1. Free tier: if the node escapes any shard's down-closure (checked
///      against the Mᵢ antichains fetched once up front — zero RPCs), it is
///      globally covered.
///   2. Exact tier: nodes inside R are batched into one scatter per BFS
///      level; every shard answers exact (τ = 0) counts, the coordinator
///      sums them, and covered ⇔ Σ ≥ τ. (Threshold answers are NOT additive
///      across shards, which is why the protocol only ever ships counts.)
///
/// Because both tiers decide exactly cov(P) ≥ τ and the BFS structure is
/// the single-node one, the result is bit-identical to auditing the
/// concatenated rows on one node — the property tests prove it across shard
/// counts. Tier 1 consults each antichain through the Appendix-B index.
///
/// Level caps: a shard may clamp an unlimited search on wide schemas (the
/// planner's §V-C3 fallback); the BFS then runs to the *minimum* effective
/// cap so tier 1 stays sound (a dominating local MUP always has a level no
/// greater than the node it prunes, so within the cap no witness is
/// missed). The effective cap is reported in the result.
struct DistributedAuditOptions {
  std::uint64_t tau = 30;  ///< global coverage threshold (>= 1)
  int max_level = -1;      ///< BFS depth cap; -1 = unlimited

  /// Algorithm each shard runs for its local candidate search.
  MupAlgorithm shard_algorithm = MupAlgorithm::kAuto;

  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  /// Cap on patterns per counts RPC; a larger BFS level scatters in
  /// several rounds.
  std::size_t max_batch_patterns = 4096;

  Status Validate() const;
};

/// Per-shard accounting for the cluster stats section.
struct DistributedShardStats {
  std::string name;
  std::uint64_t num_rows = 0;
  std::uint64_t local_mups = 0;        ///< candidate antichain size
  double candidate_seconds = 0.0;      ///< shard-local search wall-clock
  std::uint64_t count_rpcs = 0;        ///< counts scatters sent to the shard
  std::uint64_t patterns_counted = 0;  ///< patterns asked across those RPCs
  std::uint64_t coverage_queries = 0;  ///< shard-side oracle calls, all RPCs
};

struct DistributedAuditStats {
  std::uint64_t nodes_generated = 0;    ///< BFS candidates materialised
  std::uint64_t nodes_evaluated = 0;    ///< survived the parent-prune
  std::uint64_t nodes_pruned_local = 0; ///< settled covered by tier 1 (free)
  std::uint64_t patterns_counted = 0;   ///< settled by the exact tier
  std::uint64_t count_rounds = 0;       ///< scatter rounds issued
  std::uint64_t levels = 0;             ///< BFS levels walked
  double seconds = 0.0;                 ///< end-to-end wall-clock
};

struct DistributedAuditResult {
  std::vector<Pattern> mups;  ///< sorted lexicographically
  std::uint64_t tau = 0;
  int max_level = -1;          ///< effective cap (see options doc)
  std::uint64_t num_rows = 0;  ///< Σ shard rows
  DistributedAuditStats stats;
  std::vector<DistributedShardStats> shards;

  /// Repackages as the single-node response type so the coordinator's
  /// /v1/audit answers are wire-compatible (JSON and binary) with a shard's.
  AuditResult ToAuditResult() const;
};

/// Runs the scatter-gather audit over `shards` (all slices of one dataset
/// with schema `schema`). On a shard failure, returns that shard's error
/// and, when `failed_shard` is non-null, stores the shard's name for the
/// coordinator's 503 body.
StatusOr<DistributedAuditResult> RunDistributedAudit(
    const Schema& schema, const std::vector<ShardBackend*>& shards,
    const DistributedAuditOptions& options,
    std::string* failed_shard = nullptr);

}  // namespace cluster
}  // namespace coverage

#endif  // COVERAGE_CLUSTER_DISTRIBUTED_AUDIT_H_
