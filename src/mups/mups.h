#ifndef COVERAGE_MUPS_MUPS_H_
#define COVERAGE_MUPS_MUPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/coverage_oracle.h"
#include "dataset/schema.h"
#include "obs/trace.h"
#include "pattern/packed_pattern.h"
#include "pattern/pattern.h"

namespace coverage {

/// Options shared by all MUP-identification algorithms (Problem 1).
struct MupSearchOptions {
  /// Coverage threshold τ (Definition 3). Patterns with cov < tau are
  /// uncovered.
  std::uint64_t tau = 1;

  /// When >= 0, restrict discovery to MUPs of level <= max_level (the
  /// level-limited exploration of §V-C3 / Fig. 16 that scales the search to
  /// tens of attributes). -1 means unlimited.
  int max_level = -1;

  /// Worker count for PATTERN-BREAKER and PATTERN-COMBINER. 1 (the default)
  /// runs the serial algorithms; N > 1 evaluates PATTERN-BREAKER's BFS
  /// frontiers on a pool of N workers sharing one oracle (each worker
  /// queries through its own QueryContext), and shards PATTERN-COMBINER's
  /// level-d pass over the combination space. The returned MUP set and query
  /// counts are identical to the serial ones for any N. DEEPDIVER is serial
  /// (its dives share one discovered-MUP set, and a parallel version
  /// measured no speedup) and, like the other algorithms, ignores this.
  int num_threads = 1;

  /// Upper bound on guarded exponential enumerations (naive pattern-graph
  /// walk, PATTERN-COMBINER's level-d pass, APRIORI candidate sets). The
  /// affected algorithms return ResourceExhausted instead of blowing up.
  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  /// How DEEPDIVER checks candidates against the discovered MUPs. The
  /// Appendix-B bit-vector index is the paper's design and the only strategy
  /// anything else in the library uses; the linear scan and the no-pruning
  /// mode exist for DEEPDIVER's ablation study
  /// (bench_ablation_design_choices). All three produce identical output.
  /// Other algorithms ignore this.
  enum class DominanceMode { kBitmapIndex, kLinearScan, kNoPruning };
  DominanceMode dominance_mode = DominanceMode::kBitmapIndex;

  /// Optional request trace. When set, PATTERN-BREAKER records one
  /// `search_level_<k>` stage per BFS level (the per-level breakdown that
  /// shows where a deep search spends its time). The trace is not
  /// synchronised — it must belong to the calling thread. Other algorithms
  /// ignore it.
  obs::Trace* trace = nullptr;
};

/// Instrumentation filled in by each search; the paper's efficiency argument
/// is about how few nodes are visited / coverage queries are issued.
struct MupSearchStats {
  std::uint64_t coverage_queries = 0;  ///< cov() oracle calls
  std::uint64_t nodes_generated = 0;   ///< candidate patterns materialised
  std::uint64_t nodes_pruned = 0;      ///< candidates discarded by dominance
  double seconds = 0.0;                ///< wall-clock time
  std::size_t num_mups = 0;            ///< output size

  void Reset() { *this = MupSearchStats{}; }
};

/// The algorithms of §III (plus the §V-C APRIORI adaptation).
enum class MupAlgorithm {
  kNaive,
  kPatternBreaker,
  kPatternCombiner,
  kDeepDiver,
  kApriori,
  /// Let PlanMupSearch choose the level cap and worker count for
  /// PATTERN-BREAKER from the schema's width and cardinalities. FindMups
  /// resolves kAuto before dispatching; the other FindMups* entry points
  /// never see it.
  kAuto,
};

/// Display name, e.g. "PATTERN-BREAKER".
std::string ToString(MupAlgorithm algorithm);

// ---------------------------------------------------------------------------
// The kAuto planner (§V). Thresholds are exposed so the decision table is
// testable against exactly the numbers the planner applies.

/// A pattern graph with more than this many nodes (Π (c_i + 1)) is "wide":
/// exhaustive exploration is off the table and the planner falls back to the
/// level-limited search of §V-C3 / Fig. 16. Raised from 2^24 to 2^26 with
/// the PackedPattern refactor: per-node cost (hash, equality, parent checks,
/// allocation) dropped by the packed-key + arena work, so the exhaustive
/// algorithms stay affordable on a 4x larger graph.
inline constexpr std::uint64_t kPlannerPatternGraphBudget = std::uint64_t{1}
                                                            << 26;

/// The level cap the planner imposes on wide schemas: the dangerous coverage
/// gaps are the *general* ones (combinations of up to three attributes —
/// the Fig. 16 framing), and level-limited PATTERN-BREAKER finds exactly
/// those in a few BFS levels.
inline constexpr int kPlannerWideMaxLevel = 3;

/// Below this many explored pattern-graph nodes a parallel search is not
/// worth its pool startup and per-level join: PATTERN-BREAKER's per-node
/// cost is a handful of bitmap intersections, so a graph this small is over
/// before the workers warm up. The planner answers num_threads = 1
/// here regardless of the caller's cap. "Explored" honours the level cap:
/// levels 0..max_level only, not all Π (c_i + 1) nodes.
inline constexpr std::uint64_t kPlannerParallelMinPatternGraph =
    std::uint64_t{1} << 12;

/// What the planner decided and why. `algorithm` is always concrete (never
/// kAuto); `max_level` is the effective cap the search should run with (the
/// caller's own cap when one was set, kPlannerWideMaxLevel when the wide-
/// schema fallback clamped an unlimited search, -1 otherwise).
struct PlannerDecision {
  MupAlgorithm algorithm = MupAlgorithm::kPatternBreaker;
  int max_level = -1;
  /// Worker count the search should run with. Never exceeds the caller's
  /// MupSearchOptions::num_threads (that is the cap, not a demand); 1 when
  /// the cap is 1 or the explored part of the pattern graph is too small to
  /// amortise fan-out (kPlannerParallelMinPatternGraph), otherwise the cap
  /// clamped to the root's fan-out (sum of cardinalities — the widest
  /// natural partition of independent top-level work). The MUP set is
  /// identical for any value (see MupSearchOptions::num_threads).
  int num_threads = 1;
  /// One human-readable sentence citing the §V evidence for the choice;
  /// surfaced through AuditResult for observability.
  std::string rationale;
};

/// Resolves kAuto to PATTERN-BREAKER (it returns the same MUP set as
/// DEEPDIVER faster on every measured shape, and its parallel merge is
/// deterministic), level-limited at kPlannerWideMaxLevel for wide schemas
/// (§V-C3), with a worker count sized by the levels the search will
/// explore. Deterministic in its inputs.
PlannerDecision PlanMupSearch(const AggregatedData& data,
                              const MupSearchOptions& options);

// ---------------------------------------------------------------------------
// The searches. Every one runs on PackedPattern — fixed-width keys,
// O(words) hash/equality/dominance, arena-allocated frontiers — and decodes
// to Pattern at the boundary, so the schema must fit a PatternCodec
// (PackedPattern::kMaxWords * 64 = 256 bits, e.g. up to 128 binary
// attributes). The StatusOr entry points return InvalidArgument for a wider
// schema; the vector-returning ones take the fit as a precondition.

/// §III-A: enumerate the whole pattern graph, compute every coverage, and
/// filter non-maximal uncovered patterns pairwise. Exponential; guarded by
/// `options.enumeration_limit`. This is Problem 1 solved by definition —
/// the reference the packed searches are tested against — and the only
/// search that does not pack (it works for any schema width).
StatusOr<std::vector<Pattern>> FindMupsNaive(const CoverageOracle& oracle,
                                             const Schema& schema,
                                             const MupSearchOptions& options,
                                             MupSearchStats* stats = nullptr);

/// §III-C, Algorithm 1: top-down BFS with Rule-1 candidate generation.
///
/// Precondition: the schema fits a PatternCodec (asserted).
///
/// Implementation note: we keep the *covered* candidates of the previous
/// level in Qp (rather than all candidates). With Qp as the literal previous
/// queue, a candidate whose every parent was generated-but-skipped passes the
/// parent check and can be emitted even though it is dominated (e.g.
/// D = {1101, 1110}, τ = 1 wrongly emits 1100 next to the real MUP XX00).
/// Tracking covered candidates restores the intended invariant: a node's
/// coverage is computed only if all its parents are verified covered.
std::vector<Pattern> FindMupsPatternBreaker(const CoverageOracle& oracle,
                                            const Schema& schema,
                                            const MupSearchOptions& options,
                                            MupSearchStats* stats = nullptr);

inline std::vector<Pattern> FindMupsPatternBreaker(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr) {
  return FindMupsPatternBreaker(oracle, oracle.data().schema(), options,
                                stats);
}

/// §III-D, Algorithm 2: bottom-up combination with Rule-2 candidate
/// generation; coverage of a parent is the sum over a partition family of
/// children, so the dataset is only consulted for the level-d pass. That pass
/// enumerates all Π c_i full combinations and is guarded by
/// `options.enumeration_limit`; with `options.num_threads > 1` it is sharded
/// over the shared ThreadPool (bit-identical output for any worker count).
StatusOr<std::vector<Pattern>> FindMupsPatternCombiner(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr);

/// §III-E, Algorithm 3: DFS dive to an uncovered node, climb to a MUP, prune
/// everything dominating or dominated by discovered MUPs (via the Appendix-B
/// inverted indices; see MupSearchOptions::dominance_mode for the ablation
/// alternatives). Always serial: options.num_threads is ignored.
/// Precondition: the schema fits a PatternCodec (asserted).
std::vector<Pattern> FindMupsDeepDiver(const CoverageOracle& oracle,
                                       const Schema& schema,
                                       const MupSearchOptions& options,
                                       MupSearchStats* stats = nullptr);

inline std::vector<Pattern> FindMupsDeepDiver(const BitmapCoverage& oracle,
                                              const MupSearchOptions& options,
                                              MupSearchStats* stats = nullptr) {
  return FindMupsDeepDiver(oracle, oracle.data().schema(), options, stats);
}

/// §V-C: the apriori adaptation — frequent item-set mining over
/// (attribute, value) items; MUPs are the valid members of the negative
/// border. Kept as the baseline the paper compares against.
StatusOr<std::vector<Pattern>> FindMupsApriori(const BitmapCoverage& oracle,
                                               const MupSearchOptions& options,
                                               MupSearchStats* stats = nullptr);

/// Dispatch on `algorithm`; results are sorted lexicographically so that all
/// algorithms produce identical output for identical inputs.
StatusOr<std::vector<Pattern>> FindMups(MupAlgorithm algorithm,
                                        const BitmapCoverage& oracle,
                                        const MupSearchOptions& options,
                                        MupSearchStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Packed entry points. The FindMups* functions above run these cores and
// decode at the boundary; callers that can consume packed results — the
// service/wire layer, the benchmarks — skip the decode entirely.

/// A MUP set in packed form plus the codec that gives the keys meaning.
/// `mups` is sorted in the same lexicographic cell order FindMups reports.
struct PackedMupSet {
  PatternCodec codec;
  std::vector<PackedPattern> mups;

  std::vector<Pattern> Materialize() const { return codec.DecodeAll(mups); }
};

/// Packed cores of the individual algorithms. `codec` must have been built
/// from the oracle's schema. Results are sorted (same order as the public
/// entry points); stats are filled identically.
std::vector<PackedPattern> FindMupsPatternBreakerPacked(
    const CoverageOracle& oracle, const Schema& schema,
    const PatternCodec& codec, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr);

std::vector<PackedPattern> FindMupsDeepDiverPacked(
    const CoverageOracle& oracle, const Schema& schema,
    const PatternCodec& codec, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr);

StatusOr<std::vector<PackedPattern>> FindMupsPatternCombinerPacked(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats = nullptr);

StatusOr<std::vector<PackedPattern>> FindMupsAprioriPacked(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats = nullptr);

/// Dispatch on `algorithm` returning packed results (NAIVE, which has no
/// packed core, is computed on Pattern and encoded). Fails with
/// InvalidArgument if the schema does not fit a PatternCodec.
StatusOr<PackedMupSet> FindMupsPacked(MupAlgorithm algorithm,
                                      const BitmapCoverage& oracle,
                                      const MupSearchOptions& options,
                                      MupSearchStats* stats = nullptr);

/// Checks the MUP invariants directly against an oracle: every pattern is
/// uncovered, every parent of every pattern is covered, and no pattern
/// dominates another. Used by tests and exposed for users who want to audit
/// third-party MUP lists.
Status ValidateMupSet(const std::vector<Pattern>& mups,
                      const CoverageOracle& oracle, std::uint64_t tau);

/// Histogram of MUP levels, indices 0..d (Fig. 6).
std::vector<std::size_t> MupLevelHistogram(const std::vector<Pattern>& mups,
                                           int num_attributes);

/// Maximum covered level λ of Definition 6: the largest λ such that every
/// MUP has level > λ. (d if there are no MUPs at all.)
int MaximumCoveredLevel(const std::vector<Pattern>& mups, int num_attributes);

}  // namespace coverage

#endif  // COVERAGE_MUPS_MUPS_H_
