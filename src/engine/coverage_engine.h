#ifndef COVERAGE_ENGINE_COVERAGE_ENGINE_H_
#define COVERAGE_ENGINE_COVERAGE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/coverage_oracle.h"
#include "dataset/aggregate.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "mups/mups.h"
#include "pattern/pattern.h"

namespace coverage {

class ThreadPool;

/// Write-ahead-log durability policy. Consumed by persist::DurableEngine —
/// the engine itself performs no IO; the knob lives here so one options
/// struct configures a session end to end.
enum class DurabilityMode {
  kNone,   ///< no WAL; persistence only through explicit checkpoints
  kAsync,  ///< WAL written per commit, no fsync (crash may lose a tail)
  kFsync,  ///< group-commit fdatasync before acknowledging each mutation
};

/// Configuration of a CoverageEngine; fixed for the engine's lifetime so
/// every epoch answers the same Problem-1 instance.
struct EngineOptions {
  /// Coverage threshold τ (Definition 3).
  std::uint64_t tau = 30;

  /// When >= 0, maintain only MUPs of level <= max_level (§V-C3).
  int max_level = -1;

  /// Worker count for the epoch updates: the old-MUP recheck sweep is
  /// distributed over a pool of this size (deterministic — results are
  /// merged by index). 1 runs everything inline.
  int num_threads = 1;

  /// Sliding-window mode. When `window_max_rows > 0`, each append retains
  /// the batch and then evicts the *oldest retained batches whole* until at
  /// most window_max_rows rows remain (so a batch larger than the window
  /// is evicted in the very epoch that appended it, leaving the window
  /// empty). When `window_max_epochs > 0`, at most that many most-recent
  /// append batches are retained. Both zero (the default) disables
  /// windowing: nothing is retained and appends are pure accumulation.
  /// Either limit alone or both together may be set.
  std::size_t window_max_rows = 0;
  std::size_t window_max_epochs = 0;

  /// Durability policy when the engine is wrapped by persist::DurableEngine;
  /// ignored by the in-memory engine itself.
  DurabilityMode durability = DurabilityMode::kNone;

  /// Tombstone compaction: when a retraction epoch leaves more than this
  /// fraction of the aggregated relation's combinations tombstoned
  /// (zero-count), the epoch is published over a dense rebuild instead —
  /// live combinations re-packed into fresh ids, a from-scratch oracle,
  /// the MUP set carried over verbatim (compaction never changes the live
  /// multiset, so query answers and MUPs are bit-identical; only internal
  /// ids shift). Long retraction/sliding-window workloads otherwise
  /// accumulate dead columns in every bitmap forever. 0 disables (the
  /// historical behaviour). Not persisted: a restored engine applies its
  /// caller's setting.
  double compact_tombstone_fraction = 0.0;
};

/// A serializable full-state image of an engine: everything needed to
/// reconstruct the published epoch bit-identically (same MUP set, same
/// query answers) without re-running any MUP search. Captured as a
/// consistent cut under the engine's writer lock.
struct EngineImage {
  Schema schema;
  EngineOptions options;  ///< problem knobs; runtime knobs reset by caller
  std::uint64_t epoch = 0;
  std::vector<Value> agg_cells;           ///< combos row-major, id order
  std::vector<std::uint64_t> agg_counts;  ///< parallel counts (0 = tombstone)
  std::vector<Pattern> mups;              ///< sorted, as published
  std::vector<Dataset> window_batches;    ///< retained batches, oldest first
};

/// Instrumentation of one epoch advance (one AppendRows / RetractRows call;
/// a windowed append that evicts covers both its append and its retraction
/// step).
struct EngineUpdateStats {
  std::size_t rows_appended = 0;
  std::size_t rows_retracted = 0;     ///< evicted or explicitly retracted
  std::size_t new_combinations = 0;   ///< distinct combos added this epoch
  std::size_t combinations_tombstoned = 0;  ///< combos whose count hit 0
  std::size_t mups_rechecked = 0;     ///< previous MUPs re-probed
  std::size_t mups_newly_covered = 0; ///< previous MUPs that crossed τ
  std::size_t mups_demoted = 0;       ///< previous MUPs that lost maximality
  std::size_t mups_added = 0;         ///< fresh MUPs discovered
  std::uint64_t coverage_queries = 0; ///< oracle calls spent on maintenance
  double seconds = 0.0;               ///< epoch build wall-clock
};

/// Instrumentation of one IngestCsvChunked call.
struct IngestStats {
  std::size_t chunks = 0;
  std::size_t rows = 0;
  /// Largest number of decoded rows resident at any instant — bounded by the
  /// requested chunk size by construction; the engine never materialises the
  /// stream (only the aggregated relation, whose size is min(n, Π c_i)).
  std::size_t peak_chunk_rows = 0;
  double read_seconds = 0.0;    ///< CSV parsing + dictionary encoding
  double update_seconds = 0.0;  ///< epoch builds (bitmap append + MUPs)
  std::uint64_t coverage_queries = 0;
};

/// A long-lived, incrementally maintained coverage service: the paper's
/// assess → acquire → re-assess loop (§I) without ever recomputing from
/// scratch. The engine owns a fixed (bucketized) schema and advances through
/// *epochs*: each AppendRows / ingest chunk copies the current aggregated
/// relation, extends it in place, grows the inverted bitmap index by one
/// word-blocked append (BitmapCoverage's incremental constructor), and
/// updates the MUP set incrementally.
///
/// MUP maintenance exploits insert monotonicity: appending rows only
/// increases pattern counts, so covered patterns stay covered, a previous
/// MUP that is still uncovered is still a MUP, and every *new* MUP lies
/// strictly beneath a previous MUP whose count crossed τ. The update
/// therefore rechecks the previous MUPs and re-expands only from the newly
/// covered ones, pruning with the Appendix-B dominance index (re-seeded per
/// epoch via PackedMupIndex::AddBatch). The result is bit-identical to a
/// from-scratch search on the accumulated data.
///
/// Data also shrinks (sliding windows, retention, GDPR erasure), through
/// RetractRows or the EngineOptions sliding-window mode, and deletion
/// *inverts* the monotonicity argument: counts only fall, so uncovered
/// patterns stay uncovered — every previous MUP survives unless a parent
/// dropped below τ, in which case it is no longer maximal and its
/// replacement MUPs sit strictly *above* it in the pattern graph. The
/// retraction update rechecks each previous MUP's parents, then walks
/// ancestors upward from the retracted combinations that are below τ,
/// through the uncovered region only, confirming as a MUP every uncovered
/// pattern whose parents are all covered. Both dominance directions of the
/// Appendix-B index prune oracle calls during the climb (dominated by a
/// MUP ⇒ uncovered; strictly dominating a MUP ⇒ covered). Retracted
/// combinations whose multiplicity reaches 0 are tombstoned in
/// AggregatedData (ids stay prefix-stable) and their bits masked by
/// BitmapCoverage's decremental constructor. Again the result is
/// bit-identical to a from-scratch search on the surviving rows.
///
/// Concurrency: epochs are immutable once published. Readers take a
/// shared_ptr snapshot (Query / Mups / snapshot()) and are never blocked by
/// or exposed to an in-flight epoch build; writers serialise among
/// themselves on an internal writer lock. Queries go through the caller's
/// QueryContext exactly as with a standalone BitmapCoverage.
///
/// Maintenance runs on PackedPattern, so the schema must fit a PatternCodec
/// (256 packed bits). Restore and the service and durable-session entry
/// points return InvalidArgument for a wider schema; the constructor takes
/// the fit as a precondition (asserted).
///
/// Complexity per epoch: O(distinct combinations) for the aggregated-
/// relation copy and index extension, plus maintenance work proportional to
/// the affected region of the pattern graph (rechecked MUPs + the BFS /
/// climb frontier), not to the total data size.
class CoverageEngine {
 public:
  /// One immutable epoch: the aggregated relation, its oracle, and the MUP
  /// set. Handed out as shared_ptr<const Snapshot>; safe to hold across
  /// later appends (it simply keeps answering for its epoch) and to share
  /// across threads.
  class Snapshot {
   public:
    const AggregatedData& data() const { return agg_; }
    const BitmapCoverage& oracle() const { return oracle_; }
    /// Sorted lexicographically, like every FindMups* result.
    const std::vector<Pattern>& mups() const { return mups_; }
    std::uint64_t epoch() const { return epoch_; }
    std::uint64_t num_rows() const { return agg_.total_count(); }

   private:
    friend class CoverageEngine;
    Snapshot(AggregatedData agg, const BitmapCoverage* prev,
             std::uint64_t epoch)
        : agg_(std::move(agg)),
          oracle_(prev == nullptr ? BitmapCoverage(agg_)
                                  : BitmapCoverage(agg_, *prev)),
          epoch_(epoch) {}

    /// Retraction / mixed epoch: combination liveness changed within the
    /// shared prefix, so the oracle masks `tombstoned` ids and re-sets
    /// `revived` ones (see BitmapCoverage's decremental constructor).
    Snapshot(AggregatedData agg, const BitmapCoverage& prev,
             std::span<const std::size_t> tombstoned,
             std::span<const std::size_t> revived, std::uint64_t epoch)
        : agg_(std::move(agg)),
          oracle_(agg_, prev, tombstoned, revived),
          epoch_(epoch) {}

    AggregatedData agg_;
    BitmapCoverage oracle_;  // references agg_
    std::vector<Pattern> mups_;
    std::uint64_t epoch_;
  };

  /// A borrowed row of encoded values, schema-width.
  using Row = std::span<const Value>;

  /// Starts at epoch 0 over the empty dataset (whose only MUP is the root
  /// whenever tau >= 1). The schema must be final — bucketize first — and
  /// fit a PatternCodec.
  explicit CoverageEngine(Schema schema, EngineOptions options = {});
  ~CoverageEngine();

  const Schema& schema() const { return schema_; }
  const EngineOptions& options() const { return options_; }

  /// The currently published epoch; never null.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Streams CSV data (header validated against the schema) in chunks of
  /// `chunk_rows`, advancing one epoch per chunk. Only one chunk of decoded
  /// rows is ever resident; the stream itself is never materialised.
  StatusOr<IngestStats> IngestCsvChunked(std::istream& is,
                                         std::size_t chunk_rows);

  /// Appends encoded rows (validated against the schema) as one epoch.
  Status AppendRows(std::span<const Row> rows,
                    EngineUpdateStats* stats = nullptr);

  /// Appends every row of `rows` (whose schema must equal ours) as one
  /// epoch. In sliding-window mode the batch is retained and the epoch
  /// additionally evicts the oldest retained batches past the configured
  /// limit (EngineOptions::window_max_rows / window_max_epochs); the
  /// published snapshot reflects append and eviction together.
  Status AppendRows(const Dataset& rows, EngineUpdateStats* stats = nullptr);

  /// Removes one occurrence per row of `rows` (GDPR erasure / manual
  /// retention) as one epoch. Every row must currently be present in the
  /// requested multiplicity — otherwise InvalidArgument is returned and
  /// nothing is published. In sliding-window mode the retracted occurrences
  /// are also scrubbed from the retained batches, oldest first, so a later
  /// eviction never double-retracts them.
  Status RetractRows(std::span<const Row> rows,
                     EngineUpdateStats* stats = nullptr);

  /// As above, for a whole Dataset (whose schema must equal ours).
  Status RetractRows(const Dataset& rows, EngineUpdateStats* stats = nullptr);

  /// Captures the current epoch plus the sliding-window bookkeeping as one
  /// consistent cut (serialises with writers on the writer lock). The image
  /// round-trips through Restore.
  EngineImage CaptureImage() const;

  /// Reconstructs an engine from a captured image. The restored engine
  /// publishes the image's epoch with a from-scratch oracle over the
  /// restored relation and the image's MUP set verbatim — no MUP search
  /// runs, and query answers are bit-identical to the captured engine's
  /// (tombstoned combinations contribute 0 either way). The image is
  /// validated; a corrupted one, or one whose schema is too wide to pack,
  /// yields InvalidArgument, never UB.
  static StatusOr<std::unique_ptr<CoverageEngine>> Restore(EngineImage image);

  /// The current MUP set (Problem 1 on the accumulated data), sorted.
  std::vector<Pattern> Mups() const { return snapshot()->mups(); }

  /// cov(pattern) on the current epoch.
  std::uint64_t Query(const Pattern& pattern, QueryContext& ctx) const {
    return snapshot()->oracle().Coverage(pattern, ctx);
  }
  std::uint64_t Query(const Pattern& pattern) const {
    QueryContext ctx;
    return Query(pattern, ctx);
  }

  /// cov(pattern) >= tau on the current epoch.
  bool QueryAtLeast(const Pattern& pattern, std::uint64_t tau,
                    QueryContext& ctx) const {
    return snapshot()->oracle().CoverageAtLeast(pattern, tau, ctx);
  }

  std::uint64_t epoch() const { return snapshot()->epoch(); }
  std::uint64_t num_rows() const { return snapshot()->num_rows(); }

  /// Rows currently retained by the sliding window (0 when windowing is
  /// off). Takes the writer mutex briefly — a monitoring read, not a
  /// hot-path one.
  std::size_t window_rows() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return window_rows_;
  }

 private:
  /// Incremental Problem-1 maintenance for an append epoch (insert
  /// monotonicity, downward re-expansion); returns the new MUP set, sorted.
  /// Caller holds writer_mu_.
  std::vector<Pattern> UpdateMups(const Snapshot& next,
                                  const std::vector<Pattern>& old_mups,
                                  EngineUpdateStats* stats);

  /// Incremental Problem-1 maintenance for a retraction epoch (deletion
  /// monotonicity, upward climb from `seeds` — the retracted combinations
  /// now below τ); returns the new MUP set, sorted. Caller holds writer_mu_.
  std::vector<Pattern> RetractMups(const Snapshot& next,
                                   const std::vector<Pattern>& old_mups,
                                   const std::vector<Pattern>& seeds,
                                   EngineUpdateStats* stats);

  /// Builds the retraction snapshot: copies `base`'s relation, decrements
  /// every row of `removed` (InvalidArgument if one is absent; nothing
  /// published), diffs the prefix into tombstoned ids + climb seeds, and
  /// runs RetractMups. On success stores the ready-to-publish snapshot in
  /// `out`. Caller holds writer_mu_.
  Status RetractFrom(const std::shared_ptr<const Snapshot>& base,
                     const Dataset& removed, std::uint64_t epoch,
                     EngineUpdateStats* stats,
                     std::shared_ptr<Snapshot>* out);

  /// Removes one occurrence per row of `removed` from the retained window
  /// batches, oldest occurrences first (keyed by AggregatedData::KeyOf);
  /// drops batches scrubbed empty. Caller holds writer_mu_ and has already
  /// validated availability.
  void ScrubWindow(const Dataset& removed);

  bool Windowed() const {
    return options_.window_max_rows > 0 || options_.window_max_epochs > 0;
  }

  void Publish(std::shared_ptr<const Snapshot> next);

  Schema schema_;
  EngineOptions options_;
  /// Built once at construction; every maintenance pass runs on it.
  PatternCodec codec_;
  mutable std::mutex snapshot_mu_;  // guards current_ (pointer swap only)
  /// Serialises epoch builds; mutable so const CaptureImage can take a
  /// consistent cut of snapshot + window state.
  mutable std::mutex writer_mu_;
  std::shared_ptr<const Snapshot> current_;
  /// Lazily built recheck pool, reused across epochs (guarded by writer_mu_)
  /// so a long chunked ingest pays thread spawn once, not per chunk.
  std::unique_ptr<ThreadPool> pool_;
  /// Sliding-window bookkeeping (guarded by writer_mu_): the retained
  /// append batches, oldest first, and their total row count. Empty unless
  /// a window limit is configured.
  std::deque<Dataset> window_batches_;
  std::size_t window_rows_ = 0;
};

}  // namespace coverage

#endif  // COVERAGE_ENGINE_COVERAGE_ENGINE_H_
