#ifndef COVERAGE_PERSIST_DURABLE_ENGINE_H_
#define COVERAGE_PERSIST_DURABLE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "engine/coverage_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/fault_fs.h"
#include "persist/wal.h"

namespace coverage {
namespace persist {

/// Knobs of the persistence layer itself (the engine's problem knobs live
/// in EngineOptions and are persisted with the data).
struct DurableEngineOptions {
  /// Checkpoint automatically once the live WAL segment exceeds this many
  /// bytes (0 disables; Checkpoint() stays available). Bounds replay work
  /// after a crash.
  std::uint64_t checkpoint_after_wal_bytes = 8ull << 20;

  /// Snapshot generations retained after a checkpoint (>= 1). Generation
  /// N corrupt on disk -> recovery falls back to N-1, so 2 tolerates one
  /// bad snapshot.
  int keep_snapshots = 2;

  /// Filesystem seam; nullptr = the posix default. Tests pass a FaultFs.
  FileSystem* fs = nullptr;

  /// Optional latency histograms (must outlive the engine; null disables).
  /// fsync_histogram sees one observation per fdatasync on the live WAL
  /// segment; checkpoint_histogram one per snapshot+rotate cycle.
  obs::Histogram* fsync_histogram = nullptr;
  obs::Histogram* checkpoint_histogram = nullptr;

  Status Validate() const;
};

/// What recovery found and did; exposed for logs and /v1/stats.
struct RecoveryStats {
  bool recovered = false;  ///< true when Open found prior state on disk
  std::uint64_t snapshot_epoch = 0;   ///< epoch of the loaded snapshot (0 =
                                      ///< replayed from empty)
  std::size_t snapshots_discarded = 0;  ///< corrupt generations skipped
  std::size_t records_replayed = 0;     ///< WAL records applied
  std::uint64_t rows_replayed = 0;      ///< rows inside those records
  bool torn_tail = false;  ///< WAL ended mid-record (normal after a crash)
  std::vector<std::string> warnings;    ///< torn tails, discarded snapshots
};

/// Cumulative persistence counters (monotonic since Open).
struct PersistStats {
  std::uint64_t records_logged = 0;
  std::uint64_t wal_bytes = 0;        ///< live segment size
  std::uint64_t sync_calls = 0;       ///< fdatasync count (live segment)
  double sync_seconds = 0.0;          ///< total fdatasync latency
  std::uint64_t checkpoints_written = 0;
};

/// A CoverageEngine bound to a session directory: every mutation is
/// logged to a CRC32C-checksummed WAL (per EngineOptions::durability) and
/// periodically folded into an atomic snapshot, so the session survives
/// kill -9.
///
/// Layout of a session directory:
///   wal-<epoch>.log    mutation log, rotated at every checkpoint; the
///                      name's epoch is the engine epoch at rotation
///   snap-<epoch>.ckpt  full-state snapshot (EngineImage) at that epoch
///
/// Contract: under durability=fsync every acknowledged mutation survives a
/// crash; under async the tail since the last fdatasync may be lost; under
/// none only checkpoints persist. Recovery (Open on a non-empty dir) loads
/// the newest valid snapshot — falling back a generation if corrupt — and
/// replays the WAL through the engine's own AppendRows/RetractRows, so the
/// recovered epoch is bit-identical (same MUP set, same query answers) to
/// the surviving prefix. A torn trailing record is expected crash damage:
/// recovery keeps the valid prefix and warns. After recovery the state is
/// re-checkpointed and the WAL rotated, leaving the directory clean.
///
/// Failure semantics: a WAL append/sync failure *after* the in-memory
/// engine applied the mutation leaves memory ahead of disk, so the
/// DurableEngine poisons itself — every later mutation fails with the
/// original error; reads stay available. Snapshot failures are non-fatal
/// (the WAL still covers everything).
///
/// Thread-safe: mutations serialise internally; reads hit the engine's
/// lock-free published snapshot. fsync is group-committed — concurrent
/// writers coalesce onto one fdatasync.
class DurableEngine {
 public:
  /// Creates a fresh durable session at `dir` (created if missing; must
  /// hold no prior state — reopening an existing session with a brand-new
  /// schema is almost certainly a caller bug).
  static StatusOr<std::unique_ptr<DurableEngine>> Create(
      const std::string& dir, const Schema& schema, EngineOptions engine_opts,
      DurableEngineOptions opts = {});

  /// Reopens the session persisted at `dir` (NotFound when none). The
  /// stored schema and problem knobs (tau, max_level, window) win — they define the session's Problem-1 instance; only runtime
  /// knobs are taken from `runtime`: num_threads, and durability (so an
  /// operator can e.g. upgrade async -> fsync across a restart).
  static StatusOr<std::unique_ptr<DurableEngine>> Recover(
      const std::string& dir, const EngineOptions& runtime,
      DurableEngineOptions opts = {});

  ~DurableEngine();

  /// Appends `rows` as one epoch: engine first, then WAL (+ eviction
  /// marker in window mode), then fdatasync under durability=fsync. On
  /// return under fsync the mutation is crash-durable. A non-null `trace`
  /// (owned by the calling thread) receives `engine_update`, `wal_append`,
  /// `wal_fsync`, and — when one triggers — `checkpoint` stages.
  Status Append(const Dataset& rows, EngineUpdateStats* stats = nullptr,
                obs::Trace* trace = nullptr);

  /// Retracts one occurrence per row, same logging pipeline.
  Status Retract(const Dataset& rows, EngineUpdateStats* stats = nullptr,
                 obs::Trace* trace = nullptr);

  /// Writes a snapshot at the current epoch, rotates to a fresh WAL
  /// segment, and prunes generations past keep_snapshots (plus the WAL
  /// segments older than the oldest kept snapshot).
  Status Checkpoint();

  /// The wrapped engine. Reads (snapshot(), Query, Mups) are safe from any
  /// thread; do NOT mutate through it — bypassing the WAL forfeits every
  /// durability guarantee.
  CoverageEngine& engine() { return *engine_; }
  const CoverageEngine& engine() const { return *engine_; }

  const std::string& dir() const { return dir_; }
  DurabilityMode durability() const { return engine_->options().durability; }

  const RecoveryStats& recovery_stats() const { return recovery_; }
  PersistStats persist_stats() const;

  /// Non-OK once a WAL failure poisoned the session (see class comment).
  Status health() const;

 private:
  DurableEngine(std::string dir, DurableEngineOptions opts,
                std::unique_ptr<CoverageEngine> engine);

  /// Shared mutation pipeline for Append/Retract.
  Status Mutate(WalRecordType type, const Dataset& rows,
                EngineUpdateStats* stats, obs::Trace* trace);

  /// Checkpoint body; requires mu_.
  Status CheckpointLocked();

  /// Opens a fresh WAL segment at the current epoch and writes its header
  /// record; requires mu_.
  Status RotateWalLocked();

  std::string dir_;
  DurableEngineOptions opts_;
  FileSystem* fs_;  // opts_.fs resolved

  /// Serialises mutations + checkpoints (not reads, and not the group-
  /// commit fsync, which runs outside so writers coalesce); mutable for
  /// the const stats accessors.
  mutable std::mutex mu_;
  std::unique_ptr<CoverageEngine> engine_;
  /// shared_ptr: a mutation syncs its segment outside mu_, so rotation
  /// must not destroy the writer out from under it.
  std::shared_ptr<WalWriter> wal_;
  Status poisoned_ = Status::OK();
  RecoveryStats recovery_;
  std::uint64_t records_logged_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  /// sync stats of rotated-away segments, folded into persist_stats().
  std::uint64_t retired_sync_calls_ = 0;
  double retired_sync_seconds_ = 0.0;
};

}  // namespace persist
}  // namespace coverage

#endif  // COVERAGE_PERSIST_DURABLE_ENGINE_H_
