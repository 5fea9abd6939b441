#ifndef COVERAGE_PERSIST_SNAPSHOT_H_
#define COVERAGE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/coverage_engine.h"
#include "persist/codec.h"
#include "persist/fault_fs.h"

namespace coverage {
namespace persist {

/// Snapshot file format:
///
///   [8-byte magic "covsnp01"][u32 crc32c(body)][body]
///
/// where body is the codec.h encoding of an EngineImage (schema, options,
/// epoch, aggregated cells + counts, MUP set, window batches). One
/// checksum over the whole body: a snapshot is either entirely valid or
/// discarded — recovery falls back to the previous generation, never to a
/// partially decoded image.
inline constexpr char kSnapshotMagic[8] = {'c', 'o', 'v', 's', 'n',
                                           'p', '0', '1'};

/// File names inside a session directory. Epochs are zero-padded to 20
/// digits so lexicographic directory order equals numeric order.
std::string SnapshotFileName(std::uint64_t epoch);
std::string WalFileName(std::uint64_t base_epoch);

/// Inverse of the two above; nullopt when `name` is not of that shape.
std::optional<std::uint64_t> ParseSnapshotFileName(const std::string& name);
std::optional<std::uint64_t> ParseWalFileName(const std::string& name);

/// The codec.h body encoding of an image (exposed for WAL header reuse and
/// the corruption tests).
std::string EncodeEngineImage(const EngineImage& image);
StatusOr<EngineImage> DecodeEngineImage(std::string_view body);

/// Serializes `options`' durable problem knobs (tau, max_level, window
/// limits, durability) plus one reserved byte, written as 0 — runtime knobs
/// are not persisted and decode to their defaults.
void EncodeEngineOptions(const EngineOptions& options, ByteWriter* out);
Status DecodeEngineOptions(ByteReader* in, EngineOptions* options);

/// Atomically writes `image` as `dir/snap-<epoch>.ckpt`: tmp file + data
/// fsync + rename-into-place + directory fsync. On any failure the tmp
/// file is removed (best effort) and no generation is replaced.
Status WriteSnapshotFile(FileSystem* fs, const std::string& dir,
                         const EngineImage& image);

/// Reads and validates one snapshot file (magic, checksum, full decode).
StatusOr<EngineImage> ReadSnapshotFile(FileSystem* fs,
                                       const std::string& path);

/// The persistence-relevant contents of a session directory, sorted
/// ascending.
struct SessionDirListing {
  std::vector<std::uint64_t> snapshot_epochs;
  std::vector<std::uint64_t> wal_bases;
  bool empty() const { return snapshot_epochs.empty() && wal_bases.empty(); }
};

/// Lists snapshots and WAL segments under `dir`; unknown files (and the
/// tmp files of interrupted snapshot writes) are ignored. A missing
/// directory lists as empty.
StatusOr<SessionDirListing> ListSessionDir(FileSystem* fs,
                                           const std::string& dir);

}  // namespace persist
}  // namespace coverage

#endif  // COVERAGE_PERSIST_SNAPSHOT_H_
