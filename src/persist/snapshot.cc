#include "persist/snapshot.h"

#include <algorithm>
#include <utility>

namespace coverage {
namespace persist {
namespace {

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".ckpt";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";
constexpr int kEpochDigits = 20;  // fits every u64

std::string PaddedEpoch(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  return std::string(kEpochDigits - digits.size(), '0') + digits;
}

std::optional<std::uint64_t> ParseEpochName(const std::string& name,
                                            std::string_view prefix,
                                            std::string_view suffix) {
  if (name.size() != prefix.size() + kEpochDigits + suffix.size()) {
    return std::nullopt;
  }
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t epoch = 0;
  for (int i = 0; i < kEpochDigits; ++i) {
    const char c = name[prefix.size() + static_cast<std::size_t>(i)];
    if (c < '0' || c > '9') return std::nullopt;
    // u64 overflow is impossible: 20 decimal digits from a name we padded
    // ourselves; a hand-crafted overflow just wraps into a wrong (ignored)
    // epoch, never UB.
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

}  // namespace

std::string SnapshotFileName(std::uint64_t epoch) {
  return kSnapshotPrefix + PaddedEpoch(epoch) + kSnapshotSuffix;
}

std::string WalFileName(std::uint64_t base_epoch) {
  return kWalPrefix + PaddedEpoch(base_epoch) + kWalSuffix;
}

std::optional<std::uint64_t> ParseSnapshotFileName(const std::string& name) {
  return ParseEpochName(name, kSnapshotPrefix, kSnapshotSuffix);
}

std::optional<std::uint64_t> ParseWalFileName(const std::string& name) {
  return ParseEpochName(name, kWalPrefix, kWalSuffix);
}

void EncodeEngineOptions(const EngineOptions& options, ByteWriter* out) {
  out->PutU64(options.tau);
  out->PutI64(options.max_level);
  out->PutU8(0);  // reserved: formerly the engine's dominance mode
  out->PutU64(options.window_max_rows);
  out->PutU64(options.window_max_epochs);
  out->PutU8(static_cast<std::uint8_t>(options.durability));
}

Status DecodeEngineOptions(ByteReader* in, EngineOptions* options) {
  *options = EngineOptions{};
  std::int64_t max_level = 0;
  std::uint8_t reserved = 0, durability = 0;
  std::uint64_t window_rows = 0, window_epochs = 0;
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&options->tau));
  COVERAGE_RETURN_IF_ERROR(in->GetI64(&max_level));
  COVERAGE_RETURN_IF_ERROR(in->GetU8(&reserved));
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&window_rows));
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&window_epochs));
  COVERAGE_RETURN_IF_ERROR(in->GetU8(&durability));
  // The reserved byte held a dominance mode (0..2) in older snapshots. Any
  // such value restores (the engine always prunes with the Appendix-B
  // index, and every mode produced the same MUP set); anything larger is a
  // corrupt or hostile image.
  if (reserved > 2) {
    return Status::InvalidArgument("decode: unknown dominance mode " +
                                   std::to_string(reserved));
  }
  if (durability > static_cast<std::uint8_t>(DurabilityMode::kFsync)) {
    return Status::InvalidArgument("decode: unknown durability mode " +
                                   std::to_string(durability));
  }
  options->max_level = static_cast<int>(max_level);
  options->window_max_rows = static_cast<std::size_t>(window_rows);
  options->window_max_epochs = static_cast<std::size_t>(window_epochs);
  options->durability = static_cast<DurabilityMode>(durability);
  return Status::OK();
}

std::string EncodeEngineImage(const EngineImage& image) {
  ByteWriter out;
  EncodeSchema(image.schema, &out);
  EncodeEngineOptions(image.options, &out);
  out.PutU64(image.epoch);
  out.PutU64(image.agg_counts.size());
  for (const Value v : image.agg_cells) {
    out.PutU16(static_cast<std::uint16_t>(v));
  }
  for (const std::uint64_t c : image.agg_counts) out.PutU64(c);
  EncodePatterns(image.mups, &out);
  out.PutU64(image.window_batches.size());
  for (const Dataset& batch : image.window_batches) EncodeRows(batch, &out);
  return out.Take();
}

StatusOr<EngineImage> DecodeEngineImage(std::string_view body) {
  ByteReader in(body);
  EngineImage image;

  auto schema = DecodeSchema(&in);
  if (!schema.ok()) return schema.status();
  image.schema = std::move(*schema);
  const std::size_t d =
      static_cast<std::size_t>(image.schema.num_attributes());

  COVERAGE_RETURN_IF_ERROR(DecodeEngineOptions(&in, &image.options));
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&image.epoch));

  std::uint64_t num_combinations = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&num_combinations));
  if (num_combinations > in.remaining() ||
      num_combinations * d * 2 > in.remaining()) {
    return Status::InvalidArgument("decode: implausible combination count " +
                                   std::to_string(num_combinations));
  }
  image.agg_cells.reserve(num_combinations * d);
  for (std::uint64_t i = 0; i < num_combinations * d; ++i) {
    std::uint16_t raw = 0;
    COVERAGE_RETURN_IF_ERROR(in.GetU16(&raw));
    image.agg_cells.push_back(static_cast<Value>(raw));
  }
  image.agg_counts.reserve(num_combinations);
  for (std::uint64_t i = 0; i < num_combinations; ++i) {
    std::uint64_t count = 0;
    COVERAGE_RETURN_IF_ERROR(in.GetU64(&count));
    image.agg_counts.push_back(count);
  }

  COVERAGE_RETURN_IF_ERROR(DecodePatterns(image.schema, &in, &image.mups));

  std::uint64_t num_batches = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&num_batches));
  if (num_batches > in.remaining()) {
    return Status::InvalidArgument("decode: implausible batch count " +
                                   std::to_string(num_batches));
  }
  image.window_batches.reserve(num_batches);
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    auto batch = DecodeRows(image.schema, &in);
    if (!batch.ok()) return batch.status();
    image.window_batches.push_back(std::move(*batch));
  }
  COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
  return image;
}

Status WriteSnapshotFile(FileSystem* fs, const std::string& dir,
                         const EngineImage& image) {
  const std::string body = EncodeEngineImage(image);
  ByteWriter header;
  header.PutU32(Crc32c(body));

  const std::string final_path = dir + "/" + SnapshotFileName(image.epoch);
  const std::string tmp_path = final_path + ".tmp";

  const Status written = [&] {
    auto file = fs->NewWritableFile(tmp_path, /*truncate=*/true);
    if (!file.ok()) return file.status();
    COVERAGE_RETURN_IF_ERROR(
        (*file)->Append({kSnapshotMagic, sizeof(kSnapshotMagic)}));
    COVERAGE_RETURN_IF_ERROR((*file)->Append(header.data()));
    COVERAGE_RETURN_IF_ERROR((*file)->Append(body));
    COVERAGE_RETURN_IF_ERROR((*file)->Sync());
    return (*file)->Close();
  }();
  if (!written.ok()) {
    (void)fs->Remove(tmp_path);  // best effort; tmp files are also ignored
    return written;
  }
  COVERAGE_RETURN_IF_ERROR(fs->Rename(tmp_path, final_path));
  return fs->SyncDir(dir);
}

StatusOr<EngineImage> ReadSnapshotFile(FileSystem* fs,
                                       const std::string& path) {
  auto bytes = fs->ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& data = *bytes;
  if (data.size() < sizeof(kSnapshotMagic) + 4 ||
      data.compare(0, sizeof(kSnapshotMagic), kSnapshotMagic,
                   sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a snapshot file");
  }
  ByteReader header(
      std::string_view(data).substr(sizeof(kSnapshotMagic), 4));
  std::uint32_t crc = 0;
  (void)header.GetU32(&crc);  // cannot fail: 4 bytes are present
  const std::string_view body =
      std::string_view(data).substr(sizeof(kSnapshotMagic) + 4);
  if (Crc32c(body) != crc) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' fails its checksum");
  }
  return DecodeEngineImage(body);
}

StatusOr<SessionDirListing> ListSessionDir(FileSystem* fs,
                                           const std::string& dir) {
  SessionDirListing listing;
  if (!fs->Exists(dir)) return listing;
  auto names = fs->ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    if (const auto epoch = ParseSnapshotFileName(name)) {
      listing.snapshot_epochs.push_back(*epoch);
    } else if (const auto base = ParseWalFileName(name)) {
      listing.wal_bases.push_back(*base);
    }
  }
  std::sort(listing.snapshot_epochs.begin(), listing.snapshot_epochs.end());
  std::sort(listing.wal_bases.begin(), listing.wal_bases.end());
  return listing;
}

}  // namespace persist
}  // namespace coverage
