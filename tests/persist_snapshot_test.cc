#include "persist/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "engine/coverage_engine.h"
#include "persist/codec.h"
#include "persist/durable_engine.h"
#include "persist/fault_fs.h"
#include "persist/wal.h"

namespace coverage {
namespace persist {
namespace {

Schema NamedSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back({"gender", {"male", "female", "nonbinary"}});
  attrs.push_back({"race", {"white", "black", "asian", "other"}});
  attrs.push_back({"age", {"young", "mid", "old"}});
  return Schema(std::move(attrs));
}

EngineImage MakeImage() {
  EngineImage image;
  image.schema = NamedSchema();
  image.options.tau = 7;
  image.options.max_level = 2;
  image.options.window_max_rows = 100;
  image.options.window_max_epochs = 3;
  image.options.durability = DurabilityMode::kAsync;
  image.epoch = 42;
  image.agg_cells = {Value{0}, Value{1}, Value{2}, Value{2}, Value{3},
                     Value{0}};
  image.agg_counts = {5, 9};
  image.mups = {Pattern({Value{1}, kWildcard, kWildcard}),
                Pattern({kWildcard, Value{2}, Value{0}})};
  Dataset batch(image.schema);
  batch.AppendRow(std::vector<Value>{Value{0}, Value{1}, Value{2}});
  batch.AppendRow(std::vector<Value>{Value{2}, Value{3}, Value{0}});
  image.window_batches.push_back(std::move(batch));
  return image;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("snap_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST(PersistCodec, Crc32cMatchesKnownVectors) {
  // RFC 3720 (iSCSI) test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aau);
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_NE(Crc32c("abc"), Crc32c("abd"));
}

TEST(PersistCodec, SchemaRoundtripsNamesAndDictionaries) {
  const Schema schema = NamedSchema();
  ByteWriter out;
  EncodeSchema(schema, &out);
  ByteReader in(out.data());
  auto back = DecodeSchema(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(in.Done());
  EXPECT_EQ(*back, schema);
  EXPECT_EQ(back->attribute(0).name, "gender");
  EXPECT_EQ(back->attribute(1).value_names[2], "asian");
}

TEST(PersistCodec, RowsRoundtripAndValidateRange) {
  const Schema schema = Schema::Uniform({2, 3});
  Dataset data(schema);
  data.AppendRow(std::vector<Value>{Value{1}, Value{2}});
  data.AppendRow(std::vector<Value>{Value{0}, Value{0}});
  ByteWriter out;
  EncodeRows(data, &out);
  ByteReader in(out.data());
  auto back = DecodeRows(schema, &in);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->row(0)[1], Value{2});

  // The same bytes against a narrower schema must fail validation.
  ByteReader narrow(out.data());
  EXPECT_FALSE(DecodeRows(Schema::Binary(2), &narrow).ok());
}

TEST(PersistCodec, ValuesRoundtripWildcard) {
  ByteWriter out;
  out.PutValues({Value{3}, kWildcard, Value{0}});
  ByteReader in(out.data());
  std::vector<Value> values;
  ASSERT_TRUE(in.GetValues(&values).ok());
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[1], kWildcard);
}

TEST(PersistCodec, TruncatedInputFailsNotCrashes) {
  const Schema schema = NamedSchema();
  ByteWriter out;
  EncodeSchema(schema, &out);
  const std::string full = out.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader in(std::string_view(full).substr(0, cut));
    auto decoded = DecodeSchema(&in);
    // Either a clean decode error, or a decode that consumed fewer bytes —
    // never a crash, never an allocation explosion.
    if (decoded.ok()) EXPECT_LT(cut, full.size());
  }
}

TEST(PersistCodec, EngineOptionsPersistProblemKnobsOnly) {
  EngineOptions options;
  options.tau = 13;
  options.max_level = -1;
  options.num_threads = 11;  // runtime knob: must NOT persist
  options.window_max_rows = 77;
  options.durability = DurabilityMode::kFsync;
  ByteWriter out;
  EncodeEngineOptions(options, &out);
  ByteReader in(out.data());
  EngineOptions back;
  ASSERT_TRUE(DecodeEngineOptions(&in, &back).ok());
  EXPECT_EQ(back.tau, 13u);
  EXPECT_EQ(back.max_level, -1);
  EXPECT_EQ(back.window_max_rows, 77u);
  EXPECT_EQ(back.durability, DurabilityMode::kFsync);
  EXPECT_NE(back.num_threads, 11);  // decoded to the default, not persisted
}

TEST(PersistCodec, EngineOptionsReservedByteAcceptsOldDominanceModes) {
  // Byte 16 (after u64 tau and i64 max_level) once held the engine's
  // dominance mode: 0 bitmap index, 1 linear scan, 2 no pruning. It is now
  // reserved and written as 0; older images carrying 1 or 2 must still
  // decode (the value is ignored), while anything larger stays corrupt.
  EngineOptions options;
  options.tau = 5;
  options.max_level = 3;
  options.window_max_epochs = 4;
  ByteWriter out;
  EncodeEngineOptions(options, &out);
  std::string bytes = out.data();
  constexpr std::size_t kReserved = 16;
  ASSERT_GT(bytes.size(), kReserved);
  EXPECT_EQ(bytes[kReserved], '\0');

  for (const std::uint8_t old_mode : {1, 2}) {
    bytes[kReserved] = static_cast<char>(old_mode);
    ByteReader in(bytes);
    EngineOptions back;
    ASSERT_TRUE(DecodeEngineOptions(&in, &back).ok())
        << "mode byte " << int{old_mode};
    EXPECT_EQ(back.tau, 5u);
    EXPECT_EQ(back.max_level, 3);
    EXPECT_EQ(back.window_max_epochs, 4u);
  }

  bytes[kReserved] = 3;
  ByteReader in(bytes);
  EngineOptions back;
  const Status status = DecodeEngineOptions(&in, &back);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(PersistSnapshotNames, FileNamesSortAndParse) {
  EXPECT_EQ(SnapshotFileName(7), "snap-00000000000000000007.ckpt");
  EXPECT_EQ(WalFileName(0), "wal-00000000000000000000.log");
  EXPECT_LT(SnapshotFileName(9), SnapshotFileName(10));  // lexicographic
  EXPECT_EQ(ParseSnapshotFileName(SnapshotFileName(123)), 123u);
  EXPECT_EQ(ParseWalFileName(WalFileName(456)), 456u);
  EXPECT_FALSE(ParseSnapshotFileName("snap-x.ckpt").has_value());
  EXPECT_FALSE(ParseSnapshotFileName(WalFileName(1)).has_value());
  EXPECT_FALSE(ParseWalFileName("wal.log").has_value());
}

TEST_F(SnapshotTest, ImageRoundtripsThroughFile) {
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDirs(dir_).ok());
  const EngineImage image = MakeImage();
  ASSERT_TRUE(WriteSnapshotFile(fs, dir_, image).ok());

  const std::string path = dir_ + "/" + SnapshotFileName(image.epoch);
  ASSERT_TRUE(fs->Exists(path));
  auto back = ReadSnapshotFile(fs, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema, image.schema);
  EXPECT_EQ(back->epoch, 42u);
  EXPECT_EQ(back->options.tau, 7u);
  EXPECT_EQ(back->options.window_max_rows, 100u);
  EXPECT_EQ(back->agg_cells, image.agg_cells);
  EXPECT_EQ(back->agg_counts, image.agg_counts);
  EXPECT_EQ(back->mups, image.mups);
  ASSERT_EQ(back->window_batches.size(), 1u);
  EXPECT_EQ(back->window_batches[0].num_rows(), 2u);
}

TEST_F(SnapshotTest, WideSchemaSnapshotIsRefusedOnReopen) {
  // 50 binary attributes (2 packed bits each) plus 160 cardinality-1
  // attributes (1 bit each) need 260 bits, over the 256-bit packed pattern
  // limit. Sessions written before maintenance became packed-only could
  // hold such a schema; the snapshot still reads, but neither Restore nor
  // Recover reopens it.
  std::vector<int> wide(50, 2);
  wide.insert(wide.end(), 160, 1);
  EngineImage image;
  image.schema = Schema::Uniform(wide);
  image.options.tau = 2;
  image.epoch = 3;
  image.agg_cells.assign(wide.size(), Value{0});
  image.agg_counts = {1};
  image.mups = {Pattern::Root(static_cast<int>(wide.size()))};

  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDirs(dir_).ok());
  ASSERT_TRUE(WriteSnapshotFile(fs, dir_, image).ok());
  auto read = ReadSnapshotFile(fs, dir_ + "/" + SnapshotFileName(3));
  ASSERT_TRUE(read.ok()) << read.status().ToString();

  const auto expect_refused = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("256-bit"), std::string::npos)
        << status.ToString();
  };
  expect_refused(CoverageEngine::Restore(std::move(*read)).status());
  expect_refused(
      DurableEngine::Recover(dir_, EngineOptions{}, DurableEngineOptions{})
          .status());
}

TEST_F(SnapshotTest, CorruptByteAnywhereIsDetected) {
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDirs(dir_).ok());
  ASSERT_TRUE(WriteSnapshotFile(fs, dir_, MakeImage()).ok());
  const std::string path = dir_ + "/" + SnapshotFileName(42);
  auto raw = fs->ReadFileToString(path);
  ASSERT_TRUE(raw.ok());

  // Flip one byte at a handful of positions spread over the file (every
  // position would be O(n^2); the checksum covers the whole body anyway).
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, raw->size() / 2, raw->size() - 1}) {
    std::string damaged = *raw;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x01);
    const std::string damaged_path = dir_ + "/damaged.ckpt";
    std::filesystem::remove(damaged_path);
    auto file = fs->NewWritableFile(damaged_path, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(damaged).ok());
    ASSERT_TRUE((*file)->Close().ok());
    EXPECT_FALSE(ReadSnapshotFile(fs, damaged_path).ok())
        << "undetected corruption at byte " << pos;
  }
}

TEST_F(SnapshotTest, InterruptedWriteLeavesNoGeneration) {
  FaultFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDirs(dir_).ok());
  fs.FailNextRename(Status::Internal("injected rename failure"));
  EXPECT_FALSE(WriteSnapshotFile(&fs, dir_, MakeImage()).ok());
  // No snapshot committed, no tmp litter that a listing would trip on.
  auto listing = ListSessionDir(&fs, dir_);
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->snapshot_epochs.empty());
}

TEST_F(SnapshotTest, ListSessionDirSortsAndIgnoresStrangers) {
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDirs(dir_).ok());
  for (const std::uint64_t epoch : {30u, 7u, 100u}) {
    EngineImage image = MakeImage();
    image.epoch = epoch;
    ASSERT_TRUE(WriteSnapshotFile(fs, dir_, image).ok());
  }
  auto writer = WalWriter::Open(fs, dir_ + "/" + WalFileName(7), true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto stranger = fs->NewWritableFile(dir_ + "/README.txt", true);
  ASSERT_TRUE(stranger.ok());
  ASSERT_TRUE((*stranger)->Close().ok());

  auto listing = ListSessionDir(fs, dir_);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->snapshot_epochs,
            (std::vector<std::uint64_t>{7, 30, 100}));
  EXPECT_EQ(listing->wal_bases, (std::vector<std::uint64_t>{7}));

  // A missing directory is an empty session, not an error.
  auto missing = ListSessionDir(fs, dir_ + "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

}  // namespace
}  // namespace persist
}  // namespace coverage
