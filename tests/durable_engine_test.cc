#include "persist/durable_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "persist/snapshot.h"

namespace coverage {
namespace persist {
namespace {

Dataset RandomBatch(const Schema& schema, std::size_t rows, Rng* rng) {
  Dataset batch(schema);
  std::vector<Value> row(static_cast<std::size_t>(schema.num_attributes()));
  for (std::size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      row[static_cast<std::size_t>(a)] = static_cast<Value>(
          rng->NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
    }
    batch.AppendRow(row);
  }
  return batch;
}

/// Full observable-state equality: epoch, row count, MUP set, and the
/// coverage counts of every pattern up to level 2.
void ExpectEngineParity(const CoverageEngine& a, const CoverageEngine& b) {
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.Mups(), b.Mups());
  const Schema& schema = a.schema();
  const int d = schema.num_attributes();
  for (int i = 0; i < d; ++i) {
    for (Value v = 0; v < schema.cardinality(i); ++v) {
      std::vector<Value> cells(static_cast<std::size_t>(d), kWildcard);
      cells[static_cast<std::size_t>(i)] = v;
      const Pattern p1(cells);
      EXPECT_EQ(a.Query(p1), b.Query(p1)) << "level-1 " << i << "=" << v;
      for (int j = i + 1; j < d; ++j) {
        for (Value w = 0; w < schema.cardinality(j); ++w) {
          cells[static_cast<std::size_t>(j)] = w;
          const Pattern p2(cells);
          EXPECT_EQ(a.Query(p2), b.Query(p2));
          cells[static_cast<std::size_t>(j)] = kWildcard;
        }
      }
    }
  }
}

class DurableEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("durable_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DurableEngineTest, CreateAppendCloseRecoverIsBitIdentical) {
  const Schema schema = Schema::Uniform({2, 3, 2});
  EngineOptions eopts;
  eopts.tau = 3;
  eopts.durability = DurabilityMode::kFsync;

  CoverageEngine shadow(schema, eopts);
  Rng rng(7);
  {
    auto durable = DurableEngine::Create(dir_, schema, eopts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (int i = 0; i < 5; ++i) {
      const Dataset batch = RandomBatch(schema, 10, &rng);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
    }
    // Mutation records only: the segment header is bookkeeping, not data.
    EXPECT_EQ((*durable)->persist_stats().records_logged, 5u);
  }

  auto recovered = DurableEngine::Recover(dir_, eopts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_stats().recovered);
  ExpectEngineParity((*recovered)->engine(), shadow);

  // The recovered session keeps working.
  const Dataset more = RandomBatch(schema, 8, &rng);
  ASSERT_TRUE((*recovered)->Append(more).ok());
  ASSERT_TRUE(shadow.AppendRows(more).ok());
  ExpectEngineParity((*recovered)->engine(), shadow);
}

TEST_F(DurableEngineTest, RetractionsReplayExactly) {
  const Schema schema = Schema::Uniform({2, 2, 3});
  EngineOptions eopts;
  eopts.tau = 4;
  eopts.durability = DurabilityMode::kFsync;
  CoverageEngine shadow(schema, eopts);
  Rng rng(11);
  Dataset first(schema);
  {
    auto durable = DurableEngine::Create(dir_, schema, eopts);
    ASSERT_TRUE(durable.ok());
    first = RandomBatch(schema, 20, &rng);
    ASSERT_TRUE((*durable)->Append(first).ok());
    ASSERT_TRUE(shadow.AppendRows(first).ok());
    // Retract the first three rows (GDPR-style erasure).
    Dataset gone(schema);
    for (std::size_t r = 0; r < 3; ++r) gone.AppendRow(first.row(r));
    ASSERT_TRUE((*durable)->Retract(gone).ok());
    ASSERT_TRUE(shadow.RetractRows(gone).ok());
  }
  auto recovered = DurableEngine::Recover(dir_, eopts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectEngineParity((*recovered)->engine(), shadow);
}

TEST_F(DurableEngineTest, SlidingWindowEvictionsReplayExactly) {
  const Schema schema = Schema::Uniform({3, 2, 2});
  EngineOptions eopts;
  eopts.tau = 2;
  eopts.durability = DurabilityMode::kFsync;
  eopts.window_max_epochs = 3;  // keep only the 3 newest batches
  CoverageEngine shadow(schema, eopts);
  Rng rng(13);
  {
    auto durable = DurableEngine::Create(dir_, schema, eopts);
    ASSERT_TRUE(durable.ok());
    for (int i = 0; i < 8; ++i) {
      const Dataset batch = RandomBatch(schema, 6, &rng);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
    }
  }
  auto recovered = DurableEngine::Recover(dir_, eopts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectEngineParity((*recovered)->engine(), shadow);
}

TEST_F(DurableEngineTest, StoredProblemKnobsWinOnReopen) {
  const Schema schema = Schema::Binary(3);
  EngineOptions stored;
  stored.tau = 9;
  stored.max_level = 2;
  stored.window_max_epochs = 3;
  {
    auto durable = DurableEngine::Create(dir_, schema, stored);
    ASSERT_TRUE(durable.ok());
  }
  EngineOptions runtime;
  runtime.tau = 999;  // must be ignored: tau defines the stored session
  runtime.num_threads = 2;
  runtime.durability = DurabilityMode::kNone;
  auto recovered = DurableEngine::Recover(dir_, runtime);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->engine().options().tau, 9u);
  EXPECT_EQ((*recovered)->engine().options().max_level, 2);
  EXPECT_EQ((*recovered)->engine().options().window_max_epochs, 3u);
  // Runtime knobs come from the caller.
  EXPECT_EQ((*recovered)->engine().options().num_threads, 2);
  EXPECT_EQ((*recovered)->durability(), DurabilityMode::kNone);
}

TEST_F(DurableEngineTest, CreateRefusesNonEmptyDirAndRecoverNeedsState) {
  const Schema schema = Schema::Binary(2);
  {
    auto durable = DurableEngine::Create(dir_, schema, {});
    ASSERT_TRUE(durable.ok());
  }
  EXPECT_FALSE(DurableEngine::Create(dir_, schema, {}).ok());

  const std::string empty_dir = dir_ + "_empty";
  ASSERT_TRUE(FileSystem::Default()->CreateDirs(empty_dir).ok());
  auto recovered = DurableEngine::Recover(empty_dir, {});
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(empty_dir);
}

TEST_F(DurableEngineTest, CheckpointRotatesWalAndPrunesGenerations) {
  const Schema schema = Schema::Uniform({2, 2});
  EngineOptions eopts;
  eopts.tau = 2;
  DurableEngineOptions dopts;
  dopts.keep_snapshots = 2;
  auto durable = DurableEngine::Create(dir_, schema, eopts, dopts);
  ASSERT_TRUE(durable.ok());
  Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*durable)->Append(RandomBatch(schema, 4, &rng)).ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  auto listing = ListSessionDir(FileSystem::Default(), dir_);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->snapshot_epochs.size(), 2u);  // pruned to keep_snapshots
  EXPECT_EQ(listing->snapshot_epochs.back(), 4u);
  // No WAL segment older than the oldest kept snapshot survives.
  ASSERT_FALSE(listing->wal_bases.empty());
  EXPECT_GE(listing->wal_bases.front(), listing->snapshot_epochs.front());
  EXPECT_EQ((*durable)->persist_stats().checkpoints_written, 4u);
}

TEST_F(DurableEngineTest, AutoCheckpointTriggersOnWalGrowth) {
  const Schema schema = Schema::Uniform({3, 3});
  EngineOptions eopts;
  eopts.tau = 2;
  eopts.durability = DurabilityMode::kAsync;  // WAL written, never fsynced
  DurableEngineOptions dopts;
  dopts.checkpoint_after_wal_bytes = 256;  // tiny: trigger quickly
  auto durable = DurableEngine::Create(dir_, schema, eopts, dopts);
  ASSERT_TRUE(durable.ok());
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*durable)->Append(RandomBatch(schema, 8, &rng)).ok());
  }
  EXPECT_GT((*durable)->persist_stats().checkpoints_written, 0u);
}

TEST_F(DurableEngineTest, WalFailurePoisonsMutationsButNotReads) {
  FaultFs fs(FileSystem::Default());
  DurableEngineOptions dopts;
  dopts.fs = &fs;
  dopts.checkpoint_after_wal_bytes = 0;  // keep the WAL as the only sink
  const Schema schema = Schema::Uniform({2, 2});
  EngineOptions eopts;
  eopts.tau = 2;
  eopts.durability = DurabilityMode::kFsync;
  auto durable = DurableEngine::Create(dir_, schema, eopts, dopts);
  ASSERT_TRUE(durable.ok());
  Rng rng(17);
  ASSERT_TRUE((*durable)->Append(RandomBatch(schema, 5, &rng)).ok());
  ASSERT_TRUE((*durable)->health().ok());

  fs.FailNextAppend(Status::Internal("injected ENOSPC"));
  const Dataset doomed = RandomBatch(schema, 5, &rng);
  EXPECT_FALSE((*durable)->Append(doomed).ok());
  EXPECT_FALSE((*durable)->health().ok());
  // Poisoned: memory may be ahead of disk, so no further durability
  // promises — but reads still serve the published snapshot.
  EXPECT_FALSE((*durable)->Append(doomed).ok());
  EXPECT_GE((*durable)->engine().num_rows(), 5u);
}

TEST_F(DurableEngineTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  const Schema schema = Schema::Uniform({2, 3});
  EngineOptions eopts;
  eopts.tau = 3;
  eopts.durability = DurabilityMode::kFsync;
  CoverageEngine shadow(schema, eopts);
  Rng rng(23);
  {
    auto durable = DurableEngine::Create(dir_, schema, eopts);
    ASSERT_TRUE(durable.ok());
    for (int i = 0; i < 3; ++i) {
      const Dataset batch = RandomBatch(schema, 6, &rng);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
      ASSERT_TRUE((*durable)->Checkpoint().ok());
    }
  }
  auto listing = ListSessionDir(FileSystem::Default(), dir_);
  ASSERT_TRUE(listing.ok());
  ASSERT_GE(listing->snapshot_epochs.size(), 2u);

  // Corrupt the newest snapshot's checksum region.
  const std::string newest =
      dir_ + "/" + SnapshotFileName(listing->snapshot_epochs.back());
  auto raw = FileSystem::Default()->ReadFileToString(newest);
  ASSERT_TRUE(raw.ok());
  std::string damaged = *raw;
  damaged[damaged.size() / 2] ^= 0x10;
  {
    auto file = FileSystem::Default()->NewWritableFile(newest + ".tmp", true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(damaged).ok());
    ASSERT_TRUE((*file)->Close().ok());
    ASSERT_TRUE(
        FileSystem::Default()->Rename(newest + ".tmp", newest).ok());
  }

  auto recovered = DurableEngine::Recover(dir_, eopts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE((*recovered)->recovery_stats().snapshots_discarded, 1u);
  EXPECT_FALSE((*recovered)->recovery_stats().warnings.empty());
  // The previous generation plus the retained WAL segments cover everything
  // the corrupt snapshot held: recovery lands on the exact same state.
  ExpectEngineParity((*recovered)->engine(), shadow);
}

}  // namespace
}  // namespace persist
}  // namespace coverage
