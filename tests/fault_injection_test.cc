#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "engine/coverage_engine.h"
#include "persist/durable_engine.h"
#include "persist/fault_fs.h"

namespace coverage {
namespace persist {
namespace {

// ------------------------------------------------------------ FaultFs unit

TEST(FaultFs, CrashAfterBytesTearsTheCrossingWrite) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("faultfs_" + std::to_string(::getpid()) + "_tear"))
          .string();
  std::filesystem::remove_all(dir);
  FaultFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDirs(dir).ok());
  auto file = fs.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  fs.CrashAfterBytes(5);
  // 3 bytes fit the budget...
  ASSERT_TRUE((*file)->Append("abc").ok());
  EXPECT_FALSE(fs.crashed());
  // ...the next 4-byte write crosses it: 2 bytes land, the call fails.
  EXPECT_FALSE((*file)->Append("defg").ok());
  EXPECT_TRUE(fs.crashed());
  // Every later mutation fails; reads pass through (the disk survived).
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_FALSE(fs.NewWritableFile(dir + "/g", true).ok());
  EXPECT_FALSE(fs.Rename(dir + "/f", dir + "/h").ok());
  auto contents = fs.ReadFileToString(dir + "/f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "abcde");  // the torn prefix
  EXPECT_EQ(fs.bytes_written(), 5u);
  std::filesystem::remove_all(dir);
}

TEST(FaultFs, ObserverSeesOperationsAndResetDisarms) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("faultfs_" + std::to_string(::getpid()) + "_obs"))
          .string();
  std::filesystem::remove_all(dir);
  FaultFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDirs(dir).ok());
  std::vector<std::string> ops;
  fs.set_op_observer([&](std::string_view op, const std::string&) {
    ops.push_back(std::string(op));
  });
  auto file = fs.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("a").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_GE(ops.size(), 4u);  // open, append, sync, close at least

  fs.CrashAfterBytes(0);
  EXPECT_TRUE(fs.crashed());
  fs.Reset();
  EXPECT_FALSE(fs.crashed());
  auto after = fs.NewWritableFile(dir + "/g", true);
  EXPECT_TRUE(after.ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------- randomized crash-recovery property

struct WorkloadStep {
  bool retract;
  Dataset rows;
  WorkloadStep(bool retract, Dataset rows)
      : retract(retract), rows(std::move(rows)) {}
};

/// One workload: a deterministic mutation sequence over a small schema.
/// `windowed` adds sliding-window eviction to the mix.
std::vector<WorkloadStep> MakeWorkload(const Schema& schema, bool retracts,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkloadStep> steps;
  Dataset live(schema);  // rows currently present (for valid retractions)
  for (int s = 0; s < 12; ++s) {
    const bool retract = retracts && live.num_rows() > 4 && rng.NextBool(0.3);
    Dataset rows(schema);
    if (retract) {
      // Two distinct positions (possibly equal rows — then the multiplicity
      // genuinely exists and the retraction must be accepted).
      std::size_t r0 = rng.NextUint64(live.num_rows());
      std::size_t r1 = rng.NextUint64(live.num_rows() - 1);
      if (r1 >= r0) ++r1;
      rows.AppendRow(live.row(r0));
      rows.AppendRow(live.row(r1));
      // Rebuild `live` minus one occurrence of each retracted row.
      Dataset next(schema);
      std::vector<bool> removed(live.num_rows(), false);
      for (std::size_t q = 0; q < rows.num_rows(); ++q) {
        for (std::size_t r = 0; r < live.num_rows(); ++r) {
          if (removed[r]) continue;
          bool same = true;
          for (int a = 0; a < schema.num_attributes(); ++a) {
            if (live.row(r)[static_cast<std::size_t>(a)] !=
                rows.row(q)[static_cast<std::size_t>(a)]) {
              same = false;
              break;
            }
          }
          if (same) {
            removed[r] = true;
            break;
          }
        }
      }
      for (std::size_t r = 0; r < live.num_rows(); ++r) {
        if (!removed[r]) next.AppendRow(live.row(r));
      }
      live = std::move(next);
    } else {
      const std::size_t n = 3 + rng.NextUint64(8);
      std::vector<Value> row(
          static_cast<std::size_t>(schema.num_attributes()));
      for (std::size_t r = 0; r < n; ++r) {
        for (int a = 0; a < schema.num_attributes(); ++a) {
          row[static_cast<std::size_t>(a)] =
              static_cast<Value>(rng.NextUint64(
                  static_cast<std::uint64_t>(schema.cardinality(a))));
        }
        rows.AppendRow(row);
        live.AppendRow(row);
      }
    }
    steps.emplace_back(retract, std::move(rows));
  }
  return steps;
}

void ExpectAuditParity(const CoverageEngine& recovered,
                       const CoverageEngine& shadow) {
  ASSERT_EQ(recovered.epoch(), shadow.epoch());
  ASSERT_EQ(recovered.num_rows(), shadow.num_rows());
  ASSERT_EQ(recovered.Mups(), shadow.Mups());
  const Schema& schema = shadow.schema();
  const int d = schema.num_attributes();
  for (int i = 0; i < d; ++i) {
    for (Value v = 0; v < schema.cardinality(i); ++v) {
      std::vector<Value> cells(static_cast<std::size_t>(d), kWildcard);
      cells[static_cast<std::size_t>(i)] = v;
      ASSERT_EQ(recovered.Query(Pattern(cells)), shadow.Query(Pattern(cells)));
    }
  }
}

/// The property: crash a durable session at an arbitrary byte of its write
/// stream, recover, and the engine must agree exactly with an in-memory
/// shadow that executed the acknowledged prefix of the workload. Under
/// durability=fsync "acknowledged" is precise: every Append/Retract that
/// returned OK must survive; the one in flight at the crash may or may not.
void RunCrashRecoveryProperty(bool retracts, std::size_t window_epochs) {
  const Schema schema = Schema::Uniform({2, 3, 2, 2});
  EngineOptions eopts;
  eopts.tau = 3;
  eopts.durability = DurabilityMode::kFsync;
  eopts.window_max_epochs = window_epochs;

  const std::uint64_t workload_seed =
      1000 + (retracts ? 1 : 0) + (window_epochs > 0 ? 2 : 0);
  const std::vector<WorkloadStep> steps =
      MakeWorkload(schema, retracts, workload_seed);

  // Dry run: measure the full write volume so crash points sample the
  // whole stream, not just its head.
  std::uint64_t total_bytes = 0;
  {
    const std::string dry_dir =
        (std::filesystem::temp_directory_path() /
         ("crashprop_dry_" + std::to_string(::getpid()) + "_" +
          std::to_string(workload_seed)))
            .string();
    std::filesystem::remove_all(dry_dir);
    FaultFs fs(FileSystem::Default());
    DurableEngineOptions dopts;
    dopts.fs = &fs;
    auto durable = DurableEngine::Create(dry_dir, schema, eopts, dopts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (const WorkloadStep& step : steps) {
      ASSERT_TRUE((step.retract ? (*durable)->Retract(step.rows)
                                : (*durable)->Append(step.rows))
                      .ok());
    }
    total_bytes = fs.bytes_written();
    std::filesystem::remove_all(dry_dir);
  }
  ASSERT_GT(total_bytes, 0u);

  Rng crash_rng(workload_seed * 7919);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t crash_at = crash_rng.NextUint64(total_bytes + 1);
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " of " +
                 std::to_string(total_bytes) + " bytes");
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("crashprop_" + std::to_string(::getpid()) + "_" +
          std::to_string(workload_seed) + "_" + std::to_string(trial)))
            .string();
    std::filesystem::remove_all(dir);

    FaultFs fs(FileSystem::Default());
    DurableEngineOptions dopts;
    dopts.fs = &fs;
    CoverageEngine shadow(schema, eopts);

    // Arm before Create so the crash offset means the same thing it did in
    // the dry run: the k-th byte of the session's entire write stream.
    fs.CrashAfterBytes(crash_at);
    auto durable = DurableEngine::Create(dir, schema, eopts, dopts);
    std::size_t acked = 0;
    if (durable.ok()) {
      for (const WorkloadStep& step : steps) {
        const Status applied = step.retract ? (*durable)->Retract(step.rows)
                                            : (*durable)->Append(step.rows);
        if (!applied.ok()) break;  // the crash hit — stop the workload
        // Acknowledged under fsync: must survive recovery.
        ASSERT_TRUE((step.retract ? shadow.RetractRows(step.rows)
                                  : shadow.AppendRows(step.rows))
                        .ok());
        ++acked;
      }
      (*durable).reset();  // the process dies; the disk (base fs) survives
    }
    fs.Reset();  // reboot: disarm the fault

    auto recovered = DurableEngine::Recover(dir, eopts, dopts);
    if (!recovered.ok()) {
      // Only legitimate if nothing was ever acknowledged (the crash hit
      // during Create, before the session had durable state).
      ASSERT_EQ(acked, 0u) << recovered.status().ToString();
      std::filesystem::remove_all(dir);
      continue;
    }
    // Recovery may land one epoch ahead of the shadow: the mutation in
    // flight at the crash is allowed to survive if its record hit the disk
    // completely before the fault tore the stream.
    if ((*recovered)->engine().epoch() == shadow.epoch() + 1) {
      ASSERT_LT(acked, steps.size());
      const WorkloadStep& step = steps[acked];
      ASSERT_TRUE((step.retract ? shadow.RetractRows(step.rows)
                                : shadow.AppendRows(step.rows))
                      .ok());
    }
    ExpectAuditParity((*recovered)->engine(), shadow);
    std::filesystem::remove_all(dir);
  }
}

TEST(CrashRecoveryProperty, AppendOnly) {
  RunCrashRecoveryProperty(/*retracts=*/false, /*window_epochs=*/0);
}

TEST(CrashRecoveryProperty, AppendRetract) {
  RunCrashRecoveryProperty(/*retracts=*/true, /*window_epochs=*/0);
}

TEST(CrashRecoveryProperty, Windowed) {
  RunCrashRecoveryProperty(/*retracts=*/false, /*window_epochs=*/3);
}

TEST(CrashRecoveryProperty, WindowedWithRetractions) {
  RunCrashRecoveryProperty(/*retracts=*/true, /*window_epochs=*/4);
}

}  // namespace
}  // namespace persist
}  // namespace coverage
