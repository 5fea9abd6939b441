// Bit-identity proof for the scatter-gather audit
// (cluster/distributed_audit.h): over LocalShardBackends — the same
// CoverageEngine the coordinator's HTTP path wraps — the distributed MUP
// set must equal a single-node audit of the concatenated rows EXACTLY,
// across shard counts {1, 2, 4}, on real and adversarial data. Plus: empty
// shards, level caps, option validation, and shard-failure attribution.

#include "cluster/distributed_audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_backend.h"
#include "datagen/adversarial.h"
#include "datagen/airbnb.h"
#include "datagen/compas.h"
#include "service/coverage_service.h"

namespace coverage {
namespace cluster {
namespace {

/// Round-robin row slice `index` of `count` — the same striding
/// tools/coverage_server.cc applies in --role shard mode.
Dataset Slice(const Dataset& full, std::size_t index, std::size_t count) {
  Dataset slice(full.schema());
  for (std::size_t r = index; r < full.num_rows(); r += count) {
    slice.AppendRow(full.row(r));
  }
  return slice;
}

struct Backends {
  std::vector<std::unique_ptr<LocalShardBackend>> owned;
  std::vector<ShardBackend*> ptrs;
};

Backends MakeBackends(const Dataset& full, std::size_t count) {
  Backends backends;
  for (std::size_t i = 0; i < count; ++i) {
    auto service = CoverageService::FromDataset(Slice(full, i, count));
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    backends.owned.push_back(std::make_unique<LocalShardBackend>(
        "shard" + std::to_string(i), std::move(*service)));
    backends.ptrs.push_back(backends.owned.back().get());
  }
  return backends;
}

std::vector<std::string> SortedMups(const std::vector<Pattern>& mups) {
  std::vector<std::string> out;
  out.reserve(mups.size());
  for (const Pattern& p : mups) out.push_back(p.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Single-node ground truth on the concatenated rows.
std::vector<std::string> SingleNodeMups(const Dataset& full,
                                        std::uint64_t tau, int max_level) {
  auto service = CoverageService::FromDataset(full);
  EXPECT_TRUE(service.ok());
  AuditRequest request;
  request.tau = tau;
  request.max_level = max_level;
  auto audit = service->Audit(request);
  EXPECT_TRUE(audit.ok()) << audit.status().ToString();
  return SortedMups(audit->mups);
}

void ExpectBitIdentical(const Dataset& full, std::uint64_t tau,
                        int max_level = -1) {
  const std::vector<std::string> expected =
      SingleNodeMups(full, tau, max_level);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    Backends backends = MakeBackends(full, shards);
    DistributedAuditOptions options;
    options.tau = tau;
    options.max_level = max_level;
    auto result = RunDistributedAudit(full.schema(), backends.ptrs, options);
    ASSERT_TRUE(result.ok())
        << shards << " shards: " << result.status().ToString();
    EXPECT_EQ(SortedMups(result->mups), expected) << shards << " shards";
    EXPECT_EQ(result->num_rows, full.num_rows());
    EXPECT_EQ(result->tau, tau);
    // The result arrives pre-sorted in Pattern order — the same order
    // every single-node algorithm emits (determinism contract).
    EXPECT_TRUE(std::is_sorted(result->mups.begin(), result->mups.end()));
  }
}

TEST(DistributedAuditTest, BitIdenticalOnCompas) {
  // Real schema (2/4/4/7), real value skew; tau low enough for deep MUPs.
  ExpectBitIdentical(datagen::MakeCompas(1500, 42).data, /*tau=*/12);
}

TEST(DistributedAuditTest, BitIdenticalOnAirbnb) {
  // Wider schema exercises the planner's algorithm choice per shard.
  ExpectBitIdentical(datagen::MakeAirbnb(1200, 5, 7), /*tau=*/20);
}

TEST(DistributedAuditTest, BitIdenticalOnAdversarialDiagonal) {
  // MakeDiagonal: row r has value 1 exactly on attribute r — striped
  // slices see *disjoint* non-zero cells, so every shard's local MUP set
  // wildly disagrees with the global one. Tier 2 must repair all of it.
  ExpectBitIdentical(datagen::MakeDiagonal(6), /*tau=*/1);
  ExpectBitIdentical(datagen::MakeDiagonal(6), /*tau=*/2);
}

TEST(DistributedAuditTest, BitIdenticalUnderLevelCap) {
  ExpectBitIdentical(datagen::MakeCompas(1500, 42).data, /*tau=*/12,
                     /*max_level=*/2);
}

TEST(DistributedAuditTest, EmptyShardsAreHarmless) {
  // 3 rows over 4 shards: one slice is empty; its cov is 0 for everything
  // and its local MUP antichain is the root. Must not perturb the result.
  const Dataset full = datagen::MakeDiagonal(3);
  ASSERT_EQ(full.num_rows(), 3u);
  const std::vector<std::string> expected = SingleNodeMups(full, 1, -1);
  Backends backends = MakeBackends(full, 4);
  DistributedAuditOptions options;
  options.tau = 1;
  auto result = RunDistributedAudit(full.schema(), backends.ptrs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedMups(result->mups), expected);
  ASSERT_EQ(result->shards.size(), 4u);
  EXPECT_EQ(result->shards[3].num_rows, 0u);
}

TEST(DistributedAuditTest, TinyBatchesScatterInRounds) {
  // max_batch_patterns=1 forces one RPC per tier-2 pattern; output is
  // unchanged, only the round count grows.
  const Dataset full = datagen::MakeCompas(800, 9).data;
  const std::vector<std::string> expected = SingleNodeMups(full, 10, -1);
  Backends backends = MakeBackends(full, 2);
  DistributedAuditOptions options;
  options.tau = 10;
  options.max_batch_patterns = 1;
  auto result = RunDistributedAudit(full.schema(), backends.ptrs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedMups(result->mups), expected);
  EXPECT_GE(result->stats.count_rounds, result->stats.patterns_counted);
}

TEST(DistributedAuditTest, StatsAccountForBothTiers) {
  const Dataset full = datagen::MakeCompas(1500, 42).data;
  Backends backends = MakeBackends(full, 2);
  DistributedAuditOptions options;
  options.tau = 12;

  auto result = RunDistributedAudit(full.schema(), backends.ptrs, options);
  ASSERT_TRUE(result.ok());
  // Tier 1 must actually fire (the index settles some nodes with no RPC)...
  EXPECT_GT(result->stats.nodes_pruned_local, 0u);
  // ...and tier 2 must too: striped shards disagree on some nodes.
  EXPECT_GT(result->stats.patterns_counted, 0u);
  EXPECT_EQ(SortedMups(result->mups), SingleNodeMups(full, 12, -1));
}

TEST(DistributedAuditTest, ToAuditResultIsWireCompatible) {
  const Dataset full = datagen::MakeCompas(600, 3).data;
  Backends backends = MakeBackends(full, 2);
  DistributedAuditOptions options;
  options.tau = 8;
  auto result = RunDistributedAudit(full.schema(), backends.ptrs, options);
  ASSERT_TRUE(result.ok());
  const AuditResult audit = result->ToAuditResult();
  EXPECT_EQ(audit.algorithm, "DISTRIBUTED-BREAKER");
  EXPECT_EQ(audit.mups.size(), result->mups.size());
  EXPECT_EQ(audit.num_rows, full.num_rows());
  EXPECT_EQ(audit.tau, 8u);
}

TEST(DistributedAuditTest, OptionsValidate) {
  DistributedAuditOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.tau = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = DistributedAuditOptions();
  options.max_batch_patterns = 0;
  EXPECT_FALSE(options.Validate().ok());

  const Dataset full = datagen::MakeDiagonal(3);
  Backends backends = MakeBackends(full, 2);
  auto no_shards = RunDistributedAudit(full.schema(), {}, {});
  EXPECT_FALSE(no_shards.ok());
}

/// A backend whose Counts always fails — exercises failure attribution.
class FailingBackend : public ShardBackend {
 public:
  explicit FailingBackend(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  StatusOr<ShardCountsResponse> Counts(
      const std::vector<Pattern>&) override {
    return Status::Internal("shard " + name_ + ": connection refused");
  }
  StatusOr<ShardCandidatesResponse> Candidates(
      const AuditRequest&) override {
    return Status::Internal("shard " + name_ + ": connection refused");
  }

 private:
  std::string name_;
};

TEST(DistributedAuditTest, ShardFailureNamesTheShard) {
  const Dataset full = datagen::MakeCompas(600, 3).data;
  Backends backends = MakeBackends(full, 2);
  FailingBackend bad("10.9.9.9:9999");
  std::vector<ShardBackend*> shards = {backends.ptrs[0], &bad,
                                       backends.ptrs[1]};
  DistributedAuditOptions options;
  options.tau = 8;
  std::string failed_shard;
  auto result =
      RunDistributedAudit(full.schema(), shards, options, &failed_shard);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failed_shard, "10.9.9.9:9999");
}

}  // namespace
}  // namespace cluster
}  // namespace coverage
