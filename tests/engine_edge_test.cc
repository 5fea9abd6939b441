// Degenerate-shape edge cases for the incremental engine, each driven
// through the full durable path (Create → mutate → close → Recover): a
// single-attribute schema (every pattern is level 0 or 1), a cardinality-1
// attribute (its only value is its whole domain), and retraction of every
// row back to an empty window.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "persist/durable_engine.h"

namespace coverage {
namespace persist {
namespace {

Dataset RandomBatch(const Schema& schema, std::size_t rows, Rng* rng,
                    Dataset* log = nullptr) {
  Dataset batch(schema);
  std::vector<Value> row(static_cast<std::size_t>(schema.num_attributes()));
  for (std::size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      row[static_cast<std::size_t>(a)] = static_cast<Value>(
          rng->NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
    }
    batch.AppendRow(row);
    if (log != nullptr) log->AppendRow(row);
  }
  return batch;
}

class EngineEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("engine_edge_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineOptions Options(std::uint64_t tau) const {
    EngineOptions opts;
    opts.tau = tau;
    opts.durability = DurabilityMode::kFsync;
    return opts;
  }

  std::string dir_;
};

TEST_F(EngineEdgeTest, SingleAttributeSchema) {
  // d == 1: the pattern graph is just the root plus one level-1 node per
  // value, so every maintenance structure runs at its smallest size.
  const Schema schema = Schema::Uniform({4});
  const EngineOptions opts = Options(/*tau=*/3);
  CoverageEngine shadow(schema, opts);
  Rng rng(101);
  {
    auto durable = DurableEngine::Create(dir_, schema, opts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (int i = 0; i < 4; ++i) {
      const Dataset batch = RandomBatch(schema, 5, &rng);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
      EXPECT_EQ((*durable)->engine().Mups(), shadow.Mups());
    }
  }
  auto recovered = DurableEngine::Recover(dir_, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_stats().recovered);
  EXPECT_EQ((*recovered)->engine().epoch(), shadow.epoch());
  EXPECT_EQ((*recovered)->engine().Mups(), shadow.Mups());

  // Every MUP over a 1-attribute schema is the root or a single value.
  for (const Pattern& p : (*recovered)->engine().Mups()) {
    EXPECT_LE(p.level(), 1);
    EXPECT_EQ(p.num_attributes(), 1);
  }
}

TEST_F(EngineEdgeTest, CardinalityOneAttribute) {
  // The middle attribute has exactly one value: its level-1 node covers
  // the same rows as the root, and its packed field is a single bit.
  const Schema schema = Schema::Uniform({3, 1, 2});
  const EngineOptions opts = Options(/*tau=*/4);
  CoverageEngine shadow(schema, opts);
  Rng rng(202);
  {
    auto durable = DurableEngine::Create(dir_, schema, opts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (int i = 0; i < 5; ++i) {
      const Dataset batch = RandomBatch(schema, 7, &rng);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
      EXPECT_EQ((*durable)->engine().Mups(), shadow.Mups());
    }
  }
  auto recovered = DurableEngine::Recover(dir_, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().Mups(), shadow.Mups());

  // Fixing the cardinality-1 attribute never changes a pattern's matches:
  // cov(P with a1=0) == cov(P with a1=X) for every P.
  const CoverageEngine& engine = (*recovered)->engine();
  EXPECT_EQ(engine.Query(Pattern({kWildcard, 0, kWildcard})),
            engine.Query(Pattern::Root(3)));
  for (Value v = 0; v < 3; ++v) {
    EXPECT_EQ(engine.Query(Pattern({v, 0, kWildcard})),
              engine.Query(Pattern({v, kWildcard, kWildcard})));
  }
}

TEST_F(EngineEdgeTest, RetractionToEmptyWindow) {
  const Schema schema = Schema::Uniform({2, 3, 2});
  const EngineOptions opts = Options(/*tau=*/3);
  CoverageEngine shadow(schema, opts);
  Rng rng(303);
  Dataset everything(schema);
  {
    auto durable = DurableEngine::Create(dir_, schema, opts);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (int i = 0; i < 3; ++i) {
      const Dataset batch = RandomBatch(schema, 6, &rng, &everything);
      ASSERT_TRUE((*durable)->Append(batch).ok());
      ASSERT_TRUE(shadow.AppendRows(batch).ok());
    }
    // Retract every appended row; the engine must land back on the empty
    // window: zero rows, and the all-wildcard root as the only MUP (its
    // coverage is 0 < tau, and it dominates everything else).
    ASSERT_TRUE((*durable)->Retract(everything).ok());
    ASSERT_TRUE(shadow.RetractRows(everything).ok());
    EXPECT_EQ((*durable)->engine().num_rows(), 0u);
    EXPECT_EQ((*durable)->engine().Mups(), shadow.Mups());
    EXPECT_EQ((*durable)->engine().Mups(),
              std::vector<Pattern>{Pattern::Root(3)});
  }

  // The retracted-to-empty state must survive recovery...
  auto recovered = DurableEngine::Recover(dir_, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().num_rows(), 0u);
  EXPECT_EQ((*recovered)->engine().epoch(), shadow.epoch());
  EXPECT_EQ((*recovered)->engine().Mups(),
            std::vector<Pattern>{Pattern::Root(3)});

  // ...and the empty engine must keep working: a fresh append behaves
  // exactly like a first append on a brand-new session.
  const Dataset again = RandomBatch(schema, 10, &rng);
  CoverageEngine fresh(schema, opts);
  ASSERT_TRUE((*recovered)->Append(again).ok());
  ASSERT_TRUE(fresh.AppendRows(again).ok());
  EXPECT_EQ((*recovered)->engine().Mups(), fresh.Mups());
  EXPECT_EQ((*recovered)->engine().num_rows(), fresh.num_rows());
}

}  // namespace
}  // namespace persist
}  // namespace coverage
