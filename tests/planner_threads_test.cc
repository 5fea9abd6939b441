// The kAuto planner's worker pick (PlannerDecision::num_threads): serial
// callers get byte-identical rationales (the golden CLI transcripts pin
// them), small explored graphs stay serial regardless of the cap — a level
// cap sizes the graph by levels 0..max_level — large ones fan out up to the
// root's fan-out, and the service-level audit clamps the pick to the shared
// ThreadBudget and releases the reservation when the search returns.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "datagen/airbnb.h"
#include "datagen/compas.h"
#include "dataset/aggregate.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "mups/mups.h"
#include "pattern/pattern_graph.h"
#include "service/coverage_service.h"
#include "service/pool_arena.h"

namespace coverage {
namespace {

std::string Render(const std::vector<Pattern>& mups) {
  std::string out;
  for (const Pattern& p : mups) {
    out += p.ToString();
    out += '\n';
  }
  return out;
}

/// A {7,7,7,7} relation: 8^4 = 4096 pattern-graph nodes, exactly at the
/// planner's parallel threshold, with root fan-out 28.
Dataset MakeWideUniform(std::size_t rows) {
  Dataset data(Schema::Uniform({7, 7, 7, 7}));
  Rng rng(7);
  std::vector<Value> row(4);
  for (std::size_t i = 0; i < rows; ++i) {
    for (int a = 0; a < 4; ++a) {
      row[a] = static_cast<Value>(rng.NextUint64(7));
    }
    data.AppendRow(row);
  }
  return data;
}

TEST(PlannerThreads, SerialCapKeepsRationaleByteIdentical) {
  const AggregatedData agg(datagen::MakeCompas().data);
  MupSearchOptions options;
  options.tau = 10;
  options.num_threads = 1;
  const PlannerDecision serial = PlanMupSearch(agg, options);
  EXPECT_EQ(serial.num_threads, 1);
  // COMPAS's graph sits under the parallel threshold, so a parallel cap
  // answers serial too — with the reasoning appended after the serial
  // planner's exact sentence (which golden transcripts pin).
  ASSERT_LT(agg.schema().NumPatterns(), kPlannerParallelMinPatternGraph);
  options.num_threads = 8;
  const PlannerDecision capped = PlanMupSearch(agg, options);
  EXPECT_EQ(capped.num_threads, 1);
  EXPECT_EQ(capped.algorithm, serial.algorithm);
  ASSERT_TRUE(capped.rationale.starts_with(serial.rationale));
  EXPECT_NE(capped.rationale.find("serial search"), std::string::npos);
}

TEST(PlannerThreads, LargeGraphFansOutUpToRootFanOut) {
  const AggregatedData agg(MakeWideUniform(500));
  ASSERT_GE(agg.schema().NumPatterns(), kPlannerParallelMinPatternGraph);
  MupSearchOptions options;
  options.tau = 2;
  options.num_threads = 8;
  const PlannerDecision eight = PlanMupSearch(agg, options);
  EXPECT_EQ(eight.num_threads, 8);
  EXPECT_NE(eight.rationale.find("8 workers"), std::string::npos);
  // The cap never exceeds the root's fan-out (sum of cardinalities = 28):
  // workers beyond the top-level partition would idle.
  options.num_threads = 64;
  const PlannerDecision wide = PlanMupSearch(agg, options);
  EXPECT_EQ(wide.num_threads, 28);
  EXPECT_NE(wide.rationale.find("28 workers (root fan-out 28"),
            std::string::npos);
}

/// The planner's pick for an AirBnB schema of width `d` under `max_level`
/// (-1: no caller cap) with a 4-worker cap.
PlannerDecision PlanAirbnb(int d, int max_level) {
  const AggregatedData agg(datagen::MakeAirbnb(200, d));
  MupSearchOptions options;
  options.tau = 100;
  options.max_level = max_level;
  options.num_threads = 4;
  return PlanMupSearch(agg, options);
}

TEST(PlannerThreads, LevelCapSizesTheExploredGraph) {
  // d=13 under ℓ<=3: 2^13 full nodes, but only 2,627 at levels 0..3 — the
  // search over those is too small to fan out.
  ASSERT_GE(PatternGraph(datagen::MakeAirbnb(10, 13).schema())
                .NumNodes(),
            kPlannerParallelMinPatternGraph);
  const PlannerDecision small = PlanAirbnb(13, 3);
  EXPECT_EQ(small.num_threads, 1);
  EXPECT_NE(small.rationale.find("graph 2627 nodes at level <= 3"),
            std::string::npos)
      << small.rationale;

  // d=30 under ℓ<=3 (34,281 nodes) and d=12 under ℓ<=5 (35,313 nodes)
  // clear the threshold and take the cap.
  const PlannerDecision wide = PlanAirbnb(30, 3);
  EXPECT_EQ(wide.num_threads, 4);
  EXPECT_NE(wide.rationale.find("graph 34281 nodes at level <= 3"),
            std::string::npos)
      << wide.rationale;
  const PlannerDecision lambda5 = PlanAirbnb(12, 5);
  EXPECT_EQ(lambda5.num_threads, 4);
  EXPECT_NE(lambda5.rationale.find("graph 35313 nodes at level <= 5"),
            std::string::npos)
      << lambda5.rationale;
}

TEST(PlannerThreads, WideClampSizesByTheClampedLevels) {
  // No caller cap on a 3^31-node graph: the planner's own ℓ<=3 clamp is
  // what the search explores, and that is what sizes the workers.
  const PlannerDecision decision = PlanAirbnb(31, -1);
  ASSERT_EQ(decision.max_level, kPlannerWideMaxLevel);
  const std::uint64_t explored =
      PatternGraph(datagen::MakeAirbnb(10, 31).schema())
          .NumNodesUpToLevel(kPlannerWideMaxLevel);
  EXPECT_NE(decision.rationale.find("graph " + std::to_string(explored) +
                                    " nodes at level <= 3"),
            std::string::npos)
      << decision.rationale;
  EXPECT_EQ(decision.num_threads, 4);
}

TEST(PlannerThreads, AutoDispatchMatchesSerialMupSet) {
  const AggregatedData agg(MakeWideUniform(500));
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 2;
  options.num_threads = 1;
  const auto serial = FindMups(MupAlgorithm::kAuto, oracle, options);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->empty());
  options.num_threads = 8;
  const auto parallel = FindMups(MupAlgorithm::kAuto, oracle, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Render(*parallel), Render(*serial));
}

TEST(PlannerThreads, ServiceAuditClampsToThreadBudgetAndReleases) {
  // The planner wants 8 workers; the shared budget only has 2 spawnable
  // threads, so the audit runs with 3 (caller + 2) and says so.
  ServiceOptions options;
  options.num_threads = 8;
  options.thread_budget = std::make_shared<ThreadBudget>(2);
  auto service =
      CoverageService::FromDataset(MakeWideUniform(500), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  AuditRequest request;
  request.tau = 2;
  const auto result = service->Audit(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->planner_rationale.find("8 workers"), std::string::npos);
  EXPECT_NE(result->planner_rationale.find("thread budget granted 3 of 8"),
            std::string::npos)
      << result->planner_rationale;
  // The reservation is released once the search returns.
  EXPECT_EQ(options.thread_budget->reserved(), 0);

  // With headroom there is no clamp clause at all.
  ServiceOptions roomy;
  roomy.num_threads = 4;
  roomy.thread_budget = std::make_shared<ThreadBudget>(0);  // unlimited
  auto free_service =
      CoverageService::FromDataset(MakeWideUniform(500), roomy);
  ASSERT_TRUE(free_service.ok());
  const auto unclamped = free_service->Audit(request);
  ASSERT_TRUE(unclamped.ok());
  EXPECT_EQ(unclamped->planner_rationale.find("thread budget"),
            std::string::npos);
  EXPECT_NE(unclamped->planner_rationale.find("4 workers"),
            std::string::npos);
  EXPECT_EQ(Render(unclamped->mups), Render(result->mups));
}

}  // namespace
}  // namespace coverage
