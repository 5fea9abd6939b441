#include "enhancement/enhancement.h"

#include <gtest/gtest.h>

#include "coverage/scan_coverage.h"
#include "datagen/adversarial.h"
#include "datagen/compas.h"
#include "enhancement/report.h"
#include "mups/mups.h"

namespace coverage {
namespace {

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// End-to-end invariant: after applying a plan, the maximum covered level of
/// the enlarged dataset is at least lambda.
void ExpectPlanReachesLevel(const Dataset& data, std::uint64_t tau,
                            int lambda) {
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = tau});

  EnhancementOptions options;
  options.tau = tau;
  options.lambda = lambda;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->unresolvable.empty());

  const Dataset enlarged = ApplyPlan(data, *plan);
  const AggregatedData agg2(enlarged);
  const BitmapCoverage oracle2(agg2);
  const auto mups2 = FindMupsDeepDiver(oracle2, MupSearchOptions{.tau = tau});
  EXPECT_GE(MaximumCoveredLevel(mups2, data.num_attributes()), lambda)
      << "plan with " << plan->items.size() << " items failed";
}

Dataset MakeExample1() {
  Dataset data(Schema::Binary(3));
  data.AppendRow(std::vector<Value>{0, 1, 0});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  data.AppendRow(std::vector<Value>{0, 0, 0});
  data.AppendRow(std::vector<Value>{0, 1, 1});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  return data;
}

TEST(Enhancement, Example1LambdaOne) {
  // One MUP (1XX) at level 1; a single tuple with A1=1 fixes λ=1.
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 1});
  EnhancementOptions options;
  options.tau = 1;
  options.lambda = 1;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->items.size(), 1u);
  EXPECT_EQ(plan->items[0].combination[0], 1);
  EXPECT_EQ(plan->items[0].copies, 1u);
  EXPECT_EQ(plan->TotalTuples(), 1u);
}

TEST(Enhancement, PlanReachesRequestedLevelOnSmallData) {
  const Dataset data = MakeExample1();
  for (int lambda = 1; lambda <= 3; ++lambda) {
    ExpectPlanReachesLevel(data, 1, lambda);
  }
}

TEST(Enhancement, PlanReachesLevelWithHigherTau) {
  const Dataset data = MakeExample1();
  ExpectPlanReachesLevel(data, 2, 1);
  ExpectPlanReachesLevel(data, 2, 2);
}

TEST(Enhancement, CopiesReflectCoverageDeficit) {
  // τ=3 and the A1=1 half-space is empty: the level-1 plan must collect 3
  // copies of its pick.
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 3});
  EnhancementOptions options;
  options.tau = 3;
  options.lambda = 1;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  std::uint64_t max_copies = 0;
  for (const auto& item : plan->items) {
    max_copies = std::max(max_copies, item.copies);
  }
  EXPECT_EQ(max_copies, 3u);
  ExpectPlanReachesLevel(data, 3, 1);
}

TEST(Enhancement, CoveringMupsIsNotEnoughAppendixC) {
  // Appendix C's point: covering the MUPs at level <= λ does not guarantee
  // maximum covered level λ; the plan must target all uncovered patterns at
  // level λ. Verify our planner passes the stricter end-to-end check on the
  // diagonal dataset where MUPs sit above and below λ.
  const Dataset data = datagen::MakeDiagonal(6);
  ExpectPlanReachesLevel(data, 4, 2);
  ExpectPlanReachesLevel(data, 4, 3);
}

TEST(Enhancement, VertexCoverReductionLevelOne) {
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}};
  const Dataset data = datagen::MakeVertexCoverReduction(4, edges);
  ExpectPlanReachesLevel(data, 3, 1);
}

TEST(Enhancement, NaiveGreedySolvesSameInstance) {
  // The naive solver is the reference for the indexed GREEDY: over the
  // plan's own expanded targets it needs as many picks with the same gains.
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 1});
  EnhancementOptions options;
  options.tau = 1;
  options.lambda = 2;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  auto naive = NaiveGreedyHittingSet(plan->targets, data.schema());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->combinations.size(), plan->items.size());
  EXPECT_EQ(naive->gains,
            GreedyHittingSet(plan->targets, data.schema()).gains);
  EXPECT_TRUE(ValidateHittingSet(plan->targets, *naive, data.schema()).ok());
}

TEST(Enhancement, ValidationOracleShapesPlan) {
  // §V-B3: rules must carry through to the plan's combinations.
  const auto compas = datagen::MakeCompas(2000, 3);
  const AggregatedData agg(compas.data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 10});

  ValidationOracle validator;
  const Schema& schema = compas.data.schema();
  validator.AddRule(*ValidationRule::Parse("marital in {unknown}", schema));
  validator.AddRule(*ValidationRule::Parse(
      "age in {<20} and marital in {married, separated, widowed, sig-other, "
      "divorced}",
      schema));

  EnhancementOptions options;
  options.tau = 10;
  options.lambda = 2;
  options.oracle = &validator;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  for (const auto& item : plan->items) {
    EXPECT_TRUE(validator.IsValid(item.combination));
  }
  // Patterns like marital=unknown combinations may be unresolvable; each
  // reported one must indeed be unreachable under the rules.
  for (const Pattern& p : plan->unresolvable) {
    EXPECT_TRUE(p.is_deterministic(datagen::kCompasMarital) &&
                (p.cell(datagen::kCompasMarital) == 6 ||
                 p.cell(datagen::kCompasAge) == 0))
        << p.ToString();
  }
}

TEST(Enhancement, ValueCountVariantCoversQualifyingPatterns) {
  const Dataset data = datagen::MakeDiagonal(6);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const std::uint64_t tau = 4;
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = tau});
  EnhancementOptions options;
  options.tau = tau;
  auto plan = PlanCoverageEnhancementByValueCount(oracle, mups, 8, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->unresolvable.empty());
  // After applying, every uncovered pattern with value count >= 8 is gone.
  const Dataset enlarged = ApplyPlan(data, *plan);
  const AggregatedData agg2(enlarged);
  const BitmapCoverage oracle2(agg2);
  const auto mups2 = FindMupsDeepDiver(oracle2, MupSearchOptions{.tau = tau});
  for (const Pattern& p : mups2) {
    EXPECT_LT(p.ValueCount(data.schema()), 8u) << p.ToString();
  }
}

TEST(Enhancement, TargetsMatchFig19InputSemantics) {
  const Dataset data = datagen::MakeDiagonal(6);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 4});
  EnhancementOptions options;
  options.tau = 4;
  options.lambda = 3;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  // Output (picks) should be much smaller than input (targets): each pick
  // hits many patterns.
  EXPECT_GT(plan->targets.size(), plan->items.size());
}

// ----------------------------------------------------------------- report --

TEST(Report, NutritionalLabelMentionsKeyFacts) {
  const auto compas = datagen::MakeCompas(2000, 3);
  const AggregatedData agg(compas.data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 10});
  const CoverageReport report = BuildCoverageReport(
      compas.data.schema(), mups, compas.data.num_rows(), 10);
  EXPECT_EQ(report.num_mups, mups.size());
  EXPECT_EQ(report.num_rows, compas.data.num_rows());
  const std::string label = RenderNutritionalLabel(report);
  EXPECT_NE(label.find("COVERAGE LABEL"), std::string::npos);
  EXPECT_NE(label.find("maximum covered level"), std::string::npos);
}

TEST(Report, AcquisitionPlanRendering) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(oracle, MupSearchOptions{.tau = 1});
  EnhancementOptions options;
  options.tau = 1;
  options.lambda = 1;
  auto plan = PlanCoverageEnhancement(oracle, mups, options);
  ASSERT_TRUE(plan.ok());
  const std::string text = RenderAcquisitionPlan(*plan, data.schema());
  EXPECT_NE(text.find("Acquisition plan"), std::string::npos);
  EXPECT_NE(text.find("collect"), std::string::npos);
}

TEST(Report, MostGeneralMupsComeFirst) {
  const Schema schema = Schema::Binary(4);
  const std::vector<Pattern> mups = {P("1011", schema), P("0XXX", schema),
                                     P("X10X", schema)};
  const CoverageReport report = BuildCoverageReport(schema, mups, 100, 5);
  ASSERT_EQ(report.most_general.size(), 3u);
  EXPECT_NE(report.most_general[0].find("0XXX"), std::string::npos);
}

}  // namespace
}  // namespace coverage
