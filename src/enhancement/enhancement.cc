#include "enhancement/enhancement.h"

#include <algorithm>

#include "enhancement/expansion.h"

namespace coverage {

namespace {

/// Runs the greedy hitting set over `targets` and assembles the plan,
/// computing per-item copy counts from current coverage.
CoveragePlan SolveOverTargets(const BitmapCoverage& oracle,
                              std::vector<Pattern> targets,
                              const EnhancementOptions& options) {
  CoveragePlan plan;
  HittingSetResult hs = [&] {
    obs::ScopedStage stage(options.trace, "hitting_set");
    return GreedyHittingSet(targets, oracle.data().schema(), options.oracle,
                            &plan.stats);
  }();

  // A pick is responsible for the targets it newly hit; to push each of them
  // to τ it must be collected max(τ - cov) times. (Later picks may also hit
  // them, so this is a safe upper bound per pattern and exact when matches
  // are disjoint.)
  obs::ScopedStage stage(options.trace, "copies");
  QueryContext ctx;
  for (std::size_t k = 0; k < hs.combinations.size(); ++k) {
    AcquisitionItem item;
    item.combination = std::move(hs.combinations[k]);
    item.generalized = hs.generalized[k];
    std::uint64_t copies = 1;
    for (std::size_t j : hs.newly_hit[k]) {
      const std::uint64_t cov = oracle.Coverage(targets[j], ctx);
      if (cov < options.tau) copies = std::max(copies, options.tau - cov);
    }
    item.copies = copies;
    plan.items.push_back(std::move(item));
  }
  plan.unresolvable = std::move(hs.unresolvable);
  plan.targets = std::move(targets);
  return plan;
}

}  // namespace

std::uint64_t CoveragePlan::TotalTuples() const {
  std::uint64_t total = 0;
  for (const AcquisitionItem& item : items) total += item.copies;
  return total;
}

StatusOr<CoveragePlan> PlanCoverageEnhancement(
    const BitmapCoverage& oracle, const std::vector<Pattern>& mups,
    const EnhancementOptions& options) {
  auto targets = [&] {
    obs::ScopedStage stage(options.trace, "expand");
    return UncoveredPatternsAtLevel(mups, oracle.data().schema(),
                                    options.lambda, options.enumeration_limit);
  }();
  if (!targets.ok()) return targets.status();
  return SolveOverTargets(oracle, std::move(*targets), options);
}

StatusOr<CoveragePlan> PlanCoverageEnhancementByValueCount(
    const BitmapCoverage& oracle, const std::vector<Pattern>& mups,
    std::uint64_t min_value_count, const EnhancementOptions& options) {
  auto targets = [&] {
    obs::ScopedStage stage(options.trace, "expand");
    return UncoveredPatternsByValueCount(mups, oracle.data().schema(),
                                         min_value_count,
                                         options.enumeration_limit);
  }();
  if (!targets.ok()) return targets.status();
  return SolveOverTargets(oracle, std::move(*targets), options);
}

Dataset ApplyPlan(const Dataset& dataset, const CoveragePlan& plan) {
  Dataset out = dataset;
  for (const AcquisitionItem& item : plan.items) {
    for (std::uint64_t c = 0; c < item.copies; ++c) {
      out.AppendRow(item.combination);
    }
  }
  return out;
}

}  // namespace coverage
