#ifndef COVERAGE_ENHANCEMENT_ENHANCEMENT_H_
#define COVERAGE_ENHANCEMENT_ENHANCEMENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "coverage/bitmap_coverage.h"
#include "enhancement/hitting_set.h"
#include "enhancement/validation.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace coverage {

/// Options for Problem 2 (Coverage Enhancement).
struct EnhancementOptions {
  /// Coverage threshold τ the patterns must reach.
  std::uint64_t tau = 1;

  /// Target maximum covered level λ: after acquisition no pattern of level
  /// <= lambda may remain uncovered.
  int lambda = 1;

  /// Optional semantic-feasibility oracle (Definitions 10/11); may be null.
  const ValidationOracle* oracle = nullptr;

  /// Guard for the Appendix-C expansion.
  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  /// Optional request trace: planning records the stages `expand` (targets
  /// from the MUPs), `hitting_set` (the greedy) and `copies` (per-pick copy
  /// counts). Owned by the calling thread.
  obs::Trace* trace = nullptr;
};

/// One acquisition instruction: collect `copies` tuples matching
/// `combination` (or, equivalently, matching `generalized`, which describes
/// the full set of equally useful combinations — the §IV implementation
/// note).
struct AcquisitionItem {
  std::vector<Value> combination;
  Pattern generalized;
  std::uint64_t copies = 1;
};

/// The output of coverage-enhancement planning.
struct CoveragePlan {
  /// Patterns the plan must hit (M_λ of Appendix C). Fig. 19's "input size".
  std::vector<Pattern> targets;

  /// Acquisition instructions, in greedy pick order. Fig. 19's "output size"
  /// is items.size().
  std::vector<AcquisitionItem> items;

  /// Targets that no valid combination can match (ruled out by the
  /// validation oracle); flagged for the human in the loop.
  std::vector<Pattern> unresolvable;

  HittingSetStats stats;

  /// Σ copies across items: the total number of tuples to collect.
  std::uint64_t TotalTuples() const;
};

/// Solves Problem 2: expands the material MUPs (level <= λ) into M_λ, runs
/// the greedy hitting set, and annotates each pick with the number of copies
/// needed so every pattern it is responsible for actually reaches τ.
///
/// `mups` must be the MUPs of the dataset behind `oracle` for the same τ
/// (typically from FindMups* — minus any MUPs the domain expert discarded
/// as immaterial).
StatusOr<CoveragePlan> PlanCoverageEnhancement(const BitmapCoverage& oracle,
                                               const std::vector<Pattern>& mups,
                                               const EnhancementOptions& options);

/// The value-count flavour: every uncovered pattern with value count >=
/// `min_value_count` must reach τ. Same solving machinery over a different
/// target set (Definition 7 / §IV).
StatusOr<CoveragePlan> PlanCoverageEnhancementByValueCount(
    const BitmapCoverage& oracle, const std::vector<Pattern>& mups,
    std::uint64_t min_value_count, const EnhancementOptions& options);

/// Applies a plan to a dataset: appends `copies` rows of each item's
/// combination and returns the enlarged dataset. Used by tests and by the
/// Fig. 11-style before/after experiments.
Dataset ApplyPlan(const Dataset& dataset, const CoveragePlan& plan);

}  // namespace coverage

#endif  // COVERAGE_ENHANCEMENT_ENHANCEMENT_H_
