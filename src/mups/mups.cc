#include "mups/mups.h"

#include <algorithm>
#include <string>

#include "pattern/pattern_graph.h"

namespace coverage {

namespace {

/// Resolves PlannerDecision::num_threads from the caller's cap and the part
/// of the pattern graph the search will explore (levels 0..max_level under
/// a cap, all Π (c_i + 1) nodes otherwise), appending the reasoning to the
/// rationale. Serial callers (cap <= 1) leave the decision and the
/// rationale untouched.
void PlanWorkers(const Schema& schema, const MupSearchOptions& options,
                 PlannerDecision* decision) {
  if (options.num_threads <= 1) return;
  const bool capped = decision->max_level >= 0 &&
                      decision->max_level < schema.num_attributes();
  const std::uint64_t explored =
      capped ? PatternGraph(schema).NumNodesUpToLevel(decision->max_level)
             : schema.NumPatterns();
  const std::string graph =
      std::to_string(explored) + " nodes" +
      (capped ? " at level <= " + std::to_string(decision->max_level) : "");
  if (explored < kPlannerParallelMinPatternGraph) {
    decision->num_threads = 1;
    decision->rationale += "; serial search (graph " + graph + ", under " +
                           std::to_string(kPlannerParallelMinPatternGraph) +
                           ": fan-out overhead would dominate)";
    return;
  }
  // The root's children — one per (attribute, value) — are the widest
  // natural partition of independent work; more workers than that idle.
  std::uint64_t fan_out = 0;
  for (int i = 0; i < schema.num_attributes(); ++i) {
    fan_out += static_cast<std::uint64_t>(schema.cardinality(i));
  }
  decision->num_threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options.num_threads),
      std::max<std::uint64_t>(fan_out, 1)));
  decision->rationale += "; " + std::to_string(decision->num_threads) +
                         " workers (root fan-out " + std::to_string(fan_out) +
                         ", graph " + graph + ")";
}

}  // namespace

std::string ToString(MupAlgorithm algorithm) {
  switch (algorithm) {
    case MupAlgorithm::kNaive:
      return "NAIVE";
    case MupAlgorithm::kPatternBreaker:
      return "PATTERN-BREAKER";
    case MupAlgorithm::kPatternCombiner:
      return "PATTERN-COMBINER";
    case MupAlgorithm::kDeepDiver:
      return "DEEPDIVER";
    case MupAlgorithm::kApriori:
      return "APRIORI";
    case MupAlgorithm::kAuto:
      return "AUTO";
  }
  return "UNKNOWN";
}

PlannerDecision PlanMupSearch(const AggregatedData& data,
                              const MupSearchOptions& options) {
  const Schema& schema = data.schema();
  PlannerDecision decision;  // algorithm: kPatternBreaker
  decision.max_level = options.max_level;

  // §V-C3 / Fig. 16: a wide schema's pattern graph cannot be explored
  // exhaustively; cap the search at the general levels where the dangerous
  // gaps live. Only applies when the caller did not set a cap themselves.
  if (options.max_level < 0 &&
      schema.NumPatterns() > kPlannerPatternGraphBudget) {
    decision.max_level = kPlannerWideMaxLevel;
    decision.rationale =
        "pattern graph has " + std::to_string(schema.NumPatterns()) +
        " nodes (> " + std::to_string(kPlannerPatternGraphBudget) +
        "): level-limited PATTERN-BREAKER at level <= " +
        std::to_string(kPlannerWideMaxLevel) + " (§V-C3, Fig. 16)";
  } else {
    // Fig. 15's two contenders return the same MUP set; measured on dense,
    // sparse, high-cardinality and wide shapes, PATTERN-BREAKER's top-down
    // BFS is the faster one on every shape, and its level merge keeps the
    // parallel counters deterministic.
    decision.rationale =
        "top-down PATTERN-BREAKER (§V, Fig. 15): same MUPs as DEEPDIVER, "
        "faster on every measured shape";
  }
  PlanWorkers(schema, options, &decision);
  return decision;
}

StatusOr<std::vector<Pattern>> FindMups(MupAlgorithm algorithm,
                                        const BitmapCoverage& oracle,
                                        const MupSearchOptions& options,
                                        MupSearchStats* stats) {
  auto packed = FindMupsPacked(algorithm, oracle, options, stats);
  COVERAGE_RETURN_IF_ERROR(packed.status());
  return packed->Materialize();
}

StatusOr<PackedMupSet> FindMupsPacked(MupAlgorithm algorithm,
                                      const BitmapCoverage& oracle,
                                      const MupSearchOptions& options,
                                      MupSearchStats* stats) {
  auto codec = PatternCodec::Build(oracle.data().schema());
  COVERAGE_RETURN_IF_ERROR(codec.status());
  PackedMupSet result;
  result.codec = std::move(*codec);
  switch (algorithm) {
    case MupAlgorithm::kNaive: {
      // NAIVE has no packed core; compute on Pattern and encode.
      auto mups =
          FindMupsNaive(oracle, oracle.data().schema(), options, stats);
      COVERAGE_RETURN_IF_ERROR(mups.status());
      result.mups.reserve(mups->size());
      for (const Pattern& p : *mups) {
        result.mups.push_back(result.codec.Encode(p));
      }
      return result;
    }
    case MupAlgorithm::kPatternBreaker:
      result.mups = FindMupsPatternBreakerPacked(
          oracle, oracle.data().schema(), result.codec, options, stats);
      return result;
    case MupAlgorithm::kPatternCombiner: {
      auto mups =
          FindMupsPatternCombinerPacked(oracle, result.codec, options, stats);
      COVERAGE_RETURN_IF_ERROR(mups.status());
      result.mups = std::move(*mups);
      return result;
    }
    case MupAlgorithm::kDeepDiver:
      result.mups = FindMupsDeepDiverPacked(oracle, oracle.data().schema(),
                                            result.codec, options, stats);
      return result;
    case MupAlgorithm::kApriori: {
      auto mups = FindMupsAprioriPacked(oracle, result.codec, options, stats);
      COVERAGE_RETURN_IF_ERROR(mups.status());
      result.mups = std::move(*mups);
      return result;
    }
    case MupAlgorithm::kAuto: {
      const PlannerDecision decision = PlanMupSearch(oracle.data(), options);
      MupSearchOptions resolved = options;
      resolved.max_level = decision.max_level;
      resolved.num_threads = decision.num_threads;
      return FindMupsPacked(decision.algorithm, oracle, resolved, stats);
    }
  }
  return Status::InvalidArgument("unknown MUP algorithm");
}

Status ValidateMupSet(const std::vector<Pattern>& mups,
                      const CoverageOracle& oracle, std::uint64_t tau) {
  QueryContext ctx;
  for (const Pattern& p : mups) {
    if (oracle.Coverage(p, ctx) >= tau) {
      return Status::Internal("pattern " + p.ToString() +
                              " is covered, not a MUP");
    }
    for (const Pattern& parent : p.Parents()) {
      if (oracle.Coverage(parent, ctx) < tau) {
        return Status::Internal("MUP " + p.ToString() +
                                " has uncovered parent " + parent.ToString());
      }
    }
  }
  for (std::size_t i = 0; i < mups.size(); ++i) {
    for (std::size_t j = 0; j < mups.size(); ++j) {
      if (i != j && mups[i].Dominates(mups[j])) {
        return Status::Internal("MUP " + mups[i].ToString() + " dominates " +
                                mups[j].ToString());
      }
    }
  }
  return Status::OK();
}

std::vector<std::size_t> MupLevelHistogram(const std::vector<Pattern>& mups,
                                           int num_attributes) {
  std::vector<std::size_t> histogram(
      static_cast<std::size_t>(num_attributes) + 1, 0);
  for (const Pattern& p : mups) {
    ++histogram[static_cast<std::size_t>(p.level())];
  }
  return histogram;
}

int MaximumCoveredLevel(const std::vector<Pattern>& mups, int num_attributes) {
  int min_mup_level = num_attributes + 1;
  for (const Pattern& p : mups) {
    min_mup_level = std::min(min_mup_level, p.level());
  }
  return min_mup_level - 1;
}

}  // namespace coverage
