#ifndef COVERAGE_ENHANCEMENT_HITTING_SET_H_
#define COVERAGE_ENHANCEMENT_HITTING_SET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dataset/schema.h"
#include "enhancement/validation.h"
#include "pattern/pattern.h"

namespace coverage {

/// Instrumentation for the hitting-set solvers.
struct HittingSetStats {
  std::uint64_t iterations = 0;        ///< greedy picks
  std::uint64_t tree_nodes_visited = 0;///< value-tree nodes expanded (GREEDY)
  std::uint64_t combinations_scanned = 0;  ///< full scans (naive baseline)
  double seconds = 0.0;

  void Reset() { *this = HittingSetStats{}; }
};

/// Output of a hitting-set solve: value combinations such that every input
/// pattern (that any valid combination can match at all) is matched by at
/// least one selected combination.
struct HittingSetResult {
  /// Selected value combinations, in pick order.
  std::vector<std::vector<Value>> combinations;

  /// Per pick, the unification of the patterns it newly hit: the most
  /// general description of equally useful combinations (§IV implementation
  /// note — freedom for the data collector).
  std::vector<Pattern> generalized;

  /// Per pick, how many patterns it newly hit (the greedy gain sequence).
  std::vector<std::size_t> gains;

  /// Per pick, the indices (into the input patterns, ascending) of the
  /// patterns it newly hit; newly_hit[k].size() == gains[k]. Every input
  /// pattern appears in exactly one list or in `unresolvable`.
  std::vector<std::vector<std::size_t>> newly_hit;

  /// Patterns that no valid combination matches (every matching combination
  /// violates a validation rule). Empty when there is no oracle.
  std::vector<Pattern> unresolvable;
};

/// §IV-B, Algorithms 4 + 5: the greedy hitting-set approximation with
/// per-(attribute, value) inverted indices over the patterns and a DFS over
/// the value tree that orders children by remaining-hit upper bound (ties by
/// value) and prunes with the incumbent hit count. The validation oracle
/// (may be null) is consulted before descending into a child, so only
/// semantically valid combinations are produced. The indices are rebuilt
/// over the patterns still unhit after every pick, and the DFS runs on
/// scratch allocated once per solve.
HittingSetResult GreedyHittingSet(const std::vector<Pattern>& patterns,
                                  const Schema& schema,
                                  const ValidationOracle* oracle = nullptr,
                                  HittingSetStats* stats = nullptr);

/// The direct implementation the paper benchmarks against (§V-C4): every
/// greedy iteration scans all Π c_i value combinations and counts hits per
/// combination by matching each remaining pattern. Returns ResourceExhausted
/// when Π c_i exceeds `enumeration_limit`.
StatusOr<HittingSetResult> NaiveGreedyHittingSet(
    const std::vector<Pattern>& patterns, const Schema& schema,
    const ValidationOracle* oracle = nullptr,
    HittingSetStats* stats = nullptr,
    std::uint64_t enumeration_limit = std::uint64_t{1} << 26);

/// Checks that `result` hits every pattern except the unresolvable ones and
/// that every combination is valid under `oracle`. Test/audit helper.
Status ValidateHittingSet(const std::vector<Pattern>& patterns,
                          const HittingSetResult& result, const Schema& schema,
                          const ValidationOracle* oracle = nullptr);

}  // namespace coverage

#endif  // COVERAGE_ENHANCEMENT_HITTING_SET_H_
