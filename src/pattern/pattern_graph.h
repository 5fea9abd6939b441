#ifndef COVERAGE_PATTERN_PATTERN_GRAPH_H_
#define COVERAGE_PATTERN_PATTERN_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataset/schema.h"
#include "pattern/pattern.h"

namespace coverage {

/// Combinatorics of the pattern graph (paper §III-B). The graph itself is
/// never materialised by the search algorithms — these helpers exist for
/// analyses, tests, and the naive baseline.
class PatternGraph {
 public:
  explicit PatternGraph(Schema schema) : schema_(std::move(schema)) {}

  /// Π (c_i + 1) — total nodes.
  std::uint64_t NumNodes() const { return schema_.NumPatterns(); }

  /// Number of nodes at level ℓ: Σ over ℓ-subsets S of attributes of
  /// Π_{i∈S} c_i. (For uniform cardinality c this is C(d, ℓ)·c^ℓ.)
  std::uint64_t NumNodesAtLevel(int level) const;

  /// Nodes at levels 0..max_level — what a search capped at `max_level`
  /// can visit. Equals NumNodes() once max_level >= d (up to saturation at
  /// Schema::kCombinationLimit).
  std::uint64_t NumNodesUpToLevel(int max_level) const;

  /// Number of parent-child edges: each node at level ℓ has
  /// Σ_{wildcard i} c_i children. (For uniform cardinality c this totals
  /// c·d·(c+1)^{d-1}, the closed form verified in §III-B.)
  std::uint64_t NumEdges() const;

  /// Enumerates every pattern in the graph, level by level (lexicographic
  /// within a level). ResourceExhausted if there are more than `limit` nodes.
  /// This is the naive algorithm's iteration space.
  StatusOr<std::vector<Pattern>> EnumerateAll(std::uint64_t limit) const;

  /// Enumerates every pattern at exactly `level`. ResourceExhausted if more
  /// than `limit`.
  StatusOr<std::vector<Pattern>> EnumerateLevel(int level,
                                                std::uint64_t limit) const;

 private:
  Schema schema_;
};

}  // namespace coverage

#endif  // COVERAGE_PATTERN_PATTERN_GRAPH_H_
