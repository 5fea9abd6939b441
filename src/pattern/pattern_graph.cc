#include "pattern/pattern_graph.h"

#include <algorithm>
#include <cassert>

namespace coverage {

namespace {

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return a > Schema::kCombinationLimit - b ? Schema::kCombinationLimit
                                           : a + b;
}

// Node counts of levels 0..max_level, saturated at kCombinationLimit: the
// elementary symmetric polynomials of the cardinalities, built one
// attribute at a time (a level-ℓ node either leaves attribute i a wildcard
// or fixes one of its c_i values). O(d · max_level).
std::vector<std::uint64_t> LevelCounts(const Schema& schema, int max_level) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(max_level) + 1,
                                    0);
  counts[0] = 1;
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const auto c = static_cast<std::uint64_t>(schema.cardinality(i));
    for (int l = std::min(i + 1, max_level); l >= 1; --l) {
      const std::uint64_t below = counts[static_cast<std::size_t>(l - 1)];
      const std::uint64_t fixed = below > Schema::kCombinationLimit / c
                                      ? Schema::kCombinationLimit
                                      : below * c;
      counts[static_cast<std::size_t>(l)] =
          SaturatingAdd(counts[static_cast<std::size_t>(l)], fixed);
    }
  }
  return counts;
}

void EnumerateLevelRec(const Schema& schema, const Pattern& current, int attr,
                       int remaining, std::uint64_t limit,
                       std::vector<Pattern>& out, bool& overflowed) {
  if (overflowed) return;
  if (remaining == 0) {
    if (out.size() >= limit) {
      overflowed = true;
      return;
    }
    out.push_back(current);
    return;
  }
  for (int i = attr; i <= schema.num_attributes() - remaining; ++i) {
    for (Value v = 0; v < static_cast<Value>(schema.cardinality(i)); ++v) {
      EnumerateLevelRec(schema, current.WithCell(i, v), i + 1, remaining - 1,
                        limit, out, overflowed);
      if (overflowed) return;
    }
  }
}

}  // namespace

std::uint64_t PatternGraph::NumNodesAtLevel(int level) const {
  assert(level >= 0 && level <= schema_.num_attributes());
  return LevelCounts(schema_, level).back();
}

std::uint64_t PatternGraph::NumNodesUpToLevel(int max_level) const {
  assert(max_level >= 0);
  std::uint64_t total = 0;
  for (const std::uint64_t n :
       LevelCounts(schema_, std::min(max_level, schema_.num_attributes()))) {
    total = SaturatingAdd(total, n);
  }
  return total;
}

std::uint64_t PatternGraph::NumEdges() const {
  // Each pattern P has one downward edge per (wildcard cell i, value of A_i).
  // Summing over all patterns: for each attribute i, the number of patterns
  // in which cell i is a wildcard is Π_{j≠i}(c_j + 1), each contributing c_i
  // edges.
  std::uint64_t total = 0;
  for (int i = 0; i < schema_.num_attributes(); ++i) {
    std::uint64_t others = 1;
    for (int j = 0; j < schema_.num_attributes(); ++j) {
      if (j == i) continue;
      const auto f = static_cast<std::uint64_t>(schema_.cardinality(j) + 1);
      if (others > Schema::kCombinationLimit / f) {
        return Schema::kCombinationLimit;
      }
      others *= f;
    }
    const auto ci = static_cast<std::uint64_t>(schema_.cardinality(i));
    if (others > Schema::kCombinationLimit / ci) {
      return Schema::kCombinationLimit;
    }
    const std::uint64_t edges = others * ci;
    if (total > Schema::kCombinationLimit - edges) {
      return Schema::kCombinationLimit;
    }
    total += edges;
  }
  return total;
}

StatusOr<std::vector<Pattern>> PatternGraph::EnumerateAll(
    std::uint64_t limit) const {
  if (NumNodes() > limit) {
    return Status::ResourceExhausted(
        "pattern graph has " + std::to_string(NumNodes()) +
        " nodes, limit is " + std::to_string(limit));
  }
  std::vector<Pattern> out;
  out.reserve(NumNodes());
  for (int level = 0; level <= schema_.num_attributes(); ++level) {
    auto at_level = EnumerateLevel(level, limit - out.size());
    if (!at_level.ok()) return at_level.status();
    for (auto& p : *at_level) out.push_back(std::move(p));
  }
  return out;
}

StatusOr<std::vector<Pattern>> PatternGraph::EnumerateLevel(
    int level, std::uint64_t limit) const {
  if (level < 0 || level > schema_.num_attributes()) {
    return Status::InvalidArgument("level " + std::to_string(level) +
                                   " outside [0, d]");
  }
  std::vector<Pattern> out;
  bool overflowed = false;
  EnumerateLevelRec(schema_, Pattern::Root(schema_.num_attributes()), 0, level,
                    limit, out, overflowed);
  if (overflowed) {
    return Status::ResourceExhausted("more than " + std::to_string(limit) +
                                     " patterns at level " +
                                     std::to_string(level));
  }
  return out;
}

}  // namespace coverage
