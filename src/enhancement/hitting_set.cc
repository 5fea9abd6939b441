#include "enhancement/hitting_set.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/bitvector.h"
#include "common/stopwatch.h"
#include "pattern/pattern_ops.h"

namespace coverage {

namespace {

using Word = BitVector::Word;

std::size_t WordsFor(std::size_t num_bits) {
  return (num_bits + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
}

/// Offsets of each attribute's first (attribute, value) slot in a flat
/// per-value layout; the last entry is the total Σ c_i.
std::vector<std::size_t> ValueOffsets(const Schema& schema) {
  std::vector<std::size_t> offsets = {0};
  for (int i = 0; i < schema.num_attributes(); ++i) {
    offsets.push_back(offsets.back() +
                      static_cast<std::size_t>(schema.cardinality(i)));
  }
  return offsets;
}

/// Inverted indices of Figure 9 over the targets still unhit: for
/// (attribute i, value v), a row with bit k set iff remaining target k can
/// still be hit by a combination taking value v on attribute i (its cell is
/// X or equals v). Rebuilt after every pick over the survivors only, so the
/// rows shrink with the remaining targets. All rows live in one flat word
/// array at a stride of words().
class CompactIndex {
 public:
  CompactIndex(const Schema& schema, std::size_t max_targets)
      : offsets_(ValueOffsets(schema)),
        rows_(offsets_.back() * WordsFor(max_targets)),
        wild_(static_cast<std::size_t>(schema.num_attributes()) *
              WordsFor(max_targets)) {}

  /// Re-indexes `patterns[alive[k]]` as bit k.
  void Rebuild(const std::vector<Pattern>& patterns,
               const std::vector<std::size_t>& alive) {
    words_ = WordsFor(alive.size());
    const int d = static_cast<int>(offsets_.size()) - 1;
    std::fill_n(rows_.begin(), offsets_.back() * words_, Word{0});
    std::fill_n(wild_.begin(), static_cast<std::size_t>(d) * words_, Word{0});
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const Pattern& p = patterns[alive[k]];
      const std::size_t w = k / BitVector::kBitsPerWord;
      const Word bit = Word{1} << (k % BitVector::kBitsPerWord);
      for (int i = 0; i < d; ++i) {
        Word* row = p.is_deterministic(i)
                        ? mutable_row(i, p.cell(i))
                        : &wild_[static_cast<std::size_t>(i) * words_];
        row[w] |= bit;
      }
    }
    // A wildcard cell is hit by every value of its attribute.
    for (int i = 0; i < d; ++i) {
      const Word* wild = &wild_[static_cast<std::size_t>(i) * words_];
      for (std::size_t slot = offsets_[static_cast<std::size_t>(i)];
           slot < offsets_[static_cast<std::size_t>(i) + 1]; ++slot) {
        Word* row = &rows_[slot * words_];
        for (std::size_t w = 0; w < words_; ++w) row[w] |= wild[w];
      }
    }
  }

  const Word* row(int attr, Value v) const {
    return &rows_[Slot(attr, v) * words_];
  }

  /// Position of (attribute, value) among the Σ c_i rows.
  std::size_t Slot(int attr, Value v) const {
    return offsets_[static_cast<std::size_t>(attr)] +
           static_cast<std::size_t>(v);
  }

  std::size_t num_slots() const { return offsets_.back(); }
  std::size_t words() const { return words_; }

 private:
  Word* mutable_row(int attr, Value v) {
    return &rows_[Slot(attr, v) * words_];
  }

  std::vector<std::size_t> offsets_;
  std::vector<Word> rows_;
  std::vector<Word> wild_;  // per attribute: targets with an X there
  std::size_t words_ = 0;
};

/// The threshold-pruned DFS of Algorithm 4. The bit vector of a node is an
/// upper bound on what any leaf below it can hit, so subtrees whose count
/// cannot beat the incumbent are skipped. Every node's children and their
/// vectors live in per-level scratch sized once per solve (a child's row
/// sits at its value's slot), so the search itself never allocates.
class HitCountSearch {
 public:
  HitCountSearch(const CompactIndex& index, const Schema& schema,
                 std::size_t max_targets, const ValidationOracle* oracle,
                 HittingSetStats* stats)
      : index_(index),
        schema_(schema),
        oracle_(oracle),
        stats_(stats),
        children_(index.num_slots()),
        child_rows_(index.num_slots() * WordsFor(max_targets)),
        root_(WordsFor(max_targets), ~Word{0}) {
    partial_.reserve(static_cast<std::size_t>(schema.num_attributes()));
  }

  /// Finds the valid combination hitting the most of the `num_targets`
  /// targets indexed in `index_`. Returns the hit count (0 when no valid
  /// combination hits anything); `*best` holds the combination.
  std::size_t Run(std::size_t num_targets, std::vector<Value>* best) {
    words_ = index_.words();
    best_count_ = 0;
    best_.assign(static_cast<std::size_t>(schema_.num_attributes()), 0);
    found_ = false;
    partial_.clear();
    Descend(root_.data(), num_targets, 0);
    *best = best_;
    return found_ ? best_count_ : 0;
  }

 private:
  struct Child {
    Value v;
    std::size_t count;
  };

  /// `bv` holds the targets every leaf below this node can still hit, and
  /// `count` is its popcount.
  void Descend(const Word* bv, std::size_t count, int level) {
    if (stats_ != nullptr) ++stats_->tree_nodes_visited;
    if (level == schema_.num_attributes()) {
      if (count > best_count_ || !found_) {
        best_count_ = count;
        best_ = partial_;
        found_ = true;
      }
      return;
    }
    // Rank this node's children by their remaining-hit upper bound.
    const std::size_t base = index_.Slot(level, 0);
    Child* children = &children_[base];
    Word* rows = &child_rows_[base * words_];
    std::size_t num_children = 0;
    for (Value v = 0; v < static_cast<Value>(schema_.cardinality(level));
         ++v) {
      if (oracle_ != nullptr) {
        partial_.push_back(v);
        const bool invalid = oracle_->PrefixInvalid(partial_);
        partial_.pop_back();
        if (invalid) continue;
      }
      children[num_children++] = Child{
          v, AndCountWords(bv, index_.row(level, v), RowOf(rows, v), words_)};
    }
    // Children are generated in value order, so ranking ties by value is
    // the stable order.
    std::sort(children, children + num_children,
              [](const Child& a, const Child& b) {
                return a.count > b.count || (a.count == b.count && a.v < b.v);
              });
    for (std::size_t c = 0; c < num_children; ++c) {
      const Child& child = children[c];
      // Prune: the child's count bounds every leaf beneath it. Equality is
      // only worth exploring while no complete combination exists yet.
      if (child.count < best_count_ || (found_ && child.count == best_count_))
        break;
      partial_.push_back(child.v);
      Descend(RowOf(rows, child.v), child.count, level + 1);
      partial_.pop_back();
    }
  }

  Word* RowOf(Word* rows, Value v) const {
    return rows + static_cast<std::size_t>(v) * words_;
  }

  const CompactIndex& index_;
  const Schema& schema_;
  const ValidationOracle* oracle_;
  HittingSetStats* stats_;

  std::vector<Child> children_;  // per level: one slot per value
  std::vector<Word> child_rows_;  // per level: one row per value
  std::vector<Word> root_;        // all ones: the root can hit everything
  std::size_t words_ = 0;

  std::size_t best_count_ = 0;
  bool found_ = false;
  std::vector<Value> best_;
  std::vector<Value> partial_;
};

}  // namespace

HittingSetResult GreedyHittingSet(const std::vector<Pattern>& patterns,
                                  const Schema& schema,
                                  const ValidationOracle* oracle,
                                  HittingSetStats* stats) {
  Stopwatch timer;
  if (stats != nullptr) stats->Reset();
  HittingSetResult result;
  const int d = schema.num_attributes();
  CompactIndex index(schema, patterns.size());
  HitCountSearch search(index, schema, patterns.size(), oracle, stats);
  std::vector<Word> hits(WordsFor(patterns.size()));
  std::vector<std::size_t> alive(patterns.size());
  std::iota(alive.begin(), alive.end(), std::size_t{0});
  std::vector<std::size_t> survivors;
  survivors.reserve(patterns.size());

  while (!alive.empty()) {
    index.Rebuild(patterns, alive);
    std::vector<Value> pick;
    const std::size_t gain = search.Run(alive.size(), &pick);
    if (gain == 0) {
      // Validation rules make the remaining patterns unreachable.
      for (std::size_t j : alive) result.unresolvable.push_back(patterns[j]);
      break;
    }
    // Targets newly hit by the pick: the AND of its per-cell rows.
    const std::size_t words = index.words();
    std::fill_n(hits.begin(), words, ~Word{0});
    for (int i = 0; i < d; ++i) {
      const Value v = pick[static_cast<std::size_t>(i)];
      AndCountWords(hits.data(), index.row(i, v), hits.data(), words);
    }
    std::vector<std::size_t> hit;
    hit.reserve(gain);
    std::vector<Pattern> hit_patterns;
    hit_patterns.reserve(gain);
    survivors.clear();
    for (std::size_t k = 0; k < alive.size(); ++k) {
      if ((hits[k / BitVector::kBitsPerWord] >> (k % BitVector::kBitsPerWord)) &
          Word{1}) {
        hit.push_back(alive[k]);
        hit_patterns.push_back(patterns[alive[k]]);
      } else {
        survivors.push_back(alive[k]);
      }
    }
    assert(hit.size() == gain);
    alive.swap(survivors);
    result.generalized.push_back(Unify(hit_patterns));
    result.combinations.push_back(std::move(pick));
    result.gains.push_back(gain);
    result.newly_hit.push_back(std::move(hit));
    if (stats != nullptr) ++stats->iterations;
  }
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<HittingSetResult> NaiveGreedyHittingSet(
    const std::vector<Pattern>& patterns, const Schema& schema,
    const ValidationOracle* oracle, HittingSetStats* stats,
    std::uint64_t enumeration_limit) {
  Stopwatch timer;
  if (stats != nullptr) stats->Reset();
  HittingSetResult result;
  if (patterns.empty()) {
    if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
    return result;
  }
  if (schema.NumValueCombinations() > enumeration_limit) {
    return Status::ResourceExhausted(
        "naive greedy would scan " +
        std::to_string(schema.NumValueCombinations()) +
        " combinations per iteration");
  }
  const int d = schema.num_attributes();
  std::vector<bool> remaining(patterns.size(), true);
  std::size_t num_remaining = patterns.size();

  while (num_remaining > 0) {
    std::size_t best_count = 0;
    std::vector<Value> best;
    const Status st = ForEachMatchingCombination(
        Pattern::Root(d), schema, enumeration_limit,
        [&](const std::vector<Value>& combo) {
          if (stats != nullptr) ++stats->combinations_scanned;
          if (oracle != nullptr && !oracle->IsValid(combo)) return;
          std::size_t cnt = 0;
          for (std::size_t j = 0; j < patterns.size(); ++j) {
            if (remaining[j] && patterns[j].Matches(combo)) ++cnt;
          }
          if (cnt > best_count) {
            best_count = cnt;
            best = combo;
          }
        });
    COVERAGE_RETURN_IF_ERROR(st);
    if (best_count == 0) {
      for (std::size_t j = 0; j < patterns.size(); ++j) {
        if (remaining[j]) result.unresolvable.push_back(patterns[j]);
      }
      break;
    }
    std::vector<std::size_t> hit;
    std::vector<Pattern> hit_patterns;
    for (std::size_t j = 0; j < patterns.size(); ++j) {
      if (remaining[j] && patterns[j].Matches(best)) {
        hit.push_back(j);
        hit_patterns.push_back(patterns[j]);
        remaining[j] = false;
        --num_remaining;
      }
    }
    result.generalized.push_back(Unify(hit_patterns));
    result.combinations.push_back(std::move(best));
    result.gains.push_back(best_count);
    result.newly_hit.push_back(std::move(hit));
    if (stats != nullptr) ++stats->iterations;
  }
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return result;
}

Status ValidateHittingSet(const std::vector<Pattern>& patterns,
                          const HittingSetResult& result, const Schema& schema,
                          const ValidationOracle* oracle) {
  (void)schema;
  for (const auto& combo : result.combinations) {
    if (oracle != nullptr && !oracle->IsValid(combo)) {
      return Status::Internal("selected combination violates a rule");
    }
  }
  for (const Pattern& p : patterns) {
    bool hit = false;
    for (const auto& combo : result.combinations) {
      if (p.Matches(combo)) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      const bool declared_unresolvable =
          std::find(result.unresolvable.begin(), result.unresolvable.end(),
                    p) != result.unresolvable.end();
      if (!declared_unresolvable) {
        return Status::Internal("pattern " + p.ToString() +
                                " is neither hit nor declared unresolvable");
      }
    }
  }
  return Status::OK();
}

}  // namespace coverage
