#ifndef COVERAGE_MUPS_PACKED_INDEX_H_
#define COVERAGE_MUPS_PACKED_INDEX_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "dataset/schema.h"
#include "pattern/packed_pattern.h"

namespace coverage {

/// The Appendix-B MUP-dominance index, keyed by PackedPattern: one
/// slot bit-vector per wildcard and one per value of every attribute, one
/// bit per registered MUP. Every pattern touch goes through the codec's O(1)
/// field accessors, and the membership set hashes two to four words instead
/// of d cells. DEEPDIVER, the engine's maintenance epochs and the
/// coordinator's tier-1 check all use it.
///
/// Thread-safety: none.
class PackedMupIndex {
 public:
  /// `codec` must outlive the index.
  PackedMupIndex(const Schema& schema, const PatternCodec& codec);

  void Add(const PackedPattern& mup);

  /// Registers `mups` in one shot; one AppendWords pass per slot. The batch
  /// must be duplicate-free and disjoint from the registered set.
  void AddBatch(std::span<const PackedPattern> mups);

  /// Swap-with-last removal; returns false if `mup` was never registered.
  bool Remove(const PackedPattern& mup);

  std::size_t size() const { return mups_.size(); }
  const std::vector<PackedPattern>& mups() const { return mups_; }
  const PatternCodec& codec() const { return *codec_; }

  bool Contains(const PackedPattern& pattern) const {
    return member_index_.contains(pattern);
  }

  /// True iff some registered MUP strictly dominates `pattern`.
  bool IsDominated(const PackedPattern& pattern) const;

  /// True iff `pattern` strictly dominates some registered MUP.
  bool DominatesSome(const PackedPattern& pattern) const;

 private:
  const BitVector& value_index(int attr, Value v) const {
    return indices_[static_cast<std::size_t>(offsets_[
        static_cast<std::size_t>(attr)]) + 1 + static_cast<std::size_t>(v)];
  }
  const BitVector& wildcard_index(int attr) const {
    return indices_[static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(attr)])];
  }
  std::size_t slot_of(const PackedPattern& p, int attr) const {
    const Value v = codec_->cell(p, attr);
    return static_cast<std::size_t>(offsets_[static_cast<std::size_t>(attr)] +
                                    (v == kWildcard ? 0 : 1 + v));
  }

  const PatternCodec* codec_;
  std::vector<int> offsets_;  // attr -> slot of its wildcard vector
  std::vector<BitVector> indices_;
  std::vector<PackedPattern> mups_;
  std::unordered_map<PackedPattern, std::size_t, PackedPatternHash>
      member_index_;
  std::size_t reserved_bits_ = 0;
};

}  // namespace coverage

#endif  // COVERAGE_MUPS_PACKED_INDEX_H_
