#ifndef COVERAGE_PATTERN_PACKED_PATTERN_H_
#define COVERAGE_PATTERN_PACKED_PATTERN_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/schema.h"
#include "pattern/pattern.h"

namespace coverage {

class PatternCodec;

/// Fixed-width pattern key. Each attribute occupies a variable-width bit
/// field (ceil(log2(c+1)) bits, laid out by PatternCodec); a deterministic
/// cell stores its value, a wildcard stores the field's all-ones code. The
/// all-ones wildcard encoding makes the value words alone a unique key, so
/// equality and hashing are O(words) with no schema in sight.
///
/// Alongside the value words we keep a field-expanded deterministic mask
/// (every bit of a deterministic field set) and the level, both maintained
/// incrementally by PatternCodec's mutators. They are derived from the value
/// words + codec and deliberately excluded from equality/hash.
///
/// Dominance (paper Definition 9) collapses to word ops:
///   P ⪰ Q  ⇔  (P.words ^ Q.words) & P.det == 0   for every word.
/// If Q leaves one of P's deterministic fields wild, that field reads
/// all-ones in Q and the XOR trips; no per-cell loop needed.
class PackedPattern {
 public:
  /// 256 bits of value payload: covers e.g. 36 attributes of cardinality 30
  /// (the paper's 3^36 regime packs into 72 bits). Schemas that need more
  /// are refused (PatternCodec::Build).
  static constexpr int kMaxWords = 4;

  PackedPattern() = default;

  bool operator==(const PackedPattern& other) const {
    return words_ == other.words_;
  }
  bool operator!=(const PackedPattern& other) const {
    return !(*this == other);
  }

  /// Number of deterministic cells, O(1).
  int level() const { return level_; }

  /// True iff this pattern dominates-or-equals `other` (every deterministic
  /// cell of ours fixed identically in `other`). O(words).
  bool DominatesOrEquals(const PackedPattern& other) const {
    std::uint64_t diff = 0;
    for (int w = 0; w < kMaxWords; ++w) {
      diff |= (words_[w] ^ other.words_[w]) & det_[w];
    }
    return diff == 0;
  }

  /// Strict dominance: DominatesOrEquals and not equal. O(words).
  bool Dominates(const PackedPattern& other) const {
    return DominatesOrEquals(other) && words_ != other.words_;
  }

  /// Mixed multiply-xor over the value words; for unordered containers and
  /// the open-addressing tables in packed_set.h.
  std::size_t Hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int w = 0; w < kMaxWords; ++w) {
      std::uint64_t x = words_[w];
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 31;
      h = (h ^ x) * 0x94d049bb133111ebull;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  std::uint64_t word(int w) const {
    return words_[static_cast<std::size_t>(w)];
  }
  std::uint64_t det_word(int w) const {
    return det_[static_cast<std::size_t>(w)];
  }

 private:
  friend class PatternCodec;

  std::array<std::uint64_t, kMaxWords> words_{};
  std::array<std::uint64_t, kMaxWords> det_{};
  std::int16_t level_ = 0;
};

struct PackedPatternHash {
  std::size_t operator()(const PackedPattern& p) const { return p.Hash(); }
};

/// Bit layout for one schema: where each attribute's field lives and how to
/// move patterns between the packed and vector<int> representations. Built
/// once per schema. Build fails with kInvalidArgument when the schema
/// exceeds PackedPattern::kMaxWords * 64 = 256 bits; every MUP search and
/// engine epoch runs on packed patterns, so such a schema is refused at the
/// API boundary. Fields never straddle a word boundary, so a field
/// that does not fit in the current word's remaining bits starts the next
/// word — this is what puts the 33rd binary attribute (2-bit fields) into
/// word 1 and keeps every field extractable with one shift+mask.
class PatternCodec {
 public:
  PatternCodec() = default;

  static StatusOr<PatternCodec> Build(const Schema& schema);

  int num_attributes() const { return static_cast<int>(fields_.size()); }
  int num_words() const { return num_words_; }

  /// The all-wildcard root pattern.
  PackedPattern Root() const;

  /// Packs an existing vector<int>-shaped pattern.
  PackedPattern Encode(const Pattern& pattern) const;

  /// Packs a fully deterministic value combination.
  PackedPattern EncodeTuple(std::span<const Value> tuple) const;

  /// Unpacks to the materialized Pattern form.
  Pattern Decode(const PackedPattern& packed) const;

  /// Decode over a whole list, order preserved.
  std::vector<Pattern> DecodeAll(std::span<const PackedPattern> packed) const;

  /// Cell accessors, O(1).
  Value cell(const PackedPattern& p, int attr) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    const std::uint64_t code = (p.words_[f.word] >> f.shift) & f.low_mask;
    return code == f.low_mask ? kWildcard : static_cast<Value>(code);
  }
  bool is_deterministic(const PackedPattern& p, int attr) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    return (p.det_[f.word] >> f.shift) & 1u;
  }

  /// Returns a copy with attribute `attr` set to `v` (kWildcard allowed).
  /// O(1); level and the deterministic mask are maintained incrementally.
  PackedPattern WithCell(const PackedPattern& p, int attr, Value v) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    PackedPattern out = p;
    const bool was_det = (p.det_[f.word] >> f.shift) & 1u;
    const std::uint64_t field_mask = f.low_mask << f.shift;
    out.words_[f.word] &= ~field_mask;
    if (v == kWildcard) {
      out.words_[f.word] |= field_mask;  // all-ones wildcard code
      out.det_[f.word] &= ~field_mask;
      out.level_ = static_cast<std::int16_t>(p.level_ - (was_det ? 1 : 0));
    } else {
      out.words_[f.word] |= static_cast<std::uint64_t>(v) << f.shift;
      out.det_[f.word] |= field_mask;
      out.level_ = static_cast<std::int16_t>(p.level_ + (was_det ? 0 : 1));
    }
    return out;
  }

  /// Index of the right-most deterministic cell, or -1 if none. O(words).
  int RightmostDeterministic(const PackedPattern& p) const;

  /// Index of the right-most wildcard cell, or -1 if none. O(words).
  int RightmostWildcard(const PackedPattern& p) const;

  /// Calls `fn(attr)` for each deterministic attribute, ascending. O(level)
  /// plus a word scan; no allocation — this replaces Pattern::Parents() in
  /// the packed search loops (parent = WithCell(attr, kWildcard)).
  template <typename Fn>
  void ForEachDeterministic(const PackedPattern& p, Fn&& fn) const {
    for (int w = 0; w < num_words_; ++w) {
      std::uint64_t bits = p.det_[w] & first_bits_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)]);
      }
    }
  }

  /// Calls `fn(attr)` for each wildcard attribute, ascending.
  template <typename Fn>
  void ForEachWildcard(const PackedPattern& p, Fn&& fn) const {
    for (int w = 0; w < num_words_; ++w) {
      std::uint64_t bits = (layout_[w] & ~p.det_[w]) & first_bits_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)]);
      }
    }
  }

  int cardinality(int attr) const {
    return cardinalities_[static_cast<std::size_t>(attr)];
  }

  /// Same rendering as Pattern::ToString / ToLabelledString, straight from
  /// the packed form (the wire encoder uses these so audit responses never
  /// materialize a vector<int> per MUP).
  std::string ToString(const PackedPattern& p) const;
  std::string ToLabelledString(const PackedPattern& p,
                               const Schema& schema) const;

  /// Cell-wise lexicographic comparison matching Pattern::operator<
  /// (wildcard sorts first), so packed result sets sort into the same order
  /// as materialized ones.
  bool Less(const PackedPattern& a, const PackedPattern& b) const;

 private:
  struct Field {
    std::uint8_t word = 0;
    std::uint8_t shift = 0;
    std::uint8_t bits = 0;
    std::uint64_t low_mask = 0;  // (1 << bits) - 1, unshifted
  };

  std::vector<Field> fields_;
  std::vector<int> cardinalities_;
  std::array<std::uint64_t, PackedPattern::kMaxWords> layout_{};
  std::array<std::uint64_t, PackedPattern::kMaxWords> first_bits_{};
  std::vector<std::int16_t> attr_of_bit_;  // num_words * 64, -1 when unused
  int num_words_ = 1;
};

/// Sort helper: strict weak order matching Pattern::operator<.
struct PackedLess {
  const PatternCodec* codec;
  bool operator()(const PackedPattern& a, const PackedPattern& b) const {
    return codec->Less(a, b);
  }
};

}  // namespace coverage

#endif  // COVERAGE_PATTERN_PACKED_PATTERN_H_
