#include "mups/packed_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace coverage {

PackedMupIndex::PackedMupIndex(const Schema& schema, const PatternCodec& codec)
    : codec_(&codec) {
  const int d = schema.num_attributes();
  assert(codec.num_attributes() == d);
  offsets_.resize(static_cast<std::size_t>(d));
  int total = 0;
  for (int i = 0; i < d; ++i) {
    offsets_[static_cast<std::size_t>(i)] = total;
    total += 1 + schema.cardinality(i);  // wildcard slot + one per value
  }
  indices_.assign(static_cast<std::size_t>(total), BitVector());
}

void PackedMupIndex::Add(const PackedPattern& mup) {
  assert(!member_index_.contains(mup));
  const std::size_t bit = mups_.size();
  if (bit >= reserved_bits_) {
    reserved_bits_ =
        std::max<std::size_t>(2 * reserved_bits_, 16 * BitVector::kBitsPerWord);
    for (BitVector& index : indices_) index.Reserve(reserved_bits_);
  }
  mups_.push_back(mup);
  member_index_.emplace(mup, bit);
  for (BitVector& index : indices_) index.PushBack(false);
  const int d = static_cast<int>(offsets_.size());
  for (int i = 0; i < d; ++i) {
    indices_[slot_of(mup, i)].Set(bit, true);
  }
}

void PackedMupIndex::AddBatch(std::span<const PackedPattern> mups) {
  if (mups.empty()) return;
  const std::size_t base = mups_.size();
  const std::size_t k = mups.size();
  const int d = static_cast<int>(offsets_.size());
  const std::size_t delta_words =
      (k + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
  std::vector<BitVector::Word> deltas(indices_.size() * delta_words, 0);
  mups_.reserve(base + k);
  for (std::size_t j = 0; j < k; ++j) {
    const PackedPattern& mup = mups[j];
    assert(!member_index_.contains(mup));
    mups_.push_back(mup);
    member_index_.emplace(mup, base + j);
    for (int i = 0; i < d; ++i) {
      deltas[slot_of(mup, i) * delta_words + j / BitVector::kBitsPerWord] |=
          BitVector::Word{1} << (j % BitVector::kBitsPerWord);
    }
  }
  for (std::size_t slot = 0; slot < indices_.size(); ++slot) {
    indices_[slot].AppendWords(deltas.data() + slot * delta_words, k);
  }
  if (base + k > reserved_bits_) reserved_bits_ = base + k;
}

bool PackedMupIndex::Remove(const PackedPattern& mup) {
  const auto it = member_index_.find(mup);
  if (it == member_index_.end()) return false;
  const std::size_t pos = it->second;
  const std::size_t last = mups_.size() - 1;
  member_index_.erase(it);
  if (pos != last) {
    for (BitVector& index : indices_) index.Set(pos, index.Get(last));
    mups_[pos] = mups_[last];
    member_index_[mups_[pos]] = pos;
  }
  mups_.pop_back();
  for (BitVector& index : indices_) index.Resize(last);
  return true;
}

namespace {

using Word = BitVector::Word;

/// Accumulator words per block of the dominance loops (2,048 MUP slots):
/// small enough to live on the stack, large enough that each attribute's
/// operand words stream through a tight loop.
constexpr std::size_t kBlockWords = 32;

/// Counts the MUP slots in [0, num_bits) that survive `narrow`, capped at 2:
/// the dominance checks only tell none, one and several apart. Slots are
/// taken a block at a time; `narrow(attr, first_word, n, acc)` ANDs
/// attribute `attr`'s operand into the block's `n` accumulator words. A
/// block stops at the first attribute that empties it and the scan stops
/// at the second hit, with no heap work.
template <typename Narrow>
int HitsUpToTwo(std::size_t num_bits, int num_attributes, Narrow&& narrow) {
  const std::size_t num_words =
      (num_bits + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
  const std::size_t tail = num_bits % BitVector::kBitsPerWord;
  int hits = 0;
  for (std::size_t first = 0; first < num_words; first += kBlockWords) {
    const std::size_t n = std::min(kBlockWords, num_words - first);
    std::array<Word, kBlockWords> acc;
    acc.fill(~Word{0});
    if (first + n == num_words && tail != 0) {
      acc[n - 1] = (Word{1} << tail) - 1;
    }
    bool any = true;
    for (int attr = 0; attr < num_attributes && any; ++attr) {
      narrow(attr, first, n, acc.data());
      any = std::any_of(acc.begin(),
                        acc.begin() + static_cast<std::ptrdiff_t>(n),
                        [](Word w) { return w != 0; });
    }
    if (!any) continue;
    for (std::size_t j = 0; j < n; ++j) hits += std::popcount(acc[j]);
    if (hits >= 2) return 2;
  }
  return hits;
}

}  // namespace

bool PackedMupIndex::IsDominated(const PackedPattern& pattern) const {
  if (mups_.empty()) return false;
  // A dominating MUP has a wildcard wherever `pattern` does, and a wildcard
  // or the same value wherever `pattern` is deterministic: AND those slot
  // vectors over the attributes.
  const int hits = HitsUpToTwo(
      mups_.size(), static_cast<int>(offsets_.size()),
      [&](int attr, std::size_t first, std::size_t n, Word* acc) {
        const Word* wildcard = wildcard_index(attr).words().data() + first;
        const Value v = codec_->cell(pattern, attr);
        if (v == kWildcard) {
          for (std::size_t j = 0; j < n; ++j) acc[j] &= wildcard[j];
          return;
        }
        const Word* value = value_index(attr, v).words().data() + first;
        for (std::size_t j = 0; j < n; ++j) acc[j] &= wildcard[j] | value[j];
      });
  if (hits == 0) return false;
  if (hits > 1) return true;
  return !member_index_.contains(pattern);
}

bool PackedMupIndex::DominatesSome(const PackedPattern& pattern) const {
  if (mups_.empty()) return false;
  // A dominated MUP carries `pattern`'s value on every deterministic cell.
  const int hits = HitsUpToTwo(
      mups_.size(), static_cast<int>(offsets_.size()),
      [&](int attr, std::size_t first, std::size_t n, Word* acc) {
        const Value v = codec_->cell(pattern, attr);
        if (v == kWildcard) return;
        const Word* value = value_index(attr, v).words().data() + first;
        for (std::size_t j = 0; j < n; ++j) acc[j] &= value[j];
      });
  if (hits == 0) return false;
  if (hits > 1) return true;
  return !member_index_.contains(pattern);
}

}  // namespace coverage
