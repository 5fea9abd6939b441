#include "common/bitvector.h"

#include <bit>
#include <cassert>

namespace coverage {

namespace {
std::size_t WordsFor(std::size_t num_bits) {
  return (num_bits + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
}
}  // namespace

BitVector::BitVector(std::size_t num_bits, bool value)
    : words_(WordsFor(num_bits), value ? ~Word{0} : Word{0}),
      num_bits_(num_bits) {
  ClearPadding();
}

void BitVector::Set(std::size_t i, bool value) {
  assert(i < num_bits_);
  const Word mask = Word{1} << (i % kBitsPerWord);
  if (value) {
    words_[i / kBitsPerWord] |= mask;
  } else {
    words_[i / kBitsPerWord] &= ~mask;
  }
}

void BitVector::Fill(bool value) {
  for (Word& w : words_) w = value ? ~Word{0} : Word{0};
  ClearPadding();
}

void BitVector::PushBack(bool value) {
  const std::size_t bit = num_bits_ % kBitsPerWord;
  if (bit == 0) words_.push_back(Word{0});
  if (value) words_.back() |= Word{1} << bit;
  ++num_bits_;
}

void BitVector::Resize(std::size_t num_bits, bool value) {
  const std::size_t old_bits = num_bits_;
  words_.resize(WordsFor(num_bits), value ? ~Word{0} : Word{0});
  num_bits_ = num_bits;
  if (num_bits > old_bits && value) {
    // The tail of the old last word must be raised by hand.
    for (std::size_t i = old_bits; i < num_bits && i % kBitsPerWord != 0; ++i) {
      Set(i, true);
    }
  }
  ClearPadding();
}

void BitVector::Reserve(std::size_t num_bits) {
  words_.reserve(WordsFor(num_bits));
}

void BitVector::AppendWords(const Word* words, std::size_t num_bits) {
  if (num_bits == 0) return;
  const std::size_t in_words = WordsFor(num_bits);
  const std::size_t offset = num_bits_ % kBitsPerWord;
  // The unaligned loop pushes all in_words words before the trailing trim,
  // so reserve for the transient peak, not the final word count.
  words_.reserve(words_.size() + in_words);
  if (offset == 0) {
    words_.insert(words_.end(), words, words + in_words);
  } else {
    // Shift-merge across the boundary: the low (64 - offset) bits of each
    // incoming word land in the current last word, the rest start the next.
    const std::size_t shift = kBitsPerWord - offset;
    for (std::size_t i = 0; i < in_words; ++i) {
      words_.back() |= words[i] << offset;
      words_.push_back(words[i] >> shift);
    }
    // The loop may have opened one word more than the new size needs.
    words_.resize(WordsFor(num_bits_ + num_bits));
  }
  num_bits_ += num_bits;
  ClearPadding();
}

std::size_t BitVector::Count() const {
  std::size_t total = 0;
  for (Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool BitVector::Any() const {
  for (Word w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void BitVector::AndWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::OrWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::AndNotWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

bool BitVector::IntersectsWith(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t BitVector::AndCount(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total +=
        static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return total;
}

// GCC and Clang emit an ifunc resolver for target_clones on x86-64 ELF; the
// "default" clone is the portable loop (a libgcc popcount call without
// -mpopcnt), the "popcnt" clone inlines the instruction.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define COVERAGE_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#endif
#endif
#ifndef COVERAGE_POPCNT_CLONES
#define COVERAGE_POPCNT_CLONES
#endif

COVERAGE_POPCNT_CLONES
std::size_t AndCountWords(const BitVector::Word* a, const BitVector::Word* b,
                          BitVector::Word* out, std::size_t num_words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_words; ++i) {
    const BitVector::Word w = a[i] & b[i];
    out[i] = w;
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

std::uint64_t BitVector::Dot(const std::vector<std::uint64_t>& counts) const {
  assert(counts.size() == num_bits_);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    Word word = words_[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      total += counts[w * kBitsPerWord + static_cast<std::size_t>(bit)];
      word &= word - 1;
    }
  }
  return total;
}

std::size_t BitVector::AndCount3(const BitVector& a, const BitVector& b,
                                 const BitVector& c) {
  assert(a.size() == b.size() && b.size() == c.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.words_.size(); ++i) {
    total += static_cast<std::size_t>(
        std::popcount(a.words_[i] & b.words_[i] & c.words_[i]));
  }
  return total;
}

namespace {

/// Adds counts[base + i] for every set bit i of `word` to `sum`.
inline void DotWord(BitVector::Word word, const std::uint64_t* counts,
                    std::size_t base, std::uint64_t& sum) {
  while (word != 0) {
    const int bit = __builtin_ctzll(word);
    sum += counts[base + static_cast<std::size_t>(bit)];
    word &= word - 1;
  }
}

/// ANDs word `w` of all `n` operands, branchlessly — the exact-count kernel
/// has no early exit, so keeping the chain free of data-dependent branches
/// lets the compiler vectorise across the 4-word blocks.
inline BitVector::Word ChainWord(const BitVector* const* ops, int n,
                                 std::size_t w) {
  BitVector::Word word = ops[0]->words()[w];
  for (int k = 1; k < n; ++k) word &= ops[k]->words()[w];
  return word;
}

/// ANDs word `w` of all `n` operands, stopping once the word zeroes. With
/// operands ordered sparsest first (the threshold path), most words die
/// after one or two ANDs, which beats the vectorised full chain.
inline BitVector::Word ChainWordEarly(const BitVector* const* ops, int n,
                                      std::size_t w) {
  BitVector::Word word = ops[0]->words()[w];
  for (int k = 1; k < n && word != 0; ++k) word &= ops[k]->words()[w];
  return word;
}

}  // namespace

std::uint64_t BitVector::AndChainDot(
    const BitVector* const* ops, int n,
    const std::vector<std::uint64_t>& counts) {
  assert(n >= 1);
  assert(counts.size() == ops[0]->size());
  const std::size_t num_words = ops[0]->num_words();
  const std::uint64_t* c = counts.data();
  std::uint64_t sum = 0;
  std::size_t w = 0;
  // 4-way unrolled main loop: the chain ANDs are independent across the four
  // words, and the combined zero test skips the bit-scatter dot entirely for
  // the (common) fully-pruned blocks.
  for (; w + 4 <= num_words; w += 4) {
    const Word w0 = ChainWord(ops, n, w);
    const Word w1 = ChainWord(ops, n, w + 1);
    const Word w2 = ChainWord(ops, n, w + 2);
    const Word w3 = ChainWord(ops, n, w + 3);
    if ((w0 | w1 | w2 | w3) == 0) continue;
    DotWord(w0, c, w * kBitsPerWord, sum);
    DotWord(w1, c, (w + 1) * kBitsPerWord, sum);
    DotWord(w2, c, (w + 2) * kBitsPerWord, sum);
    DotWord(w3, c, (w + 3) * kBitsPerWord, sum);
  }
  for (; w < num_words; ++w) {
    DotWord(ChainWord(ops, n, w), c, w * kBitsPerWord, sum);
  }
  return sum;
}

bool BitVector::AndChainAtLeast(const BitVector* const* ops, int n,
                                const std::vector<std::uint64_t>& counts,
                                std::uint64_t tau) {
  assert(n >= 1);
  assert(counts.size() == ops[0]->size());
  if (tau == 0) return true;
  const std::size_t num_words = ops[0]->num_words();
  const std::uint64_t* c = counts.data();
  std::uint64_t sum = 0;
  std::size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const Word w0 = ChainWordEarly(ops, n, w);
    const Word w1 = ChainWordEarly(ops, n, w + 1);
    const Word w2 = ChainWordEarly(ops, n, w + 2);
    const Word w3 = ChainWordEarly(ops, n, w + 3);
    if ((w0 | w1 | w2 | w3) == 0) continue;
    DotWord(w0, c, w * kBitsPerWord, sum);
    DotWord(w1, c, (w + 1) * kBitsPerWord, sum);
    DotWord(w2, c, (w + 2) * kBitsPerWord, sum);
    DotWord(w3, c, (w + 3) * kBitsPerWord, sum);
    if (sum >= tau) return true;
  }
  for (; w < num_words; ++w) {
    DotWord(ChainWordEarly(ops, n, w), c, w * kBitsPerWord, sum);
    if (sum >= tau) return true;
  }
  return false;
}

std::size_t BitVector::FindFirst() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kBitsPerWord +
             static_cast<std::size_t>(__builtin_ctzll(words_[w]));
    }
  }
  return num_bits_;
}

std::size_t BitVector::FindNext(std::size_t i) const {
  ++i;
  if (i >= num_bits_) return num_bits_;
  std::size_t w = i / kBitsPerWord;
  Word word = words_[w] >> (i % kBitsPerWord);
  if (word != 0) {
    return i + static_cast<std::size_t>(__builtin_ctzll(word));
  }
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kBitsPerWord +
             static_cast<std::size_t>(__builtin_ctzll(words_[w]));
    }
  }
  return num_bits_;
}

std::string BitVector::ToString() const {
  std::string out;
  out.reserve(num_bits_);
  for (std::size_t i = 0; i < num_bits_; ++i) out.push_back(Get(i) ? '1' : '0');
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

void BitVector::ClearPadding() {
  const std::size_t tail = num_bits_ % kBitsPerWord;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

}  // namespace coverage
