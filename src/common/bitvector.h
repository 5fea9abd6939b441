#ifndef COVERAGE_COMMON_BITVECTOR_H_
#define COVERAGE_COMMON_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace coverage {

/// A fixed-length dynamic bit vector tuned for the inverted-index kernels of
/// the coverage library (paper, Appendices A and B).
///
/// The hot operations are word-wise AND / OR-AND chains with early exit, a
/// popcount, and a dot product against a 64-bit count vector. All of them are
/// branch-light loops over packed 64-bit words.
class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kBitsPerWord = 64;

  BitVector() = default;

  /// Creates a vector of `num_bits` bits, all initialised to `value`.
  explicit BitVector(std::size_t num_bits, bool value = false);

  /// Number of addressable bits.
  std::size_t size() const { return num_bits_; }

  /// Number of backing 64-bit words.
  std::size_t num_words() const { return words_.size(); }

  bool empty() const { return num_bits_ == 0; }

  /// Reads bit `i`. Precondition: `i < size()`.
  bool Get(std::size_t i) const {
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & Word{1};
  }

  /// Sets bit `i` to `value`. Precondition: `i < size()`.
  void Set(std::size_t i, bool value = true);

  /// Sets every bit to `value`.
  void Fill(bool value);

  /// Appends one bit, growing the vector by one. Backing words grow one
  /// 64-bit block at a time (amortised by the word vector's geometric
  /// growth), so repeated PushBack never rewrites existing words.
  void PushBack(bool value);

  /// Grows or shrinks to `num_bits`; new bits are `value`.
  void Resize(std::size_t num_bits, bool value = false);

  /// Reserves backing storage for at least `num_bits` bits without changing
  /// size(); subsequent appends up to that capacity never reallocate.
  void Reserve(std::size_t num_bits);

  /// Appends `num_bits` bits read LSB-first from `words` (which must hold at
  /// least ceil(num_bits / 64) words; bits past `num_bits` in the last word
  /// are ignored). The append is word-blocked: when the current size is not
  /// word-aligned the incoming words are shift-merged across the boundary,
  /// touching each word exactly once — this is the allocation-amortised bulk
  /// growth path behind the incremental coverage index.
  void AppendWords(const Word* words, std::size_t num_bits);

  /// Number of set bits.
  std::size_t Count() const;

  /// True iff at least one bit is set.
  bool Any() const;

  /// True iff no bit is set.
  bool None() const { return !Any(); }

  /// `*this &= other`. Both operands must have equal size.
  void AndWith(const BitVector& other);

  /// `*this |= other`. Both operands must have equal size.
  void OrWith(const BitVector& other);

  /// `*this &= ~other`. Both operands must have equal size.
  void AndNotWith(const BitVector& other);

  /// True iff `(*this & other)` has at least one set bit. Early-exits on the
  /// first non-zero word; this is the kernel behind MUP-dominance checks.
  bool IntersectsWith(const BitVector& other) const;

  /// Popcount of `(*this & other)` without materialising the intersection.
  std::size_t AndCount(const BitVector& other) const;

  /// Sum of `counts[i]` over all set bits `i`; the coverage dot product of
  /// Appendix A. `counts.size()` must equal `size()`.
  std::uint64_t Dot(const std::vector<std::uint64_t>& counts) const;

  /// Popcount of `(a & b & c)`; used by three-way filter probes.
  static std::size_t AndCount3(const BitVector& a, const BitVector& b,
                               const BitVector& c);

  /// Dot product of `(ops[0] & ops[1] & ... & ops[n-1])` against `counts`
  /// without materialising the intersection: the AND chain and the dot are
  /// fused into one word-blocked pass, so a threshold/coverage query touches
  /// each operand word exactly once and allocates nothing. Preconditions:
  /// `n >= 1`, all operands share one size, `counts.size() == size()`.
  static std::uint64_t AndChainDot(const BitVector* const* ops, int n,
                                   const std::vector<std::uint64_t>& counts);

  /// True iff `AndChainDot(ops, n, counts) >= tau`, early-exiting as soon as
  /// the partial sum reaches `tau`. This is the cov(P) >= τ kernel behind
  /// PATTERN-BREAKER and DEEPDIVER; callers order `ops` most-selective first
  /// so the chain zeroes words as early as possible.
  static bool AndChainAtLeast(const BitVector* const* ops, int n,
                              const std::vector<std::uint64_t>& counts,
                              std::uint64_t tau);

  /// Index of the first set bit, or `size()` if none.
  std::size_t FindFirst() const;

  /// Index of the first set bit strictly after `i`, or `size()` if none.
  std::size_t FindNext(std::size_t i) const;

  /// Calls `fn(i)` for every set bit `i`, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * kBitsPerWord + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// "0101..." rendering, LSB first; intended for tests and debugging.
  std::string ToString() const;

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  const std::vector<Word>& words() const { return words_; }

 private:
  /// Clears the unused high bits of the last word so popcounts stay exact.
  void ClearPadding();

  std::vector<Word> words_;
  std::size_t num_bits_ = 0;
};

/// Writes `a[i] & b[i]` to `out[i]` for every `i < num_words` and returns
/// the popcount of the result: the fused child-vector kernel of the greedy
/// hitting set's DFS, one pass per child and no second count. `out` may
/// alias `a` or `b`. On x86-64 the definition is compiled twice (with and
/// without the POPCNT instruction) and the loader picks the clone the CPU
/// supports, so hardware popcount needs no build flag; other targets get
/// the portable loop.
std::size_t AndCountWords(const BitVector::Word* a, const BitVector::Word* b,
                          BitVector::Word* out, std::size_t num_words);

}  // namespace coverage

#endif  // COVERAGE_COMMON_BITVECTOR_H_
