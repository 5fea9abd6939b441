#ifndef COVERAGE_COMMON_ARENA_H_
#define COVERAGE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace coverage {

/// Chunked bump allocator in the style of mtplz's util::Pool: allocations are
/// O(1) pointer bumps out of geometrically growing chunks, and the only way to
/// free is all-at-once. `Reset()` rewinds to empty while keeping every chunk
/// for reuse, so a search loop that resets between BFS levels allocates from
/// the OS only on its high-water-mark level.
///
/// Only trivially destructible payloads belong here — the arena never runs
/// destructors.
class Arena {
 public:
  explicit Arena(std::size_t first_chunk_bytes = kDefaultFirstChunk)
      : next_chunk_bytes_(first_chunk_bytes < kMinChunk ? kMinChunk
                                                        : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation, aligned to `alignment` (a power of two).
  void* Allocate(std::size_t bytes, std::size_t alignment = alignof(std::max_align_t)) {
    std::size_t cursor = (cursor_ + (alignment - 1)) & ~(alignment - 1);
    if (chunk_ >= chunks_.size() || cursor + bytes > chunks_[chunk_].size) {
      NextChunk(bytes + alignment);
      cursor = (cursor_ + (alignment - 1)) & ~(alignment - 1);
    }
    void* out = chunks_[chunk_].data.get() + cursor;
    cursor_ = cursor + bytes;
    allocated_ += bytes;
    return out;
  }

  /// Typed array allocation; the memory is uninitialized.
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty. Every chunk is kept, so subsequent allocations reuse
  /// the existing capacity. Pointers handed out before the reset are invalid.
  void Reset() {
    chunk_ = 0;
    cursor_ = 0;
    allocated_ = 0;
  }

  /// Bytes handed out since construction / the last Reset().
  std::size_t allocated_bytes() const { return allocated_; }

  /// Bytes owned by the arena across all chunks (the high-water capacity).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  static constexpr std::size_t kDefaultFirstChunk = std::size_t{1} << 14;
  static constexpr std::size_t kMinChunk = 256;

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void NextChunk(std::size_t at_least) {
    // Advance into an existing retained chunk if one is big enough, else grow.
    while (chunk_ + 1 < chunks_.size()) {
      ++chunk_;
      cursor_ = 0;
      if (chunks_[chunk_].size >= at_least) return;
    }
    std::size_t size = next_chunk_bytes_;
    if (size < at_least) size = at_least;
    next_chunk_bytes_ = size * 2;
    // Not zero-filled: callers initialise what they read, and a fresh chunk
    // then costs page faults only where it is written.
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<char[]>(size), size});
    chunk_ = chunks_.size() - 1;
    cursor_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;        // index of the chunk being bumped
  std::size_t cursor_ = 0;       // bump offset within chunks_[chunk_]
  std::size_t allocated_ = 0;
  std::size_t next_chunk_bytes_;
};

/// A contiguous growable array whose storage comes from an Arena. Grow-by-copy
/// leaves the old block stranded until the arena resets — the intended usage
/// is short-lived BFS frontiers where the whole level dies at once.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector grows by memcpy");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void push_back(const T& value) {
    if (size_ == capacity_) Grow();
    data_[size_++] = value;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow();
    data_[size_] = T(std::forward<Args>(args)...);
    return data_[size_++];
  }

  void clear() { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > capacity_) Regrow(n);
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  void pop_back() { --size_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void Grow() { Regrow(capacity_ == 0 ? kFirstCapacity : capacity_ * 2); }

  void Regrow(std::size_t capacity) {
    T* fresh = arena_->AllocateArray<T>(capacity);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = capacity;
  }

  static constexpr std::size_t kFirstCapacity = 16;

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace coverage

#endif  // COVERAGE_COMMON_ARENA_H_
