#ifndef M3R_COMMON_BUFFER_POOL_H_
#define M3R_COMMON_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace m3r {

/// Thread-safe pool of reusable byte buffers, keyed by category ("what the
/// buffer is for"). An M3R engine keeps one pool for the lifetime of its
/// job sequence so that steady-state iterative jobs stop round-tripping
/// their shuffle wire buffers through the allocator: the pool remembers,
/// per category, how big released buffers tend to be (a decaying running
/// max) and pre-reserves that capacity on Acquire.
class BufferPool {
 public:
  /// Returns an empty string whose capacity is at least the category's
  /// current size hint — a recycled buffer when one is available.
  std::string Acquire(const std::string& category);

  /// Returns a buffer to the pool. Its capacity feeds the size hint;
  /// oversized buffers and overfull freelists are dropped on the floor so
  /// one pathological job cannot pin memory forever.
  void Release(const std::string& category, std::string buffer);

  /// Capacity Acquire would currently reserve for this category.
  size_t SizeHint(const std::string& category) const;

  /// Total capacity currently retained on the freelists — the bytes the
  /// pool pins between jobs. Exposed as a polled gauge to the memory
  /// governor ("shuffle.pool" consumer).
  uint64_t ResidentBytes() const;

  /// Frees every retained buffer and resets all size hints. Called
  /// when a job is cancelled mid-shuffle: the hints a torn-down exchange
  /// decayed into the pool describe a job that never finished, and holding
  /// its buffers until the next job would pin memory for no one.
  void Trim();

  uint64_t acquired() const;
  /// Acquires that were satisfied by a recycled buffer.
  uint64_t reused() const;

 private:
  struct Category {
    std::vector<std::string> free;
    size_t size_hint = 0;
  };

  /// Freelist depth per category; beyond this, released buffers are freed.
  static constexpr size_t kMaxFreePerCategory = 64;
  /// Buffers above this capacity are never retained.
  static constexpr size_t kMaxRetainedCapacity = size_t{8} << 20;

  /// Decaying running max: tracks the working-set high-water mark but lets
  /// the hint shrink (by a quarter per miss) when jobs get smaller.
  static size_t Decay(size_t hint, size_t observed) {
    return observed >= hint ? observed : hint - (hint >> 2);
  }

  mutable std::mutex mu_;
  std::map<std::string, Category, std::less<>> categories_;
  uint64_t acquired_ = 0;
  uint64_t reused_ = 0;
  /// Sum of freelist capacities, maintained on Acquire/Release/Trim.
  uint64_t resident_bytes_ = 0;
};

}  // namespace m3r

#endif  // M3R_COMMON_BUFFER_POOL_H_
