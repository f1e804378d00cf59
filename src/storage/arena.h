// Bump allocator backing the memtable: entries, values and B+-tree nodes
// live as long as the memtable, so allocation is a pointer bump and
// deallocation is dropping the whole arena (LevelDB-style).

#ifndef SCADS_STORAGE_ARENA_H_
#define SCADS_STORAGE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace scads {

/// Block-chained bump allocator. Not thread-safe (engines are
/// single-threaded under the simulator). Under ASan every byte not yet
/// handed out stays poisoned, so an overrun past a range is reported.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized memory (never nullptr; aborts on OOM
  /// like operator new).
  char* Allocate(size_t bytes);

  /// Like Allocate but aligned for pointer-sized objects.
  char* AllocateAligned(size_t bytes);

  /// Total bytes reserved from the system (>= bytes handed out).
  size_t MemoryUsage() const { return memory_usage_; }

  /// Bytes actually handed out to callers (<= MemoryUsage; the difference
  /// is block-tail waste and per-block bookkeeping).
  size_t BytesAllocated() const { return bytes_allocated_; }

 private:
  static constexpr size_t kBlockSize = 4096;

  char* AllocateFallback(size_t bytes);
  char* AllocateNewBlock(size_t block_bytes);

  char* alloc_ptr_ = nullptr;
  size_t alloc_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t memory_usage_ = 0;
  size_t bytes_allocated_ = 0;
};

}  // namespace scads

#endif  // SCADS_STORAGE_ARENA_H_
