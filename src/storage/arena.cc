#include "storage/arena.h"

#include <cassert>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace scads {

namespace {

// Under ASan each block starts poisoned and each range is unpoisoned as it
// is handed out, so a write past an allocation into the unallocated rest of
// its block is reported instead of landing silently. Elsewhere a no-op.
#if defined(__SANITIZE_ADDRESS__)
void PoisonBlock(char* block, size_t bytes) { ASAN_POISON_MEMORY_REGION(block, bytes); }

char* HandOut(char* range, size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(range, bytes);
  return range;
}
#else
void PoisonBlock(char*, size_t) {}

char* HandOut(char* range, size_t) { return range; }
#endif

}  // namespace

char* Arena::Allocate(size_t bytes) {
  assert(bytes > 0);
  bytes_allocated_ += bytes;
  if (bytes <= alloc_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_remaining_ -= bytes;
    return HandOut(result, bytes);
  }
  return HandOut(AllocateFallback(bytes), bytes);
}

char* Arena::AllocateAligned(size_t bytes) {
  bytes_allocated_ += bytes;
  constexpr size_t kAlign = alignof(void*);
  size_t current = reinterpret_cast<uintptr_t>(alloc_ptr_) & (kAlign - 1);
  size_t slop = current == 0 ? 0 : kAlign - current;
  size_t needed = bytes + slop;
  if (needed <= alloc_remaining_) {
    char* result = alloc_ptr_ + slop;
    alloc_ptr_ += needed;
    alloc_remaining_ -= needed;
    return HandOut(result, bytes);
  }
  // Fresh blocks from new[] are always pointer-aligned.
  return HandOut(AllocateFallback(bytes), bytes);
}

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > kBlockSize / 4) {
    // Large allocations get their own block so the current block's tail
    // isn't wasted.
    return AllocateNewBlock(bytes);
  }
  char* block = AllocateNewBlock(kBlockSize);
  alloc_ptr_ = block + bytes;
  alloc_remaining_ = kBlockSize - bytes;
  return block;
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  blocks_.push_back(std::make_unique<char[]>(block_bytes));
  memory_usage_ += block_bytes + sizeof(char*);
  PoisonBlock(blocks_.back().get(), block_bytes);
  return blocks_.back().get();
}

}  // namespace scads
