// Counting global operator new/delete for the perfbench binary.
//
// Every allocation bumps a per-thread counter (one cache line per thread,
// written only by its owner), so counting adds no cross-thread contention
// to the threaded workload. AllocCount() sums all threads; ThreadAllocCount()
// is the calling thread's own total, which trace spans difference.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kSlots = 256;

struct alignas(64) Slot {
  std::atomic<int64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
Slot g_overflow;  // threads beyond kSlots share this one
thread_local Slot* t_slot = nullptr;

Slot* MySlot() {
  if (t_slot == nullptr) {
    int index = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = index < kSlots ? &g_slots[index] : &g_overflow;
  }
  return t_slot;
}

void CountOne() {
  Slot* slot = MySlot();
  if (slot == &g_overflow) {
    slot->count.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->count.store(slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  CountOne();
  auto alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

int64_t AllocCount() {
  int64_t total = g_overflow.count.load(std::memory_order_relaxed);
  int used = g_next_slot.load(std::memory_order_relaxed);
  for (int i = 0; i < used && i < kSlots; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t ThreadAllocCount() { return MySlot()->count.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
