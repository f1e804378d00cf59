#include "storage/skiplist.h"

#include <cstring>
#include <new>

namespace scads {

SkipList::SkipList(uint64_t seed) : rng_(seed) {
  head_ = NewEntry("", kMaxHeight);
  for (int i = 0; i < kMaxHeight; ++i) head_->tower()[i] = nullptr;
}

SkipList::Entry* SkipList::NewEntry(std::string_view key, int height) {
  size_t bytes = sizeof(Entry) + sizeof(Entry*) * static_cast<size_t>(height) + key.size();
  Entry* entry = new (arena_.AllocateAligned(bytes))
      Entry(static_cast<uint32_t>(key.size()), static_cast<uint8_t>(height));
  if (!key.empty()) {
    std::memcpy(reinterpret_cast<char*>(entry->tower() + height), key.data(), key.size());
  }
  return entry;
}

int SkipList::RandomHeight() {
  // P(height >= h) = (1/4)^(h-1), capped at kMaxHeight.
  int height = 1;
  while (height < kMaxHeight && rng_.Uniform(4) == 0) ++height;
  return height;
}

SkipList::Entry* SkipList::FindGreaterOrEqual(std::string_view key, Entry** prev) const {
  Entry* entry = head_;
  int level = max_height_ - 1;
  for (;;) {
    Entry* next = entry->tower()[level];
    if (next != nullptr && next->key() < key) {
      entry = next;
    } else {
      if (prev != nullptr) prev[level] = entry;
      if (level == 0) return next;
      --level;
    }
  }
}

SkipList::Entry* SkipList::FindOrCreate(std::string_view key, bool* created) {
  Entry* prev[kMaxHeight];
  Entry* entry = FindGreaterOrEqual(key, prev);
  if (entry != nullptr && entry->key() == key) {
    *created = false;
    return entry;
  }
  int height = RandomHeight();
  if (height > max_height_) {
    for (int i = max_height_; i < height; ++i) prev[i] = head_;
    max_height_ = height;
  }
  Entry* fresh = NewEntry(key, height);
  for (int i = 0; i < height; ++i) {
    fresh->tower()[i] = prev[i]->tower()[i];
    prev[i]->tower()[i] = fresh;
  }
  ++count_;
  payload_bytes_ += key.size();
  *created = true;
  return fresh;
}

const SkipList::Entry* SkipList::Find(std::string_view key) const {
  Entry* entry = FindGreaterOrEqual(key, nullptr);
  if (entry != nullptr && entry->key() == key) return entry;
  return nullptr;
}

SkipList::Entry* SkipList::FindMutable(std::string_view key) {
  return const_cast<Entry*>(Find(key));
}

void SkipList::Assign(Entry* entry, std::string_view value, Version version, bool tombstone) {
  payload_bytes_ += value.size();
  payload_bytes_ -= entry->value_size_;
  if (value.size() > entry->value_size_) entry->value_data_ = arena_.Allocate(value.size());
  if (!value.empty()) std::memcpy(entry->value_data_, value.data(), value.size());
  entry->value_size_ = static_cast<uint32_t>(value.size());
  entry->timestamp_ = version.timestamp;
  entry->writer_ = version.writer;
  entry->tombstone_ = tombstone;
}

void SkipList::Iterator::Seek(std::string_view target) {
  entry_ = list_->FindGreaterOrEqual(target, nullptr);
}

void SkipList::Iterator::SeekForward(std::string_view target) {
  if (entry_ == nullptr) {
    Seek(target);
    return;
  }
  const Entry* entry = entry_;
  if (entry->key() >= target) return;  // already at or past it
  // Dense probe sets resolve within a few links; sparse ones fall back to a
  // full descent so one far-away key cannot cost a linear walk.
  constexpr int kMaxLinearSteps = 16;
  for (int step = 0; step < kMaxLinearSteps; ++step) {
    const Entry* next = entry->tower()[0];
    if (next == nullptr || next->key() >= target) {
      entry_ = next;
      return;
    }
    entry = next;
  }
  Seek(target);
}

void SkipList::Iterator::SeekToFirst() { entry_ = list_->head_->tower()[0]; }

void SkipList::Iterator::Next() { entry_ = entry_->tower()[0]; }

}  // namespace scads
