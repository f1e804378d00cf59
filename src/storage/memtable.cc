#include "storage/memtable.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace scads {

namespace {

/// Bytes [skip, skip + 2) of `key` as a big-endian integer, zero-padded: a
/// leaf slot's head. Keys that share their first `skip` bytes order like
/// their heads (a smaller head means a smaller key), so only equal heads
/// need the keys compared.
uint16_t LeafHead(std::string_view key, uint32_t skip) {
  uint16_t high = key.size() > skip ? static_cast<uint8_t>(key[skip]) : 0;
  uint16_t low = key.size() > skip + 1 ? static_cast<uint8_t>(key[skip + 1]) : 0;
  return static_cast<uint16_t>(high << 8 | low);
}

/// Bytes [skip, skip + 8) of `key`, likewise: an inner separator's head.
uint64_t InnerHead(std::string_view key, uint32_t skip) {
  uint64_t word = 0;
  if (key.size() > skip) {
    std::memcpy(&word, key.data() + skip, std::min<size_t>(key.size() - skip, 8));
  }
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
  return word;
}

/// Length of the prefix two fences share; 0 when either is unbounded.
uint32_t SharedPrefix(const MemTable::Entry* a, const MemTable::Entry* b) {
  if (a == nullptr || b == nullptr) return 0;
  std::string_view x = a->key();
  std::string_view y = b->key();
  size_t n = std::min(x.size(), y.size());
  size_t i = 0;
  while (i < n && x[i] == y[i]) ++i;
  return static_cast<uint32_t>(i);
}

}  // namespace

/// Up to kLeafSlots entries in key order. Leaves chain left to right, and
/// only the root leaf of an empty table is ever empty. Every key routed
/// here shares the leaf's first `skip` bytes (its fences' shared prefix),
/// and heads[i] is slots[i]'s LeafHead past them, so a search reads an
/// entry only on a head tie or for its final equality check.
struct MemTable::Leaf {
  Leaf* next = nullptr;
  uint32_t count = 0;
  uint32_t skip = 0;
  uint16_t heads[kLeafSlots] = {};
  Entry* slots[kLeafSlots] = {};

  /// First slot in [lo, hi) whose key is >= target; hi when there is none.
  /// `head` is target's LeafHead.
  uint32_t LowerBound(uint32_t lo, uint32_t hi, std::string_view target, uint16_t head) const {
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      bool below = heads[mid] != head ? heads[mid] < head : slots[mid]->key() < target;
      if (below) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Whether slot `pos`, `key`'s LowerBound, holds `key`.
  bool Holds(uint32_t pos, std::string_view key, uint16_t head) const {
    return pos < count && heads[pos] == head && slots[pos]->key() == key;
  }

  void InsertAt(uint32_t pos, Entry* entry) {
    std::memmove(slots + pos + 1, slots + pos, (count - pos) * sizeof(Entry*));
    std::memmove(heads + pos + 1, heads + pos, (count - pos) * sizeof(uint16_t));
    slots[pos] = entry;
    heads[pos] = LeafHead(entry->key(), skip);
    ++count;
  }

  /// Copies `n` entries of `from`, starting at slot `begin`, into slots
  /// [at, at + n), rebasing their heads when the two skips differ.
  void CopyFrom(uint32_t at, const Leaf& from, uint32_t begin, uint32_t n) {
    std::memcpy(slots + at, from.slots + begin, n * sizeof(Entry*));
    if (from.skip == skip) {
      std::memcpy(heads + at, from.heads + begin, n * sizeof(uint16_t));
    } else {
      for (uint32_t i = at; i < at + n; ++i) heads[i] = LeafHead(slots[i]->key(), skip);
    }
  }

  /// Moves slots [begin, count) to start at slot `to`.
  void Shift(uint32_t begin, uint32_t to) {
    std::memmove(slots + to, slots + begin, (count - begin) * sizeof(Entry*));
    std::memmove(heads + to, heads + begin, (count - begin) * sizeof(uint16_t));
  }

  /// Sets the skip of new fences, rebuilding every head when it changed.
  void SetSkip(uint32_t new_skip) {
    if (new_skip == skip) return;
    skip = new_skip;
    for (uint32_t i = 0; i < count; ++i) heads[i] = LeafHead(slots[i]->key(), skip);
  }
};

/// Up to kInnerSlots children. Separator i is the first key of child i+1's
/// range: keys below it live under children 0..i, the rest to the right.
/// As in a leaf, every key routed here shares the first `skip` bytes, and
/// each separator is stored with its InnerHead past them, so a descent
/// step reads an entry only when the heads tie.
struct MemTable::Inner {
  uint32_t count = 0;  // children; separators are one fewer
  uint32_t skip = 0;
  uint64_t heads[kInnerSlots - 1] = {};
  const Entry* separators[kInnerSlots - 1] = {};
  void* children[kInnerSlots] = {};  // Leaf* one level above the leaves, else Inner*

  void SetSeparator(uint32_t i, const Entry* separator) {
    separators[i] = separator;
    heads[i] = InnerHead(separator->key(), skip);
  }

  /// Puts `child` at slot `pos` (>= 1), its range starting at `separator`.
  void InsertAt(uint32_t pos, const Entry* separator, void* child) {
    std::memmove(children + pos + 1, children + pos, (count - pos) * sizeof(void*));
    std::memmove(separators + pos, separators + pos - 1, (count - pos) * sizeof(Entry*));
    std::memmove(heads + pos, heads + pos - 1, (count - pos) * sizeof(uint64_t));
    children[pos] = child;
    SetSeparator(pos - 1, separator);
    ++count;
  }

  void SetSkip(uint32_t new_skip) {
    if (new_skip == skip) return;
    skip = new_skip;
    for (uint32_t i = 0; i + 1 < count; ++i) heads[i] = InnerHead(separators[i]->key(), skip);
  }
};

MemTable::MemTable() : first_leaf_(NewLeaf()), root_(first_leaf_) {}

MemTable::Entry* MemTable::NewEntry(std::string_view key) {
  Entry* entry = new (arena_.AllocateAligned(sizeof(Entry) + key.size()))
      Entry(static_cast<uint32_t>(key.size()));
  if (!key.empty()) std::memcpy(reinterpret_cast<char*>(entry + 1), key.data(), key.size());
  return entry;
}

MemTable::Leaf* MemTable::NewLeaf() { return new (arena_.AllocateAligned(sizeof(Leaf))) Leaf; }

MemTable::Inner* MemTable::NewInner() {
  return new (arena_.AllocateAligned(sizeof(Inner))) Inner;
}

MemTable::Leaf* MemTable::FindLeaf(std::string_view key, Path* path) const {
  void* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    Inner* inner = static_cast<Inner*>(node);
    uint64_t head = InnerHead(key, inner->skip);
    // The child to take is the number of separators at or below `key`.
    uint32_t lo = 0;
    uint32_t hi = inner->count - 1;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      uint64_t separator = inner->heads[mid];
      bool at_or_below = separator != head ? separator < head
                                           : inner->separators[mid]->key() <= key;
      if (at_or_below) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (path != nullptr) {
      path->node[level] = inner;
      path->slot[level] = lo;
    }
    node = inner->children[lo];
  }
  return static_cast<Leaf*>(node);
}

MemTable::Fences MemTable::FencesOf(const Path& path, int level) const {
  Fences fences;
  for (int up = height_ - 1; up > level; --up) {
    const Inner* inner = path.node[up];
    uint32_t slot = path.slot[up];
    if (slot > 0) fences.lower = inner->separators[slot - 1];
    if (slot + 1 < inner->count) fences.upper = inner->separators[slot];
  }
  return fences;
}

MemTable::Entry* MemTable::FindOrCreate(std::string_view key, bool* created) {
  Path path;
  Leaf* leaf = FindLeaf(key, &path);
  uint16_t head = LeafHead(key, leaf->skip);
  uint32_t pos = leaf->LowerBound(0, leaf->count, key, head);
  if (leaf->Holds(pos, key, head)) {
    *created = false;
    return leaf->slots[pos];
  }
  Entry* fresh = NewEntry(key);
  InsertIntoLeaf(leaf, pos, fresh, &path);
  ++count_;
  payload_bytes_ += key.size();
  *created = true;
  return fresh;
}

void MemTable::InsertIntoLeaf(Leaf* leaf, uint32_t pos, Entry* entry, Path* path) {
  if (leaf->count < kLeafSlots) {
    leaf->InsertAt(pos, entry);
    return;
  }
  // Every branch below moves a fence of this leaf, so its skip (and that of
  // any leaf that takes entries) is recomputed from the fences the descent
  // passed, read before the parent's separators change.
  Fences fences = FencesOf(*path, 0);
  if (leaf->next == nullptr && pos == leaf->count) {
    // Past the tree's last key: a fresh leaf, so a sequential load leaves
    // every leaf behind it full instead of half full.
    Leaf* fresh = NewLeaf();
    fresh->InsertAt(0, entry);
    leaf->next = fresh;
    leaf->SetSkip(SharedPrefix(fences.lower, entry));
    InsertChild(path, 1, entry, fresh);
    return;
  }
  if (height_ > 1) {
    // A sibling under the same parent with room takes half that room's
    // worth of this leaf (the right one its tail, else the left one its
    // head), and the separator between the two moves: no new node, so
    // random inserts keep leaves about 85% full rather than 70%.
    Inner* parent = path->node[1];
    uint32_t slot = path->slot[1];
    Leaf* right = slot + 1 < parent->count ? static_cast<Leaf*>(parent->children[slot + 1])
                                           : nullptr;
    Leaf* left = slot > 0 ? static_cast<Leaf*>(parent->children[slot - 1]) : nullptr;
    if (right != nullptr && right->count < kLeafSlots - 1) {
      uint32_t moved = (kLeafSlots - right->count) / 2;
      const Entry* separator = leaf->slots[kLeafSlots - moved];
      const Entry* right_upper = slot + 2 < parent->count ? parent->separators[slot + 1]
                                                          : FencesOf(*path, 1).upper;
      right->SetSkip(SharedPrefix(separator, right_upper));
      right->Shift(0, moved);
      right->CopyFrom(0, *leaf, kLeafSlots - moved, moved);
      right->count += moved;
      leaf->count -= moved;
      leaf->SetSkip(SharedPrefix(fences.lower, separator));
      parent->SetSeparator(slot, separator);
      if (pos <= leaf->count) {
        leaf->InsertAt(pos, entry);
      } else {
        right->InsertAt(pos - leaf->count, entry);
      }
      return;
    }
    if (left != nullptr && left->count < kLeafSlots - 1) {
      uint32_t moved = (kLeafSlots - left->count) / 2;
      uint32_t base = left->count;
      const Entry* separator = leaf->slots[moved];
      const Entry* left_lower = slot >= 2 ? parent->separators[slot - 2]
                                          : FencesOf(*path, 1).lower;
      left->SetSkip(SharedPrefix(left_lower, separator));
      left->CopyFrom(base, *leaf, 0, moved);
      left->count += moved;
      leaf->Shift(moved, 0);
      leaf->count -= moved;
      leaf->SetSkip(SharedPrefix(separator, fences.upper));
      parent->SetSeparator(slot - 1, separator);
      // A key that falls between the two leaves' keys joins the left one:
      // this leaf's first key is its separator.
      if (pos <= moved) {
        left->InsertAt(base + pos, entry);
      } else {
        leaf->InsertAt(pos - moved, entry);
      }
      return;
    }
  }
  constexpr uint32_t kKeep = kLeafSlots / 2;
  const Entry* separator = leaf->slots[kKeep];
  Leaf* fresh = NewLeaf();
  fresh->skip = SharedPrefix(separator, fences.upper);
  fresh->CopyFrom(0, *leaf, kKeep, kLeafSlots - kKeep);
  fresh->count = kLeafSlots - kKeep;
  leaf->count = kKeep;
  leaf->SetSkip(SharedPrefix(fences.lower, separator));
  fresh->next = leaf->next;
  leaf->next = fresh;
  if (pos <= kKeep) {
    leaf->InsertAt(pos, entry);
  } else {
    fresh->InsertAt(pos - kKeep, entry);
  }
  InsertChild(path, 1, separator, fresh);
}

void MemTable::InsertChild(Path* path, int level, const Entry* separator, void* child) {
  if (level == height_) {
    // The root split: the tree grows by one level. Its fences are
    // unbounded, so its skip stays 0.
    SCADS_CHECK(height_ < kMaxHeight);
    Inner* root = NewInner();
    root->children[0] = root_;
    root->count = 1;
    root->InsertAt(1, separator, child);
    root_ = root;
    ++height_;
    return;
  }
  Inner* inner = path->node[level];
  uint32_t pos = path->slot[level] + 1;
  if (inner->count < kInnerSlots) {
    inner->InsertAt(pos, separator, child);
    return;
  }
  constexpr uint32_t kKeep = kInnerSlots / 2;
  Fences fences = FencesOf(*path, level);
  Inner* fresh = NewInner();
  const Entry* promoted = inner->separators[kKeep - 1];
  fresh->count = kInnerSlots - kKeep;
  fresh->skip = inner->skip;
  std::memcpy(fresh->children, inner->children + kKeep, fresh->count * sizeof(void*));
  std::memcpy(fresh->separators, inner->separators + kKeep, (fresh->count - 1) * sizeof(Entry*));
  std::memcpy(fresh->heads, inner->heads + kKeep, (fresh->count - 1) * sizeof(uint64_t));
  inner->count = kKeep;
  inner->SetSkip(SharedPrefix(fences.lower, promoted));
  fresh->SetSkip(SharedPrefix(promoted, fences.upper));
  if (pos <= kKeep) {
    inner->InsertAt(pos, separator, child);
  } else {
    fresh->InsertAt(pos - kKeep, separator, child);
  }
  InsertChild(path, level + 1, promoted, fresh);
}

const MemTable::Entry* MemTable::Find(std::string_view key) const {
  const Leaf* leaf = FindLeaf(key, nullptr);
  uint16_t head = LeafHead(key, leaf->skip);
  uint32_t pos = leaf->LowerBound(0, leaf->count, key, head);
  return leaf->Holds(pos, key, head) ? leaf->slots[pos] : nullptr;
}

MemTable::Entry* MemTable::FindMutable(std::string_view key) {
  return const_cast<Entry*>(Find(key));
}

void MemTable::Assign(Entry* entry, std::string_view value, Version version, bool tombstone) {
  payload_bytes_ += value.size();
  payload_bytes_ -= entry->value_size_;
  if (value.size() > entry->value_capacity_) {
    size_t capacity = entry->value_capacity_ == 0 ? value.size() : std::bit_ceil(value.size());
    entry->value_data_ = arena_.Allocate(capacity);
    entry->value_capacity_ = static_cast<uint32_t>(capacity);
  }
  if (!value.empty()) std::memcpy(entry->value_data_, value.data(), value.size());
  entry->value_size_ = static_cast<uint32_t>(value.size());
  entry->timestamp_ = version.timestamp;
  entry->writer_ = version.writer;
  entry->tombstone_ = tombstone;
}

size_t MemTable::PurgeTombstonesBefore(Time cutoff) {
  size_t purged = 0;
  for (Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
    for (uint32_t i = 0; i < leaf->count; ++i) {
      Entry* entry = leaf->slots[i];
      // No real writer stamps kInvalidNode, so Version{} marks a ghost.
      if (entry->tombstone() && entry->timestamp_ < cutoff && !(entry->version() == Version{})) {
        Assign(entry, "", Version{}, /*tombstone=*/true);
        ++purged;
      }
    }
  }
  return purged;
}

void MemTable::Iterator::Settle() {
  while (leaf_ != nullptr && index_ >= leaf_->count) {
    leaf_ = leaf_->next;
    index_ = 0;
  }
  entry_ = leaf_ != nullptr ? leaf_->slots[index_] : nullptr;
}

void MemTable::Iterator::Seek(std::string_view target) {
  leaf_ = table_->FindLeaf(target, nullptr);
  index_ = leaf_->LowerBound(0, leaf_->count, target, LeafHead(target, leaf_->skip));
  Settle();
}

void MemTable::Iterator::SeekForward(std::string_view target) {
  if (entry_ == nullptr) {
    Seek(target);
    return;
  }
  if (entry_->key() >= target) return;  // already at or past it
  uint32_t last = leaf_->count - 1;
  if (leaf_->slots[last]->key() < target) {
    Seek(target);
    return;
  }
  index_ = leaf_->LowerBound(index_ + 1, last, target, LeafHead(target, leaf_->skip));
  entry_ = leaf_->slots[index_];
}

void MemTable::Iterator::SeekToFirst() {
  leaf_ = table_->first_leaf_;
  index_ = 0;
  Settle();
}

void MemTable::Iterator::Next() {
  ++index_;
  Settle();
}

}  // namespace scads
