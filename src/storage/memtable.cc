#include "storage/memtable.h"

#include <bit>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace scads {

namespace {

/// A key's first 8 bytes as a big-endian integer, zero-padded. Prefixes
/// order like their keys (a smaller prefix means a smaller key), so only
/// equal prefixes need the full keys compared.
uint64_t PrefixOf(std::string_view key) {
  uint64_t word = 0;
  if (!key.empty()) std::memcpy(&word, key.data(), key.size() < 8 ? key.size() : 8);
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
  return word;
}

/// First slot in [lo, hi) whose key is >= target; hi when there is none.
uint32_t LowerBound(const MemTable::Entry* const* slots, uint32_t lo, uint32_t hi,
                    std::string_view target) {
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (slots[mid]->key() < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

/// Up to kLeafSlots entries in key order. Leaves chain left to right, and
/// only the root leaf of an empty table is ever empty.
struct MemTable::Leaf {
  Leaf* next = nullptr;
  uint32_t count = 0;
  Entry* slots[kLeafSlots] = {};

  void InsertAt(uint32_t pos, Entry* entry) {
    std::memmove(slots + pos + 1, slots + pos, (count - pos) * sizeof(Entry*));
    slots[pos] = entry;
    ++count;
  }
};

/// Up to kInnerSlots children. Separator i is the first key of child i+1's
/// range: keys below it live under children 0..i, the rest to the right.
/// Each separator is stored with its PrefixOf, so a descent step reads an
/// entry only when the prefixes tie.
struct MemTable::Inner {
  uint32_t count = 0;  // children; separators are one fewer
  uint64_t prefixes[kInnerSlots - 1] = {};
  const Entry* separators[kInnerSlots - 1] = {};
  void* children[kInnerSlots] = {};  // Leaf* one level above the leaves, else Inner*

  void SetSeparator(uint32_t i, const Entry* separator) {
    separators[i] = separator;
    prefixes[i] = PrefixOf(separator->key());
  }

  /// Puts `child` at slot `pos` (>= 1), its range starting at `separator`.
  void InsertAt(uint32_t pos, const Entry* separator, void* child) {
    std::memmove(children + pos + 1, children + pos, (count - pos) * sizeof(void*));
    std::memmove(separators + pos, separators + pos - 1, (count - pos) * sizeof(Entry*));
    std::memmove(prefixes + pos, prefixes + pos - 1, (count - pos) * sizeof(uint64_t));
    children[pos] = child;
    SetSeparator(pos - 1, separator);
    ++count;
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
  if (height_ > 1) {
    uint64_t prefix = PrefixOf(key);
    for (int level = height_ - 1; level > 0; --level) {
      Inner* inner = static_cast<Inner*>(node);
      // The child to take is the number of separators at or below `key`.
      uint32_t lo = 0;
      uint32_t hi = inner->count - 1;
      while (lo < hi) {
        uint32_t mid = lo + (hi - lo) / 2;
        uint64_t separator = inner->prefixes[mid];
        bool at_or_below = separator != prefix ? separator < prefix
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
  }
  return static_cast<Leaf*>(node);
}

MemTable::Entry* MemTable::FindOrCreate(std::string_view key, bool* created) {
  Path path;
  Leaf* leaf = FindLeaf(key, &path);
  uint32_t pos = LowerBound(leaf->slots, 0, leaf->count, key);
  if (pos < leaf->count && leaf->slots[pos]->key() == key) {
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
  if (leaf->next == nullptr && pos == leaf->count) {
    // Past the tree's last key: a fresh leaf, so a sequential load leaves
    // every leaf behind it full instead of half full.
    Leaf* fresh = NewLeaf();
    fresh->InsertAt(0, entry);
    leaf->next = fresh;
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
      std::memmove(right->slots + moved, right->slots, right->count * sizeof(Entry*));
      std::memcpy(right->slots, leaf->slots + kLeafSlots - moved, moved * sizeof(Entry*));
      right->count += moved;
      leaf->count -= moved;
      parent->SetSeparator(slot, right->slots[0]);
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
      std::memcpy(left->slots + base, leaf->slots, moved * sizeof(Entry*));
      left->count += moved;
      std::memmove(leaf->slots, leaf->slots + moved, (kLeafSlots - moved) * sizeof(Entry*));
      leaf->count -= moved;
      parent->SetSeparator(slot - 1, leaf->slots[0]);
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
  Leaf* fresh = NewLeaf();
  fresh->count = kLeafSlots - kKeep;
  std::memcpy(fresh->slots, leaf->slots + kKeep, fresh->count * sizeof(Entry*));
  leaf->count = kKeep;
  fresh->next = leaf->next;
  leaf->next = fresh;
  if (pos <= kKeep) {
    leaf->InsertAt(pos, entry);
  } else {
    fresh->InsertAt(pos - kKeep, entry);
  }
  InsertChild(path, 1, fresh->slots[0], fresh);
}

void MemTable::InsertChild(Path* path, int level, const Entry* separator, void* child) {
  if (level == height_) {
    // The root split: the tree grows by one level.
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
  Inner* fresh = NewInner();
  const Entry* promoted = inner->separators[kKeep - 1];
  fresh->count = kInnerSlots - kKeep;
  std::memcpy(fresh->children, inner->children + kKeep, fresh->count * sizeof(void*));
  std::memcpy(fresh->separators, inner->separators + kKeep, (fresh->count - 1) * sizeof(Entry*));
  std::memcpy(fresh->prefixes, inner->prefixes + kKeep, (fresh->count - 1) * sizeof(uint64_t));
  inner->count = kKeep;
  if (pos <= kKeep) {
    inner->InsertAt(pos, separator, child);
  } else {
    fresh->InsertAt(pos - kKeep, separator, child);
  }
  InsertChild(path, level + 1, promoted, fresh);
}

const MemTable::Entry* MemTable::Find(std::string_view key) const {
  const Leaf* leaf = FindLeaf(key, nullptr);
  uint32_t pos = LowerBound(leaf->slots, 0, leaf->count, key);
  if (pos < leaf->count && leaf->slots[pos]->key() == key) return leaf->slots[pos];
  return nullptr;
}

MemTable::Entry* MemTable::FindMutable(std::string_view key) {
  return const_cast<Entry*>(Find(key));
}

void MemTable::Assign(Entry* entry, std::string_view value, Version version, bool tombstone) {
  payload_bytes_ += value.size();
  payload_bytes_ -= entry->value_size_;
  if (value.size() > entry->value_size_) entry->value_data_ = arena_.Allocate(value.size());
  if (!value.empty()) std::memcpy(entry->value_data_, value.data(), value.size());
  entry->value_size_ = static_cast<uint32_t>(value.size());
  entry->timestamp_ = version.timestamp;
  entry->writer_ = version.writer;
  entry->tombstone_ = tombstone;
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
  index_ = LowerBound(leaf_->slots, 0, leaf_->count, target);
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
  index_ = LowerBound(leaf_->slots, index_ + 1, last, target);
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
