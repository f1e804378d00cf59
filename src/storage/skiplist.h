// Ordered in-memory index: an arena-backed skiplist from byte-string keys to
// a mutable versioned value. This is the memtable of every SCADS storage
// node; range queries ("lookup over a bounded contiguous range of an index",
// paper §3.1) are forward iterations from a Seek.

#ifndef SCADS_STORAGE_SKIPLIST_H_
#define SCADS_STORAGE_SKIPLIST_H_

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "common/types.h"
#include "storage/arena.h"

namespace scads {

/// Skiplist keyed by raw bytes in lexicographic order. Keys are immutable
/// once inserted; the value, version and tombstone flag are mutated in
/// place on updates, since the engine keeps only the newest version of each
/// key.
class SkipList {
 public:
  /// One key's entry. Each entry is a single arena allocation:
  ///
  ///   [ header (this class, 32 B) ][ tower: height x Entry* ][ key bytes ]
  ///
  /// The key sits inline after the tower, so no entry carries a key
  /// pointer. The value lives in its own arena range: Assign rewrites it in
  /// place when the new value is no longer than the current one, and only a
  /// longer value takes a fresh range (stranding the old one).
  class Entry {
   public:
    std::string_view key() const {
      return {reinterpret_cast<const char*>(tower() + height_), key_size_};
    }
    std::string_view value() const { return {value_data_, value_size_}; }
    Version version() const { return Version{timestamp_, writer_}; }
    bool tombstone() const { return tombstone_; }

   private:
    friend class SkipList;
    Entry(uint32_t key_size, uint8_t height) : key_size_(key_size), height_(height) {}

    // Forward pointers, one per level, right after the header.
    Entry** tower() { return reinterpret_cast<Entry**>(this + 1); }
    Entry* const* tower() const { return reinterpret_cast<Entry* const*>(this + 1); }

    char* value_data_ = nullptr;
    Time timestamp_ = 0;  // Version, split so the header packs without padding
    NodeId writer_ = kInvalidNode;
    uint32_t value_size_ = 0;
    uint32_t key_size_;
    bool tombstone_ = false;
    uint8_t height_;
  };
  static_assert(sizeof(Entry) <= 32, "memtable entry header must stay within 32 bytes");

  explicit SkipList(uint64_t seed);
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Returns the entry for `key`, inserting a fresh one (empty value,
  /// Version{}, not a tombstone) when absent. `*created` reports whether an
  /// insert happened. The key bytes are copied into the entry.
  Entry* FindOrCreate(std::string_view key, bool* created);

  /// Entry for `key`, or nullptr when absent. Tombstoned entries are still
  /// returned (callers decide visibility).
  const Entry* Find(std::string_view key) const;
  Entry* FindMutable(std::string_view key);

  /// Sets `entry`'s value, version and tombstone flag. A value no longer
  /// than the current one is written over the current bytes; a longer one
  /// is copied into a fresh arena range.
  void Assign(Entry* entry, std::string_view value, Version version, bool tombstone);

  /// Number of keys, including tombstoned ones.
  size_t size() const { return count_; }

  /// Arena bytes reserved.
  size_t memory_usage() const { return arena_.MemoryUsage(); }

  /// Arena bytes actually handed out: entries (header, tower, key) and
  /// value ranges, including the ranges that a longer value replaced (the
  /// arena never frees). A value overwritten in place strands nothing.
  size_t bytes_allocated() const { return arena_.BytesAllocated(); }

  /// Live payload bytes: key bytes plus each key's *current* value bytes.
  /// Unlike bytes_allocated this excludes stranded value copies and entry
  /// overhead, so it is the logical footprint capacity decisions want.
  size_t payload_bytes() const { return payload_bytes_; }

  /// Forward iterator over keys in lexicographic order.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list) {}

    bool Valid() const { return entry_ != nullptr; }
    /// Positions at the first key >= `target`.
    void Seek(std::string_view target);
    /// Like Seek, but reuses the current position: when `target` is at or
    /// ahead of it, walks forward a bounded number of level-0 steps before
    /// falling back to a full Seek. Probing a sorted key set through one
    /// iterator this way touches each intervening entry at most once instead
    /// of paying a root-to-leaf descent per key.
    void SeekForward(std::string_view target);
    void SeekToFirst();
    void Next();
    std::string_view key() const { return entry_->key(); }
    const Entry& entry() const { return *entry_; }

   private:
    const SkipList* list_;
    const Entry* entry_ = nullptr;
  };

 private:
  static constexpr int kMaxHeight = 12;

  Entry* NewEntry(std::string_view key, int height);
  int RandomHeight();
  /// First entry with key >= target; fills prev[] when non-null.
  Entry* FindGreaterOrEqual(std::string_view key, Entry** prev) const;

  Arena arena_;
  Rng rng_;
  Entry* head_;
  int max_height_ = 1;
  size_t count_ = 0;
  size_t payload_bytes_ = 0;
};

}  // namespace scads

#endif  // SCADS_STORAGE_SKIPLIST_H_
