// Ordered in-memory index: an arena-allocated B+-tree from byte-string keys
// to a mutable versioned value. This is the memtable of every SCADS storage
// node; range queries ("lookup over a bounded contiguous range of an index",
// paper §3.1) are forward iterations from a Seek.

#ifndef SCADS_STORAGE_MEMTABLE_H_
#define SCADS_STORAGE_MEMTABLE_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "storage/arena.h"

namespace scads {

/// B+-tree keyed by raw bytes in lexicographic order. Keys are immutable
/// once inserted; the value, version and tombstone flag are mutated in
/// place on updates, since the engine keeps only the newest version of each
/// key. Entries never move once created, so an Entry* stays valid for the
/// table's lifetime; tree nodes hold pointers to them.
///
/// A search reads entries only where it must. Each node records its
/// `skip`: the length of the prefix its two fence keys (the separators
/// bounding its range above it) share, 0 when either is unbounded, which
/// every key routed to the node shares too. Each slot keeps a head, the
/// key's next bytes past `skip` (2 per leaf slot, 8 per inner separator),
/// big-endian and zero-padded, so a search compares heads and reads an
/// entry only on a tie or for its final equality check. A node's skip
/// changes only when a split or a move between siblings changes its
/// fences, which the insert reads off the descent's path; its heads are
/// then rebuilt.
class MemTable {
  struct Leaf;
  struct Inner;

 public:
  /// One key's entry. Each entry is a single arena allocation:
  ///
  ///   [ header (this class, 32 B) ][ key bytes ]
  ///
  /// The key sits inline after the header, so no entry carries a key
  /// pointer. The value lives in its own arena range, first sized to the
  /// first value: Assign rewrites it in place while the new value fits, and
  /// a longer value takes a fresh range of the next power of two (stranding
  /// the old one), so a value rewritten ever longer strands O(final size).
  class Entry {
   public:
    std::string_view key() const {
      return {reinterpret_cast<const char*>(this + 1), key_size_};
    }
    std::string_view value() const { return {value_data_, value_size_}; }
    Version version() const { return Version{timestamp_, writer_}; }
    bool tombstone() const { return tombstone_; }

   private:
    friend class MemTable;
    explicit Entry(uint32_t key_size) : key_size_(key_size), tombstone_(false) {}

    char* value_data_ = nullptr;
    Time timestamp_ = 0;  // Version, split so the header packs without padding
    NodeId writer_ = kInvalidNode;
    uint32_t value_size_ = 0;
    uint32_t value_capacity_ = 0;  // bytes of value_data_'s range
    uint32_t key_size_ : 31;
    uint32_t tombstone_ : 1;
  };
  static_assert(sizeof(Entry) <= 32, "memtable entry header must stay within 32 bytes");

  MemTable();
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Returns the entry for `key`, inserting a fresh one (empty value,
  /// Version{}, not a tombstone) when absent. `*created` reports whether an
  /// insert happened. The key bytes are copied into the entry. An insert
  /// invalidates every Iterator (the entries themselves stay put).
  Entry* FindOrCreate(std::string_view key, bool* created);

  /// Entry for `key`, or nullptr when absent. Tombstoned entries are still
  /// returned (callers decide visibility).
  const Entry* Find(std::string_view key) const;
  Entry* FindMutable(std::string_view key);

  /// Sets `entry`'s value, version and tombstone flag. A value that fits
  /// the entry's range is written over its bytes; a longer one is copied
  /// into a fresh arena range (see Entry).
  void Assign(Entry* entry, std::string_view value, Version version, bool tombstone);

  /// Turns each tombstone whose version timestamp is older than `cutoff`
  /// into a ghost: the entry stays (the arena never frees), but its version
  /// resets to Version{}, so the key behaves like an absent one and any
  /// real write supersedes it. Returns how many tombstones it turned;
  /// ghosts are not counted again.
  size_t PurgeTombstonesBefore(Time cutoff);

  /// Number of keys, including tombstoned ones.
  size_t size() const { return count_; }

  /// Arena bytes reserved.
  size_t memory_usage() const { return arena_.MemoryUsage(); }

  /// Arena bytes actually handed out: entries (header and key), tree nodes
  /// and value ranges, including the ranges that a longer value replaced
  /// (the arena never frees). A value that fits its range strands nothing.
  size_t bytes_allocated() const { return arena_.BytesAllocated(); }

  /// Live payload bytes: key bytes plus each key's *current* value bytes.
  /// Unlike bytes_allocated this excludes stranded value copies, entry
  /// headers and tree nodes, so it is the logical footprint capacity
  /// decisions want.
  size_t payload_bytes() const { return payload_bytes_; }

  /// Forward iterator over keys in lexicographic order.
  class Iterator {
   public:
    explicit Iterator(const MemTable* table) : table_(table) {}

    bool Valid() const { return entry_ != nullptr; }
    /// Positions at the first key >= `target`.
    void Seek(std::string_view target);
    /// Like Seek, but reuses the current position: when `target` is ahead
    /// of it yet no further than the current leaf's last key, one binary
    /// search over the rest of that leaf finds it, with no root-to-leaf
    /// descent. Probing a sorted key set through one iterator this way
    /// pays one descent per leaf rather than per key. A `target` at or
    /// behind the current key leaves the position as it is.
    void SeekForward(std::string_view target);
    void SeekToFirst();
    void Next();
    std::string_view key() const { return entry_->key(); }
    const Entry& entry() const { return *entry_; }

   private:
    /// Steps past the end of a leaf onto the next key, if any, and points
    /// entry_ at the key it lands on (nullptr past the last one).
    void Settle();

    const MemTable* table_;
    const Leaf* leaf_ = nullptr;
    uint32_t index_ = 0;
    const Entry* entry_ = nullptr;
  };

 private:
  /// Entry pointers (and 2-byte heads) per leaf, and children per inner
  /// node. A leaf is 336 B, an inner node 760 B.
  static constexpr uint32_t kLeafSlots = 32;
  static constexpr uint32_t kInnerSlots = 32;
  /// Levels a descent may record. Every inner node but the root holds at
  /// least half as many children as it has slots, so 16 levels hold far
  /// more keys than memory does.
  static constexpr int kMaxHeight = 16;

  /// A root-to-leaf descent: the inner node and child slot taken at each
  /// level above the leaves (index 0 unused).
  struct Path {
    Inner* node[kMaxHeight] = {};
    uint32_t slot[kMaxHeight] = {};
  };

  /// The keys bounding a node's range: every key routed to it is at least
  /// `lower` and below `upper` (nullptr: unbounded on that side).
  struct Fences {
    const Entry* lower = nullptr;
    const Entry* upper = nullptr;
  };

  Entry* NewEntry(std::string_view key);
  Leaf* NewLeaf();
  Inner* NewInner();
  /// The leaf whose range holds `key`; fills `path` when non-null.
  Leaf* FindLeaf(std::string_view key, Path* path) const;
  /// Fences of the node `path` visits at `level` (0: the leaf), read off
  /// the separators above it, so call it before those change.
  Fences FencesOf(const Path& path, int level) const;
  /// Places `entry` at slot `pos` of `leaf`, making room in a full leaf by
  /// starting a fresh one past the last key, by moving entries into a
  /// sibling, or by splitting it.
  void InsertIntoLeaf(Leaf* leaf, uint32_t pos, Entry* entry, Path* path);
  /// Adds `child`, whose keys start at `separator`, right after the child
  /// that `path` took at `level`, splitting full inner nodes upward.
  void InsertChild(Path* path, int level, const Entry* separator, void* child);

  Arena arena_;
  Leaf* first_leaf_;  // head of the leaf chain
  void* root_;        // a Leaf when height_ == 1, else an Inner
  int height_ = 1;    // levels, the leaf level included
  size_t count_ = 0;
  size_t payload_bytes_ = 0;
};

}  // namespace scads

#endif  // SCADS_STORAGE_MEMTABLE_H_
