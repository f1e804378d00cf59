// Staleness-aware read caching (the paper's central bargain, made
// mechanical): the developer declares a staleness bound in the consistency
// spec, and SCADS exploits it for performance. A cached value may be served
// only while `now - as_of <= bound` — the same rule the replica-watermark
// check in consistency/staleness.h enforces against storage nodes, applied
// one hop earlier. Entries past the bound are rejected (and dropped) at
// lookup, so the cache can never widen the declared staleness window.
//
// Two structures:
//  * ReadCache  — sharded byte-capacity clock cache over point-read records.
//  * ScanCache  — bounded index-scan results keyed by (prefix, limit); the
//    query compiler only admits bounded contiguous scans (paper §3.1), so
//    cardinality stays small and prefix invalidation stays cheap.
//
// Concurrency contract: both caches are thread-safe. Every ReadCache shard
// (and the ScanCache as a whole) owns one mutex covering its index, slot
// ring, and byte accounting; per-entry freshness state (the as_of watermark
// and the clock's referenced bit) is published through atomics, so a hit is
// validated against its staleness bound without ever taking a router lock.
// Cache locks are LEAF locks: no cache method acquires any other lock or
// invokes a callback while holding one, so they may be taken either before
// the router mutex (the routers' lock-free hit path) or while it is held
// (synchronous write invalidation) without any cycle. Eviction is
// clock/second-chance — a hit sets one atomic bit instead of splicing a
// shared LRU list, which keeps the hot path O(1) under the shard lock and
// contention proportional to 1/shards.
//
// Policy coordination (what to serve, when to invalidate, counters) lives
// in cache/cache_directory.h.

#ifndef SCADS_CACHE_READ_CACHE_H_
#define SCADS_CACHE_READ_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "storage/engine.h"

namespace scads {

/// How an acknowledged write treats a cached entry for the same key.
enum class CacheWriteMode {
  kInvalidate,    ///< Drop the entry; the next read repopulates from storage.
  kWriteThrough,  ///< Refresh the entry in place with the written value.
};

/// Construction knobs (ScadsOptions::cache_config).
struct CacheConfig {
  /// Master switch; off = the read path is untouched.
  bool enabled = false;
  /// Point-cache capacity in bytes (keys + values + bookkeeping), split
  /// uniformly across shards.
  size_t capacity_bytes = 8u << 20;
  CacheWriteMode write_mode = CacheWriteMode::kWriteThrough;
  /// Simulated local service time for serving a hit (hash probe + copy);
  /// keeps cache-served latency nonzero and honest in experiments.
  Duration hit_service_time = 5;  // microseconds
};

/// One cached point read (the by-value view Lookup copies out).
struct CacheEntry {
  std::string value;
  Version version;
  /// The value is provably no staler than this instant: the serving
  /// replica's replication watermark for reads, the ack time for
  /// write-through refreshes. Freshness age is measured from here, not from
  /// the insert call, so a value read off a lagging replica does not get a
  /// fresh lease.
  Time as_of = 0;
  /// Invalidation marker: no servable value, but the version floor of the
  /// key's latest acked write/delete. Lookups miss; Insert of anything
  /// older is rejected, so a read response that was in flight when the
  /// write acked cannot re-cache the predecessor value.
  bool invalidated = false;
};

/// Lookup verdicts. kStale means the entry existed but aged past the bound;
/// it has been dropped so capacity is not held by unservable data.
enum class CacheLookup { kHit, kMiss, kStale };

/// Sharded byte-capacity clock cache over point-read records. Thread-safe:
/// one mutex per shard (a leaf lock — never held across any call out of the
/// cache), clock/second-chance eviction instead of an LRU list so a hit
/// publishes one atomic referenced bit rather than mutating shared order.
/// Sharding bounds worst-case probe cost and divides lock contention.
class ReadCache {
 public:
  /// `evictions` (optional) is incremented per capacity eviction.
  ReadCache(size_t capacity_bytes, size_t shards, Counter* evictions = nullptr);

  /// Looks up `key`; on kHit copies the entry into `out` and sets its
  /// second-chance bit. `bound` 0 = no staleness bound (entries never
  /// expire). `retain_bound` (default: `bound`) governs eviction separately
  /// from serving: an entry too old for this request's bound but still
  /// within `retain_bound` reports kStale without being dropped, so one
  /// tight-bounded request cannot purge entries other requests may serve.
  CacheLookup Lookup(const std::string& key, Time now, Duration bound, CacheEntry* out,
                     std::optional<Duration> retain_bound = std::nullopt);

  /// Inserts or refreshes `key`. An existing entry with a strictly newer
  /// version wins over the incoming value (a read returning via a lagging
  /// replica must not clobber a write-through refresh). Values too large
  /// for one shard are not cached.
  void Insert(const std::string& key, std::string_view value, Version version, Time as_of);

  /// Drops `key`; returns whether an entry existed.
  bool Erase(const std::string& key);

  /// Replaces the entry for `key` with an invalidation marker carrying the
  /// acked write's version (no-op when something strictly newer is already
  /// cached). Returns whether a live value entry was dropped. The marker
  /// ages out like any entry; if capacity evicts it early, a racing
  /// re-insert is still bounded by the entry's own as_of staleness check.
  bool MarkInvalidated(const std::string& key, Version version, Time as_of);

  void Clear();

  size_t entry_count() const;
  size_t bytes_used() const;
  size_t capacity_bytes() const { return per_shard_capacity_ * shards_.size(); }

 private:
  struct Node {
    std::string key;
    std::string value;
    Version version;
    bool invalidated = false;
    size_t bytes = 0;
    /// Serve-time watermark, published atomically so a freshness lease
    /// extension is visible to concurrent validators without re-locking.
    std::atomic<Time> as_of{0};
    /// Clock second-chance bit: set on hit, cleared (one reprieve) by the
    /// sweeping hand. New inserts start unreferenced, so an untouched entry
    /// is evicted before anything a reader has come back for — the same
    /// victims the old LRU picked in the common insert/lookup patterns.
    std::atomic<bool> referenced{false};
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Node>> slots;  ///< Clock ring; null = free.
    std::vector<size_t> free_slots;
    std::unordered_map<std::string, size_t> index;  ///< key -> slot.
    size_t hand = 0;
    size_t bytes = 0;
  };

  Shard* ShardFor(const std::string& key);
  /// Unlinks `slot` (index, bytes, free list). Caller holds shard->mu.
  void RemoveSlot(Shard* shard, size_t slot);
  /// Installs a node in a free (or new) slot. Caller holds shard->mu.
  size_t AddSlot(Shard* shard, std::unique_ptr<Node> node);
  /// Clock sweep until under capacity; `protect` (the slot just written) is
  /// skipped so an insert cannot evict itself. Caller holds shard->mu.
  void EvictOver(Shard* shard, size_t protect);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  Counter* evictions_;
};

/// Clock cache of bounded index-scan results, keyed by (prefix, limit).
/// Thread-safe behind one leaf mutex (scan cardinality is bounded by
/// registered-query shapes × hot parameter values, so a single lock
/// suffices). Invalidation scans every entry for a prefix match with the
/// written key.
class ScanCache {
 public:
  ScanCache(size_t capacity_bytes, Counter* evictions = nullptr);

  /// `retain_bound`: as in ReadCache::Lookup — serve under `bound`, drop
  /// only past `retain_bound`.
  CacheLookup Lookup(const std::string& prefix, size_t limit, Time now, Duration bound,
                     std::vector<Record>* out,
                     std::optional<Duration> retain_bound = std::nullopt);

  void Insert(const std::string& prefix, size_t limit, const std::vector<Record>& records,
              Time as_of);

  /// Drops every cached scan whose prefix covers `written_key` (the write
  /// may add, remove, or reorder a row of that result). Returns how many
  /// entries were dropped.
  size_t InvalidateForKey(std::string_view written_key);

  void Clear();

  size_t entry_count() const;
  size_t bytes_used() const;

 private:
  struct Node {
    std::string cache_key;
    std::string prefix;
    std::vector<Record> records;
    Time as_of = 0;
    size_t bytes = 0;
    std::atomic<bool> referenced{false};
  };

  static std::string CacheKey(std::string_view prefix, size_t limit);
  void RemoveSlot(size_t slot);  ///< Caller holds mu_.
  void EvictOver(size_t protect);  ///< Caller holds mu_.

  size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Node>> slots_;  ///< Clock ring; null = free.
  std::vector<size_t> free_slots_;
  std::unordered_map<std::string, size_t> index_;  ///< cache_key -> slot.
  size_t hand_ = 0;
  size_t bytes_ = 0;
  Counter* evictions_;
};

}  // namespace scads

#endif  // SCADS_CACHE_READ_CACHE_H_
