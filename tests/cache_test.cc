// Unit tests for src/cache (ReadCache, ScanCache, CacheDirectory) and
// system-level tests proving the staleness-aware cache's contract: a cached
// read is served only while its age is within the spec's staleness bound,
// and acked writes refresh/invalidate entries synchronously. The concurrent
// storms exercise the sharded-lock design directly (they are in the TSan
// job's repeat list): raw multi-thread Insert/Lookup/Invalidate mixes plus
// outcome-counter conservation on the shared directory.

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_directory.h"
#include "cache/read_cache.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/scads.h"
#include "gtest/gtest.h"

namespace scads {
namespace {

Version V(Time ts, NodeId writer = 0) { return Version{ts, writer}; }

// Entry bytes = key (1) + value (35) + 64 overhead = 100 exactly.
std::string Val35() { return std::string(35, 'v'); }

// ------------------------------------------------------------- ReadCache --

TEST(ReadCacheTest, ClockEvictionSparesReferencedEntries) {
  ReadCache cache(/*capacity_bytes=*/300, /*shards=*/1);
  cache.Insert("a", Val35(), V(1), 0);
  cache.Insert("b", Val35(), V(1), 0);
  cache.Insert("c", Val35(), V(1), 0);
  CacheEntry entry;
  // Touch "a": the hit sets its reference bit, so the clock sweep grants it
  // a second chance and evicts untouched "b" — the victim LRU picked too.
  ASSERT_EQ(cache.Lookup("a", 0, 0, &entry), CacheLookup::kHit);
  cache.Insert("d", Val35(), V(1), 0);  // over capacity: evicts "b"
  EXPECT_EQ(cache.Lookup("b", 0, 0, &entry), CacheLookup::kMiss);
  EXPECT_EQ(cache.Lookup("a", 0, 0, &entry), CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup("c", 0, 0, &entry), CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup("d", 0, 0, &entry), CacheLookup::kHit);
  EXPECT_EQ(cache.entry_count(), 3u);
}

TEST(ReadCacheTest, ByteCapacityEnforced) {
  Counter evictions;
  ReadCache cache(/*capacity_bytes=*/1000, /*shards=*/2, &evictions);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), Val35(), V(i + 1), 0);
  }
  EXPECT_LE(cache.bytes_used(), 1000u);
  EXPECT_LT(cache.entry_count(), 100u);
  EXPECT_GT(evictions.value(), 0);
}

TEST(ReadCacheTest, StalenessBoundRejectsAndDrops) {
  ReadCache cache(1 << 20, 1);
  cache.Insert("k", "v", V(1), /*as_of=*/1000);
  CacheEntry entry;
  Duration bound = 10 * kSecond;
  EXPECT_EQ(cache.Lookup("k", 1000 + bound, bound, &entry), CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup("k", 1000 + bound + 1, bound, &entry), CacheLookup::kStale);
  // The stale entry was dropped, not retained.
  EXPECT_EQ(cache.Lookup("k", 1000 + bound + 1, bound, &entry), CacheLookup::kMiss);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ReadCacheTest, ZeroBoundNeverExpires) {
  ReadCache cache(1 << 20, 1);
  cache.Insert("k", "v", V(1), 0);
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup("k", 365 * kDay, /*bound=*/0, &entry), CacheLookup::kHit);
}

TEST(ReadCacheTest, NewerCachedVersionBeatsLaggedInsert) {
  ReadCache cache(1 << 20, 1);
  cache.Insert("k", "new", V(10), /*as_of=*/100);
  // A read returning through a lagging replica must not clobber the
  // write-through refresh; it may only extend the freshness lease.
  cache.Insert("k", "old", V(5), /*as_of=*/200);
  CacheEntry entry;
  ASSERT_EQ(cache.Lookup("k", 200, 0, &entry), CacheLookup::kHit);
  EXPECT_EQ(entry.value, "new");
  EXPECT_EQ(entry.version, V(10));
  EXPECT_EQ(entry.as_of, 200);
}

TEST(ReadCacheTest, OversizedValueNotCached) {
  ReadCache cache(/*capacity_bytes=*/200, /*shards=*/1);
  cache.Insert("big", std::string(500, 'x'), V(1), 0);
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup("big", 0, 0, &entry), CacheLookup::kMiss);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ReadCacheTest, InvalidationMarkerBlocksStaleReinsert) {
  ReadCache cache(1 << 20, 1);
  cache.Insert("k", "v1", V(1), 100);
  // An acked write at version 5 invalidates; the marker reports a live drop.
  EXPECT_TRUE(cache.MarkInvalidated("k", V(5), 200));
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup("k", 200, 0, &entry), CacheLookup::kMiss);
  // A read response that was in flight when the write acked (carrying the
  // predecessor value, version 3) must not repopulate the cache.
  cache.Insert("k", "stale", V(3), 300);
  EXPECT_EQ(cache.Lookup("k", 300, 0, &entry), CacheLookup::kMiss);
  // A read that observed the write (or anything newer) replaces the marker.
  cache.Insert("k", "v5", V(5), 400);
  ASSERT_EQ(cache.Lookup("k", 400, 0, &entry), CacheLookup::kHit);
  EXPECT_EQ(entry.value, "v5");
  // Marking below an existing newer entry is a no-op.
  EXPECT_FALSE(cache.MarkInvalidated("k", V(4), 500));
  EXPECT_EQ(cache.Lookup("k", 500, 0, &entry), CacheLookup::kHit);
}

TEST(ReadCacheTest, EraseRemovesEntry) {
  ReadCache cache(1 << 20, 4);
  cache.Insert("k", "v", V(1), 0);
  EXPECT_TRUE(cache.Erase("k"));
  EXPECT_FALSE(cache.Erase("k"));
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup("k", 0, 0, &entry), CacheLookup::kMiss);
}

TEST(ReadCacheTest, ConcurrentStormKeepsCapacityAndValueIntegrity) {
  Counter evictions;
  ReadCache cache(/*capacity_bytes=*/4096, /*shards=*/4, &evictions);
  constexpr int kThreads = 6;
  constexpr int kOps = 3000;
  constexpr int kKeys = 32;
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "key" + std::to_string((t * 31 + i) % kKeys);
        Time stamp = static_cast<Time>(t) * kOps + i + 1;  // unique per op
        switch (i % 5) {
          case 0:
          case 1:
            // Value encodes its own version, so a hit can self-check.
            cache.Insert(key, key + ":v" + std::to_string(stamp), V(stamp), /*as_of=*/stamp);
            break;
          case 2: {
            CacheEntry entry;
            if (cache.Lookup(key, /*now=*/1 << 30, /*bound=*/0, &entry) == CacheLookup::kHit) {
              // An intact (key, version, value) triple — never a torn mix
              // of two concurrent inserts.
              if (entry.value != key + ":v" + std::to_string(entry.version.timestamp)) {
                torn.fetch_add(1);
              }
            }
            break;
          }
          case 3:
            cache.MarkInvalidated(key, V(stamp), stamp);
            break;
          default:
            cache.Erase(key);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_LE(cache.bytes_used(), 4096u);
}

// A one-shard ReadCache spelled out with plain containers: slots in a ring,
// freed slots reused last-in-first-out, a clock hand that resumes where it
// stopped and spares a referenced entry once, the slot just written
// protected from its own sweep, and each entry charged 64 B plus its key
// and value. The cache must pick exactly the victims this model picks.
class ClockModel {
 public:
  explicit ClockModel(size_t capacity) : capacity_(capacity) {}

  CacheLookup Lookup(const std::string& key, Time now, Duration bound, CacheEntry* out,
                     std::optional<Duration> retain_bound) {
    auto it = index_.find(key);
    if (it == index_.end()) return CacheLookup::kMiss;
    Slot& slot = *slots_[it->second];
    if (!Within(now, slot.entry.as_of, bound)) {
      bool was_marker = slot.entry.invalidated;
      if (!Within(now, slot.entry.as_of, retain_bound.value_or(bound))) Remove(it->second);
      return was_marker ? CacheLookup::kMiss : CacheLookup::kStale;
    }
    if (slot.entry.invalidated) return CacheLookup::kMiss;
    slot.referenced = true;
    *out = slot.entry;
    return CacheLookup::kHit;
  }

  void Insert(const std::string& key, const std::string& value, Version version, Time as_of) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      Slot& slot = *slots_[it->second];
      if (slot.entry.version > version) {
        if (!slot.entry.invalidated) {
          slot.entry.as_of = std::max(slot.entry.as_of, as_of);
          slot.referenced = true;
        }
        return;
      }
      Remove(it->second);
    }
    size_t bytes = key.size() + value.size() + 64;
    if (bytes > capacity_) return;
    Add(key, CacheEntry{value, version, as_of, /*invalidated=*/false}, bytes);
  }

  bool MarkInvalidated(const std::string& key, Version version, Time as_of) {
    bool dropped_live = false;
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (slots_[it->second]->entry.version > version) return false;
      dropped_live = !slots_[it->second]->entry.invalidated;
      Remove(it->second);
    }
    Add(key, CacheEntry{"", version, as_of, /*invalidated=*/true}, key.size() + 64);
    return dropped_live;
  }

  bool Erase(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Remove(it->second);
    return true;
  }

  size_t entry_count() const { return index_.size(); }
  size_t bytes_used() const { return bytes_; }

 private:
  struct Slot {
    std::string key;
    CacheEntry entry;
    size_t bytes = 0;
    bool referenced = false;
  };

  static bool Within(Time now, Time as_of, Duration bound) {
    return bound == 0 || now - as_of <= bound;
  }

  void Remove(size_t slot) {
    bytes_ -= slots_[slot]->bytes;
    index_.erase(slots_[slot]->key);
    slots_[slot].reset();
    free_.push_back(slot);
  }

  void Add(const std::string& key, CacheEntry entry, size_t bytes) {
    size_t slot = slots_.size();
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slots_.emplace_back();
    }
    slots_[slot] = Slot{key, std::move(entry), bytes, /*referenced=*/false};
    index_[key] = slot;
    bytes_ += bytes;
    while (bytes_ > capacity_ && index_.size() > 1) {
      if (hand_ >= slots_.size()) hand_ = 0;
      if (!slots_[hand_] || hand_ == slot) {
        ++hand_;
      } else if (slots_[hand_]->referenced) {
        slots_[hand_]->referenced = false;
        ++hand_;
      } else {
        Remove(hand_);
      }
    }
  }

  size_t capacity_;
  std::vector<std::optional<Slot>> slots_;
  std::vector<size_t> free_;
  std::map<std::string, size_t> index_;
  size_t hand_ = 0;
  size_t bytes_ = 0;
};

TEST(ReadCacheTest, ChurnMatchesAClockModel) {
  constexpr size_t kCapacity = 16 << 10;
  constexpr Duration kTightBound = 50;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    ReadCache cache(kCapacity, /*shards=*/1);
    ClockModel model(kCapacity);
    Rng rng(seed);
    Time now = 0;
    for (int op = 0; op < 20000; ++op) {
      now += static_cast<Time>(rng.Uniform(4));
      std::string key = "key" + std::to_string(rng.Uniform(500));
      // Versions and as_of stamps reach back, so older-version rejects,
      // lease extensions and stale drops all happen.
      Version version = V(static_cast<Time>(rng.Uniform(64)));
      Time as_of = now - static_cast<Time>(rng.Uniform(100));
      switch (rng.Uniform(6)) {
        case 0:
        case 1: {
          std::string value(rng.Uniform(200), static_cast<char>('a' + op % 26));
          cache.Insert(key, value, version, as_of);
          model.Insert(key, value, version, as_of);
          break;
        }
        case 2:
        case 3: {
          Duration bound = rng.Uniform(2) == 0 ? 0 : kTightBound;
          std::optional<Duration> retain;
          if (bound != 0 && rng.Uniform(2) == 0) retain = 4 * kTightBound;
          CacheEntry got;
          CacheEntry want;
          CacheLookup outcome = cache.Lookup(key, now, bound, &got, retain);
          ASSERT_EQ(outcome, model.Lookup(key, now, bound, &want, retain)) << op;
          if (outcome == CacheLookup::kHit) {
            ASSERT_EQ(got.value, want.value) << op;
            ASSERT_EQ(got.version, want.version) << op;
            ASSERT_EQ(got.as_of, want.as_of) << op;
            ASSERT_FALSE(got.invalidated) << op;
          }
          break;
        }
        case 4:
          ASSERT_EQ(cache.MarkInvalidated(key, version, as_of),
                    model.MarkInvalidated(key, version, as_of))
              << op;
          break;
        default:
          ASSERT_EQ(cache.Erase(key), model.Erase(key)) << op;
      }
      ASSERT_EQ(cache.entry_count(), model.entry_count()) << op;
      ASSERT_EQ(cache.bytes_used(), model.bytes_used()) << op;
    }
  }
}

// ------------------------------------------------------------- ScanCache --

std::vector<Record> MakeRecords(const std::string& prefix, int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    Record record;
    record.key = prefix + std::to_string(i);
    record.value = "row" + std::to_string(i);
    record.version = V(i + 1);
    records.push_back(std::move(record));
  }
  return records;
}

TEST(ScanCacheTest, HitKeyedByPrefixAndLimit) {
  ScanCache cache(1 << 20);
  cache.Insert("idx/a/", 5, MakeRecords("idx/a/", 5), 0);
  cache.Insert("idx/a/", 0, MakeRecords("idx/a/", 7), 0);
  std::vector<Record> out;
  ASSERT_EQ(cache.Lookup("idx/a/", 5, 0, 0, &out), CacheLookup::kHit);
  EXPECT_EQ(out.size(), 5u);
  ASSERT_EQ(cache.Lookup("idx/a/", 0, 0, 0, &out), CacheLookup::kHit);
  EXPECT_EQ(out.size(), 7u);
  EXPECT_EQ(cache.Lookup("idx/a/", 3, 0, 0, &out), CacheLookup::kMiss);
}

TEST(ScanCacheTest, InvalidateForKeyDropsCoveringPrefixesOnly) {
  ScanCache cache(1 << 20);
  cache.Insert("idx/a/", 0, MakeRecords("idx/a/", 3), 0);
  cache.Insert("idx/b/", 0, MakeRecords("idx/b/", 3), 0);
  EXPECT_EQ(cache.InvalidateForKey("idx/a/17"), 1u);
  std::vector<Record> out;
  EXPECT_EQ(cache.Lookup("idx/a/", 0, 0, 0, &out), CacheLookup::kMiss);
  EXPECT_EQ(cache.Lookup("idx/b/", 0, 0, 0, &out), CacheLookup::kHit);
  // A write outside every cached range drops nothing.
  EXPECT_EQ(cache.InvalidateForKey("other/key"), 0u);
}

TEST(ScanCacheTest, StalenessBoundRejects) {
  ScanCache cache(1 << 20);
  cache.Insert("idx/", 0, MakeRecords("idx/", 2), /*as_of=*/kSecond);
  std::vector<Record> out;
  Duration bound = 5 * kSecond;
  EXPECT_EQ(cache.Lookup("idx/", 0, 2 * kSecond, bound, &out), CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup("idx/", 0, 10 * kSecond, bound, &out), CacheLookup::kStale);
  EXPECT_EQ(cache.Lookup("idx/", 0, 10 * kSecond, bound, &out), CacheLookup::kMiss);
}

TEST(ScanCacheTest, CapacityEvictsOldestUntouched) {
  Counter evictions;
  // Each 3-record entry costs ~128 + key + 3*(key+value+64) bytes; a 1 KiB
  // budget holds only a couple. With no lookups setting reference bits, the
  // clock sweep evicts in insertion order — oldest first, like LRU did.
  ScanCache cache(1024, &evictions);
  cache.Insert("p1/", 0, MakeRecords("p1/", 3), 0);
  cache.Insert("p2/", 0, MakeRecords("p2/", 3), 0);
  cache.Insert("p3/", 0, MakeRecords("p3/", 3), 0);
  EXPECT_LE(cache.bytes_used(), 1024u);
  EXPECT_GT(evictions.value(), 0);
  std::vector<Record> out;
  EXPECT_EQ(cache.Lookup("p1/", 0, 0, 0, &out), CacheLookup::kMiss);
}

TEST(ScanCacheTest, ConcurrentInsertLookupInvalidate) {
  ScanCache cache(/*capacity_bytes=*/8192);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string prefix = "p" + std::to_string((t + i) % 6) + "/";
        switch (i % 3) {
          case 0:
            cache.Insert(prefix, 3, MakeRecords(prefix, 3), /*as_of=*/i);
            break;
          case 1: {
            std::vector<Record> out;
            if (cache.Lookup(prefix, 3, /*now=*/1 << 30, /*bound=*/0, &out) ==
                CacheLookup::kHit) {
              // A hit hands back the whole stored result set, never a
              // half-invalidated one.
              if (out.size() != 3 || out[0].key != prefix + "0") bad.fetch_add(1);
            }
            break;
          }
          default:
            cache.InvalidateForKey(prefix + "1");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.bytes_used(), 8192u);
}

// ------------------------------------------------------- CacheDirectory --

CacheConfig EnabledConfig() {
  CacheConfig config;
  config.enabled = true;
  return config;
}

TEST(CacheDirectoryTest, WriteThroughRefreshServesNewValue) {
  MetricRegistry metrics;
  CacheDirectory directory(EnabledConfig(), 10 * kSecond, &metrics);
  directory.StorePoint("k", "v1", V(1), 0);
  directory.OnPut("k", "v2", V(2), /*now=*/kSecond);
  Record out;
  ASSERT_TRUE(directory.LookupPoint("k", kSecond, &out));
  EXPECT_EQ(out.value, "v2");
  EXPECT_EQ(metrics.CounterValue("cache.point.refreshes"), 1);
  EXPECT_EQ(metrics.CounterValue("cache.point.hits"), 1);
}

TEST(CacheDirectoryTest, InvalidateModeDropsOnPut) {
  MetricRegistry metrics;
  CacheConfig config = EnabledConfig();
  config.write_mode = CacheWriteMode::kInvalidate;
  CacheDirectory directory(config, 10 * kSecond, &metrics);
  directory.StorePoint("k", "v1", V(1), 0);
  directory.OnPut("k", "v2", V(2), kSecond);
  Record out;
  EXPECT_FALSE(directory.LookupPoint("k", kSecond, &out));
  EXPECT_EQ(metrics.CounterValue("cache.point.invalidations"), 1);
  EXPECT_EQ(metrics.CounterValue("cache.point.misses"), 1);
}

TEST(CacheDirectoryTest, OnDeleteDropsPointAndCoveringScans) {
  MetricRegistry metrics;
  CacheDirectory directory(EnabledConfig(), 0, &metrics);
  directory.StorePoint("idx/a/1", "v", V(1), 0);
  directory.StoreScan("idx/a/", 0, MakeRecords("idx/a/", 2), 0);
  directory.OnDelete("idx/a/1", V(2), kSecond);
  Record out;
  std::vector<Record> rows;
  EXPECT_FALSE(directory.LookupPoint("idx/a/1", kSecond, &out));
  EXPECT_FALSE(directory.LookupScan("idx/a/", 0, kSecond, &rows));
  EXPECT_EQ(metrics.CounterValue("cache.point.invalidations"), 1);
  EXPECT_EQ(metrics.CounterValue("cache.scan.invalidations"), 1);
}

TEST(CacheDirectoryTest, StaleRejectCountedSeparately) {
  MetricRegistry metrics;
  CacheDirectory directory(EnabledConfig(), kSecond, &metrics);
  directory.StorePoint("k", "v", V(1), /*as_of=*/0);
  Record out;
  EXPECT_FALSE(directory.LookupPoint("k", 2 * kSecond, &out));
  EXPECT_EQ(metrics.CounterValue("cache.point.stale_rejects"), 1);
  EXPECT_EQ(metrics.CounterValue("cache.point.misses"), 0);
}

TEST(CacheDirectoryTest, DisabledConfigNoops) {
  MetricRegistry metrics;
  CacheConfig config;  // enabled = false
  CacheDirectory directory(config, 10 * kSecond, &metrics);
  directory.StorePoint("k", "v", V(1), 0);
  Record out;
  EXPECT_FALSE(directory.LookupPoint("k", 0, &out));
  EXPECT_EQ(metrics.CounterValue("cache.point.misses"), 0);
  EXPECT_EQ(directory.point_cache()->entry_count(), 0u);
}

TEST(CacheDirectoryTest, ScanLeaseDirtiedByCoveredWrite) {
  MetricRegistry metrics;
  CacheDirectory directory(EnabledConfig(), 0, &metrics);
  // A write under the scanned prefix acks mid-scan: the lease goes dirty
  // and the (pre-write) result must not be cached.
  uint64_t dirty_lease = directory.BeginScan("idx/a/");
  directory.OnPut("idx/a/5", "v", V(1), kSecond);
  EXPECT_FALSE(directory.EndScan(dirty_lease));
  // An unrelated write leaves the lease clean; tokens are single-use.
  uint64_t clean_lease = directory.BeginScan("idx/a/");
  directory.OnPut("other/9", "v", V(1), kSecond);
  EXPECT_TRUE(directory.EndScan(clean_lease));
  EXPECT_FALSE(directory.EndScan(clean_lease));
}

TEST(CacheDirectoryTest, ConcurrentLookupsConserveOutcomeCounters) {
  MetricRegistry metrics;
  CacheDirectory directory(EnabledConfig(), /*staleness_bound=*/0, &metrics);
  constexpr int kThreads = 6;
  constexpr int kOps = 4000;
  constexpr int kKeys = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "k" + std::to_string((t * 7 + i) % kKeys);
        Record out;
        if (!directory.LookupPoint(key, /*now=*/i, &out)) {
          directory.StorePoint(key, "v", V(static_cast<Time>(t) * kOps + i + 1), /*as_of=*/i);
        }
        if (i % 64 == 0) {
          directory.OnPut(key, "w", V(static_cast<Time>(t + 1) * 1000000 + i), i);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every LookupPoint from every thread landed in exactly one outcome
  // counter — relaxed atomics lose no increments.
  int64_t hits = metrics.CounterValue("cache.point.hits");
  EXPECT_EQ(hits + metrics.CounterValue("cache.point.misses") +
                metrics.CounterValue("cache.point.stale_rejects") +
                metrics.CounterValue("cache.point.version_bypasses"),
            static_cast<int64_t>(kThreads) * kOps);
  EXPECT_GT(hits, 0);
}

// ------------------------------------------------------- system tests ----

EntityDef ProfilesEntity() {
  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  return profiles;
}

EntityDef FriendshipsEntity() {
  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = 100;
  friendships.fanout_caps["f2"] = 100;
  return friendships;
}

Row Profile(int64_t id, const std::string& name, int64_t bday = 0) {
  Row row;
  row.SetInt("user_id", id);
  row.SetString("name", name);
  row.SetInt("bday", bday);
  return row;
}

Row UserKey(int64_t id) {
  Row row;
  row.SetInt("user_id", id);
  return row;
}

TEST(CacheSystemTest, RepeatReadsServeFromCacheWithinBound) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 4;
  options.consistency_spec = "staleness: 10s\n";
  options.cache_config.enabled = true;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  ASSERT_TRUE(db->PutRowSync("profiles", Profile(1, "alice"), RequestOptions{}).ok());
  int64_t hits_before = db->metrics()->CounterValue("cache.point.hits");
  auto row = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->GetString("name"), "alice");
  auto again = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->GetString("name"), "alice");
  EXPECT_GT(db->metrics()->CounterValue("cache.point.hits"), hits_before);
  EXPECT_GT(db->staleness()->stats().cache_hits, 0);
}

TEST(CacheSystemTest, EntriesPastStalenessBoundAreRejectedThenRepopulated) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 4;
  options.consistency_spec = "staleness: 2s\n";
  options.cache_config.enabled = true;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  ASSERT_TRUE(db->PutRowSync("profiles", Profile(1, "alice"), RequestOptions{}).ok());
  ASSERT_TRUE(db->GetRowSync("profiles", UserKey(1), RequestOptions{}).ok());  // cached

  db->RunFor(3 * kSecond);  // age every entry past the 2s bound
  int64_t stale_before = db->metrics()->CounterValue("cache.point.stale_rejects");
  auto row = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->GetString("name"), "alice");  // re-fetched from storage
  EXPECT_GT(db->metrics()->CounterValue("cache.point.stale_rejects"), stale_before);

  // The re-fetch repopulated the cache: an immediate re-read hits.
  int64_t hits_before = db->metrics()->CounterValue("cache.point.hits");
  ASSERT_TRUE(db->GetRowSync("profiles", UserKey(1), RequestOptions{}).ok());
  EXPECT_GT(db->metrics()->CounterValue("cache.point.hits"), hits_before);
}

TEST(CacheSystemTest, WritesInvalidateSynchronously) {
  ScadsOptions options;
  options.initial_nodes = 1;  // single replica: storage reads are definitive
  options.partitions = 4;
  options.consistency_spec = "staleness: 30s\ndurability: 90%\n";
  options.cache_config.enabled = true;
  options.cache_config.write_mode = CacheWriteMode::kInvalidate;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  ASSERT_TRUE(db->PutRowSync("profiles", Profile(1, "v1"), RequestOptions{}).ok());
  ASSERT_TRUE(db->GetRowSync("profiles", UserKey(1), RequestOptions{}).ok());  // populate v1

  ASSERT_TRUE(db->PutRowSync("profiles", Profile(1, "v2"), RequestOptions{}).ok());
  EXPECT_GT(db->metrics()->CounterValue("cache.point.invalidations"), 0);
  // The very next read must observe v2: the stale entry was dropped in the
  // same event that acked the write.
  auto row = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->GetString("name"), "v2");
}

TEST(CacheSystemTest, CachedReadNeverOlderThanLatestAckedWrite) {
  // The acceptance property, adversarially: interleave writes and reads
  // (some past the staleness bound, some within it) and require every read
  // to observe the latest acked write — write-through refresh plus
  // stale-rejection make the cache transparent.
  ScadsOptions options;
  options.initial_nodes = 1;
  options.partitions = 4;
  options.consistency_spec = "staleness: 2s\ndurability: 90%\n";
  options.cache_config.enabled = true;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  for (int i = 0; i < 12; ++i) {
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db->PutRowSync("profiles", Profile(1, value), RequestOptions{}).ok());
    if (i % 3 == 1) db->RunFor(3 * kSecond);  // age the entry past the bound
    auto row = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
    ASSERT_TRUE(row.ok()) << "iteration " << i << ": " << row.status();
    EXPECT_EQ(row->GetString("name"), value) << "iteration " << i;
    auto re_read = db->GetRowSync("profiles", UserKey(1), RequestOptions{});
    ASSERT_TRUE(re_read.ok());
    EXPECT_EQ(re_read->GetString("name"), value) << "iteration " << i;
  }
  // Both cache paths were exercised: hits and stale rejections.
  EXPECT_GT(db->metrics()->CounterValue("cache.point.hits"), 0);
  EXPECT_GT(db->metrics()->CounterValue("cache.point.stale_rejects"), 0);
}

TEST(CacheSystemTest, ScanResultsCachedAndInvalidatedByIndexMaintenance) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 4;
  options.consistency_spec = "staleness: 30s\n";
  options.cache_config.enabled = true;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->DefineEntity(FriendshipsEntity()).ok());
  ASSERT_TRUE(db
                  ->RegisterQuery("birthday",
                                  "SELECT p.* FROM friendships f JOIN profiles p "
                                  "ON f.f2 = p.user_id WHERE f.f1 = <u> OR "
                                  "f.f2 = <u> ORDER BY p.bday")
                  .ok());
  ASSERT_TRUE(db->Start().ok());
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(db->PutRowSync("profiles", Profile(i, "u" + std::to_string(i), 100 - i), RequestOptions{}).ok());
  }
  for (int64_t i = 2; i <= 6; ++i) {
    Row edge;
    edge.SetInt("f1", 1);
    edge.SetInt("f2", i);
    ASSERT_TRUE(db->PutRowSync("friendships", edge, RequestOptions{}).ok());
  }
  db->DrainIndexQueue();

  auto first = db->QuerySync("birthday", {{"u", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 5u);

  int64_t scan_hits_before = db->metrics()->CounterValue("cache.scan.hits");
  auto second = db->QuerySync("birthday", {{"u", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 5u);
  EXPECT_GT(db->metrics()->CounterValue("cache.scan.hits"), scan_hits_before);
  for (size_t i = 0; i < second->size(); ++i) {
    EXPECT_EQ((*first)[i].GetInt("user_id"), (*second)[i].GetInt("user_id"));
  }

  // A new edge flows through async index maintenance; the index-entry write
  // invalidates the cached scan, so the next query sees the new friend.
  Row edge;
  edge.SetInt("f1", 1);
  edge.SetInt("f2", 7);
  ASSERT_TRUE(db->PutRowSync("friendships", edge, RequestOptions{}).ok());
  db->DrainIndexQueue();
  EXPECT_GT(db->metrics()->CounterValue("cache.scan.invalidations"), 0);
  auto third = db->QuerySync("birthday", {{"u", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->size(), 6u);
}

TEST(CacheSystemTest, DirectorSnapshotsRollUpCacheHits) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 4;
  options.consistency_spec = "staleness: 30s\ndurability: 99%\n";
  options.cache_config.enabled = true;
  options.enable_director = true;
  options.director_config.control_interval = 5 * kSecond;
  auto db = std::move(Scads::Create(options)).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  ASSERT_TRUE(db->PutRowSync("profiles", Profile(7, "celebrity"), RequestOptions{}).ok());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db->GetRowSync("profiles", UserKey(7), RequestOptions{}).ok());
  }
  db->RunFor(12 * kSecond);  // at least two control ticks

  // The control-loop snapshots rolled up the directory's hit/miss deltas.
  int64_t snapshot_hits = 0;
  for (const DirectorSnapshot& snapshot : db->director()->history()) {
    snapshot_hits += snapshot.cache_point_hits;
  }
  EXPECT_GT(snapshot_hits, 0);
}

}  // namespace
}  // namespace scads
