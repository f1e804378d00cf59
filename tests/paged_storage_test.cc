// Tests for the larger-than-memory paged storage tier: BufferPool
// mechanics, PagedEngine parity with the RAM StorageEngine on identical op
// traces, asynchronous write-back draining, WAL-backed crash recovery over
// surviving pages, and the StorageNode/load-signal integration.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/memtable.h"
#include "storage/pagestore/page_store.h"
#include "storage/pagestore/paged_engine.h"
#include "storage/wal.h"
#include "support/node_read.h"

namespace scads {
namespace {

Version V(Time ts, NodeId writer = 0) { return Version{ts, writer}; }

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

std::string ValueOf(int i, size_t width = 40) {
  std::string value = "v" + std::to_string(i) + "-";
  while (value.size() < width) value.push_back('x');
  return value;
}

// Small pages and memtable so a few hundred records exercise spill, split,
// fault, and eviction.
PagedStorageConfig SmallConfig() {
  PagedStorageConfig config;
  config.enabled = true;
  config.page_bytes = 2 * 1024;
  config.buffer_pool_bytes = 8 * 1024;
  config.memtable_spill_bytes = 4 * 1024;
  return config;
}

// ------------------------------------------------------------ BufferPool --

TEST(BufferPoolTest, TracksResidencyAndEvictions) {
  BufferPool pool(1000);
  PageFrame* a = pool.Insert(1);
  pool.AdjustBytes(a, 400);
  PageFrame* b = pool.Insert(2);
  pool.AdjustBytes(b, 300);
  EXPECT_EQ(pool.resident_bytes(), 700u);
  EXPECT_EQ(pool.frame_count(), 2u);
  pool.Erase(2);
  EXPECT_EQ(pool.resident_bytes(), 400u);
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(pool.resident_peak(), 700u);
}

TEST(BufferPoolTest, PinnedFramesAreNeverVictims) {
  BufferPool pool(100);
  PageFrame* a = pool.Insert(7);
  pool.AdjustBytes(a, 50);
  pool.Pin(a);
  EXPECT_EQ(pool.PickVictim(/*allow_dirty=*/true), nullptr);
  pool.Unpin(a);
  EXPECT_EQ(pool.PickVictim(/*allow_dirty=*/true), a);
}

TEST(BufferPoolTest, ClockGivesTouchedFramesASecondChance) {
  BufferPool pool(1000);
  PageFrame* a = pool.Insert(1);
  PageFrame* b = pool.Insert(2);
  a->referenced = false;
  b->referenced = false;
  pool.Find(1);  // touch: a earns a second chance
  PageFrame* victim = pool.PickVictim(/*allow_dirty=*/false);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 2u);
}

TEST(BufferPoolTest, DirtyFramesRequireAllowDirty) {
  BufferPool pool(1000);
  PageFrame* a = pool.Insert(1);
  a->referenced = false;
  a->dirty = true;
  EXPECT_EQ(pool.PickVictim(/*allow_dirty=*/false), nullptr);
  EXPECT_EQ(pool.PickVictim(/*allow_dirty=*/true), a);
}

// ------------------------------------------------------------ Page codec --

TEST(PageCodecTest, RoundTripsAndClampsStaleShadows) {
  PageFrame frame;
  frame.lower_bound = "b";
  for (const char* key : {"b", "c", "m", "x"}) {
    Record record;
    record.key = key;
    record.value = std::string("val-") + key;
    record.version = V(7, 3);
    record.tombstone = (key[0] == 'c');
    frame.records.push_back(record);
  }
  std::string bytes = EncodePage(frame);

  PageFrame full;
  ASSERT_TRUE(DecodePage(bytes, "b", "", &full));
  ASSERT_EQ(full.records.size(), 4u);
  EXPECT_EQ(full.records[1].key, "c");
  EXPECT_TRUE(full.records[1].tombstone);
  EXPECT_EQ(full.records[3].value, "val-x");
  EXPECT_EQ(full.records[3].version, V(7, 3));

  // After a split at "m", the lower page's stale image must drop the upper
  // half on decode.
  PageFrame clamped;
  ASSERT_TRUE(DecodePage(bytes, "b", "m", &clamped));
  ASSERT_EQ(clamped.records.size(), 2u);
  EXPECT_EQ(clamped.records.back().key, "c");

  PageFrame empty;
  ASSERT_TRUE(DecodePage("", "b", "", &empty));
  EXPECT_TRUE(empty.records.empty());

  std::string torn = bytes.substr(0, bytes.size() - 3);
  PageFrame bad;
  EXPECT_FALSE(DecodePage(torn, "b", "", &bad));
}

// ----------------------------------------------------------- PagedEngine --

TEST(PagedEngineTest, PutGetDeleteAndVersionRule) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  PagedEngine engine(&loop, options);

  EXPECT_TRUE(*engine.Put("a", "1", V(10)));
  EXPECT_FALSE(*engine.Put("a", "stale", V(5)));
  EXPECT_EQ(engine.metrics().CounterValue("puts_superseded"), 1);
  EXPECT_EQ(engine.Get("a")->value, "1");
  EXPECT_EQ(engine.live_count(), 1u);

  EXPECT_TRUE(*engine.Delete("a", V(20)));
  EXPECT_TRUE(IsNotFound(engine.Get("a").status()));
  EXPECT_FALSE(*engine.Delete("a", V(15)));  // older tombstone superseded
  EXPECT_EQ(engine.metrics().CounterValue("deletes_superseded"), 1);
  EXPECT_EQ(engine.live_count(), 0u);
  EXPECT_EQ(engine.total_count(), 1u);
  EXPECT_EQ(engine.Put("", "x", V(1)).status().code(), StatusCode::kInvalidArgument);
}

TEST(PagedEngineTest, VersionRuleHoldsAcrossSpillToPages) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  PagedEngine engine(&loop, options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine.Put(Key(i), ValueOf(i), V(100 + i)).ok());
  }
  ASSERT_GT(engine.metrics().CounterValue("spills"), 0);
  // Key(5) now lives only in the page tier; a stale write must still be
  // superseded (the engine faults the page to version-check).
  EXPECT_FALSE(*engine.Put(Key(5), "stale", V(50)));
  EXPECT_TRUE(*engine.Put(Key(5), "fresh", V(1000)));
  EXPECT_EQ(engine.Get(Key(5))->value, "fresh");
}

TEST(PagedEngineTest, MatchesRamEngineOnRandomTrace) {
  EventLoop loop;
  PagedEngineOptions paged_options;
  paged_options.config = SmallConfig();
  // Pool held to ~25% of the dataset so cold reads genuinely fault.
  paged_options.config.buffer_pool_bytes = 6 * 1024;
  PagedEngine paged(&loop, paged_options);
  StorageEngine ram(EngineOptions{});

  Rng rng(7);
  constexpr int kKeys = 400;
  Time ts = 1;
  for (int op = 0; op < 4000; ++op) {
    int k = static_cast<int>(rng.Uniform(kKeys));
    std::string key = Key(k);
    double coin = rng.NextDouble();
    if (coin < 0.55) {
      // Occasionally reuse an old timestamp to exercise the superseded path.
      Version version = rng.Bernoulli(0.1) ? V(ts / 2) : V(ts++);
      Result<bool> a = paged.Put(key, ValueOf(k), version);
      Result<bool> b = ram.Put(key, ValueOf(k), version);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        ASSERT_EQ(*a, *b);
      }
    } else if (coin < 0.7) {
      Version version = V(ts++);
      Result<bool> a = paged.Delete(key, version);
      Result<bool> b = ram.Delete(key, version);
      ASSERT_EQ(*a, *b);
    } else if (coin < 0.78) {
      // A MultiGet of 2-13 keys: a key no op writes, random keys, and a
      // repeat of one of them.
      size_t size = 2 + rng.Uniform(12);
      std::vector<std::string> keys = {Key(kKeys + static_cast<int>(rng.Uniform(kKeys)))};
      while (keys.size() + 1 < size) keys.push_back(Key(static_cast<int>(rng.Uniform(kKeys))));
      keys.push_back(keys[rng.Uniform(keys.size())]);
      std::vector<Result<Record>> a = paged.MultiGet(keys);
      std::vector<Result<Record>> b = ram.MultiGet(keys);
      ASSERT_EQ(a.size(), keys.size());
      ASSERT_EQ(b.size(), keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(a[i].ok(), b[i].ok()) << keys[i];
        if (a[i].ok()) {
          EXPECT_EQ(a[i]->key, b[i]->key);
          EXPECT_EQ(a[i]->value, b[i]->value);
          EXPECT_EQ(a[i]->version, b[i]->version);
        }
      }
    } else if (coin < 0.84) {
      // A group commit of 1-6 puts and deletes; old timestamps (and a key
      // repeated with an older one) make some of them superseded.
      std::vector<WalRecord> batch(1 + rng.Uniform(6));
      for (WalRecord& record : batch) {
        int bk = static_cast<int>(rng.Uniform(kKeys));
        record.key = Key(bk);
        record.type = rng.Bernoulli(0.2) ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
        if (record.type == WalRecord::Type::kPut) record.value = ValueOf(bk);
        record.version = rng.Bernoulli(0.25) ? V(ts / 2) : V(ts++);
      }
      ASSERT_TRUE(paged.ApplyBatch(batch).ok());
      ASSERT_TRUE(ram.ApplyBatch(batch).ok());
    } else {
      Result<Record> a = paged.Get(key);
      Result<Record> b = ram.Get(key);
      ASSERT_EQ(a.ok(), b.ok()) << key;
      if (a.ok()) {
        EXPECT_EQ(a->value, b->value);
        EXPECT_EQ(a->version, b->version);
      }
    }
    // Let async write-back interleave with the trace.
    if (op % 256 == 255) loop.RunFor(6 * kMillisecond);
  }

  // Full-state comparison: every key byte-identical, both orders of scan.
  for (int k = 0; k < kKeys; ++k) {
    Result<Record> a = paged.Get(Key(k));
    Result<Record> b = ram.Get(Key(k));
    ASSERT_EQ(a.ok(), b.ok()) << Key(k);
    if (a.ok()) {
      EXPECT_EQ(a->value, b->value);
      EXPECT_EQ(a->version, b->version);
    }
  }
  Result<std::vector<Record>> scan_a = paged.Scan("", "", 0);
  Result<std::vector<Record>> scan_b = ram.Scan("", "", 0);
  ASSERT_TRUE(scan_a.ok() && scan_b.ok());
  ASSERT_EQ(scan_a->size(), scan_b->size());
  for (size_t i = 0; i < scan_a->size(); ++i) {
    EXPECT_EQ((*scan_a)[i].key, (*scan_b)[i].key);
    EXPECT_EQ((*scan_a)[i].value, (*scan_b)[i].value);
    EXPECT_EQ((*scan_a)[i].version, (*scan_b)[i].version);
  }
  EXPECT_EQ(paged.live_count(), ram.live_count());

  // Tombstones included: every raw entry and the raw scan agree too.
  for (int k = 0; k < kKeys; ++k) {
    std::optional<Record> a = paged.GetRaw(Key(k));
    std::optional<Record> b = ram.GetRaw(Key(k));
    ASSERT_EQ(a.has_value(), b.has_value()) << Key(k);
    if (a.has_value()) {
      EXPECT_EQ(a->value, b->value);
      EXPECT_EQ(a->version, b->version);
      EXPECT_EQ(a->tombstone, b->tombstone);
    }
  }
  std::vector<Record> raw_a = paged.ScanRaw("", "", 0);
  std::vector<Record> raw_b = ram.ScanRaw("", "", 0);
  ASSERT_EQ(raw_a.size(), raw_b.size());
  EXPECT_GT(raw_a.size(), scan_a->size());  // the trace left tombstones
  for (size_t i = 0; i < raw_a.size(); ++i) {
    EXPECT_EQ(raw_a[i].key, raw_b[i].key);
    EXPECT_EQ(raw_a[i].value, raw_b[i].value);
    EXPECT_EQ(raw_a[i].version, raw_b[i].version);
    EXPECT_EQ(raw_a[i].tombstone, raw_b[i].tombstone);
  }

  // Read/write counters stay in lockstep with the RAM engine.
  for (const char* name : {"puts", "deletes", "puts_superseded", "deletes_superseded",
                           "gets", "get_misses", "multigets", "scans", "scan_rows"}) {
    EXPECT_EQ(paged.metrics().CounterValue(name), ram.metrics().CounterValue(name)) << name;
  }
  EXPECT_GT(paged.metrics().CounterValue("puts_superseded"), 0);
  EXPECT_GT(paged.metrics().CounterValue("multigets"), 0);

  // And the paging actually happened, within budget.
  EXPECT_GT(paged.metrics().CounterValue("page_faults"), 0);
  EXPECT_LE(paged.pool().resident_bytes(), paged_options.config.buffer_pool_bytes);
  EXPECT_LE(paged.pool().resident_peak(), paged_options.config.buffer_pool_bytes);
  EXPECT_EQ(paged.metrics().CounterValue("budget_overruns"), 0);
}

TEST(PagedEngineTest, ScanMergesResidentAndEvictedPages) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  options.config.buffer_pool_bytes = 4 * 1024;  // only a slice stays resident
  PagedEngine engine(&loop, options);
  StorageEngine ram(EngineOptions{});
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(engine.Put(Key(i), ValueOf(i), V(10 + i)).ok());
    ASSERT_TRUE(ram.Put(Key(i), ValueOf(i), V(10 + i)).ok());
  }
  // Fresh delta on top of spilled pages, plus a shadowing tombstone.
  ASSERT_TRUE(engine.Put(Key(30), "updated", V(5000)).ok());
  ASSERT_TRUE(ram.Put(Key(30), "updated", V(5000)).ok());
  ASSERT_TRUE(engine.Delete(Key(31), V(5001)).ok());
  ASSERT_TRUE(ram.Delete(Key(31), V(5001)).ok());

  struct Case {
    std::string start, end;
    size_t limit;
  };
  for (const Case& c : std::vector<Case>{{"", "", 0},
                                         {Key(17), Key(211), 0},
                                         {Key(25), "", 17},
                                         {Key(29), Key(40), 0}}) {
    Result<std::vector<Record>> a = engine.Scan(c.start, c.end, c.limit);
    Result<std::vector<Record>> b = ram.Scan(c.start, c.end, c.limit);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << c.start << ".." << c.end;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].key, (*b)[i].key);
      EXPECT_EQ((*a)[i].value, (*b)[i].value);
    }
  }
  // Invalid range rejected like the RAM engine.
  EXPECT_EQ(engine.Scan("z", "a", 0).status().code(), StatusCode::kInvalidArgument);

  // ScanRaw surfaces the tombstone for replication streams.
  std::vector<Record> raw = engine.ScanRaw(Key(31), Key(32), 0);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_TRUE(raw[0].tombstone);
}

TEST(PagedEngineTest, AsyncWriteBackDrainsDirtyPages) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  options.config.buffer_pool_bytes = 64 * 1024;  // roomy: no forced writes
  options.config.page_bytes = 1024;
  options.config.memtable_spill_bytes = 2 * 1024;
  options.config.write_back_batch = 2;
  PagedEngine engine(&loop, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Put(Key(i), ValueOf(i), V(10 + i)).ok());
  }
  size_t dirty = engine.dirty_page_count();
  ASSERT_GT(dirty, 4u);
  EXPECT_EQ(engine.file()->writes(), 0);
  EXPECT_GT(engine.io_backlog(), 0);

  // One interval flushes at most write_back_batch pages.
  loop.RunFor(PagedEngine::kWriteBackInterval + 10 * PagedEngine::kPageWriteLatency);
  EXPECT_EQ(engine.file()->writes(), 2);
  // The first page written is the first page dirtied: the spill walks the
  // memtable in key order, and the root page ("" lower bound, id 0) owns
  // the smallest keys.
  EXPECT_EQ(engine.file()->write_log().front(), 0u);

  // Enough intervals drain everything, each page exactly once.
  loop.RunFor(static_cast<Duration>(dirty) * PagedEngine::kWriteBackInterval);
  EXPECT_EQ(engine.dirty_page_count(), 0u);
  EXPECT_EQ(engine.io_backlog(), 0);
  std::vector<PageId> written = engine.file()->write_log();
  std::sort(written.begin(), written.end());
  EXPECT_TRUE(std::adjacent_find(written.begin(), written.end()) == written.end())
      << "a page was written back twice without being re-dirtied";
  EXPECT_EQ(written.size(), dirty);
  EXPECT_EQ(engine.metrics().CounterValue("forced_writebacks"), 0);
}

TEST(PagedEngineTest, ForcedWriteBackKeepsDataCorrectUnderTinyPool) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  options.config.page_bytes = 1024;
  options.config.buffer_pool_bytes = 3 * 1024;  // ~3 pages resident
  options.config.memtable_spill_bytes = 2 * 1024;
  PagedEngine engine(&loop, options);
  std::map<std::string, std::string> reference;
  for (int i = 0; i < 300; ++i) {
    std::string key = Key((i * 37) % 300);  // non-sequential dirtying order
    std::string value = ValueOf(i);
    ASSERT_TRUE(engine.Put(key, value, V(1000 + i)).ok());
    reference[key] = value;
  }
  // The loop never ran: every page write so far was a forced (eviction)
  // write-back, and reads below keep forcing more.
  EXPECT_GT(engine.metrics().CounterValue("forced_writebacks"), 0);
  for (const auto& [key, value] : reference) {
    Result<Record> got = engine.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got->value, value);
  }
  EXPECT_LE(engine.pool().resident_bytes(), options.config.buffer_pool_bytes);
  EXPECT_EQ(engine.live_count(), reference.size());
}

TEST(PagedEngineTest, RecoversFromTornWalOverSurvivingPages) {
  PageFile file;  // the durable disk: outlives the crashed engine
  MemoryWalSink wal;
  PagedStorageConfig config = SmallConfig();
  config.buffer_pool_bytes = 64 * 1024;  // roomy: phase-2 writes stay volatile
  Time crash_wal_size = 0;
  {
    EventLoop loop;
    PagedEngineOptions options;
    options.wal = &wal;
    options.file = &file;
    options.config = config;
    PagedEngine engine(&loop, options);
    // Phase 1: enough to spill, then let write-back make the pages durable.
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(engine.Put(Key(i), ValueOf(i), V(100 + i)).ok());
    }
    loop.RunFor(kSecond);
    ASSERT_EQ(engine.dirty_page_count(), 0u);
    ASSERT_GT(file.writes(), 0);
    // Phase 2: volatile tail — small enough to avoid another spill, and the
    // clock never advances, so none of it reaches the pages.
    int64_t writes_before = file.writes();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine.Put(Key(i), "phase2-" + std::to_string(i), V(9000 + i)).ok());
    }
    ASSERT_TRUE(engine.Delete(Key(140), V(9100)).ok());
    ASSERT_EQ(file.writes(), writes_before);
    crash_wal_size = static_cast<Time>(wal.Contents().size());
  }  // crash

  // Tear the final record mid-frame; ReadWal tolerates the torn tail.
  std::string torn = wal.Contents().substr(0, static_cast<size_t>(crash_wal_size) - 7);
  Result<std::vector<WalRecord>> survived = ReadWal(torn);
  ASSERT_TRUE(survived.ok());

  // Recover the paged engine over the surviving pages + WAL prefix.
  EventLoop loop2;
  PagedEngineOptions recover_options;
  recover_options.file = &file;
  recover_options.config = config;
  Result<std::unique_ptr<PagedEngine>> recovered =
      PagedEngine::Recover(&loop2, recover_options, *survived);
  ASSERT_TRUE(recovered.ok());

  // Reference: the RAM engine replaying the same surviving prefix from
  // nothing. The paged engine must land on the identical live state even
  // though most of phase 1 came from pages, not replay.
  Result<std::unique_ptr<StorageEngine>> reference =
      StorageEngine::Recover(EngineOptions{}, *survived);
  ASSERT_TRUE(reference.ok());

  Result<std::vector<Record>> a = (*recovered)->Scan("", "", 0);
  Result<std::vector<Record>> b = (*reference)->Scan("", "", 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].key, (*b)[i].key);
    EXPECT_EQ((*a)[i].value, (*b)[i].value);
    EXPECT_EQ((*a)[i].version, (*b)[i].version);
  }
  EXPECT_EQ((*recovered)->live_count(), (*reference)->live_count());
  // The torn record (and only it) is gone.
  EXPECT_LT(survived->size(), 171u);
}

TEST(PagedEngineTest, PurgeTombstonesMatchesRamEngineLiveState) {
  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  PagedEngine paged(&loop, options);
  StorageEngine ram(EngineOptions{});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(paged.Put(Key(i), ValueOf(i), V(100)).ok());
    ASSERT_TRUE(ram.Put(Key(i), ValueOf(i), V(100)).ok());
  }
  // Old tombstones (purgable) and one recent (kept).
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(paged.Delete(Key(i), V(200)).ok());
    ASSERT_TRUE(ram.Delete(Key(i), V(200)).ok());
  }
  ASSERT_TRUE(paged.Delete(Key(50), V(900)).ok());
  ASSERT_TRUE(ram.Delete(Key(50), V(900)).ok());
  // Spill the tombstones down into pages, then purge both engines.
  for (int i = 200; i < 320; ++i) {
    ASSERT_TRUE(paged.Put(Key(i), ValueOf(i), V(300)).ok());
    ASSERT_TRUE(ram.Put(Key(i), ValueOf(i), V(300)).ok());
  }
  size_t purged_paged = paged.PurgeTombstonesBefore(500);
  size_t purged_ram = ram.PurgeTombstonesBefore(500);
  EXPECT_EQ(purged_paged, purged_ram);
  EXPECT_EQ(purged_paged, 40u);
  EXPECT_EQ(paged.live_count(), ram.live_count());
  // Purged keys accept writes at any version again; the kept tombstone
  // still enforces its floor.
  EXPECT_TRUE(*paged.Put(Key(3), "reborn", V(50)));
  EXPECT_TRUE(*ram.Put(Key(3), "reborn", V(50)));
  EXPECT_FALSE(*paged.Put(Key(50), "blocked", V(600)));
  EXPECT_FALSE(*ram.Put(Key(50), "blocked", V(600)));
  // Repeat purges find nothing new.
  EXPECT_EQ(paged.PurgeTombstonesBefore(500), 0u);
}

// ------------------------------------------------------- Byte accounting --

TEST(BytesAccountingTest, ArenaCountsAllocatedBytes) {
  Arena arena;
  EXPECT_EQ(arena.BytesAllocated(), 0u);
  arena.Allocate(100);
  arena.AllocateAligned(64);
  EXPECT_EQ(arena.BytesAllocated(), 164u);
  EXPECT_LE(arena.BytesAllocated(), arena.MemoryUsage());
}

TEST(BytesAccountingTest, MemTableTracksLogicalPayloadBytes) {
  MemTable table;
  bool created = false;
  MemTable::Entry* entry = table.FindOrCreate("key", &created);
  table.Assign(entry, "0123456789", V(1), /*tombstone=*/false);
  EXPECT_EQ(table.payload_bytes(), 13u);  // 3 key + 10 value
  // Re-assign: logical footprint tracks the current value, not the bytes
  // the old value occupied.
  table.Assign(entry, "abc", V(2), /*tombstone=*/false);
  EXPECT_EQ(table.payload_bytes(), 6u);
  EXPECT_GT(table.bytes_allocated(), table.payload_bytes());
}

TEST(BytesAccountingTest, EnginesExportBytesResident) {
  StorageEngine ram(EngineOptions{});
  ASSERT_TRUE(ram.Put("a", std::string(500, 'x'), V(1)).ok());
  EXPECT_GT(ram.bytes_resident(), 500);
  EXPECT_EQ(ram.metrics().CounterValue("bytes_resident"), ram.bytes_resident());

  EventLoop loop;
  PagedEngineOptions options;
  options.config = SmallConfig();
  PagedEngine paged(&loop, options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(paged.Put(Key(i), ValueOf(i), V(10 + i)).ok());
  }
  EXPECT_EQ(paged.bytes_resident(),
            static_cast<int64_t>(paged.pool().resident_bytes() + paged.memory_usage() -
                                 paged.pool().resident_bytes()));
  EXPECT_EQ(paged.metrics().CounterValue("bytes_resident"), paged.bytes_resident());
  // A paged engine's residency is bounded by pool + memtable, not dataset.
  EXPECT_LE(paged.pool().resident_bytes(), options.config.buffer_pool_bytes);
}

// ------------------------------------------------- StorageNode integration --

TEST(PagedNodeTest, NodeSelectsPagedEngineAndChargesFaultLatency) {
  EventLoop loop;
  SimNetwork network(&loop, 5);
  ClusterState cluster;
  NodeConfig config;
  config.paged_storage = SmallConfig();
  config.paged_storage.buffer_pool_bytes = 4 * 1024;
  StorageNode node(1, &loop, &network, &cluster, config, /*seed=*/9);
  ASSERT_TRUE(cluster.AddNode(1, &node).ok());
  // A read snapshots its key's replication watermark, found through the
  // partition map: one partition, on this node.
  auto map = PartitionMap::CreateUniform(1, {1}, 1);
  ASSERT_TRUE(map.ok());
  cluster.set_partitions(std::move(map).value());

  // Seed directly through the engine (bypassing admission), then drain the
  // IO the seeding accrued so it isn't charged to the first request.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(node.engine()->Put(Key(i), ValueOf(i), V(10 + i)).ok());
  }
  node.engine()->TakeAccruedIo();

  // io_backlog from the dirty spill pages reaches the load signal and its
  // pressure scalar.
  NodeLoadSignal signal = node.load_signal();
  EXPECT_GT(signal.io_backlog, 0);
  NodeLoadSignal quiet = signal;
  quiet.io_backlog = 0;
  EXPECT_GT(signal.Pressure(), quiet.Pressure());

  // Let write-back drain so every page has a durable image, then sweep the
  // high keys so the tiny pool deterministically evicts Key(7)'s page.
  auto* paged = static_cast<PagedEngine*>(node.engine());
  loop.RunFor(2 * kSecond);
  ASSERT_EQ(paged->dirty_page_count(), 0u);
  EXPECT_EQ(node.load_signal().io_backlog, 0);
  for (int i = 200; i < 300; ++i) {
    ASSERT_TRUE(node.engine()->Get(Key(i)).ok());
  }
  node.engine()->TakeAccruedIo();

  // Cold read pays the page fault; an immediately repeated read is served
  // from the now-resident frame.
  int64_t faults_before = paged->metrics().CounterValue("page_faults");
  Time cold_done = 0;
  Time start = loop.Now();
  ReadAtNode(&node, Key(7), RequestPriority::kNormal, [&](Result<Record> result) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->value, ValueOf(7));
    cold_done = loop.Now();
  });
  loop.RunFor(10 * kMillisecond);
  ASSERT_GT(cold_done, start);
  Duration cold_latency = cold_done - start;
  EXPECT_EQ(paged->metrics().CounterValue("page_faults"), faults_before + 1);

  Time warm_done = 0;
  Time warm_start = loop.Now();
  ReadAtNode(&node, Key(7), RequestPriority::kNormal, [&](Result<Record> result) {
    ASSERT_TRUE(result.ok());
    warm_done = loop.Now();
  });
  loop.RunFor(10 * kMillisecond);
  ASSERT_GT(warm_done, warm_start);
  Duration warm_latency = warm_done - warm_start;
  EXPECT_EQ(cold_latency - warm_latency, PagedEngine::kPageReadLatency);
}

TEST(PagedNodeTest, RamEngineNodesReportZeroIoBacklog) {
  EventLoop loop;
  SimNetwork network(&loop, 5);
  ClusterState cluster;
  StorageNode node(1, &loop, &network, &cluster, NodeConfig{}, /*seed=*/9);
  ASSERT_TRUE(node.engine()->Put("a", "1", V(1)).ok());
  EXPECT_EQ(node.engine()->TakeAccruedIo(), 0);
  EXPECT_EQ(node.load_signal().io_backlog, 0);
}

// --------------------------------------------------------- Scan readahead --

// Builds a durable page file (every page written back, no memtable
// leftovers) for a fresh reader engine to scan cold.
size_t BuildDurableFile(EventLoop* loop, PageFile* file, const PagedStorageConfig& config,
                        int records) {
  PagedEngineOptions options;
  options.config = config;
  options.file = file;
  PagedEngine writer(loop, options);
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(writer.Put(Key(i), ValueOf(i), V(10 + i)).ok());
  }
  loop->RunFor(5 * kSecond);
  EXPECT_EQ(writer.dirty_page_count(), 0u);
  size_t durable = 0;
  for (PageId id = 0; id < file->page_count(); ++id) {
    if (!file->Contents(id).empty()) ++durable;
  }
  return durable;
}

TEST(PagedEngineTest, ScanReadaheadHidesSequentialFaultLatency) {
  EventLoop loop;
  PageFile file;
  PagedStorageConfig config = SmallConfig();
  config.buffer_pool_bytes = 256 * 1024;
  config.page_bytes = 1024;
  config.memtable_spill_bytes = 2 * 1024;
  size_t durable = BuildDurableFile(&loop, &file, config, 300);
  ASSERT_GT(durable, 3u);

  auto cold_scan = [&](bool readahead, Duration* io, int64_t* faults,
                       int64_t* prefetched) {
    PagedEngineOptions options;
    options.config = config;
    options.config.scan_readahead = readahead;
    options.file = &file;
    PagedEngine reader(&loop, options);
    std::vector<Record> out = reader.ScanRaw("", "", 0);
    *io = reader.TakeAccruedIo();
    *faults = reader.metrics().CounterValue("page_faults");
    *prefetched = reader.metrics().CounterValue("pages_prefetched");
    return out;
  };

  Duration io_on = 0, io_off = 0;
  int64_t faults_on = 0, faults_off = 0, prefetched_on = 0, prefetched_off = 0;
  std::vector<Record> with = cold_scan(true, &io_on, &faults_on, &prefetched_on);
  std::vector<Record> without = cold_scan(false, &io_off, &faults_off, &prefetched_off);

  // Identical results either way...
  ASSERT_EQ(with.size(), 300u);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].key, without[i].key);
    EXPECT_EQ(with[i].value, without[i].value);
  }
  // ...but readahead pays for only the FIRST fault on the request path:
  // every later page was loaded while its predecessor was being merged.
  EXPECT_EQ(faults_on, 1);
  EXPECT_EQ(prefetched_on, static_cast<int64_t>(durable) - 1);
  EXPECT_EQ(io_on, PagedEngine::kPageReadLatency);
  EXPECT_EQ(faults_off, static_cast<int64_t>(durable));
  EXPECT_EQ(prefetched_off, 0);
  EXPECT_EQ(io_off, static_cast<Duration>(durable) * PagedEngine::kPageReadLatency);
}

TEST(PagedEngineTest, ScanReadaheadSkipsWhenPoolHasNoCleanRoom) {
  EventLoop loop;
  PageFile file;
  PagedStorageConfig config = SmallConfig();
  config.buffer_pool_bytes = 256 * 1024;
  config.page_bytes = 1024;
  config.memtable_spill_bytes = 2 * 1024;
  size_t durable = BuildDurableFile(&loop, &file, config, 300);
  ASSERT_GT(durable, 3u);

  // A pool barely over one page: whenever the pinned current page is large,
  // the prefetch finds no clean victim and must skip — never evicting the
  // pinned page, never forcing a write-back, never overrunning the budget.
  PagedEngineOptions options;
  options.config = config;
  options.config.buffer_pool_bytes = 1200;
  options.file = &file;
  PagedEngine reader(&loop, options);
  std::vector<Record> out = reader.ScanRaw("", "", 0);
  EXPECT_EQ(out.size(), 300u);
  EXPECT_GT(reader.metrics().CounterValue("prefetch_skips"), 0);
  EXPECT_EQ(reader.metrics().CounterValue("budget_overruns"), 0);
  EXPECT_EQ(reader.metrics().CounterValue("forced_writebacks"), 0);
  // Every durable page still came in exactly once per visit — by fault or
  // by prefetch; a skipped prefetch degrades to the ordinary fault cost.
  EXPECT_GE(reader.metrics().CounterValue("page_faults") +
                reader.metrics().CounterValue("pages_prefetched"),
            static_cast<int64_t>(durable));
  EXPECT_GT(reader.metrics().CounterValue("page_faults"), 1);
  EXPECT_LE(reader.pool().resident_bytes(), 1200u);
}

}  // namespace
}  // namespace scads
