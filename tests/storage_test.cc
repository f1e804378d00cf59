// Unit tests for src/storage: arena, memtable, codec, WAL, engine.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "storage/arena.h"
#include "storage/codec.h"
#include "storage/engine.h"
#include "storage/memtable.h"
#include "storage/pagestore/paged_engine.h"
#include "storage/wal.h"

namespace scads {
namespace {

Version V(Time ts, NodeId writer = 0) { return Version{ts, writer}; }

// ------------------------------------------------------------------ Arena --

TEST(ArenaTest, AllocationsAreDistinctAndWritable) {
  Arena arena;
  char* a = arena.Allocate(16);
  char* b = arena.Allocate(16);
  EXPECT_NE(a, b);
  std::fill(a, a + 16, 'x');
  std::fill(b, b + 16, 'y');
  EXPECT_EQ(a[15], 'x');
  EXPECT_EQ(b[0], 'y');
}

TEST(ArenaTest, LargeAllocationsWork) {
  Arena arena;
  char* big = arena.Allocate(1 << 20);
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  EXPECT_GE(arena.MemoryUsage(), static_cast<size_t>(1 << 20));
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena;
  arena.Allocate(3);  // Skew the bump pointer.
  char* p = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(void*), 0u);
}

TEST(ArenaTest, MemoryUsageGrows) {
  Arena arena;
  size_t before = arena.MemoryUsage();
  for (int i = 0; i < 100; ++i) arena.Allocate(100);
  EXPECT_GT(arena.MemoryUsage(), before);
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan the arena keeps every byte it has not handed out poisoned, so
// an overrun past an allocation (say, past an entry's inline key) is
// reported rather than corrupting whatever the arena hands out next.
TEST(ArenaDeathTest, WritePastAnAllocationIsReported) {
  Arena arena;
  volatile char* range = arena.Allocate(13);
  range[12] = 'x';  // the last byte handed out is writable
  EXPECT_DEATH(range[13] = 'x', "use-after-poison");
}
#endif

// --------------------------------------------------------------- MemTable --

TEST(MemTableTest, InsertAndFind) {
  MemTable table;
  bool created = false;
  MemTable::Entry* e = table.FindOrCreate("alpha", &created);
  EXPECT_TRUE(created);
  table.Assign(e, "one", V(10), /*tombstone=*/false);

  const MemTable::Entry* found = table.Find("alpha");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->key(), "alpha");
  EXPECT_EQ(found->value(), "one");
  EXPECT_EQ(found->version(), V(10));
  EXPECT_EQ(table.Find("beta"), nullptr);
}

TEST(MemTableTest, FindOrCreateIsIdempotentOnKey) {
  MemTable table;
  bool created = false;
  table.FindOrCreate("k", &created);
  EXPECT_TRUE(created);
  table.FindOrCreate("k", &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(table.size(), 1u);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable table;
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("key" + std::to_string(rng.Uniform(100000)));
  }
  bool created;
  for (const auto& k : keys) table.FindOrCreate(k, &created);

  std::vector<std::string> seen;
  MemTable::Iterator it(&table);
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.emplace_back(it.key());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(seen, keys);
}

TEST(MemTableTest, SeekFindsFirstAtOrAfter) {
  MemTable table;
  bool created;
  for (const char* k : {"b", "d", "f"}) table.FindOrCreate(k, &created);
  MemTable::Iterator it(&table);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
}

TEST(MemTableTest, EmptyValueSupported) {
  MemTable table;
  bool created;
  MemTable::Entry* e = table.FindOrCreate("k", &created);
  table.Assign(e, "", V(1), /*tombstone=*/false);
  const MemTable::Entry* found = table.Find("k");
  EXPECT_EQ(found->value().size(), 0u);
}

TEST(MemTableTest, ManyKeysStressAgainstStdMap) {
  MemTable table;
  std::map<std::string, std::string> model;
  Rng rng(42);
  bool created;
  for (int i = 0; i < 5000; ++i) {
    std::string k = "u" + std::to_string(rng.Uniform(2000));
    std::string v = "v" + std::to_string(i);
    MemTable::Entry* e = table.FindOrCreate(k, &created);
    table.Assign(e, v, V(i + 1), /*tombstone=*/false);
    model[k] = v;
  }
  EXPECT_EQ(table.size(), model.size());
  for (const auto& [k, v] : model) {
    const MemTable::Entry* e = table.Find(k);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(e->value(), v);
  }
}

// The entry layout's budget: a 32-byte header, one 8-byte leaf slot with its
// 2-byte head, and a share of a leaf's chain pointer, count and skip and of
// the inner nodes come to ~43 B of overhead per key beyond its key and
// value bytes when keys arrive in order (bytes_allocated counts no
// alignment slop).
TEST(MemTableTest, PerEntryOverheadStaysWithin48Bytes) {
  MemTable table;
  constexpr size_t kEntries = 10000;
  bool created;
  for (size_t i = 0; i < kEntries; ++i) {
    char key[17];
    std::snprintf(key, sizeof(key), "key:%012zu", i);
    ASSERT_EQ(std::strlen(key), 16u);
    table.Assign(table.FindOrCreate(key, &created), "value", V(1), /*tombstone=*/false);
  }
  ASSERT_EQ(table.size(), kEntries);
  EXPECT_EQ(table.payload_bytes(), kEntries * (16 + 5));
  double overhead = static_cast<double>(table.bytes_allocated() - table.payload_bytes()) /
                    static_cast<double>(kEntries);
  EXPECT_LE(overhead, 48.0);
}

TEST(MemTableTest, SameSizeOverwritesAllocateNothing) {
  MemTable table;
  bool created;
  MemTable::Entry* entry = table.FindOrCreate("hot", &created);
  table.Assign(entry, std::string(100, 'a'), V(1), /*tombstone=*/false);
  size_t memory = table.memory_usage();
  size_t allocated = table.bytes_allocated();
  for (int i = 0; i < 1000; ++i) {
    table.Assign(entry, std::string(100, static_cast<char>('b' + i % 20)), V(2 + i),
                 /*tombstone=*/false);
  }
  EXPECT_EQ(table.memory_usage(), memory);
  EXPECT_EQ(table.bytes_allocated(), allocated);
  EXPECT_EQ(table.Find("hot")->value(), std::string(100, static_cast<char>('b' + 999 % 20)));
  EXPECT_EQ(table.Find("hot")->version(), V(1001));
}

// A value's range keeps its capacity: a shorter value, a tombstone's empty
// one and any later value that fits all reuse its bytes. Only a value past
// the range takes fresh bytes, a range of the next power of two.
TEST(MemTableTest, OverwritesThatFitReuseTheValueBytes) {
  MemTable table;
  bool created;
  MemTable::Entry* entry = table.FindOrCreate("hot", &created);
  table.Assign(entry, std::string(100, 'a'), V(1), /*tombstone=*/false);
  size_t allocated = table.bytes_allocated();

  table.Assign(entry, "short", V(2), /*tombstone=*/false);
  EXPECT_EQ(table.Find("hot")->value(), "short");
  table.Assign(entry, "", V(3), /*tombstone=*/true);
  EXPECT_TRUE(table.Find("hot")->tombstone());
  EXPECT_EQ(table.bytes_allocated(), allocated);
  EXPECT_EQ(table.payload_bytes(), 3u);

  // Revived with a value that fits the 100-byte range: no fresh bytes.
  table.Assign(entry, "revived", V(4), /*tombstone=*/false);
  EXPECT_EQ(table.bytes_allocated(), allocated);
  EXPECT_EQ(table.Find("hot")->value(), "revived");
  EXPECT_FALSE(table.Find("hot")->tombstone());
  table.Assign(entry, std::string(100, 'b'), V(5), /*tombstone=*/false);
  EXPECT_EQ(table.bytes_allocated(), allocated);

  table.Assign(entry, std::string(101, 'c'), V(6), /*tombstone=*/false);
  EXPECT_EQ(table.bytes_allocated(), allocated + 128);
  EXPECT_EQ(table.Find("hot")->value(), std::string(101, 'c'));
  EXPECT_EQ(table.payload_bytes(), 3u + 101u);
}

// A record rewritten one byte longer each time (an index list gaining an
// id per write) strands its old ranges. Growing by powers of two, they sum
// to less than twice its final size, where exact-size ranges would strand
// about 512 KB on the way to 1,024 bytes.
TEST(MemTableTest, GrowingValueStrandsLessThanTwiceItsFinalSize) {
  MemTable table;
  bool created;
  MemTable::Entry* entry = table.FindOrCreate("list", &created);
  size_t allocated = table.bytes_allocated();
  for (size_t size = 1; size <= 1024; ++size) {
    table.Assign(entry, std::string(size, 'x'), V(static_cast<int64_t>(size)),
                 /*tombstone=*/false);
  }
  EXPECT_EQ(table.Find("list")->value(), std::string(1024, 'x'));
  EXPECT_LT(table.bytes_allocated() - allocated, 3u * 1024u);
}

// Keys that stress the tree's key heads (the bytes past the prefix a
// node's fences share: 2 per leaf slot, 8 per separator): families sharing
// their first 8+ bytes (head ties fall through to full compares), keys
// shorter than 8 bytes, keys holding zero bytes ("ab" and "ab\0" pad to the
// same head), and facade-shaped index keys, "i/fof/" and two
// length-prefixed ordered ints from small ranges, which share 14 or more
// bytes and tie on their heads well past offset 8.
std::vector<std::string> DifferentialKeys(Rng* rng, size_t count) {
  static const char kAlphabet[] = {'\0', '\x01', 'a', 'b', '\x7f', '\xff'};
  std::vector<std::string> keys;
  while (keys.size() < count) {
    switch (rng->Uniform(4)) {
      case 0:
        keys.push_back("shared-prefix/" + std::to_string(rng->Uniform(1000000)));
        break;
      case 1:
        keys.push_back(std::to_string(rng->Uniform(10000000)));  // 1 to 7 bytes
        break;
      case 2: {
        std::string key = "i/fof/";
        AppendKeyPiece(&key, OrderedEncodeInt64(rng->UniformInt(-20, 80)));
        AppendKeyPiece(&key, OrderedEncodeInt64(rng->UniformInt(0, 400)));
        keys.push_back(std::move(key));
        break;
      }
      default: {
        std::string key(1 + rng->Uniform(10), '\0');
        for (char& c : key) c = kAlphabet[rng->Uniform(sizeof(kAlphabet))];
        keys.push_back(std::move(key));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// MemTable against std::map, for random, ascending and descending insert
// orders. A table of two levels holds at most 32 x 32 keys and one of three
// at most 32^3, so the key set (checked to exceed that) reaches at least
// four levels in every order.
TEST(MemTableTest, MatchesStdMapInEveryInsertOrder) {
  for (const char* order : {"random", "ascending", "descending"}) {
    SCOPED_TRACE(order);
    Rng rng(17);
    std::vector<std::string> keys = DifferentialKeys(&rng, 40000);
    if (std::string(order) == "random") rng.Shuffle(&keys);
    if (std::string(order) == "descending") std::reverse(keys.begin(), keys.end());

    MemTable table;
    std::map<std::string, std::string> model;
    size_t payload = 0;
    Time ts = 1;
    for (const std::string& key : keys) {
      // One in four values is empty.
      std::string value = rng.Uniform(4) == 0 ? "" : "v" + std::to_string(ts);
      bool created = false;
      MemTable::Entry* entry = table.FindOrCreate(key, &created);
      ASSERT_TRUE(created);
      table.Assign(entry, value, V(ts++), /*tombstone=*/false);
      model[key] = value;
      payload += key.size() + value.size();
      // Now and then look up an earlier key again: no second entry.
      if (rng.Uniform(8) == 0) {
        const std::string& again = keys[rng.Uniform(model.size())];
        EXPECT_EQ(table.FindOrCreate(again, &created)->key(), again);
        EXPECT_FALSE(created);
      }
    }
    ASSERT_EQ(table.size(), model.size());
    ASSERT_GT(model.size(), 32u * 32 * 32);
    EXPECT_EQ(table.payload_bytes(), payload);

    // Find: every key, and absent keys just after each one.
    for (const auto& [key, value] : model) {
      const MemTable::Entry* entry = table.Find(key);
      ASSERT_NE(entry, nullptr) << key;
      EXPECT_EQ(entry->key(), key);
      EXPECT_EQ(entry->value(), value);
      std::string absent = key + '\0';
      if (model.count(absent) == 0) {
        EXPECT_EQ(table.Find(absent), nullptr) << key;
      }
    }

    // Full iteration visits the model's keys in order.
    MemTable::Iterator it(&table);
    it.SeekToFirst();
    for (const auto& [key, value] : model) {
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.key(), key);
      EXPECT_EQ(it.entry().value(), value);
      it.Next();
    }
    EXPECT_FALSE(it.Valid());

    // Seek at a key, between two keys, and past the last one.
    auto expect_at = [&model](const MemTable::Iterator& at, const std::string& target) {
      auto want = model.lower_bound(target);
      if (want == model.end()) {
        EXPECT_FALSE(at.Valid()) << target;
      } else {
        ASSERT_TRUE(at.Valid()) << target;
        EXPECT_EQ(at.key(), want->first) << target;
      }
    };
    std::vector<std::string> targets;
    for (const auto& entry : model) {
      if (rng.Uniform(16) != 0) continue;
      targets.push_back(entry.first);
      targets.push_back(entry.first + '\0');
      targets.push_back(entry.first.substr(0, entry.first.size() - 1));
    }
    targets.push_back("");
    targets.push_back(model.rbegin()->first + 'x');
    targets.push_back(std::string(12, '\xff'));
    for (const std::string& target : targets) {
      MemTable::Iterator seek(&table);
      seek.Seek(target);
      expect_at(seek, target);
    }

    // SeekForward runs over sorted targets, strides short and long, so runs
    // both stay inside a leaf and cross leaf boundaries.
    for (size_t stride : {1, 3, 29, 70, 1000}) {
      SCOPED_TRACE(stride);
      MemTable::Iterator forward(&table);
      size_t rank = 0;
      for (const auto& entry : model) {
        if (rank++ % stride != 0) continue;
        std::string target = rank % 2 == 0 ? entry.first : entry.first + '\0';
        forward.SeekForward(target);
        expect_at(forward, target);
      }
      forward.SeekForward(std::string(12, '\xff'));
      EXPECT_FALSE(forward.Valid());
    }
  }
}

TEST(MemTableTest, SeekForwardToAnEarlierKeyStaysPut) {
  MemTable table;
  bool created;
  for (int i = 1000; i < 1200; ++i) {
    table.FindOrCreate(std::to_string(i).insert(0, 1, 'k'), &created);
  }
  MemTable::Iterator it(&table);
  it.Seek("k1100");
  it.SeekForward("k1050");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k1100");
}

// Tree nodes hold entry pointers, and splits move pointers, never entries.
TEST(MemTableTest, EntryKeepsItsAddressAcrossLeafSplits) {
  MemTable table;
  bool created;
  MemTable::Entry* pinned = table.FindOrCreate("m/5000", &created);
  table.Assign(pinned, "pinned", V(1), /*tombstone=*/false);
  Rng rng(23);
  // Neighbours on both sides, so the pinned key's leaf splits again and again.
  for (int i = 0; i < 10000; ++i) {
    table.FindOrCreate("m/" + std::to_string(rng.Uniform(10000)) + "/" + std::to_string(i),
                       &created);
  }
  EXPECT_EQ(table.size(), 10001u);
  EXPECT_EQ(table.FindOrCreate("m/5000", &created), pinned);
  EXPECT_FALSE(created);
  EXPECT_EQ(table.Find("m/5000"), pinned);
  EXPECT_EQ(pinned->key(), "m/5000");
  EXPECT_EQ(pinned->value(), "pinned");
}

// ------------------------------------------------------------------ Codec --

TEST(CodecTest, FixedIntsRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  std::string_view in = buf;
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'z'));
  std::string_view in = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodecTest, TruncatedReadsFailCleanly) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  std::string_view in = std::string_view(buf).substr(0, 6);  // cut mid-payload
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
  std::string_view tiny = "ab";
  uint32_t v = 0;
  EXPECT_FALSE(GetFixed32(&tiny, &v));
}

TEST(CodecTest, Crc32cKnownVector) {
  // Standard test vector: "123456789" -> 0xe3069283 under CRC-32C.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_NE(Crc32c("a"), Crc32c("b"));
}

// -------------------------------------------------------------------- WAL --

WalRecord MakePut(const std::string& k, const std::string& v, Time ts) {
  WalRecord r;
  r.type = WalRecord::Type::kPut;
  r.key = k;
  r.value = v;
  r.version = V(ts, 3);
  return r;
}

TEST(WalTest, PayloadRoundTrip) {
  WalRecord r = MakePut("user:1", "alice", 99);
  auto decoded = WalWriter::DecodePayload(WalWriter::EncodePayload(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, r);
}

TEST(WalTest, DeleteRoundTrip) {
  WalRecord r;
  r.type = WalRecord::Type::kDelete;
  r.key = "gone";
  r.version = V(5, 1);
  auto decoded = WalWriter::DecodePayload(WalWriter::EncodePayload(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecord::Type::kDelete);
  EXPECT_EQ(decoded->key, "gone");
}

TEST(WalTest, AppendAndReadBack) {
  MemoryWalSink sink;
  WalWriter writer(&sink);
  std::vector<WalRecord> in;
  for (int i = 0; i < 20; ++i) {
    in.push_back(MakePut("k" + std::to_string(i), "v" + std::to_string(i), 100 + i));
    ASSERT_TRUE(writer.Append(in.back()).ok());
  }
  auto out = ReadWal(sink.Contents());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(WalTest, TornTailIsTolerated) {
  MemoryWalSink sink;
  WalWriter writer(&sink);
  ASSERT_TRUE(writer.Append(MakePut("a", "1", 1)).ok());
  ASSERT_TRUE(writer.Append(MakePut("b", "2", 2)).ok());
  std::string bytes = sink.Contents();
  bytes.resize(bytes.size() - 3);  // torn final frame
  auto out = ReadWal(bytes);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].key, "a");
}

TEST(WalTest, MidstreamCorruptionIsAnError) {
  MemoryWalSink sink;
  WalWriter writer(&sink);
  ASSERT_TRUE(writer.Append(MakePut("a", "1", 1)).ok());
  ASSERT_TRUE(writer.Append(MakePut("b", "2", 2)).ok());
  std::string bytes = sink.Contents();
  bytes[10] ^= 0x40;  // flip a bit in the first record's payload
  auto out = ReadWal(bytes);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST(WalTest, FileSinkRoundTrip) {
  std::string path = testing::TempDir() + "/scads_wal_test.log";
  {
    auto sink = FileWalSink::Create(path);
    ASSERT_TRUE(sink.ok());
    WalWriter writer(sink->get());
    ASSERT_TRUE(writer.Append(MakePut("x", "y", 7)).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  auto out = ReadWalFile(path);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].key, "x");
  std::remove(path.c_str());
}

TEST(WalTest, MemorySinkCountsSyncs) {
  MemoryWalSink sink;
  EXPECT_TRUE(sink.Sync().ok());
  EXPECT_TRUE(sink.Sync().ok());
  EXPECT_EQ(sink.sync_count(), 2);
}

// ----------------------------------------------------------------- Engine --

TEST(EngineTest, PutThenGet) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("user:1", "alice", V(1)).ok());
  auto got = engine.Get("user:1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "alice");
  EXPECT_EQ(got->version, V(1));
  EXPECT_EQ(engine.live_count(), 1u);
}

TEST(EngineTest, GetMissingIsNotFound) {
  StorageEngine engine;
  EXPECT_EQ(engine.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, EmptyKeyRejected) {
  StorageEngine engine;
  EXPECT_EQ(engine.Put("", "v", V(1)).status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, NewerVersionWins) {
  StorageEngine engine;
  EXPECT_TRUE(*engine.Put("k", "old", V(1)));
  EXPECT_TRUE(*engine.Put("k", "new", V(2)));
  EXPECT_EQ(engine.Get("k")->value, "new");
}

TEST(EngineTest, OlderVersionSuperseded) {
  StorageEngine engine;
  EXPECT_TRUE(*engine.Put("k", "new", V(5)));
  EXPECT_FALSE(*engine.Put("k", "stale", V(3)));
  EXPECT_EQ(engine.Get("k")->value, "new");
  EXPECT_EQ(engine.metrics().CounterValue("puts_superseded"), 1);
}

TEST(EngineTest, EqualVersionIsIdempotentNoop) {
  StorageEngine engine;
  EXPECT_TRUE(*engine.Put("k", "v", V(5, 2)));
  EXPECT_FALSE(*engine.Put("k", "v", V(5, 2)));
  EXPECT_EQ(engine.live_count(), 1u);
}

TEST(EngineTest, WriterIdBreaksTimestampTies) {
  StorageEngine engine;
  EXPECT_TRUE(*engine.Put("k", "from1", V(5, 1)));
  EXPECT_TRUE(*engine.Put("k", "from2", V(5, 2)));   // higher writer id wins
  EXPECT_FALSE(*engine.Put("k", "from0", V(5, 0)));  // lower loses
  EXPECT_EQ(engine.Get("k")->value, "from2");
}

TEST(EngineTest, DeleteHidesKey) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v", V(1)).ok());
  EXPECT_TRUE(*engine.Delete("k", V(2)));
  EXPECT_EQ(engine.Get("k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.live_count(), 0u);
  EXPECT_EQ(engine.total_count(), 1u);  // tombstone remains
}

TEST(EngineTest, DeleteLosesToNewerPut) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v2", V(10)).ok());
  EXPECT_FALSE(*engine.Delete("k", V(5)));  // stale delete
  EXPECT_EQ(engine.Get("k")->value, "v2");
}

TEST(EngineTest, PutAfterDeleteRevives) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v1", V(1)).ok());
  ASSERT_TRUE(engine.Delete("k", V(2)).ok());
  EXPECT_TRUE(*engine.Put("k", "v3", V(3)));
  EXPECT_EQ(engine.Get("k")->value, "v3");
  EXPECT_EQ(engine.live_count(), 1u);
}

TEST(EngineTest, GetRawExposesTombstones) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v", V(1)).ok());
  ASSERT_TRUE(engine.Delete("k", V(2)).ok());
  auto raw = engine.GetRaw("k");
  ASSERT_TRUE(raw.has_value());
  EXPECT_TRUE(raw->tombstone);
  EXPECT_EQ(raw->version, V(2));
  EXPECT_FALSE(engine.GetRaw("absent").has_value());
}

TEST(EngineTest, ScanRangeSortedAndBounded) {
  StorageEngine engine;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), std::to_string(i), V(i + 1)).ok());
  }
  auto rows = engine.Scan("k2", "k6", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0].key, "k2");
  EXPECT_EQ((*rows)[3].key, "k5");
}

TEST(EngineTest, ScanRespectsLimit) {
  StorageEngine engine;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), "v", V(i + 1)).ok());
  }
  auto rows = engine.Scan("", "", 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(EngineTest, ScanSkipsTombstones) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("a", "1", V(1)).ok());
  ASSERT_TRUE(engine.Put("b", "2", V(1)).ok());
  ASSERT_TRUE(engine.Delete("a", V(2)).ok());
  auto rows = engine.Scan("", "", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].key, "b");
}

TEST(EngineTest, ScanStartAfterEndRejected) {
  StorageEngine engine;
  EXPECT_EQ(engine.Scan("z", "a", 0).status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ScanUnboundedEnd) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("a", "1", V(1)).ok());
  ASSERT_TRUE(engine.Put("z", "26", V(1)).ok());
  auto rows = engine.Scan("b", "", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].key, "z");
}

TEST(EngineTest, WalLogsEveryMutation) {
  MemoryWalSink sink;
  EngineOptions options;
  options.wal = &sink;
  StorageEngine engine(options);
  ASSERT_TRUE(engine.Put("a", "1", V(1)).ok());
  ASSERT_TRUE(engine.Delete("a", V(2)).ok());
  auto records = ReadWal(sink.Contents());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, WalRecord::Type::kPut);
  EXPECT_EQ((*records)[1].type, WalRecord::Type::kDelete);
}

TEST(EngineTest, RecoveryRebuildsExactState) {
  MemoryWalSink sink;
  EngineOptions options;
  options.wal = &sink;
  {
    StorageEngine engine(options);
    ASSERT_TRUE(engine.Put("a", "1", V(1)).ok());
    ASSERT_TRUE(engine.Put("b", "2", V(2)).ok());
    ASSERT_TRUE(engine.Delete("a", V(3)).ok());
    ASSERT_TRUE(engine.Put("b", "2b", V(4)).ok());
  }
  auto records = ReadWal(sink.Contents());
  ASSERT_TRUE(records.ok());
  auto recovered = StorageEngine::Recover(EngineOptions{}, *records);
  ASSERT_TRUE(recovered.ok());
  StorageEngine& engine = **recovered;
  EXPECT_EQ(engine.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Get("b")->value, "2b");
  EXPECT_EQ(engine.live_count(), 1u);
}

TEST(EngineTest, RecoveryIsIdempotentUnderDuplicateRecords) {
  MemoryWalSink sink;
  EngineOptions options;
  options.wal = &sink;
  {
    StorageEngine engine(options);
    ASSERT_TRUE(engine.Put("k", "v", V(9)).ok());
  }
  auto records = ReadWal(sink.Contents());
  ASSERT_TRUE(records.ok());
  std::vector<WalRecord> doubled = *records;
  doubled.insert(doubled.end(), records->begin(), records->end());
  auto recovered = StorageEngine::Recover(EngineOptions{}, doubled);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Get("k")->value, "v");
  EXPECT_EQ((*recovered)->live_count(), 1u);
}

TEST(EngineTest, ScanLimitAtRangeBoundaries) {
  StorageEngine engine;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), std::to_string(i), V(i + 1)).ok());
  }
  // Limit exactly equal to the rows in range behaves like unlimited.
  auto exact = engine.Scan("k2", "k6", 4);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->size(), 4u);
  EXPECT_EQ((*exact)[0].key, "k2");
  EXPECT_EQ((*exact)[3].key, "k5");
  // Limit larger than the range must not read past the end bound.
  auto over = engine.Scan("k2", "k6", 100);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->size(), 4u);
  // Limit smaller than the range stops early, in order.
  auto under = engine.Scan("k2", "k6", 3);
  ASSERT_TRUE(under.ok());
  ASSERT_EQ(under->size(), 3u);
  EXPECT_EQ((*under)[2].key, "k4");
  // Start exactly at an existing key with limit 1 returns that key.
  auto head = engine.Scan("k7", "", 1);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head->size(), 1u);
  EXPECT_EQ((*head)[0].key, "k7");
}

TEST(EngineTest, ScanLimitCountsOnlyLiveRows) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("a", "1", V(1)).ok());
  ASSERT_TRUE(engine.Put("b", "2", V(1)).ok());
  ASSERT_TRUE(engine.Put("c", "3", V(1)).ok());
  ASSERT_TRUE(engine.Delete("b", V(2)).ok());
  // The tombstone must not consume a limit slot: limit 2 still reaches "c".
  auto rows = engine.Scan("", "", 2);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].key, "a");
  EXPECT_EQ((*rows)[1].key, "c");
}

TEST(EngineTest, PurgeTombstonesKeepsLiveAndTotalCounts) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("a", "1", V(10)).ok());
  ASSERT_TRUE(engine.Put("b", "2", V(10)).ok());
  ASSERT_TRUE(engine.Delete("a", V(20)).ok());
  EXPECT_EQ(engine.live_count(), 1u);
  EXPECT_EQ(engine.total_count(), 2u);
  // Purging drops the version floor but the ghost stays in the memtable
  // until memtable rotation: counts must not change.
  EXPECT_EQ(engine.PurgeTombstonesBefore(100), 1u);
  EXPECT_EQ(engine.live_count(), 1u);
  EXPECT_EQ(engine.total_count(), 2u);
  // A purge is idempotent: the ghost must not be recounted.
  EXPECT_EQ(engine.PurgeTombstonesBefore(100), 0u);
  // Reviving the key restores live accounting without growing the table.
  EXPECT_TRUE(*engine.Put("a", "back", V(5)));
  EXPECT_EQ(engine.live_count(), 2u);
  EXPECT_EQ(engine.total_count(), 2u);
}

TEST(EngineTest, PurgeTombstonesResetsVersionFloor) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v", V(100)).ok());
  ASSERT_TRUE(engine.Delete("k", V(200)).ok());
  EXPECT_EQ(engine.PurgeTombstonesBefore(150), 0u);  // too new
  EXPECT_EQ(engine.PurgeTombstonesBefore(300), 1u);
  // After purge, even an "old" write may land again (documented hazard).
  EXPECT_TRUE(*engine.Put("k", "back", V(50)));
  EXPECT_EQ(engine.Get("k")->value, "back");
}

TEST(EngineTest, MetricsCountOperations) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Put("k", "v", V(1)).ok());
  (void)engine.Get("k");
  (void)engine.Get("missing");
  (void)engine.Scan("", "", 0);
  EXPECT_EQ(engine.metrics().CounterValue("puts"), 1);
  EXPECT_EQ(engine.metrics().CounterValue("gets"), 2);
  EXPECT_EQ(engine.metrics().CounterValue("get_misses"), 1);
  EXPECT_EQ(engine.metrics().CounterValue("scans"), 1);
}

TEST(EngineTest, LargeValueRoundTrip) {
  StorageEngine engine;
  std::string big(1 << 18, 'q');
  ASSERT_TRUE(engine.Put("big", big, V(1)).ok());
  EXPECT_EQ(engine.Get("big")->value, big);
}

// Key lengths are 32-bit all the way down: a key past 65,535 bytes must come
// back whole from both engines' point and range reads.
void ExpectLongKeyRoundTrips(EngineInterface* engine) {
  std::string long_key = "m" + std::string(70000, 'k');
  ASSERT_TRUE(engine->Put("a", "before", V(1)).ok());
  ASSERT_TRUE(engine->Put(long_key, "long", V(2)).ok());
  ASSERT_TRUE(engine->Put("z", "after", V(3)).ok());

  Result<Record> got = engine->Get(long_key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->key, long_key);
  EXPECT_EQ(got->value, "long");
  // A 16-bit length would have kept only the first size % 65,536 bytes.
  EXPECT_FALSE(engine->Get(long_key.substr(0, long_key.size() % 65536)).ok());

  Result<std::vector<Record>> rows = engine->Scan("", "", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].key, "a");
  EXPECT_EQ((*rows)[1].key, long_key);
  EXPECT_EQ((*rows)[1].value, "long");
  EXPECT_EQ((*rows)[2].key, "z");
}

TEST(EngineTest, KeyLongerThan64KiBRoundTrips) {
  StorageEngine ram;
  ExpectLongKeyRoundTrips(&ram);

  EventLoop loop;
  PagedEngine paged(&loop, PagedEngineOptions{});
  ExpectLongKeyRoundTrips(&paged);

  // A 4 KiB memtable spills the long key into the page tier on its Put.
  PagedEngineOptions spilling;
  spilling.config.memtable_spill_bytes = 4 * 1024;
  PagedEngine spilled(&loop, spilling);
  ExpectLongKeyRoundTrips(&spilled);
  EXPECT_GT(spilled.metrics().CounterValue("spills"), 0);
}

// Property sweep: engine state must match a model map under random
// interleavings of put/delete with random versions, for several seeds.
class EngineModelTest : public testing::TestWithParam<uint64_t> {};

TEST_P(EngineModelTest, MatchesModelUnderRandomOps) {
  StorageEngine engine;
  struct ModelEntry {
    std::string value;
    Version version;
    bool tombstone;
  };
  std::map<std::string, ModelEntry> model;
  Rng rng(GetParam());
  for (int i = 0; i < 4000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    Version version = V(static_cast<Time>(rng.Uniform(1000)), static_cast<NodeId>(rng.Uniform(4)));
    bool is_delete = rng.Bernoulli(0.25);
    auto it = model.find(key);
    bool newer = it == model.end() || version > it->second.version;
    if (is_delete) {
      bool applied = *engine.Delete(key, version);
      EXPECT_EQ(applied, newer);
      if (newer) model[key] = ModelEntry{"", version, true};
    } else {
      std::string value = "v" + std::to_string(i);
      bool applied = *engine.Put(key, value, version);
      EXPECT_EQ(applied, newer);
      if (newer) model[key] = ModelEntry{value, version, false};
    }
  }
  // Full comparison via scan.
  auto rows = engine.Scan("", "", 0);
  ASSERT_TRUE(rows.ok());
  std::map<std::string, std::string> live_model;
  for (const auto& [k, e] : model) {
    if (!e.tombstone) live_model[k] = e.value;
  }
  ASSERT_EQ(rows->size(), live_model.size());
  for (const auto& row : *rows) {
    ASSERT_TRUE(live_model.count(row.key)) << row.key;
    EXPECT_EQ(live_model[row.key], row.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineModelTest, testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace scads
