// MICRO: google-benchmark microbenchmarks for the hot substrate paths —
// storage engine point ops and scans, the memtable, the read cache's
// write-through, WAL framing, histogram recording, RNG draws, and
// event-loop dispatch. These run on wall-clock
// time (no simulation) and justify the service-time constants used by the
// simulator's node model.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/read_cache.h"
#include "common/benchjson.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sim/event_loop.h"
#include "storage/codec.h"
#include "storage/engine.h"
#include "storage/memtable.h"
#include "storage/wal.h"

namespace scads {
namespace {

std::string KeyOf(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user:%012llu", static_cast<unsigned long long>(i));
  return buf;
}

// Memtable bytes reserved per entry (arena blocks over key count): the
// per-entry overhead a node pays on top of its keys and values.
double BytesPerEntry(size_t memory_usage, size_t entries) {
  return entries == 0 ? 0.0 : static_cast<double>(memory_usage) / static_cast<double>(entries);
}

void BM_EnginePut(benchmark::State& state) {
  StorageEngine engine;
  Rng rng(1);
  Time ts = 1;
  for (auto _ : state) {
    std::string key = KeyOf(rng.Uniform(100000));
    benchmark::DoNotOptimize(engine.Put(key, "value-payload-64-bytes.....", Version{ts++, 0}));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_entry"] = BytesPerEntry(engine.memory_usage(), engine.total_count());
}
BENCHMARK(BM_EnginePut);

void BM_EngineGetHit(benchmark::State& state) {
  StorageEngine engine;
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)engine.Put(KeyOf(i), "value", Version{static_cast<Time>(i + 1), 0});
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(KeyOf(rng.Uniform(100000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineGetHit);

void BM_EngineGetMiss(benchmark::State& state) {
  StorageEngine engine;
  for (uint64_t i = 0; i < 10000; ++i) {
    (void)engine.Put(KeyOf(i), "value", Version{static_cast<Time>(i + 1), 0});
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(KeyOf(1000000 + rng.Uniform(100000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineGetMiss);

void BM_EngineScan(benchmark::State& state) {
  StorageEngine engine;
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)engine.Put(KeyOf(i), "value", Version{static_cast<Time>(i + 1), 0});
  }
  Rng rng(4);
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::string start = KeyOf(rng.Uniform(90000));
    benchmark::DoNotOptimize(engine.Scan(start, "", rows));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_MemTableInsert(benchmark::State& state) {
  MemTable table;
  Rng rng(5);
  bool created;
  for (auto _ : state) {
    MemTable::Entry* entry = table.FindOrCreate(KeyOf(rng.Next()), &created);
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_entry"] = BytesPerEntry(table.memory_usage(), table.size());
}
BENCHMARK(BM_MemTableInsert);

// One perfbench kv_rw node's share of the data: 250,000 keys at rf 3 over 4
// nodes, each key a 2-byte hash of its id then "/k<id>", with 100 B values.
// Loading ids in order inserts in random key order, so entries land in the
// arena in an order unrelated to the tree's (BM_EngineGetHit's sequential
// load lays them out in key order and hides that cost).
constexpr int64_t kKvRwNodeKeys = 187500;

std::vector<std::string> KvRwNodeKeys() {
  std::vector<std::string> keys;
  keys.reserve(kKvRwNodeKeys);
  for (int64_t id = 0; id < kKvRwNodeKeys; ++id) {
    uint32_t h = static_cast<uint32_t>(id) * 2654435761u;
    std::string key;
    key.push_back(static_cast<char>(h >> 24));
    key.push_back(static_cast<char>(h >> 16));
    keys.push_back(key + "/k" + std::to_string(id));
  }
  return keys;
}

// ns per insert is 1e9 / items_per_second.
void BM_EngineLoadRandomOrder(benchmark::State& state) {
  const std::vector<std::string> keys = KvRwNodeKeys();
  const std::string value(100, 'v');
  size_t memory = 0;
  for (auto _ : state) {
    StorageEngine engine;
    Time ts = 1;
    for (const std::string& key : keys) (void)engine.Put(key, value, Version{ts++, 0});
    memory = engine.memory_usage();
  }
  state.SetItemsProcessed(state.iterations() * kKvRwNodeKeys);
  state.counters["bytes_per_entry"] = BytesPerEntry(memory, keys.size());
}
BENCHMARK(BM_EngineLoadRandomOrder)->Unit(benchmark::kMillisecond);

void BM_EngineGetHitRandomOrder(benchmark::State& state) {
  const std::vector<std::string> keys = KvRwNodeKeys();
  const std::string value(100, 'v');
  StorageEngine engine;
  Time ts = 1;
  for (const std::string& key : keys) (void)engine.Put(key, value, Version{ts++, 0});
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(keys[rng.Uniform(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineGetHitRandomOrder);

// Facade-shaped index keys, as the Scads facade lays out a two-column
// index: "i/fof/" then two length-prefixed ordered ints, here 750 x 250 of
// them (a kv_rw node's share again), shuffled. Every key shares its first
// 17 bytes, and neighbours share far more, so heads taken at a fixed
// offset would tie on nearly every compare.
std::vector<std::string> FacadeKeys() {
  std::vector<std::string> keys;
  keys.reserve(kKvRwNodeKeys);
  for (int64_t user = 0; user < 750; ++user) {
    for (int64_t friend_id = 0; friend_id < 250; ++friend_id) {
      std::string key = "i/fof/";
      AppendKeyPiece(&key, OrderedEncodeInt64(user));
      AppendKeyPiece(&key, OrderedEncodeInt64(friend_id));
      keys.push_back(std::move(key));
    }
  }
  Rng rng(9);
  rng.Shuffle(&keys);
  return keys;
}

void BM_EngineLoadFacadeKeys(benchmark::State& state) {
  const std::vector<std::string> keys = FacadeKeys();
  const std::string value(100, 'v');
  for (auto _ : state) {
    StorageEngine engine;
    Time ts = 1;
    for (const std::string& key : keys) (void)engine.Put(key, value, Version{ts++, 0});
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_EngineLoadFacadeKeys)->Unit(benchmark::kMillisecond);

void BM_EngineGetHitFacadeKeys(benchmark::State& state) {
  const std::vector<std::string> keys = FacadeKeys();
  const std::string value(100, 'v');
  StorageEngine engine;
  Time ts = 1;
  for (const std::string& key : keys) (void)engine.Put(key, value, Version{ts++, 0});
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(keys[rng.Uniform(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineGetHitFacadeKeys);

// The router's write-through during kv_rw's bulk load: an 8 MiB, 8-shard
// point cache (the CacheDirectory default) refreshed with 100 B values
// under all 250,000 kv_rw keys in turn. The cache holds about 48,000 such
// entries and is filled with twice that first, so every timed insert is a
// new key that evicts one.
void BM_ReadCacheWriteThroughChurn(benchmark::State& state) {
  std::vector<std::string> keys;
  for (uint32_t id = 0; id < 250000; ++id) {
    uint32_t h = id * 2654435761u;
    std::string key;
    key.push_back(static_cast<char>(h >> 24));
    key.push_back(static_cast<char>(h >> 16));
    keys.push_back(key + "/k" + std::to_string(id));
  }
  const std::string value(100, 'v');
  ReadCache cache(8u << 20, 8);
  Time ts = 1;
  size_t next = 0;
  for (; next < 100000; ++next, ++ts) cache.Insert(keys[next], value, Version{ts, 0}, ts);
  for (auto _ : state) {
    cache.Insert(keys[next++ % keys.size()], value, Version{ts, 0}, ts);
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCacheWriteThroughChurn);

void BM_WalAppend(benchmark::State& state) {
  MemoryWalSink sink;
  WalWriter writer(&sink);
  WalRecord record;
  record.key = "user:000000001234";
  record.value = std::string(64, 'v');
  record.version = Version{1, 0};
  for (auto _ : state) {
    record.version.timestamp++;
    benchmark::DoNotOptimize(writer.Append(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(record.key.size() + record.value.size()));
}
BENCHMARK(BM_WalAppend);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_HistogramRecord(benchmark::State& state) {
  LogHistogram histogram;
  Rng rng(6);
  for (auto _ : state) {
    histogram.Record(static_cast<int64_t>(rng.Exponential(10000)));
  }
  benchmark::DoNotOptimize(histogram.ValueAtQuantile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(1000000, 0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngZipf);

void BM_EventLoopDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    EventLoop loop;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAt(i, [&counter] { ++counter; });
    }
    state.ResumeTiming();
    loop.RunAll();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopDispatch);

// benchmark <= 1.7 reports failures via Run::error_occurred; 1.8+ replaced
// it with Run::skipped. Probe the member in a dependent context so both
// versions compile.
template <typename RunT>
bool RunWasSkipped(const RunT& run) {
  if constexpr (requires { run.skipped; }) {
    return static_cast<bool>(run.skipped);
  } else {
    return run.error_occurred;
  }
}

// Console output as usual, plus each run collected into BENCH_micro_engine
// .json so CI can diff the substrate microbenchmarks like every other
// bench. These are wall-clock timings (the only non-simulated bench), so
// the CI regression gate treats them as informational, not gated.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(BenchJson* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (RunWasSkipped(run)) continue;
      json_->BeginRow(run.benchmark_name());
      json_->Add("real_time_per_iter_ns", run.GetAdjustedRealTime());
      json_->Add("cpu_time_per_iter_ns", run.GetAdjustedCPUTime());
      json_->Add("iterations", static_cast<int64_t>(run.iterations));
      for (const char* counter : {"items_per_second", "bytes_per_second", "bytes_per_entry"}) {
        auto it = run.counters.find(counter);
        if (it != run.counters.end()) json_->Add(counter, static_cast<double>(it->second));
      }
    }
  }

 private:
  BenchJson* json_;
};

}  // namespace
}  // namespace scads

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  scads::BenchJson json("micro_engine");
  scads::JsonExportReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  (void)json.Write();
  return 0;
}
