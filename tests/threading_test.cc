// Threaded-runtime tests: the ThreadedRuntime backend itself (ordering,
// timers, worker affinity) and the data plane under real concurrency —
// N writer / M reader storms, concurrent MultiGet fan-outs, a coalescer
// storm, and window harvesting while load runs. The core safety claim
// throughout: an acked write is never lost — a later pinned-primary read
// observes it (or something newer from the same single-writer sequence).
//
// Everything here runs on wall-clock time, so assertions are about
// ordering and final state, never about latency values.

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/coalescer.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "common/request_options.h"
#include "common/rng.h"
#include "core/scads_client.h"
#include "gtest/gtest.h"
#include "runtime/threaded_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

// ------------------------------------------------------- runtime basics --

TEST(ThreadedRuntimeTest, DeliveriesToOneDestinationRunInOrder) {
  ThreadedRuntime runtime;
  runtime.RegisterDestination(7);
  constexpr int kMessages = 2000;
  std::vector<int> order;
  std::atomic<int> delivered{0};
  for (int i = 0; i < kMessages; ++i) {
    runtime.Send(100, 7, [&order, &delivered, i] {
      order.push_back(i);  // single-worker destination: no race
      delivered.fetch_add(1, std::memory_order_release);
    });
  }
  while (delivered.load(std::memory_order_acquire) < kMessages) {
    std::this_thread::yield();
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(order[i], i);
  runtime.Shutdown();
}

TEST(ThreadedRuntimeTest, RegisteredDestinationsKeepOneWorker) {
  ThreadedRuntime runtime;
  runtime.RegisterDestination(1, /*worker=*/0);
  runtime.RegisterDestination(2, /*worker=*/1);
  EXPECT_EQ(runtime.WorkerOf(1), 0);
  EXPECT_EQ(runtime.WorkerOf(2), 1 % runtime.worker_count());
  // Unregistered ids hash to a stable worker.
  EXPECT_EQ(runtime.WorkerOf(999), runtime.WorkerOf(999));
  runtime.Shutdown();
}

TEST(ThreadedRuntimeTest, TimersFireAndCancelWins) {
  ThreadedRuntime runtime;
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  runtime.ScheduleAfter(2 * kMillisecond, [&] { fired = true; });
  Executor::TaskId doomed =
      runtime.ScheduleAfter(50 * kMillisecond, [&] { cancelled_fired = true; });
  EXPECT_TRUE(runtime.Cancel(doomed));
  EXPECT_FALSE(runtime.Cancel(doomed));  // second cancel: already gone
  for (int i = 0; i < 2000 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_FALSE(cancelled_fired.load());
  runtime.Shutdown();
}

TEST(ThreadedRuntimeTest, PeriodicRepeatsUntilCancelled) {
  ThreadedRuntime runtime;
  std::atomic<int> ticks{0};
  Executor::TaskId id = runtime.SchedulePeriodic(kMillisecond, [&] { ticks.fetch_add(1); });
  for (int i = 0; i < 5000 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ticks.load(), 3);
  EXPECT_TRUE(runtime.Cancel(id));
  int after_cancel = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // At most one firing can race the cancel; the chain must be dead.
  EXPECT_LE(ticks.load(), after_cancel + 1);
  runtime.Shutdown();
}

TEST(ThreadedRuntimeTest, WorkerCallbacksStayOnTheirWorker) {
  ThreadedRuntime runtime;
  runtime.RegisterDestination(5, /*worker=*/0);
  std::atomic<bool> done{false};
  std::thread::id first, second;
  runtime.Send(1, 5, [&] {
    first = std::this_thread::get_id();
    // A timer armed from a worker must fire on that same worker.
    runtime.ScheduleAfter(kMillisecond, [&] {
      second = std::this_thread::get_id();
      done = true;
    });
  });
  for (int i = 0; i < 5000 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load());
  EXPECT_EQ(first, second);
  runtime.Shutdown();
}

// ----------------------------------------------------- cluster fixture --

constexpr NodeId kClient = 1000;

// A real-threads cluster: nodes and a router on a ThreadedRuntime, data
// plane driven through ScadsClient's blocking helpers from test threads.
struct ThreadedCluster {
  ThreadedRuntime runtime;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  explicit ThreadedCluster(int node_count, int replication_factor,
                           NodeConfig node_config = NodeConfig{},
                           RouterConfig router_config = RouterConfig{}) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      runtime.RegisterDestination(i);
      auto node = std::make_unique<StorageNode>(i, &runtime, &runtime, &cluster, node_config,
                                                1000 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::CreateUniform(node_count * 4, ids, replication_factor);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &runtime, &runtime, &cluster, router_config, 99);
  }

  ~ThreadedCluster() {
    // Quiesce the workers before any member dies: queued closures capture
    // raw node/router pointers.
    runtime.Shutdown();
  }

  ScadsClient client() { return ScadsClient(router.get()); }
};

std::string Key(int writer, int i) {
  // 2-byte spread prefix (as the benches use) so writers stripe across
  // partitions instead of all landing in one range.
  uint32_t h = static_cast<uint32_t>(writer * 7919 + i) * 2654435761u;
  std::string key;
  key.push_back(static_cast<char>('a' + (h >> 28) % 16));
  key.push_back(static_cast<char>('a' + (h >> 24) % 16));
  return key + "/w" + std::to_string(writer);
}

// ----------------------------------------------- acked writes never lost --

TEST(ThreadedDataPlaneTest, AckedWritesSurviveWriterReaderStorm) {
  ThreadedCluster tc(4, 2);
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 120;

  // writer w rewrites its own key with increasing sequence numbers; the
  // last acked sequence is the write the storm must not lose.
  std::vector<int> last_acked(kWriters, -1);
  std::atomic<bool> stop_readers{false};
  std::atomic<int64_t> torn_reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ScadsClient client = tc.client();
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Status s = client.PutSync(Key(w, 0), std::to_string(i), AckMode::kPrimary);
        if (s.ok()) last_acked[w] = i;  // this thread is the only writer of w
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ScadsClient client = tc.client();
      int w = r % kWriters;
      while (!stop_readers.load(std::memory_order_acquire)) {
        Result<Record> got = client.GetSync(Key(w, 0));
        if (got.ok()) {
          // Values are whole sequence numbers: a torn/interleaved value
          // would fail to parse back to itself.
          const std::string& v = got->value;
          if (v.empty() || v != std::to_string(std::stoi(v))) torn_reads.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop_readers.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(torn_reads.load(), 0);
  ScadsClient client = tc.client();
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_GE(last_acked[w], 0) << "writer " << w << " never got an ack";
    Result<Record> final_read = client.GetSync(Key(w, 0), RequestOptions::PrimaryOnly());
    ASSERT_TRUE(final_read.ok()) << final_read.status().message();
    // The single-writer sequence means the newest version IS the last
    // acked write; anything older is a lost ack.
    EXPECT_EQ(final_read->value, std::to_string(last_acked[w]))
        << "writer " << w << " lost its acked write";
  }
}

// ------------------------------------------------ concurrent MultiGets --

TEST(ThreadedDataPlaneTest, ConcurrentMultiGetFanOutsSeeAckedValues) {
  ThreadedCluster tc(4, 1);
  ScadsClient loader = tc.client();
  constexpr int kKeys = 64;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(Key(i, i));
    ASSERT_TRUE(loader.PutSync(keys.back(), "v" + std::to_string(i)).ok());
  }

  constexpr int kThreads = 6;
  constexpr int kRoundsPerThread = 40;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScadsClient client = tc.client();
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        // Random slice, preserving duplicates' semantics: results align
        // 1:1 with the requested keys.
        std::vector<std::string> batch;
        std::vector<int> idx;
        for (int j = 0; j < 12; ++j) {
          int i = static_cast<int>(rng.Uniform(kKeys));
          idx.push_back(i);
          batch.push_back(keys[i]);
        }
        std::vector<Result<Record>> results = client.MultiGetSync(batch);
        if (results.size() != batch.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < results.size(); ++j) {
          if (!results[j].ok() || results[j]->value != "v" + std::to_string(idx[j])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --------------------------------------------------- coalescer storm --

TEST(ThreadedDataPlaneTest, CoalescerStormServesEveryReaderTheRightValue) {
  ThreadedCluster tc(2, 1);
  CoalescerConfig coalescer_config;
  coalescer_config.enabled = true;
  coalescer_config.window = 200;  // us — wide enough for real overlap
  ReadCoalescer coalescer(&tc.runtime, &tc.runtime, &tc.cluster, coalescer_config);
  tc.router->set_coalescer(&coalescer);

  ScadsClient loader = tc.client();
  ASSERT_TRUE(loader.PutSync("hot/key", "celebrity").ok());
  ASSERT_TRUE(loader.PutSync("warm/key", "sidekick").ok());

  constexpr int kThreads = 6;
  constexpr int kReadsPerThread = 150;
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScadsClient client = tc.client();
      for (int i = 0; i < kReadsPerThread; ++i) {
        const bool hot = (i % 4) != 0;  // skewed: mostly one hot key
        Result<Record> got = client.GetSync(hot ? "hot/key" : "warm/key");
        if (!got.ok() || got->value != (hot ? "celebrity" : "sidekick")) {
          wrong.fetch_add(1);
        }
        (void)t;
      }
    });
  }
  for (auto& t : threads) t.join();
  tc.router->set_coalescer(nullptr);  // detach before the coalescer dies

  EXPECT_EQ(wrong.load(), 0);
  // Every read was accounted: led its key, joined a leader, or bypassed
  // (kPrimaryOnly/ineligible reads never enter — these were all eligible).
  const CoalescerStats& stats = coalescer.stats();
  EXPECT_EQ(stats.leader_reads + stats.follower_joins,
            static_cast<int64_t>(kThreads) * kReadsPerThread);
}

// ------------------------------------------- window harvest under load --

TEST(ThreadedDataPlaneTest, TakeWindowWhileLoadedLosesNoCounts) {
  ThreadedCluster tc(3, 1);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;

  std::atomic<bool> harvesting{true};
  RouterWindow harvested;
  std::thread harvester([&] {
    while (harvesting.load(std::memory_order_acquire)) {
      harvested.MergeFrom(tc.router->TakeWindow());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> threads;
  std::atomic<int64_t> acked{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScadsClient client = tc.client();
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (client.PutSync(Key(t, i), "x").ok()) acked.fetch_add(1);
        (void)client.GetSync(Key(t, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  harvesting.store(false, std::memory_order_release);
  harvester.join();
  harvested.MergeFrom(tc.router->TakeWindow());

  // Every op landed in exactly one harvested window: totals add up.
  EXPECT_EQ(harvested.writes_ok + harvested.writes_failed,
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(harvested.reads_ok + harvested.reads_failed,
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(harvested.writes_ok, acked.load());
}

// --------------------------------------------- shared cache under storm --

// N writers bump per-key sequence numbers through cache-attached routers
// while M readers hammer the same keys through *other* routers sharing the
// one CacheDirectory — the deployment shape of the threaded cache. Checked
// invariants:
//   * ack ordering (the teeth behind the staleness bound): the write hooks
//     run before the ack callback, so once PutSync(seq) has returned, no
//     read that *starts* later may observe seq-1 — with no slack at all;
//   * session floor: a default read carrying min_version = v (learned from
//     a pinned-primary read) never yields an older version — a cached
//     predecessor must be bypassed, not served;
//   * counter conservation: every eligible lookup lands in exactly one of
//     hits/misses/stale_rejects/version_bypasses across all routers, and
//     RouterWindow totals survive a concurrent TakeWindow harvest.
void RunSharedCacheStorm(CacheWriteMode write_mode) {
  ThreadedCluster tc(4, 1);  // rf=1: storage reads are primary-fresh, so a
                             // stale observation can only come from the cache
  MetricRegistry metrics;
  CacheConfig config;
  config.enabled = true;
  config.write_mode = write_mode;
  CacheDirectory cache(config, /*staleness_bound=*/0, &metrics);

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kKeys = 6;
  constexpr int kSeqsPerKey = 40;

  auto cache_key = [](int k) { return Key(k, 0); };

  // acked_at[k][s] = wall time PutSync(std::to_string(s)) returned; 0 = not
  // acked yet. Written by the key's single writer, read by every reader.
  std::vector<std::array<std::atomic<Time>, kSeqsPerKey>> acked_at(kKeys);
  for (auto& per_key : acked_at) {
    for (auto& at : per_key) at.store(0);
  }

  // Every storm participant gets its own Router; all share `cache`.
  std::vector<std::unique_ptr<Router>> routers;
  for (int i = 0; i < kWriters + kReaders; ++i) {
    routers.push_back(std::make_unique<Router>(kClient + 1 + i, &tc.runtime, &tc.runtime,
                                               &tc.cluster, RouterConfig{},
                                               500 + static_cast<uint64_t>(i)));
    routers.back()->set_cache(&cache);
  }

  // Preload seq 0 so readers never see NotFound.
  {
    ScadsClient loader(routers[0].get());
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(loader.PutSync(cache_key(k), "0").ok());
      acked_at[k][0].store(tc.runtime.clock()->Now());
    }
  }

  std::atomic<bool> writers_done{false};
  std::atomic<int64_t> eligible_reads{0};  // default-mode Gets: one LookupPoint each
  std::atomic<int64_t> reads_issued{0};    // all Gets, pinned probes included
  std::atomic<int64_t> writes_issued{0};
  std::atomic<int64_t> stale_violations{0};
  std::atomic<int64_t> floor_violations{0};
  std::atomic<int64_t> read_failures{0};

  // Harvest all storm routers concurrently; totals must still conserve.
  std::atomic<bool> harvesting{true};
  RouterWindow harvested;
  std::thread harvester([&] {
    while (harvesting.load(std::memory_order_acquire)) {
      for (auto& r : routers) harvested.MergeFrom(r->TakeWindow());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ScadsClient client(routers[w].get());
      for (int s = 1; s < kSeqsPerKey; ++s) {
        for (int k = w; k < kKeys; k += kWriters) {  // single writer per key
          writes_issued.fetch_add(1);
          if (client.PutSync(cache_key(k), std::to_string(s)).ok()) {
            acked_at[k][s].store(tc.runtime.clock()->Now());
          }
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ScadsClient client(routers[kWriters + r].get());
      Rng rng(9000 + static_cast<uint64_t>(r));
      int iter = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        if (++iter % 8 == 0) {
          // Session-floor probe: pin to the primary for the newest version,
          // then demand at least that version on the cache-eligible path.
          reads_issued.fetch_add(1);
          Result<Record> pinned = client.GetSync(cache_key(k), RequestOptions::PrimaryOnly());
          if (!pinned.ok()) {
            read_failures.fetch_add(1);
            continue;
          }
          RequestOptions floored;
          floored.min_version = pinned->version;
          reads_issued.fetch_add(1);
          eligible_reads.fetch_add(1);
          Result<Record> got = client.GetSync(cache_key(k), floored);
          if (!got.ok()) {
            read_failures.fetch_add(1);
          } else if (got->version < pinned->version) {
            floor_violations.fetch_add(1);
          }
        } else {
          Time start = tc.runtime.clock()->Now();
          reads_issued.fetch_add(1);
          eligible_reads.fetch_add(1);
          Result<Record> got = client.GetSync(cache_key(k));
          if (!got.ok()) {
            read_failures.fetch_add(1);
            continue;
          }
          int seq = std::stoi(got->value);
          // Ack ordering: if seq+1's ack completed before this read began,
          // serving seq is a staleness violation whatever the bound. A
          // not-yet-visible ack loads as 0 and is skipped — never a false
          // positive, since acked_at is stamped *after* the ack returns.
          if (seq + 1 < kSeqsPerKey) {
            Time next_ack = acked_at[k][seq + 1].load();
            if (next_ack != 0 && next_ack < start) stale_violations.fetch_add(1);
          }
        }
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  harvesting.store(false, std::memory_order_release);
  harvester.join();
  for (auto& r : routers) harvested.MergeFrom(r->TakeWindow());

  EXPECT_EQ(stale_violations.load(), 0);
  EXPECT_EQ(floor_violations.load(), 0);
  EXPECT_EQ(read_failures.load(), 0);

  // Exactly one outcome counter per eligible lookup, with no lost updates
  // across the routers sharing the directory.
  int64_t outcomes = metrics.GetCounter("cache.point.hits")->value() +
                     metrics.GetCounter("cache.point.misses")->value() +
                     metrics.GetCounter("cache.point.stale_rejects")->value() +
                     metrics.GetCounter("cache.point.version_bypasses")->value();
  EXPECT_EQ(outcomes, eligible_reads.load());
  EXPECT_GT(metrics.GetCounter("cache.point.hits")->value(), 0);

  // Window totals conserve under the concurrent harvest (preload included).
  EXPECT_EQ(harvested.reads_ok + harvested.reads_failed, reads_issued.load());
  EXPECT_EQ(harvested.writes_ok + harvested.writes_failed, writes_issued.load() + kKeys);
}

TEST(ThreadedDataPlaneTest, SharedCacheStormInvalidateMode) {
  RunSharedCacheStorm(CacheWriteMode::kInvalidate);
}

TEST(ThreadedDataPlaneTest, SharedCacheStormWriteThroughMode) {
  RunSharedCacheStorm(CacheWriteMode::kWriteThrough);
}

// --------------------------------------- pick-map harvest concurrency --

// Regression: RouterWindow::picks_by_node is a per-node map merged entry by
// entry, unlike the scalar counters next to it. A lost update during a
// concurrent TakeWindow (swap under the router lock) or MergeFrom (caller-
// owned snapshots) would break the invariant that the per-node picks sum to
// replica_picks — the denominator of the Director's steer-fraction signal.
TEST(ThreadedDataPlaneTest, ConcurrentHarvestConservesPickMap) {
  ThreadedCluster tc(4, 2);  // rf=2: the read policy actually picks replicas
  ScadsClient loader = tc.client();
  constexpr int kKeys = 24;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(loader.PutSync(Key(i, i), "v").ok());
  }

  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 150;
  std::atomic<bool> harvesting{true};
  RouterWindow h1, h2;  // two competing harvesters — the regression shape
  auto harvest = [&](RouterWindow* into) {
    while (harvesting.load(std::memory_order_acquire)) {
      into->MergeFrom(tc.router->TakeWindow());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread harvester1(harvest, &h1);
  std::thread harvester2(harvest, &h2);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScadsClient client = tc.client();
      Rng rng(31 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        (void)client.GetSync(Key(k, k));
      }
    });
  }
  for (auto& t : threads) t.join();
  harvesting.store(false, std::memory_order_release);
  harvester1.join();
  harvester2.join();

  RouterWindow total;
  total.MergeFrom(h1);
  total.MergeFrom(h2);
  total.MergeFrom(tc.router->TakeWindow());

  int64_t pick_sum = 0;
  for (const auto& [node, picks] : total.picks_by_node) pick_sum += picks;
  EXPECT_GT(total.replica_picks, 0);
  EXPECT_EQ(pick_sum, total.replica_picks);
  EXPECT_EQ(total.reads_ok + total.reads_failed,
            static_cast<int64_t>(kThreads) * kReadsPerThread);
}

// ---------------------------------------- callbacks re-entering routers --

// ThreadedRuntime twin of RouterReentryTest (routing_test.cc): replies and
// timeouts complete on worker threads, and each callback sends a second
// request on the same router from there. A callback left under the router
// mutex would hang its worker on the relock.
TEST(ThreadedDataPlaneTest, CallbacksReenterTheRouterFromWorkerThreads) {
  RouterConfig router_config;
  router_config.request_timeout = 100 * kMillisecond;
  // Open breakers would fail reads on the calling thread without a timeout.
  router_config.breaker.enabled = false;
  ThreadedCluster tc(1, 1, NodeConfig{}, router_config);
  ASSERT_TRUE(tc.client().PutSync("hot/key", "v").ok());
  using Done = std::function<void(Status)>;
  struct Row {
    const char* name;
    std::function<void(Router*, Done)> start;
  };
  const std::vector<Row> rows = {
      {"Get",
       [](Router* r, Done done) {
         r->Get("hot/key", RequestOptions{}, [done](Result<Record> got) { done(got.status()); });
       }},
      {"MultiGet",
       [](Router* r, Done done) {
         r->MultiGet({"hot/key"}, RequestOptions{},
                     [done](std::vector<Result<Record>> got) { done(got[0].status()); });
       }},
      {"Scan",
       [](Router* r, Done done) {
         r->Scan("hot/", "", 0, RequestOptions{},
                 [done](Result<std::vector<Record>> rows) { done(rows.status()); });
       }},
      {"Put",
       [](Router* r, Done done) {
         r->Put("hot/key", "v2", AckMode::kPrimary, RequestOptions{}, done);
       }},
      {"Write",
       [](Router* r, Done done) {
         r->Write({Router::WriteOp::Kind::kDelete, "cold/key", {}}, AckMode::kPrimary,
                  RequestOptions{},
                  [done](Result<Router::WriteAck> written) { done(written.status()); });
       }},
      {"MultiWrite",
       [](Router* r, Done done) {
         r->MultiWrite({{Router::WriteOp::Kind::kPut, "hot/key", "v3"}}, AckMode::kPrimary,
                       RequestOptions{}, [done](std::vector<Status> s) { done(s[0]); });
       }},
      {"Conditional write",
       [](Router* r, Done done) {
         Router::WriteOp op{Router::WriteOp::Kind::kPut, "cas/key", "v"};
         op.condition = WriteCondition{};  // expect no live record
         r->Write(op, AckMode::kPrimary, RequestOptions{},
                  [done](Result<Router::WriteAck> written) { done(written.status()); });
       }},
  };
  const std::thread::id test_thread = std::this_thread::get_id();
  for (bool silent : {false, true}) {
    // A silent node accepts every message and never answers: each request
    // then completes on its timeout instead of its reply.
    tc.nodes[0]->set_alive(!silent);
    for (const Row& row : rows) {
      SCOPED_TRACE(std::string(row.name) + (silent ? " (timed out)" : " (answered)"));
      struct Outcome {
        std::thread::id callback_thread;
        Status status;
        std::promise<void> reentered;
      };
      auto outcome = std::make_shared<Outcome>();
      std::future<void> reentered = outcome->reentered.get_future();
      Router* router = tc.router.get();
      row.start(router, [router, outcome](Status status) {
        outcome->callback_thread = std::this_thread::get_id();
        outcome->status = std::move(status);
        router->Get("other/key", RequestOptions{},
                    [outcome](Result<Record>) { outcome->reentered.set_value(); });
      });
      ASSERT_EQ(reentered.wait_for(std::chrono::seconds(30)), std::future_status::ready);
      EXPECT_NE(outcome->callback_thread, test_thread);
      EXPECT_EQ(outcome->status.code(), silent ? StatusCode::kUnavailable : StatusCode::kOk)
          << outcome->status.ToString();
    }
  }
}

// ------------------------------------------- backend equivalence check --

// The same logical workload lands the same final state on both backends.
// (Latency/schedules differ by design; semantics must not.)
TEST(BackendEquivalenceTest, AckedStateMatchesAcrossBackends) {
  auto run_workload = [](ScadsClient client, auto await_put, auto await_get) {
    std::vector<std::string> finals;
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(i % 3, i);
      EXPECT_TRUE(await_put(client, key, "v" + std::to_string(i)));
    }
    for (int i = 0; i < 20; ++i) {
      finals.push_back(await_get(client, Key(i % 3, i)));
    }
    return finals;
  };

  // Sim: pump the loop around each async call.
  EventLoop loop;
  SimNetwork network(&loop, 7, NetworkConfig{});
  ClusterState sim_cluster;
  std::vector<std::unique_ptr<StorageNode>> sim_nodes;
  std::vector<NodeId> ids;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<StorageNode>(i, &loop, &network, &sim_cluster, NodeConfig{},
                                              1000 + static_cast<uint64_t>(i));
    ASSERT_TRUE(sim_cluster.AddNode(i, node.get()).ok());
    node->Start();
    sim_nodes.push_back(std::move(node));
    ids.push_back(i);
  }
  auto map = PartitionMap::CreateUniform(12, ids, 2);
  ASSERT_TRUE(map.ok());
  sim_cluster.set_partitions(std::move(map).value());
  Router sim_router(kClient, &loop, &network, &sim_cluster, RouterConfig{}, 99);

  // The blocking helpers refuse on the deterministic backend...
  ScadsClient sim_client(&sim_router);
  EXPECT_EQ(sim_client.PutSync("k", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim_client.GetSync("k").status().code(), StatusCode::kFailedPrecondition);

  // ...so the sim workload pumps the loop instead.
  auto sim_put = [&loop](ScadsClient c, const std::string& k, const std::string& v) {
    bool ok = false, done = false;
    c.Put(k, v, AckMode::kPrimary, [&](Status s) {
      ok = s.ok();
      done = true;
    });
    while (!done) loop.RunFor(kMillisecond);
    return ok;
  };
  auto sim_get = [&loop](ScadsClient c, const std::string& k) {
    std::string value = "<error>";
    bool done = false;
    c.Get(k, [&](Result<Record> r) {
      if (r.ok()) value = r->value;
      done = true;
    });
    while (!done) loop.RunFor(kMillisecond);
    return value;
  };
  std::vector<std::string> sim_finals = run_workload(sim_client, sim_put, sim_get);

  // Threaded: the blocking helpers are the workload.
  ThreadedCluster tc(3, 2);
  auto thr_put = [](ScadsClient c, const std::string& k, const std::string& v) {
    return c.PutSync(k, v).ok();
  };
  auto thr_get = [](ScadsClient c, const std::string& k) {
    Result<Record> r = c.GetSync(k);
    return r.ok() ? r->value : "<error>";
  };
  std::vector<std::string> threaded_finals = run_workload(tc.client(), thr_put, thr_get);

  EXPECT_EQ(sim_finals, threaded_finals);
}

}  // namespace
}  // namespace scads
