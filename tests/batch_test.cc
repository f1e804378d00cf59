// Tests for the batched scatter-gather pipeline: engine MultiGet, WAL group
// commit (including crash-replay equivalence with per-record appends),
// Router MultiGet/MultiWrite edge cases, and sub-batch failover.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/pagestore/paged_engine.h"
#include "storage/wal.h"

namespace scads {
namespace {

// ------------------------------------------------------ StorageEngine ----

TEST(EngineMultiGetTest, PreservesInputOrderWithDuplicatesAndMisses) {
  StorageEngine engine;
  Version v{100, 1};
  ASSERT_TRUE(engine.Put("a", "va", v).ok());
  ASSERT_TRUE(engine.Put("b", "vb", v).ok());
  ASSERT_TRUE(engine.Put("c", "vc", v).ok());

  std::vector<Result<Record>> out = engine.MultiGet({"c", "a", "missing", "c", "b"});
  ASSERT_EQ(out.size(), 5u);
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->value, "vc");
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(out[1]->value, "va");
  EXPECT_EQ(out[2].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(out[3].ok());
  EXPECT_EQ(out[3]->value, "vc");
  ASSERT_TRUE(out[4].ok());
  EXPECT_EQ(out[4]->value, "vb");
  // Duplicates resolve from the shared probe, not a second descent.
  EXPECT_EQ(engine.metrics().CounterValue("multigets"), 1);
  EXPECT_EQ(engine.metrics().CounterValue("gets"), 5);
}

TEST(EngineMultiGetTest, EmptyKeySetAndTombstones) {
  StorageEngine engine;
  Version v{100, 1};
  ASSERT_TRUE(engine.Put("k", "v", v).ok());
  ASSERT_TRUE(engine.Delete("k", Version{101, 1}).ok());
  EXPECT_TRUE(engine.MultiGet({}).empty());
  std::vector<Result<Record>> out = engine.MultiGet({"k"});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status().code(), StatusCode::kNotFound);
}

TEST(EngineMultiGetTest, LargeSortedAndReverseProbeSetsAgreeWithGet) {
  StorageEngine engine;
  Version v{100, 1};
  for (int i = 0; i < 500; ++i) {
    std::string key = "key" + std::to_string(1000 + i);
    ASSERT_TRUE(engine.Put(key, "v" + std::to_string(i), v).ok());
  }
  std::vector<std::string> probes;
  for (int i = 499; i >= 0; i -= 7) probes.push_back("key" + std::to_string(1000 + i));
  probes.push_back("key0000");  // before first
  probes.push_back("key9999");  // after last
  std::vector<Result<Record>> out = engine.MultiGet(probes);
  ASSERT_EQ(out.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<Record> single = engine.Get(probes[i]);
    ASSERT_EQ(out[i].ok(), single.ok()) << probes[i];
    if (single.ok()) {
      EXPECT_EQ(out[i]->value, single->value);
    }
  }
}

// ------------------------------------------------- WAL group commit ------

WalRecord MakeRecord(const std::string& key, const std::string& value, Time ts) {
  WalRecord record;
  record.type = value.empty() ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
  record.key = key;
  record.value = value;
  record.version = Version{ts, 1};
  return record;
}

TEST(WalGroupCommitTest, AppendBatchBytesIdenticalToSequentialAppends) {
  std::vector<WalRecord> records = {MakeRecord("a", "1", 10), MakeRecord("b", "22", 11),
                                    MakeRecord("c", "", 12)};
  MemoryWalSink sequential, batched;
  WalWriter seq_writer(&sequential), batch_writer(&batched);
  for (const WalRecord& record : records) ASSERT_TRUE(seq_writer.Append(record).ok());
  ASSERT_TRUE(batch_writer.AppendBatch(records).ok());
  // Byte-identical logs: recovery cannot tell the histories apart.
  EXPECT_EQ(sequential.Contents(), batched.Contents());
  auto replayed = ReadWal(batched.Contents());
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) EXPECT_EQ((*replayed)[i], records[i]);
}

TEST(WalGroupCommitTest, ApplyBatchSyncsOncePerBatch) {
  EventLoop loop;
  // Both engines, the RAM one and the paged one, logging to `sink`.
  auto make_engine = [&loop](bool paged, WalSink* sink) -> std::unique_ptr<EngineInterface> {
    PagedEngineOptions options;
    options.wal = sink;
    options.wal_sync_every_write = true;
    if (paged) return std::make_unique<PagedEngine>(&loop, options);
    return std::make_unique<StorageEngine>(options);
  };
  std::vector<WalRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(MakeRecord("k" + std::to_string(i), "v", 100 + i));
  }
  for (bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "PagedEngine" : "StorageEngine");
    MemoryWalSink sink;
    std::unique_ptr<EngineInterface> engine = make_engine(paged, &sink);
    ASSERT_TRUE(engine->ApplyBatch(batch).ok());
    EXPECT_EQ(sink.sync_count(), 1);
    EXPECT_EQ(engine->metrics().CounterValue("wal_appends"), 10);
    EXPECT_EQ(engine->metrics().CounterValue("wal_batch_syncs"), 1);
    // The same ten records applied one at a time cost ten syncs.
    MemoryWalSink sink2;
    std::unique_ptr<EngineInterface> engine2 = make_engine(paged, &sink2);
    for (const WalRecord& record : batch) ASSERT_TRUE(engine2->Apply(record).ok());
    EXPECT_EQ(sink2.sync_count(), 10);
  }
}

TEST(WalGroupCommitTest, CrashReplayRecoversBatchedAndSequentialIdentically) {
  std::vector<WalRecord> history;
  for (int i = 0; i < 20; ++i) {
    history.push_back(MakeRecord("key" + std::to_string(i % 7), "val" + std::to_string(i),
                                 1000 + i));
  }
  // One engine logs the history as two group-committed batches, the other
  // as per-record appends.
  MemoryWalSink batched_sink, sequential_sink;
  EngineOptions batched_options;
  batched_options.wal = &batched_sink;
  StorageEngine batched_engine(batched_options);
  std::vector<WalRecord> first_half(history.begin(), history.begin() + 11);
  std::vector<WalRecord> second_half(history.begin() + 11, history.end());
  ASSERT_TRUE(batched_engine.ApplyBatch(first_half).ok());
  ASSERT_TRUE(batched_engine.ApplyBatch(second_half).ok());
  EngineOptions sequential_options;
  sequential_options.wal = &sequential_sink;
  StorageEngine sequential_engine(sequential_options);
  for (const WalRecord& record : history) ASSERT_TRUE(sequential_engine.Apply(record).ok());

  // "Crash": recover fresh engines from each log; state must be identical.
  auto batched_log = ReadWal(batched_sink.Contents());
  auto sequential_log = ReadWal(sequential_sink.Contents());
  ASSERT_TRUE(batched_log.ok());
  ASSERT_TRUE(sequential_log.ok());
  ASSERT_EQ(batched_log->size(), sequential_log->size());
  auto recovered_batched = StorageEngine::Recover(EngineOptions{}, *batched_log);
  auto recovered_sequential = StorageEngine::Recover(EngineOptions{}, *sequential_log);
  ASSERT_TRUE(recovered_batched.ok());
  ASSERT_TRUE(recovered_sequential.ok());
  EXPECT_EQ((*recovered_batched)->live_count(), (*recovered_sequential)->live_count());
  for (int i = 0; i < 7; ++i) {
    std::string key = "key" + std::to_string(i);
    Result<Record> a = (*recovered_batched)->Get(key);
    Result<Record> b = (*recovered_sequential)->Get(key);
    ASSERT_EQ(a.ok(), b.ok()) << key;
    if (a.ok()) {
      EXPECT_EQ(a->value, b->value);
      EXPECT_TRUE(a->version == b->version);
    }
  }
}

TEST(WalGroupCommitTest, TornTailOfBatchedLogRecoversCleanPrefix) {
  MemoryWalSink sink;
  WalWriter writer(&sink);
  std::vector<WalRecord> batch = {MakeRecord("a", "1", 10), MakeRecord("b", "2", 11),
                                  MakeRecord("c", "3", 12)};
  ASSERT_TRUE(writer.AppendBatch(batch).ok());
  // A crash mid-batch tears the final frame; the intact prefix replays.
  std::string torn = sink.Contents().substr(0, sink.Contents().size() - 5);
  auto replayed = ReadWal(torn);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ((*replayed)[0], batch[0]);
  EXPECT_EQ((*replayed)[1], batch[1]);
}

// ------------------------------------------------------ Router batches ---

constexpr NodeId kClient = 1000;

// A small in-process cluster (mirrors cluster_test's harness).
struct TestCluster {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  TestCluster(int node_count, int replication_factor,
              NodeConfig node_config = NodeConfig{}, RouterConfig router_config = RouterConfig{},
              NetworkConfig net_config = NetworkConfig{})
      : network(&loop, 7, net_config) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, node_config,
                                                1000 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::Create({"g", "p"}, ids, replication_factor);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, router_config, 99);
  }

  void RunUntil(const bool& done) {
    for (int i = 0; i < 1000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    EXPECT_TRUE(done);
  }

  Status PutSync(const std::string& key, const std::string& value,
                 AckMode ack = AckMode::kPrimary) {
    Status out = InternalError("callback never ran");
    bool done = false;
    router->Put(key, value, ack, RequestOptions{}, [&](Status s) {
      out = std::move(s);
      done = true;
    });
    RunUntil(done);
    return out;
  }

  std::vector<Result<Record>> MultiGetSync(const std::vector<std::string>& keys,
                                           bool pin_primary = false) {
    std::vector<Result<Record>> out;
    bool done = false;
    RequestOptions options;
    if (pin_primary) options.read_mode = ReadMode::kPrimaryOnly;
    router->MultiGet(keys, options, [&](std::vector<Result<Record>> results) {
      out = std::move(results);
      done = true;
    });
    RunUntil(done);
    return out;
  }

  std::vector<Status> MultiWriteSync(std::vector<Router::WriteOp> ops,
                                     AckMode ack = AckMode::kPrimary) {
    std::vector<Status> out;
    bool done = false;
    router->MultiWrite(std::move(ops), ack, RequestOptions{}, [&](std::vector<Status> statuses) {
      out = std::move(statuses);
      done = true;
    });
    RunUntil(done);
    return out;
  }
};

TEST(RouterMultiGetTest, EmptyKeySetCompletesImmediately) {
  TestCluster tc(2, 1);
  bool done = false;
  tc.router->MultiGet({}, RequestOptions{}, [&](std::vector<Result<Record>> results) {
    EXPECT_TRUE(results.empty());
    done = true;
  });
  EXPECT_TRUE(done);  // no storage op, no event needed
  EXPECT_EQ(tc.router->window().reads_ok, 0);
}

TEST(RouterMultiGetTest, OrderPreservedWithDuplicatesAndMisses) {
  TestCluster tc(3, 1);
  ASSERT_TRUE(tc.PutSync("apple", "1").ok());
  ASSERT_TRUE(tc.PutSync("grape", "2").ok());
  ASSERT_TRUE(tc.PutSync("zebra", "3").ok());
  auto out = tc.MultiGetSync({"zebra", "apple", "ghost", "zebra", "grape"});
  ASSERT_EQ(out.size(), 5u);
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->value, "3");
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(out[1]->value, "1");
  EXPECT_EQ(out[2].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(out[3].ok());
  EXPECT_EQ(out[3]->value, "3");
  ASSERT_TRUE(out[4].ok());
  EXPECT_EQ(out[4]->value, "2");
  // Every logical read is accounted (NotFound is an answered read).
  EXPECT_EQ(tc.router->window().reads_ok, 5);
}

TEST(RouterMultiGetTest, OneMessagePerStorageNode) {
  TestCluster tc(1, 1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tc.PutSync("key" + std::to_string(i), "v").ok());
  }
  int64_t before = tc.network.sent_count();
  int64_t bytes_before = tc.network.bytes_sent();
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("key" + std::to_string(i));
  auto out = tc.MultiGetSync(keys);
  ASSERT_EQ(out.size(), 8u);
  for (const auto& r : out) EXPECT_TRUE(r.ok());
  // One node owns everything: exactly one request + one response.
  EXPECT_EQ(tc.network.sent_count() - before, 2);
  EXPECT_GT(tc.network.bytes_sent() - bytes_before, 0);
}

TEST(RouterMultiGetTest, AllCacheHitBatchTouchesNoNode) {
  TestCluster tc(2, 1);
  MetricRegistry metrics;
  CacheConfig config;
  config.enabled = true;
  CacheDirectory cache(config, /*staleness_bound=*/kMinute, &metrics);
  tc.router->set_cache(&cache);
  ASSERT_TRUE(tc.PutSync("apple", "1").ok());
  ASSERT_TRUE(tc.PutSync("zebra", "2").ok());
  tc.loop.RunFor(kSecond);
  // Write-through Puts primed the cache; within the staleness bound the
  // whole batch is served locally, duplicates from one lookup each.
  int64_t before = tc.network.sent_count();
  auto out = tc.MultiGetSync({"apple", "zebra", "apple"});
  EXPECT_EQ(tc.network.sent_count() - before, 0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0]->value, "1");
  EXPECT_EQ(out[1]->value, "2");
  EXPECT_EQ(out[2]->value, "1");
  EXPECT_EQ(metrics.CounterValue("cache.point.hits"), 2);  // unique keys
  EXPECT_EQ(tc.router->window().reads_ok, 3);              // logical reads
}

TEST(RouterMultiGetTest, DeadNodeSubBatchRetriesOnOtherReplicaOnly) {
  RouterConfig router_config;
  router_config.read_target = ReadTarget::kPrimary;  // deterministic first choice
  TestCluster tc(2, 2, NodeConfig{}, router_config);
  std::vector<std::string> keys = {"apple", "grape", "zebra"};
  for (const auto& key : keys) {
    ASSERT_TRUE(tc.PutSync(key, "v:" + key, AckMode::kAll).ok());
  }
  // Kill one node. Keys whose primary it was retry their sub-batch on the
  // surviving replica; the other sub-batches are answered directly.
  NodeId dead = tc.cluster.partitions()->ForKey("apple").primary();
  tc.network.SetPartitionGroup(dead, 42);
  auto out = tc.MultiGetSync(keys);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << keys[i] << ": " << out[i].status().ToString();
    EXPECT_EQ(out[i]->value, "v:" + keys[i]);
  }
  EXPECT_EQ(tc.router->window().reads_ok, 3);
}

TEST(RouterMultiGetTest, OverloadedNodeShedsBatchToOtherReplica) {
  RouterConfig router_config;
  router_config.read_target = ReadTarget::kPrimary;
  TestCluster tc(2, 2, NodeConfig{}, router_config);
  ASSERT_TRUE(tc.PutSync("apple", "v", AckMode::kAll).ok());
  // Saturate the primary's queue: its HandleMultiGet sheds with
  // kResourceExhausted and the router redirects the sub-batch without
  // waiting for a timeout.
  NodeId primary = tc.cluster.partitions()->ForKey("apple").primary();
  tc.cluster.GetNode(primary)->InjectBackgroundLoad(10 * kSecond);
  Time start = tc.loop.Now();
  auto out = tc.MultiGetSync({"apple"});
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->value, "v");
  // Redirect happened via explicit shed, far faster than the 250ms timeout.
  EXPECT_LT(tc.loop.Now() - start, RouterConfig{}.request_timeout);
}

TEST(RouterMultiGetTest, AllCandidatesShedSurfacesResourceExhausted) {
  TestCluster tc(1, 1);
  ASSERT_TRUE(tc.PutSync("apple", "v").ok());
  // The only replica sheds: the batch reports the overload itself, the
  // same status a single Get would return — not a fake unreachability.
  tc.cluster.GetNode(0)->InjectBackgroundLoad(10 * kSecond);
  auto out = tc.MultiGetSync({"apple"});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tc.router->window().reads_failed, 1);
}

TEST(RouterMultiWriteTest, EmptyAndBasicBatch) {
  TestCluster tc(3, 1);
  EXPECT_TRUE(tc.MultiWriteSync({}).empty());
  std::vector<Router::WriteOp> ops;
  ops.push_back({Router::WriteOp::Kind::kPut, "apple", "1"});
  ops.push_back({Router::WriteOp::Kind::kPut, "grape", "2"});
  ops.push_back({Router::WriteOp::Kind::kPut, "zebra", "3"});
  auto statuses = tc.MultiWriteSync(std::move(ops));
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& status : statuses) EXPECT_TRUE(status.ok());
  EXPECT_EQ(tc.router->window().writes_ok, 3);
  auto out = tc.MultiGetSync({"apple", "grape", "zebra"});
  EXPECT_EQ(out[0]->value, "1");
  EXPECT_EQ(out[1]->value, "2");
  EXPECT_EQ(out[2]->value, "3");
}

TEST(RouterMultiWriteTest, SameKeyOpsCoalesceToLast) {
  TestCluster tc(2, 1);
  std::vector<Router::WriteOp> ops;
  ops.push_back({Router::WriteOp::Kind::kPut, "k1", "first"});
  ops.push_back({Router::WriteOp::Kind::kPut, "k1", "second"});
  ops.push_back({Router::WriteOp::Kind::kPut, "k2", "kept"});
  ops.push_back({Router::WriteOp::Kind::kDelete, "k2", {}});
  auto statuses = tc.MultiWriteSync(std::move(ops));
  ASSERT_EQ(statuses.size(), 4u);
  for (const Status& status : statuses) EXPECT_TRUE(status.ok());
  auto out = tc.MultiGetSync({"k1", "k2"});
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->value, "second");          // put-then-put: last wins
  EXPECT_FALSE(out[1].ok());                   // put-then-delete: deleted
  EXPECT_EQ(out[1].status().code(), StatusCode::kNotFound);
}

TEST(RouterMultiWriteTest, QuorumAckReachesSecondaries) {
  TestCluster tc(3, 3);
  std::vector<Router::WriteOp> ops;
  ops.push_back({Router::WriteOp::Kind::kPut, "apple", "a"});
  ops.push_back({Router::WriteOp::Kind::kPut, "zebra", "z"});
  auto statuses = tc.MultiWriteSync(std::move(ops), AckMode::kQuorum);
  for (const Status& status : statuses) ASSERT_TRUE(status.ok());
  for (const std::string& key : {std::string("apple"), std::string("zebra")}) {
    const PartitionInfo& p = tc.cluster.partitions()->ForKey(key);
    int holders = 0;
    for (NodeId replica : p.replicas) {
      if (tc.cluster.GetNode(replica)->engine()->Get(key).ok()) ++holders;
    }
    EXPECT_GE(holders, 2) << key;
  }
}

// A kAll batch replies at the later of its group commit's end and its last
// replica ack. Three nodes, rf 3, the default NodeConfig, no jitter: every
// hop takes 200 us. All records share partition ["", "g") and so one lane
// per secondary. They ship in one message when the service starts (S, 200
// us after issue), which is acked at S + 400 + 40 us per record. The commit
// ends at S + 180 + 60 us per record after the first.
TEST(RouterMultiWriteTest, AllAckBatchRepliesAtTheLaterOfCommitAndLastReplicaAck) {
  NetworkConfig net_config;
  net_config.jitter_mean = 0;
  auto timed_batch = [&](int records) {
    TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, net_config);
    std::vector<Router::WriteOp> ops;
    for (int i = 0; i < records; ++i) {
      ops.push_back({Router::WriteOp::Kind::kPut, "a" + std::to_string(100 + i), "v"});
    }
    Duration latency = -1;
    bool ok = false;
    Time issued = tc.loop.Now();
    tc.router->MultiWrite(std::move(ops), AckMode::kAll, RequestOptions{},
                          [&](std::vector<Status> statuses) {
                            ok = std::all_of(statuses.begin(), statuses.end(),
                                             [](const Status& s) { return s.ok(); });
                            latency = tc.loop.Now() - issued;
                          });
    tc.loop.RunFor(kSecond);
    EXPECT_TRUE(ok);
    return latency;
  };
  // 3 records: the ack (S + 520) outlasts the commit (S + 300), so the
  // reply arrives 200 + 520 + 200 us after issue. Committing before
  // replicating would take 200 + 300 + 520 + 200.
  Duration small = timed_batch(3);
  EXPECT_EQ(small, 920);
  EXPECT_LT(small, 1220);
  // 40 records: the commit (S + 2,520) outlasts the ack (S + 2,000).
  // Committing first would take 200 + 2,520 + 2,000 + 200.
  Duration large = timed_batch(40);
  EXPECT_EQ(large, 2920);
  EXPECT_LT(large, 4920);
}

// A perfbench kv_rw key: a 2-byte hashed prefix spreads ids over a uniform
// partition map.
std::string HashedKey(int64_t id) {
  uint32_t h = static_cast<uint32_t>(id) * 2654435761u;
  std::string key;
  key.push_back(static_cast<char>(h >> 24));
  key.push_back(static_cast<char>(h >> 16));
  return key + "/k" + std::to_string(id);
}

// One batch of kv_rw's bulk load: 250 hashed keys with 100 B values in one
// kAll MultiWrite, on 4 nodes, 64 uniform partitions, rf 3, no jitter and no
// heartbeats. The router sends each primary its sub-batch (4 requests, 4
// replies). Each primary ships its sub-batch to each of its two
// secondaries in one channel message, whatever partitions it spans, and
// each secondary answers with one ack (8 + 8 messages).
TEST(RouterMultiWriteTest, BulkLoadBatchShipsOneMessagePerNodePair) {
  NetworkConfig net_config;
  net_config.jitter_mean = 0;
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;
  TestCluster tc(4, 3, node_config, RouterConfig{}, net_config);
  auto map = PartitionMap::CreateUniform(64, {0, 1, 2, 3}, 3);
  ASSERT_TRUE(map.ok());
  tc.cluster.set_partitions(std::move(map).value());
  std::vector<Router::WriteOp> ops;
  int64_t record_bytes = 0;
  for (int64_t id = 0; id < 250; ++id) {
    ops.push_back({Router::WriteOp::Kind::kPut, HashedKey(id), std::string(100, 'v')});
    record_bytes += WireSize(MakeRecord(ops.back().key, ops.back().value, 0));
  }
  const int64_t sent_before = tc.network.sent_count();
  const int64_t bytes_before = tc.network.bytes_sent();
  const Time issued = tc.loop.Now();
  Duration latency = -1;
  bool ok = false;
  tc.router->MultiWrite(std::move(ops), AckMode::kAll, RequestOptions{},
                        [&](std::vector<Status> statuses) {
                          ok = std::all_of(statuses.begin(), statuses.end(),
                                           [](const Status& s) { return s.ok(); });
                          latency = tc.loop.Now() - issued;
                        });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(ok);
  EXPECT_EQ(latency, 9760);
  EXPECT_EQ(tc.network.sent_count() - sent_before, 24);
  // Each record crosses the network three times (to its primary, then to
  // two secondaries), and the replies carry 4 B per status.
  EXPECT_EQ(tc.network.bytes_sent() - bytes_before,
            3 * record_bytes + 250 * 4 + 24 * MessageFabric::kMessageOverheadBytes);
  for (int64_t id = 0; id < 250; ++id) {
    const std::string key = HashedKey(id);
    const PartitionInfo& partition = tc.cluster.partitions()->ForKey(key);
    ASSERT_EQ(partition.replicas.size(), 3u);
    for (NodeId replica : partition.replicas) {
      EXPECT_TRUE(tc.cluster.GetNode(replica)->engine()->Get(key).ok())
          << id << " on node " << replica;
    }
  }
}

TEST(RouterMultiWriteTest, DeadPrimarySubBatchFailsOthersSucceed) {
  TestCluster tc(2, 1);
  // Partition the node owning "apple"; the other node's sub-batch commits.
  NodeId dead = tc.cluster.partitions()->ForKey("apple").primary();
  NodeId alive_owner = tc.cluster.partitions()->ForKey("grape").primary();
  ASSERT_NE(dead, alive_owner);
  tc.network.SetPartitionGroup(dead, 42);
  std::vector<Router::WriteOp> ops;
  ops.push_back({Router::WriteOp::Kind::kPut, "apple", "a"});
  ops.push_back({Router::WriteOp::Kind::kPut, "grape", "g"});
  auto statuses = tc.MultiWriteSync(std::move(ops));
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kUnavailable);
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(tc.router->window().writes_ok, 1);
  EXPECT_EQ(tc.router->window().writes_failed, 1);
}

TEST(RouterMultiWriteTest, CacheSeesNewValueBeforeAck) {
  TestCluster tc(2, 1);
  MetricRegistry metrics;
  CacheConfig config;
  config.enabled = true;
  CacheDirectory cache(config, kMinute, &metrics);
  tc.router->set_cache(&cache);
  ASSERT_TRUE(tc.PutSync("apple", "old").ok());
  (void)tc.MultiGetSync({"apple"});  // prime the cache
  std::vector<Router::WriteOp> ops;
  ops.push_back({Router::WriteOp::Kind::kPut, "apple", "new"});
  auto statuses = tc.MultiWriteSync(std::move(ops));
  ASSERT_TRUE(statuses[0].ok());
  // The batched write refreshed the entry synchronously with the ack: a
  // cache-served read cannot observe the predecessor.
  auto out = tc.MultiGetSync({"apple"});
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->value, "new");
}

// ----------------------------------------------------------- wire bytes --

// Every router exchange charges its request payload, its reply payload,
// and one framing overhead per message. One node, rf 1, no heartbeats:
// only the exchange under test sends anything.
TEST(RouterWireBytesTest, EachExchangeChargesRequestReplyAndFraming) {
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;
  TestCluster tc(1, 1, node_config);
  ASSERT_TRUE(tc.PutSync("apple", "1").ok());
  ASSERT_TRUE(tc.PutSync("grape", "22").ok());
  constexpr int64_t kRecord = kRecordWireOverheadBytes;  // version + framing per record
  using Done = std::function<void()>;
  struct Row {
    const char* op;
    std::function<void(Router*, Done)> start;
    int64_t request_bytes;
    int64_t reply_bytes;
  };
  const std::vector<Row> rows = {
      {"Get",
       [](Router* r, Done done) {
         r->Get("apple", RequestOptions{}, [done](Result<Record> got) {
           EXPECT_TRUE(got.ok());
           done();
         });
       },
       5 + 4, 5 + 1 + kRecord},
      {"MultiGet",
       [](Router* r, Done done) {
         r->MultiGet({"apple", "grape"}, RequestOptions{},
                     [done](std::vector<Result<Record>> got) {
                       EXPECT_TRUE(got[0].ok() && got[1].ok());
                       done();
                     });
       },
       (5 + 4) * 2, (5 + 1 + kRecord) + (5 + 2 + kRecord)},
      {"Scan",
       [](Router* r, Done done) {
         r->Scan("a", "b", 0, RequestOptions{}, [done](Result<std::vector<Record>> rows) {
           EXPECT_TRUE(rows.ok() && rows->size() == 1);
           done();
         });
       },
       1 + 1 + 16, 8 + (5 + 1 + kRecord)},
      {"Put",
       [](Router* r, Done done) {
         r->Put("kiwi", "333", AckMode::kPrimary, RequestOptions{}, [done](Status status) {
           EXPECT_TRUE(status.ok());
           done();
         });
       },
       4 + 3 + kRecord, 4},
      // A condition adds its expected version to the request.
      {"Conditional write",
       [](Router* r, Done done) {
         Router::WriteOp op{Router::WriteOp::Kind::kPut, "melon", "4444"};
         op.condition = WriteCondition{};  // expect no live record
         r->Write(op, AckMode::kPrimary, RequestOptions{},
                  [done](Result<Router::WriteAck> written) {
                    EXPECT_TRUE(written.ok());
                    done();
                  });
       },
       5 + 4 + kRecord + 16, 4},
      {"MultiWrite",
       [](Router* r, Done done) {
         std::vector<Router::WriteOp> ops = {{Router::WriteOp::Kind::kPut, "a1", "v1"},
                                             {Router::WriteOp::Kind::kPut, "h1", "v1"},
                                             {Router::WriteOp::Kind::kDelete, "q1", {}}};
         r->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                       [done](std::vector<Status> statuses) {
                         for (const Status& status : statuses) EXPECT_TRUE(status.ok());
                         done();
                       });
       },
       (2 + 2 + kRecord) * 2 + (2 + kRecord), 3 * 4},
      // A conditioned op adds its expected version in a batch too. A batch
      // reports statuses only, so it asks for no prior, even over a record.
      {"MultiWrite with a condition",
       [](Router* r, Done done) {
         std::vector<Router::WriteOp> ops = {
             {Router::WriteOp::Kind::kPut, "grape", "v2", /*return_prior=*/true},
             {Router::WriteOp::Kind::kPut, "b2", "v2"}};
         ops[1].condition = WriteCondition{};  // expect no live record
         r->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                       [done](std::vector<Status> statuses) {
                         for (const Status& status : statuses) EXPECT_TRUE(status.ok());
                         done();
                       });
       },
       (5 + 2 + kRecord) + (2 + 2 + kRecord) + 16, 2 * 4},
      // A write that asks for the record it replaces is charged that
      // record in its reply, and only when there is one.
      {"Write returning a prior",
       [](Router* r, Done done) {
         r->Write({Router::WriteOp::Kind::kPut, "apple", "9", /*return_prior=*/true},
                  AckMode::kPrimary, RequestOptions{}, [done](Result<Router::WriteAck> written) {
           EXPECT_TRUE(written.ok() && written->prior.has_value() &&
                       written->prior->value == "1");
           done();
         });
       },
       5 + 1 + kRecord, 4 + (5 + 1 + kRecord)},
      {"Write returning no prior",
       [](Router* r, Done done) {
         r->Write({Router::WriteOp::Kind::kDelete, "fig", {}, /*return_prior=*/true},
                  AckMode::kPrimary, RequestOptions{}, [done](Result<Router::WriteAck> written) {
           EXPECT_TRUE(written.ok() && !written->prior.has_value());
           done();
         });
       },
       3 + kRecord, 4},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.op);
    int64_t sent_before = tc.network.sent_count();
    int64_t bytes_before = tc.network.bytes_sent();
    bool done = false;
    row.start(tc.router.get(), [&done] { done = true; });
    tc.RunUntil(done);
    EXPECT_EQ(tc.network.sent_count() - sent_before, 2);  // one request, one reply
    EXPECT_EQ(tc.network.bytes_sent() - bytes_before,
              row.request_bytes + row.reply_bytes + 2 * MessageFabric::kMessageOverheadBytes);
  }
}

}  // namespace
}  // namespace scads
