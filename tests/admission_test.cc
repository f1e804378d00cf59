// Tests for priority-aware node admission and load-adaptive sub-batch
// sizing: the shed order under saturation, the per-priority counters, the
// RequestOptions::priority plumbing through both point and batched router
// paths, the Router's sub-batch cap reacting to node load and the
// remaining deadline budget, and the node's long queue, which feeds
// multi-key reads and replication to the FIFO in 320 us quanta.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "support/node_read.h"

namespace scads {
namespace {

constexpr NodeId kClient = 1 << 20;

int PriorityIndex(RequestPriority priority) { return static_cast<int>(priority); }

// One client, `node_count` nodes, uniform partitions, long router timeout so
// queueing (not failover) is what the tests observe.
struct Harness {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  explicit Harness(int node_count, int rf = 1, NodeConfig node_config = {},
                   NetworkConfig network_config = {})
      : network(&loop, 5, network_config) {
    node_config.watermark_heartbeat = 0;
    std::vector<NodeId> ids;
    for (NodeId id = 1; id <= node_count; ++id) {
      nodes.push_back(std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                                    40 + static_cast<uint64_t>(id)));
      EXPECT_TRUE(cluster.AddNode(id, nodes.back().get()).ok());
      ids.push_back(id);
    }
    auto map = PartitionMap::CreateUniform(8, ids, rf);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    RouterConfig config;
    config.request_timeout = 5 * kSecond;
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, config, 6);
  }

  StorageNode* node(NodeId id) { return nodes[static_cast<size_t>(id - 1)].get(); }

  RequestOptions WithPriority(RequestPriority priority) {
    RequestOptions options;
    options.priority = priority;
    return options;
  }
};

// ------------------------------------------------------ node-level Admit --

TEST(PriorityAdmissionTest, LowShedsBeforeNormalUnderBacklog) {
  Harness h(1);
  // Backlog between the kLow threshold (50% of the 2s cap) and the cap.
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);

  Result<Record> low(InternalError("pending"));
  ReadAtNode(h.node(1), "a", RequestPriority::kLow, [&](Result<Record> r) { low = std::move(r); });
  EXPECT_EQ(low.status().code(), StatusCode::kResourceExhausted);  // shed synchronously

  bool normal_done = false;
  ReadAtNode(h.node(1), "a", RequestPriority::kNormal, [&](Result<Record> r) {
    normal_done = true;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);  // admitted, served
  });
  h.loop.RunFor(3 * kSecond);
  EXPECT_TRUE(normal_done);

  const NodeStats& stats = h.node(1)->stats();
  EXPECT_EQ(stats.shed_by_priority[PriorityIndex(RequestPriority::kLow)], 1);
  EXPECT_EQ(stats.shed_by_priority[PriorityIndex(RequestPriority::kNormal)], 0);
  EXPECT_EQ(stats.admitted_by_priority[PriorityIndex(RequestPriority::kNormal)], 1);
  EXPECT_EQ(stats.admitted_by_priority[PriorityIndex(RequestPriority::kLow)], 0);
}

TEST(PriorityAdmissionTest, AllClassesAdmittedWhenIdle) {
  Harness h(1);
  for (RequestPriority priority :
       {RequestPriority::kLow, RequestPriority::kNormal, RequestPriority::kHigh}) {
    bool done = false;
    ReadAtNode(h.node(1), "a", priority, [&](Result<Record>) { done = true; });
    h.loop.RunFor(kSecond);
    EXPECT_TRUE(done);
  }
  const NodeStats& stats = h.node(1)->stats();
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(stats.admitted_by_priority[p], 1) << "priority " << p;
    EXPECT_EQ(stats.shed_by_priority[p], 0) << "priority " << p;
  }
}

TEST(PriorityAdmissionTest, SaturationShedsLowFirstAndFavorsHigh) {
  Harness h(1);
  // rho=2.0: well past saturation — kLow sheds outright, kNormal survives a
  // ~50% admission lottery, kHigh skips the lottery (it can still shed at
  // the hard queue cap when the saturation wait penalty lands beyond it).
  h.node(1)->SetBackgroundLoad(2.0, 0);
  constexpr int kAttempts = 50;
  for (int i = 0; i < kAttempts; ++i) {
    for (RequestPriority priority :
         {RequestPriority::kLow, RequestPriority::kNormal, RequestPriority::kHigh}) {
      ReadAtNode(h.node(1), "a", priority, [](Result<Record>) {});
    }
    h.loop.RunFor(10 * kSecond);  // drain so the explicit queue stays empty
  }
  const NodeStats& stats = h.node(1)->stats();
  EXPECT_EQ(stats.shed_by_priority[PriorityIndex(RequestPriority::kLow)], kAttempts);
  EXPECT_EQ(stats.admitted_by_priority[PriorityIndex(RequestPriority::kLow)], 0);
  EXPECT_GT(stats.admitted_by_priority[PriorityIndex(RequestPriority::kHigh)],
            stats.admitted_by_priority[PriorityIndex(RequestPriority::kNormal)]);
  EXPECT_GT(stats.shed_by_priority[PriorityIndex(RequestPriority::kNormal)], 0);
}

TEST(PriorityAdmissionTest, LoadSignalTracksBacklogAndSheds) {
  Harness h(1);
  NodeLoadSignal idle = h.cluster.NodeLoad(1);
  EXPECT_EQ(idle.queue_delay, 0);
  EXPECT_DOUBLE_EQ(idle.shed_fraction, 0.0);

  h.node(1)->InjectBackgroundLoad(1800 * kMillisecond);
  NodeLoadSignal loaded = h.cluster.NodeLoad(1);
  EXPECT_GE(loaded.queue_delay, 1700 * kMillisecond);

  // Sheds move the shed EWMA; admissions decay it.
  ReadAtNode(h.node(1), "a", RequestPriority::kLow, [](Result<Record>) {});
  EXPECT_GT(h.cluster.NodeLoad(1).shed_fraction, 0.0);

  // Unknown nodes report a zero signal.
  EXPECT_EQ(h.cluster.NodeLoad(99).queue_delay, 0);
}

// ------------------------------------------------- router-path threading --

TEST(PriorityAdmissionTest, PointPathCarriesPriorityToAdmit) {
  Harness h(1);
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);

  Result<Record> low(InternalError("pending"));
  h.router->Get("a", h.WithPriority(RequestPriority::kLow),
                [&](Result<Record> r) { low = std::move(r); });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(low.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(h.node(1)->stats().shed_by_priority[PriorityIndex(RequestPriority::kLow)], 1);

  Result<Record> normal(InternalError("pending"));
  h.router->Get("a", h.WithPriority(RequestPriority::kNormal),
                [&](Result<Record> r) { normal = std::move(r); });
  h.loop.RunFor(3 * kSecond);
  EXPECT_EQ(normal.status().code(), StatusCode::kNotFound);  // reached the engine
  EXPECT_EQ(h.node(1)->stats().shed_by_priority[PriorityIndex(RequestPriority::kNormal)], 0);
}

TEST(PriorityAdmissionTest, BatchedReadPathCarriesPriorityToAdmit) {
  Harness h(1);
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);
  std::vector<std::string> keys = {"a", "b", "c"};

  std::vector<Result<Record>> low;
  h.router->MultiGet(keys, h.WithPriority(RequestPriority::kLow),
                     [&](std::vector<Result<Record>> r) { low = std::move(r); });
  h.loop.RunFor(kSecond);
  ASSERT_EQ(low.size(), keys.size());
  for (const auto& r : low) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_GE(h.node(1)->stats().shed_by_priority[PriorityIndex(RequestPriority::kLow)], 1);

  std::vector<Result<Record>> normal;
  h.router->MultiGet(keys, h.WithPriority(RequestPriority::kNormal),
                     [&](std::vector<Result<Record>> r) { normal = std::move(r); });
  h.loop.RunFor(3 * kSecond);
  ASSERT_EQ(normal.size(), keys.size());
  for (const auto& r : normal) {
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(h.node(1)->stats().shed_by_priority[PriorityIndex(RequestPriority::kNormal)], 0);
}

TEST(PriorityAdmissionTest, BatchedWritePathCarriesPriorityToAdmit) {
  Harness h(1);
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);
  std::vector<Router::WriteOp> ops;
  for (const char* key : {"a", "b"}) {
    Router::WriteOp op;
    op.key = key;
    op.value = "v";
    ops.push_back(op);
  }

  std::vector<Status> low;
  h.router->MultiWrite(ops, AckMode::kPrimary, h.WithPriority(RequestPriority::kLow),
                       [&](std::vector<Status> s) { low = std::move(s); });
  h.loop.RunFor(kSecond);
  ASSERT_EQ(low.size(), ops.size());
  for (const Status& s : low) EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);

  std::vector<Status> normal;
  h.router->MultiWrite(ops, AckMode::kPrimary, h.WithPriority(RequestPriority::kNormal),
                       [&](std::vector<Status> s) { normal = std::move(s); });
  h.loop.RunFor(3 * kSecond);
  ASSERT_EQ(normal.size(), ops.size());
  for (const Status& s : normal) EXPECT_TRUE(s.ok());
}

// ------------------------------------------------- adaptive sub-batching --

TEST(AdaptiveBatchTest, IdleNodeGetsOneFullSubBatch) {
  Harness h(1);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  int64_t before = h.network.sent_to(1);
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(kSecond);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_EQ(h.network.sent_to(1) - before, 1);  // one message: node is idle
}

TEST(AdaptiveBatchTest, LoadedNodeGetsMinSizedSubBatches) {
  Harness h(1);
  h.node(1)->InjectBackgroundLoad(1900 * kMillisecond);  // pressure 1.0
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  int64_t before = h.network.sent_to(1);
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(4 * kSecond);
  ASSERT_EQ(results.size(), keys.size());
  for (const auto& r : results) EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // 64 keys at the min sub-batch of 4 = 16 messages.
  EXPECT_EQ(h.network.sent_to(1) - before, 64 / static_cast<int64_t>(Router::kMinSubBatch));
}

TEST(AdaptiveBatchTest, SpentDeadlineBudgetShrinksSubBatches) {
  Harness h(1);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  // Pre-armed options whose budget is already 90% consumed: the idle node
  // would get one full batch, but the dying request sends small
  // shed-eligible ones. 16 keys/sub-batch at 10% remaining -> 4 messages.
  RequestOptions options;
  options.deadline = 2 * kSecond;
  options.deadline_at = h.loop.Now() + 200 * kMillisecond;
  int64_t before = h.network.sent_to(1);
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, options,
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(kSecond);
  ASSERT_EQ(results.size(), keys.size());
  int64_t messages = h.network.sent_to(1) - before;
  EXPECT_GT(messages, 1);
  EXPECT_LE(messages, 8);
}

TEST(AdaptiveBatchTest, DisabledAdaptiveKeepsSingleMessagePerNode) {
  Harness h(1);
  h.router->mutable_config()->adaptive_batch.enabled = false;
  h.node(1)->InjectBackgroundLoad(1900 * kMillisecond);
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("k" + std::to_string(i));
  int64_t before = h.network.sent_to(1);
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(4 * kSecond);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_EQ(h.network.sent_to(1) - before, 1);
}

TEST(AdaptiveBatchTest, ChunkedMultiGetPreservesOrderAndDuplicates) {
  Harness h(1);
  for (int i = 0; i < 32; ++i) {
    bool done = false;
    h.router->Put("k" + std::to_string(i), "v" + std::to_string(i), AckMode::kPrimary, RequestOptions{},
                  [&](Status s) {
                    done = true;
                    EXPECT_TRUE(s.ok());
                  });
    h.loop.RunFor(50 * kMillisecond);
    ASSERT_TRUE(done);
  }
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);  // force chunking
  // Duplicates straddling chunk boundaries, out of order.
  std::vector<std::string> keys;
  for (int i = 31; i >= 0; --i) {
    keys.push_back("k" + std::to_string(i));
    keys.push_back("k" + std::to_string(i % 7));
  }
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(4 * kSecond);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << keys[i] << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->value, "v" + keys[i].substr(1)) << keys[i];
  }
}

TEST(AdaptiveBatchTest, ChunkedMultiWriteAppliesEveryOp) {
  Harness h(1);
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);  // force chunking
  std::vector<Router::WriteOp> ops;
  for (int i = 0; i < 40; ++i) {
    Router::WriteOp op;
    op.key = "w" + std::to_string(i);
    op.value = "v" + std::to_string(i);
    ops.push_back(op);
  }
  int64_t before = h.network.sent_to(1);
  std::vector<Status> statuses;
  h.router->MultiWrite(ops, AckMode::kPrimary, RequestOptions{},
                       [&](std::vector<Status> s) { statuses = std::move(s); });
  h.loop.RunFor(4 * kSecond);
  ASSERT_EQ(statuses.size(), ops.size());
  for (const Status& s : statuses) EXPECT_TRUE(s.ok());
  EXPECT_GT(h.network.sent_to(1) - before, 1);  // really chunked
  for (int i = 0; i < 40; ++i) {
    auto got = h.node(1)->engine()->Get("w" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "v" + std::to_string(i));
  }
}

TEST(AdaptiveBatchTest, ShedSubBatchesRedirectToNextReplica) {
  // rf=2: node 1 is backlogged past the hard cap, so its sub-batches shed;
  // the redirect must land those keys on the idle replica (node 2) instead
  // of failing the fan-out.
  Harness h(2, /*rf=*/2);
  h.router->mutable_config()->read_target = ReadTarget::kPrimary;
  h.node(1)->InjectBackgroundLoad(2400 * kMillisecond);  // above the 2s cap
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back(std::string(1, static_cast<char>(i * 16)) + "k");
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(5 * kSecond);
  ASSERT_EQ(results.size(), keys.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);  // served, not failed
  }
  const NodeStats& hot = h.node(1)->stats();
  EXPECT_GT(hot.shed_by_priority[PriorityIndex(RequestPriority::kNormal)], 0);
}

// ----------------------------------------------------------- long queue --
//
// Service times: a one-key read 120 us, each extra key 25 us, a replicated
// record 40 us. A request longer than one 320 us quantum enters the FIFO a
// quantum at a time.

constexpr Duration kQuantum = 320;

std::vector<std::string> Keys(int count, const std::string& prefix = "k") {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) keys.push_back(prefix + std::to_string(i));
  return keys;
}

// Two nodes, rf 2, no jitter: node 1 leads partition 0 (keys below 0x20)
// and node 2 replicates it, so a batch written at node 1 reaches node 2 as
// one channel message exactly 200 us later.
struct ReplicaHarness : Harness {
  ReplicaHarness() : Harness(2, /*rf=*/2, NodeConfig{}, NoJitter()) {}

  static NetworkConfig NoJitter() {
    NetworkConfig config;
    config.jitter_mean = 0;
    return config;
  }

  // Writes `count` partition-0 keys at node 1 as one kAll batch. It applies
  // and ships at once; its records cost node 2 40 us each (128 records, 16
  // quanta).
  void WriteBatch(int count, bool* acked) {
    std::vector<MultiWriteItem> items;
    for (const std::string& key : Keys(count, std::string(1, '\x01'))) {
      MultiWriteItem item;
      item.pid = 0;
      item.record.key = key;
      item.record.value = "v";
      item.record.version = Version{loop.Now(), kClient};
      items.push_back(std::move(item));
    }
    node(1)->HandleMultiWrite(std::move(items), AckMode::kAll, RequestPriority::kNormal,
                              [acked](std::vector<WriteReply> replies) {
                                for (const WriteReply& reply : replies) {
                                  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
                                }
                                *acked = true;
                              });
  }

  int64_t applied() { return node(2)->stats().records_replicated_in; }

  // Runs to `deadline` a microsecond at a time, noting when node 2 first
  // applies a replicated record.
  void RunUntilWatching(Time deadline) {
    while (loop.Now() < deadline) {
      loop.RunFor(1);
      if (applied_at < 0 && applied() > 0) applied_at = loop.Now();
    }
  }
  Time applied_at = -1;
};

TEST(LongQueueTest, PointReadOvertakesAReplicationMessage) {
  ReplicaHarness h;
  h.loop.RunUntil(10 * kMillisecond);
  const Time t0 = h.loop.Now();
  bool acked = false;
  h.WriteBatch(128, &acked);
  // The message arrives at t0 + 200; its third quantum runs until t0 + 1,160.
  h.loop.RunUntil(t0 + 1000);
  Time read_at = -1;
  ReadAtNode(h.node(2), std::string(1, '\x01') + "k0", RequestPriority::kNormal,
             [&](Result<Record> result) {
               read_at = h.loop.Now();
               EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
             });
  // The last quantum ends at t0 + 200 + 5,120 + 120 (the read's service).
  const Time applies_at = t0 + 200 + 5120 + 120;
  h.loop.RunUntil(applies_at - 1);
  EXPECT_EQ(read_at, t0 + 1160 + 120);  // behind one quantum, not the whole message
  // Nothing applied, no watermark, no ack until the last quantum ends.
  EXPECT_EQ(h.applied(), 0);
  EXPECT_EQ(h.node(2)->replicated_through(0), 0);
  EXPECT_EQ(h.network.sent_to(1), 0);
  h.loop.RunUntil(applies_at);
  EXPECT_EQ(h.applied(), 128);
  EXPECT_EQ(h.node(2)->replicated_through(0), t0);
  EXPECT_EQ(h.network.sent_to(1), 1);
  // The batch acks at its commit's end: 180 + 127 x 60 us.
  h.loop.RunUntil(t0 + 7800);
  EXPECT_TRUE(acked);
}

TEST(LongQueueTest, PointReadOvertakesAMultiKeyRead) {
  Harness h(1);
  Time long_at = -1;
  h.node(1)->HandleMultiGet(Keys(128), RequestPriority::kNormal,
                            [&](MultiGetReply) { long_at = h.loop.Now(); });
  // 120 + 127 x 25 = 3,295 us: one quantum in the FIFO, the rest counted too.
  EXPECT_EQ(h.node(1)->queue_delay(), 3295);
  h.loop.RunUntil(1000);
  Time short_at = -1;
  ReadAtNode(h.node(1), "a", RequestPriority::kNormal,
             [&](Result<Record>) { short_at = h.loop.Now(); });
  h.loop.RunUntil(10 * kMillisecond);
  EXPECT_EQ(short_at, 1280 + 120);  // behind the fourth quantum only
  EXPECT_EQ(long_at, 3295 + 120);
}

TEST(LongQueueTest, MultiKeyReadRecordsItsSojournWhenItsLastQuantumEnds) {
  Harness h(1);
  Time long_at = -1;
  h.node(1)->HandleMultiGet(Keys(128), RequestPriority::kNormal,
                            [&](MultiGetReply) { long_at = h.loop.Now(); });
  // Ten point reads (1,200 us) slip in behind its fourth quantum, so it
  // ends 1,200 us later than its 3,295 us of service.
  h.loop.RunUntil(1000);
  for (int i = 0; i < 10; ++i) {
    ReadAtNode(h.node(1), "p" + std::to_string(i), RequestPriority::kNormal,
               [](Result<Record>) {});
  }
  h.loop.RunUntil(10 * kMillisecond);
  EXPECT_EQ(long_at, 3295 + 1200);
  const LogHistogram& sojourn = h.node(1)->sojourn_histogram();
  EXPECT_EQ(sojourn.count(), 11);
  EXPECT_EQ(sojourn.max(), long_at);
}

TEST(LongQueueTest, DeclaredBackgroundLoadAdmitsLongRequestsWhole) {
  Harness h(1);
  h.node(1)->SetBackgroundLoad(0.01, 0);
  h.node(1)->HandleMultiGet(Keys(128), RequestPriority::kNormal, [](MultiGetReply) {});
  h.loop.RunUntil(1000);
  Time short_at = -1;
  ReadAtNode(h.node(1), "a", RequestPriority::kNormal,
             [&](Result<Record>) { short_at = h.loop.Now(); });
  h.loop.RunUntil(10 * kMillisecond);
  EXPECT_GE(short_at, 3295 + 120);  // the whole batch was in the FIFO
}

TEST(LongQueueTest, MultiKeyReadGoesBeforeAMessagesRemainingQuanta) {
  ReplicaHarness h;
  bool acked = false;
  h.WriteBatch(128, &acked);
  h.loop.RunUntil(1000);
  // 120 + 19 x 25 = 595 us: two quanta, from the end of the message's third.
  Time read_at = -1;
  int64_t applied_at_read = -1;
  h.node(2)->HandleMultiGet(Keys(20), RequestPriority::kNormal, [&](MultiGetReply) {
    read_at = h.loop.Now();
    applied_at_read = h.applied();
  });
  h.loop.RunUntil(20 * kMillisecond);
  EXPECT_EQ(read_at, 1160 + 595);
  EXPECT_EQ(applied_at_read, 0);
  EXPECT_EQ(h.applied(), 128);
  EXPECT_TRUE(acked);
}

TEST(LongQueueTest, MessageThatWaited25msGoesBeforeNewerReads) {
  ReplicaHarness h;
  bool acked = false;
  // 96 records, 12 quanta: short enough that its deadline never beats its
  // patience.
  h.WriteBatch(96, &acked);
  h.loop.RunUntil(300);
  // 128-key reads (3,295 us) every 3 ms for 60 ms keep the read class busy
  // throughout; without the age rule the message would wait for all of them.
  constexpr int kReads = 20;
  std::vector<Time> read_at(kReads, -1);
  std::vector<int64_t> applied_at_read(kReads, -1);
  for (int i = 0; i < kReads; ++i) {
    h.RunUntilWatching(300 + 3000 * i);
    h.node(2)->HandleMultiGet(Keys(128), RequestPriority::kNormal, [&, i](MultiGetReply) {
      read_at[i] = h.loop.Now();
      applied_at_read[i] = h.applied();
    });
  }
  h.RunUntilWatching(200 * kMillisecond);
  // It arrived at 200 and ran one quantum; from the first quantum boundary
  // after 25,200 its other 11 quanta (3,520 us) go first.
  EXPECT_GE(h.applied_at, 200 + 25000 + 3520);
  EXPECT_LT(h.applied_at, 200 + 25000 + kQuantum + 3520);
  // Reads 0-6 (3,295 us each from 520) were done by then. Read 7, newer
  // than the message and in service when it ran out of patience, and every
  // later read answer after it; the primary never resent it.
  EXPECT_EQ(applied_at_read[6], 0);
  EXPECT_EQ(applied_at_read[7], 96);
  EXPECT_EQ(applied_at_read[kReads - 1], 96);
  EXPECT_GT(read_at[kReads - 1], h.applied_at);
  EXPECT_EQ(h.node(1)->stats().retransmits, 0);
  EXPECT_TRUE(acked);
}

TEST(LongQueueTest, MessageIsAckedBeforeItsPrimaryResendsIt) {
  ReplicaHarness h;
  bool acked = false;
  h.WriteBatch(128, &acked);  // at node 2 from 200
  // Ten point readers, each sending its next read when the last one
  // answers, hold up to 1,200 us of short work in the FIFO: just under four
  // quanta, so each of the message's 16 quanta can wait that long without a
  // fallback. Had the message waited out its 25 ms of patience, they would
  // end past the primary's resend at 50 ms.
  std::function<void()> point_read = [&] {
    if (h.loop.Now() >= 80 * kMillisecond) return;
    ReadAtNode(h.node(2), "p", RequestPriority::kNormal, [&](Result<Record>) { point_read(); });
  };
  for (int reader = 0; reader < 10; ++reader) point_read();
  // 128-key reads, one in service when the message arrives and one more
  // every 3 ms, keep the read class busy throughout.
  for (int i = 0; i < 20; ++i) {
    h.RunUntilWatching(100 + 3000 * i);
    h.node(2)->HandleMultiGet(Keys(128), RequestPriority::kNormal, [](MultiGetReply) {});
  }
  h.RunUntilWatching(200 * kMillisecond);
  EXPECT_GT(h.applied_at, 20 * kMillisecond);  // the reads went first for a while
  EXPECT_LT(h.applied_at + 200, 50 * kMillisecond);
  EXPECT_EQ(h.node(1)->stats().retransmits, 0);
  EXPECT_TRUE(acked);
}

TEST(LongQueueTest, OverloadedNodeServesLongRequestsInArrivalOrder) {
  ReplicaHarness h;
  bool acked = false;
  h.WriteBatch(128, &acked);  // at node 2 from 200: first quantum [200, 520]
  h.loop.RunUntil(300);
  Time multiget_at = -1;  // queued behind the quantum
  h.node(2)->HandleMultiGet(Keys(128), RequestPriority::kNormal,
                            [&](MultiGetReply) { multiget_at = h.loop.Now(); });
  h.loop.RunUntil(400);
  // Twelve point reads: the eleventh puts 1,320 us of short work in the
  // FIFO, past four quanta, so the rest of the message and then the
  // multi-key read enter the FIFO whole, in arrival order.
  std::vector<Time> point_at(12, -1);
  for (int i = 0; i < 12; ++i) {
    ReadAtNode(h.node(2), "p" + std::to_string(i), RequestPriority::kNormal,
               [&, i](Result<Record>) { point_at[static_cast<size_t>(i)] = h.loop.Now(); });
  }
  h.RunUntilWatching(100 * kMillisecond);
  EXPECT_EQ(point_at[10], 520 + 11 * 120);
  EXPECT_EQ(h.applied_at, 1840 + 15 * kQuantum);
  EXPECT_EQ(multiget_at, h.applied_at + 3295);
  EXPECT_EQ(point_at[11], multiget_at + 120);  // queued behind both
  EXPECT_TRUE(acked);
}

}  // namespace
}  // namespace scads
