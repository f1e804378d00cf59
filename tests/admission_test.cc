// Tests for priority-aware node admission and load-adaptive sub-batch
// sizing: the shed order under saturation, the per-priority counters, the
// RequestOptions::priority plumbing through both point and batched router
// paths, and the Router's sub-batch cap reacting to node load and the
// remaining deadline budget.

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

  explicit Harness(int node_count, int rf = 1, NodeConfig node_config = {}) : network(&loop, 5) {
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

}  // namespace
}  // namespace scads
