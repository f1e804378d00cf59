// Unit + integration tests for src/cluster: partition map, cluster state,
// node queueing model, router request paths, replication streams,
// rebalancing.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

// ------------------------------------------------------------- Partition --

TEST(PartitionMapTest, CreateCoversKeySpace) {
  auto map = PartitionMap::Create({"g", "p"}, {0, 1, 2}, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->size(), 3u);
  EXPECT_EQ(map->ForKey("apple").start, "");
  EXPECT_EQ(map->ForKey("grape").start, "g");
  EXPECT_EQ(map->ForKey("zebra").start, "p");
  EXPECT_EQ(map->ForKey("g").start, "g");  // boundary is inclusive on right
}

TEST(PartitionMapTest, ReplicasRoundRobin) {
  auto map = PartitionMap::Create({"m"}, {10, 20, 30}, 2);
  ASSERT_TRUE(map.ok());
  const auto& parts = map->partitions();
  EXPECT_EQ(parts[0].replicas, (std::vector<NodeId>{10, 20}));
  EXPECT_EQ(parts[1].replicas, (std::vector<NodeId>{20, 30}));
}

TEST(PartitionMapTest, ReplicationFactorCappedAtNodeCount) {
  auto map = PartitionMap::Create({}, {5}, 3);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->partitions()[0].replicas.size(), 1u);
  EXPECT_EQ(map->replication_factor(), 1);
}

TEST(PartitionMapTest, CreateRejectsBadInput) {
  EXPECT_FALSE(PartitionMap::Create({}, {}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({"b", "a"}, {0}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({""}, {0}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({}, {0}, 0).ok());
}

TEST(PartitionMapTest, CreateUniformSplitsByteSpace) {
  auto map = PartitionMap::CreateUniform(16, {0, 1, 2, 3}, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->size(), 16u);
  // A low key and a high key land in different partitions.
  EXPECT_NE(map->ForKey(std::string(1, '\x01')).id, map->ForKey(std::string(1, '\xfe')).id);
}

TEST(PartitionMapTest, SplitCreatesNewRange) {
  auto map = PartitionMap::Create({}, {0, 1}, 2);
  ASSERT_TRUE(map.ok());
  auto new_id = map->Split("m");
  ASSERT_TRUE(new_id.ok());
  EXPECT_EQ(map->size(), 2u);
  EXPECT_EQ(map->ForKey("a").end, "m");
  EXPECT_EQ(map->ForKey("z").start, "m");
  EXPECT_EQ(map->ForKey("z").id, *new_id);
  // Replica sets inherited.
  EXPECT_EQ(map->ForKey("a").replicas, map->ForKey("z").replicas);
  // Splitting at an existing boundary fails.
  EXPECT_EQ(map->Split("m").status().code(), StatusCode::kAlreadyExists);
}

TEST(PartitionMapTest, MergeWithRightRequiresMatchingReplicas) {
  auto map = PartitionMap::Create({}, {0, 1}, 2);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Split("m").ok());
  PartitionId left = map->ForKey("a").id;
  ASSERT_TRUE(map->MergeWithRight(left).ok());
  EXPECT_EQ(map->size(), 1u);
  EXPECT_EQ(map->ForKey("z").end, "");

  ASSERT_TRUE(map->Split("m").ok());
  PartitionId right = map->ForKey("z").id;
  ASSERT_TRUE(map->SetReplicas(right, {1}).ok());
  EXPECT_EQ(map->MergeWithRight(map->ForKey("a").id).code(), StatusCode::kFailedPrecondition);
}

TEST(PartitionMapTest, PartitionsOnNode) {
  auto map = PartitionMap::Create({"m"}, {10, 20}, 2);
  ASSERT_TRUE(map.ok());
  // p0: {10,20}, p1: {20,10}
  EXPECT_EQ(map->PartitionsOnNode(10).size(), 2u);
  EXPECT_EQ(map->PartitionsOnNode(10, /*primary_only=*/true).size(), 1u);
  EXPECT_EQ(map->PartitionsOnNode(99).size(), 0u);
}

// ----------------------------------------------------------- ClusterState --

TEST(ClusterStateTest, AddRemoveAliveness) {
  ClusterState cluster;
  EXPECT_TRUE(cluster.AddNode(1, nullptr).ok());
  EXPECT_EQ(cluster.AddNode(1, nullptr).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(cluster.IsAlive(1));
  cluster.SetNodeAlive(1, false);
  EXPECT_FALSE(cluster.IsAlive(1));
  EXPECT_EQ(cluster.AliveNodes().size(), 0u);
  cluster.SetNodeAlive(1, true);
  EXPECT_EQ(cluster.AliveNodes().size(), 1u);
  EXPECT_TRUE(cluster.RemoveNode(1).ok());
  EXPECT_EQ(cluster.RemoveNode(1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(cluster.IsAlive(1));
}

// --------------------------------------------------------- Test harness --

constexpr NodeId kClient = 1000;

// A small in-process cluster: N nodes, one partition map, one router.
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
    auto map = PartitionMap::Create({}, ids, replication_factor);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, router_config, 99);
  }

  // Synchronous wrappers: issue, run the loop until the callback fires.
  Status PutSync(const std::string& key, const std::string& value,
                 AckMode ack = AckMode::kPrimary) {
    Status out = InternalError("callback never ran");
    bool done = false;
    router->Put(key, value, ack, RequestOptions{}, [&](Status s) {
      out = std::move(s);
      done = true;
    });
    for (int i = 0; i < 1000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Result<Record> GetSync(const std::string& key, bool pin_primary = false) {
    Result<Record> out(InternalError("callback never ran"));
    bool done = false;
    RequestOptions options;
    if (pin_primary) options.read_mode = ReadMode::kPrimaryOnly;
    router->Get(key, options, [&](Result<Record> r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 1000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }
};

// ---------------------------------------------------------------- Router --

TEST(RouterTest, PutThenGetRoundTrip) {
  TestCluster tc(3, 2);
  ASSERT_TRUE(tc.PutSync("user:1", "alice").ok());
  tc.loop.RunFor(kSecond);  // let replication settle
  auto got = tc.GetSync("user:1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "alice");
}

TEST(RouterTest, GetMissingKeyIsNotFound) {
  TestCluster tc(2, 1);
  auto got = tc.GetSync("ghost");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // NotFound counts as an answered read.
  EXPECT_EQ(tc.router->window().reads_ok, 1);
  EXPECT_EQ(tc.router->window().reads_failed, 0);
}

TEST(RouterTest, WritesGoToPrimaryOnly) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  // Immediately after the ack (before async replication), only the primary
  // is guaranteed to have it.
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  EXPECT_TRUE(primary->engine()->Get("k").ok());
}

TEST(RouterTest, AsyncReplicationReachesAllReplicas) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  for (const auto& node : tc.nodes) {
    EXPECT_TRUE(node->engine()->Get("k").ok()) << "node " << node->id();
  }
}

TEST(RouterTest, QuorumAckWaitsForSecondary) {
  TestCluster tc(3, 3);
  Status status = tc.PutSync("k", "v", AckMode::kQuorum);
  ASSERT_TRUE(status.ok());
  // Quorum of 3 = 2: at ack time, at least 2 replicas must have the write.
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  int holders = 0;
  for (NodeId replica : p.replicas) {
    if (tc.cluster.GetNode(replica)->engine()->Get("k").ok()) ++holders;
  }
  EXPECT_GE(holders, 2);
}

TEST(RouterTest, AllAckReachesEveryReplica) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v", AckMode::kAll).ok());
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  for (NodeId replica : p.replicas) {
    EXPECT_TRUE(tc.cluster.GetNode(replica)->engine()->Get("k").ok());
  }
}

TEST(RouterTest, WriteTimesOutWhenPrimaryDown) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);  // isolate primary
  Status status = tc.PutSync("k", "v");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(tc.router->window().writes_failed, 1);
}

TEST(RouterTest, ReadFailsOverToSecondaryWhenPrimaryDown) {
  TestCluster tc(2, 2);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);  // replicate
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);
  RouterConfig* cfg = tc.router->mutable_config();
  cfg->read_target = ReadTarget::kPrimary;  // force first attempt at primary
  cfg->read_retries = 1;
  auto got = tc.GetSync("k", /*pin_primary=*/false);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
}

TEST(RouterTest, PinnedPrimaryReadFailsWhenPrimaryDown) {
  TestCluster tc(2, 2);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);
  auto got = tc.GetSync("k", /*pin_primary=*/true);
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST(RouterTest, LastWriteWinsAcrossOverwrites) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v1").ok());
  tc.loop.RunFor(100 * kMillisecond);
  ASSERT_TRUE(tc.PutSync("k", "v2").ok());
  tc.loop.RunFor(kSecond);
  for (const auto& node : tc.nodes) {
    auto got = node->engine()->Get("k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "v2") << "node " << node->id();
  }
}

TEST(RouterTest, ScanWithinPartition) {
  TestCluster tc(2, 1);
  ASSERT_TRUE(tc.PutSync("row:a", "1").ok());
  ASSERT_TRUE(tc.PutSync("row:b", "2").ok());
  ASSERT_TRUE(tc.PutSync("row:c", "3").ok());
  tc.loop.RunFor(kSecond);
  Result<std::vector<Record>> rows(InternalError("pending"));
  bool done = false;
  tc.router->Scan("row:a", "row:c", 0, RequestOptions{}, [&](Result<std::vector<Record>> r) {
    rows = std::move(r);
    done = true;
  });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].key, "row:a");
  EXPECT_EQ((*rows)[1].key, "row:b");
}

// A compare-and-set put: applies only while `key`'s live record carries
// `expected` (std::nullopt: while the key holds no live record).
Router::WriteOp CasPut(const std::string& key, const std::string& value,
                       std::optional<Version> expected) {
  Router::WriteOp op{Router::WriteOp::Kind::kPut, key, value};
  op.condition = WriteCondition{expected};
  return op;
}

TEST(RouterTest, ConditionalWriteEnforcesVersionCheck) {
  TestCluster tc(2, 2);
  Status status = InternalError("pending");
  auto write = [&](const Router::WriteOp& op) {
    status = InternalError("pending");
    tc.router->Write(op, AckMode::kPrimary, RequestOptions{},
                     [&](Result<Router::WriteAck> r) { status = r.status(); });
    tc.loop.RunFor(kSecond);
    return status;
  };
  // Create: expect-absent succeeds once.
  ASSERT_TRUE(write(CasPut("cas", "v1", std::nullopt)).ok());
  // Second expect-absent aborts.
  EXPECT_EQ(write(CasPut("cas", "v2", std::nullopt)).code(), StatusCode::kAborted);

  // Read-modify-write with the right version succeeds.
  auto current = tc.GetSync("cas", /*pin_primary=*/true);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(write(CasPut("cas", "v2", current->version)).ok());
  EXPECT_EQ(tc.GetSync("cas", true)->value, "v2");

  // Stale version now aborts.
  EXPECT_EQ(write(CasPut("cas", "v3", current->version)).code(), StatusCode::kAborted);
  EXPECT_EQ(tc.GetSync("cas", true)->value, "v2");
  // A lost CAS is an answered write: the system worked, the CAS lost.
  EXPECT_EQ(tc.router->window().writes_failed, 0);
}

TEST(RouterTest, ConditionalWriteTheEngineWouldDropReportsAborted) {
  // One node, rf 1, no jitter: messages sent in one instant land in send
  // order.
  NetworkConfig net_config;
  net_config.jitter_mean = 0;
  TestCluster tc(1, 1, NodeConfig{}, RouterConfig{}, net_config);
  Router deleter(kClient + 1, &tc.loop, &tc.network, &tc.cluster, RouterConfig{}, 98);
  Status deleted = InternalError("pending");
  Status cas = InternalError("pending");
  // The delete lands first, stamped {t, kClient + 1}; the CAS follows with
  // the older stamp {t, kClient}. Its expect-absent check passes over the
  // tombstone, but the engine would drop it as superseded.
  deleter.Delete("k", AckMode::kPrimary, RequestOptions{}, [&](Status s) { deleted = s; });
  tc.router->Write(CasPut("k", "v", std::nullopt), AckMode::kPrimary, RequestOptions{},
                   [&](Result<Router::WriteAck> r) { cas = r.status(); });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(deleted.ok()) << deleted.ToString();
  EXPECT_EQ(cas.code(), StatusCode::kAborted) << cas.ToString();
  EXPECT_EQ(tc.nodes[0]->engine()->Get("k").status().code(), StatusCode::kNotFound);
}

TEST(RouterTest, MultiWriteRejectsConditionalOps) {
  TestCluster tc(1, 1);
  std::vector<Status> statuses;
  std::vector<Router::WriteOp> ops = {CasPut("a", "cas", std::nullopt),
                                      {Router::WriteOp::Kind::kPut, "a", "plain"},
                                      CasPut("b", "cas", std::nullopt)};
  tc.router->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                        [&](std::vector<Status> s) { statuses = std::move(s); });
  tc.loop.RunFor(kSecond);
  // A batch checks no condition, so its conditioned ops are refused, not
  // applied unconditionally; the plain op on the same key still lands.
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(statuses[2].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tc.nodes[0]->engine()->Get("a")->value, "plain");
  EXPECT_EQ(tc.nodes[0]->engine()->Get("b").status().code(), StatusCode::kNotFound);
}

TEST(RouterTest, TimedOutRequestsLeaveNoStaleCancellation) {
  // The node accepts every message and never answers, so each request ends
  // on its timeout. A timeout must not cancel its own (already fired)
  // timer: the event loop would keep that id as a cancellation forever and
  // under-count pending events. No heartbeats, so the loop can drain.
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;
  TestCluster tc(1, 1, node_config);
  tc.nodes[0]->set_alive(false);
  std::vector<Status> statuses;
  auto record = [&statuses](Status status) { statuses.push_back(std::move(status)); };
  tc.router->Get("a", RequestOptions{}, [&](Result<Record> r) { record(r.status()); });
  tc.router->MultiGet({"a", "b"}, RequestOptions{},
                      [&](std::vector<Result<Record>> r) { record(r[0].status()); });
  tc.router->Scan("a", "b", 0, RequestOptions{},
                  [&](Result<std::vector<Record>> r) { record(r.status()); });
  tc.router->Put("a", "v", AckMode::kPrimary, RequestOptions{}, record);
  tc.router->Delete("b", AckMode::kPrimary, RequestOptions{}, record);
  tc.router->Write(CasPut("c", "v", std::nullopt), AckMode::kPrimary, RequestOptions{},
                   [&](Result<Router::WriteAck> r) { record(r.status()); });
  tc.router->MultiWrite({{Router::WriteOp::Kind::kPut, "d", "v"}}, AckMode::kPrimary,
                        RequestOptions{}, [&](std::vector<Status> s) { record(s[0]); });
  tc.loop.RunAll();
  ASSERT_EQ(statuses.size(), 7u);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  }
  EXPECT_EQ(tc.loop.pending_count(), 0u);
}

TEST(RouterTest, DeletePropagates) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  Status deleted = InternalError("pending");
  tc.router->Delete("k", AckMode::kPrimary, RequestOptions{}, [&](Status s) { deleted = std::move(s); });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(deleted.ok());
  for (const auto& node : tc.nodes) {
    EXPECT_EQ(node->engine()->Get("k").status().code(), StatusCode::kNotFound);
  }
}

// ------------------------------------------------------------ Node model --

TEST(NodeModelTest, LatencyGrowsWithQueueDepth) {
  TestCluster tc(1, 1);
  StorageNode* node = tc.nodes[0].get();
  // Saturate: submit a burst far above per-request service time.
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    node->HandleGet("k", RequestPriority::kNormal, [&](Result<Record>) { ++completed; });
  }
  // Queue delay should now be ~100 * service_time.
  EXPECT_GE(node->queue_delay(), 99 * node->config().get_service_time);
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(completed, 100);
  // p99 sojourn near the tail of the burst, far above a single service time.
  EXPECT_GT(node->sojourn_histogram().ValueAtQuantile(0.99),
            50 * node->config().get_service_time);
}

TEST(NodeModelTest, OverloadShedsRequests) {
  NodeConfig config;
  config.max_queue_delay = 10 * config.get_service_time;
  TestCluster tc(1, 1, config);
  StorageNode* node = tc.nodes[0].get();
  int shed = 0, served = 0;
  for (int i = 0; i < 1000; ++i) {
    node->HandleGet("k", RequestPriority::kNormal, [&](Result<Record> r) {
      if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++served;
      }
    });
  }
  tc.loop.RunFor(kSecond);
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  EXPECT_EQ(shed + served, 1000);
  EXPECT_EQ(node->stats().ops_shed, shed);
}

TEST(NodeModelTest, DeadNodeIgnoresRequests) {
  TestCluster tc(1, 1);
  StorageNode* node = tc.nodes[0].get();
  node->set_alive(false);
  bool called = false;
  node->HandleGet("k", RequestPriority::kNormal, [&](Result<Record>) { called = true; });
  tc.loop.RunFor(kSecond);
  EXPECT_FALSE(called);
}

// ------------------------------------------------------------ Replication --

TEST(ReplicationTest, WatermarkAdvancesOnSecondaries) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  NodeId secondary_id = p.replicas[1];
  StorageNode* secondary = tc.cluster.GetNode(secondary_id);
  PartitionId pid = p.id;
  EXPECT_EQ(secondary->replicated_through(pid), 0);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(2 * kSecond);
  EXPECT_GT(secondary->replicated_through(pid), 0);
}

TEST(ReplicationTest, HeartbeatAdvancesWatermarkWithoutWrites) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  StorageNode* secondary = tc.cluster.GetNode(p.replicas[1]);
  tc.loop.RunFor(5 * kSecond);
  Time w1 = secondary->replicated_through(p.id);
  EXPECT_GT(w1, 0);
  tc.loop.RunFor(5 * kSecond);
  EXPECT_GT(secondary->replicated_through(p.id), w1);
}

TEST(ReplicationTest, PrimaryReportsNowAsWatermark) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(primary->replicated_through(p.id), tc.loop.Now());
}

TEST(ReplicationTest, PartitionHealsAndCatchesUp) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  NodeId secondary_id = p.replicas[1];
  // Cut the secondary off, write, confirm it lags.
  tc.network.SetPartitionGroup(secondary_id, 9);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(2 * kSecond);
  StorageNode* secondary = tc.cluster.GetNode(secondary_id);
  EXPECT_FALSE(secondary->engine()->Get("k").ok());
  // Heal; retransmission must deliver the write.
  tc.network.Heal();
  tc.loop.RunFor(5 * kSecond);
  EXPECT_TRUE(secondary->engine()->Get("k").ok());
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  EXPECT_GT(primary->stats().retransmits, 0);
}

TEST(ReplicationTest, ManyWritesAllConverge) {
  TestCluster tc(3, 3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc.PutSync("key:" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  tc.loop.RunFor(5 * kSecond);
  for (const auto& node : tc.nodes) {
    EXPECT_EQ(node->engine()->live_count(), 50u) << "node " << node->id();
  }
}

// ------------------------------------------------------------- Rebalancer --

TEST(RebalancerTest, MoveReplicaTransfersDataAndOwnership) {
  TestCluster tc(3, 1);
  // All keys to one partition map with 3 nodes; partition 0 primary = node 0.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tc.PutSync("k" + std::to_string(i), "v").ok());
  }
  tc.loop.RunFor(kSecond);
  Rebalancer rebalancer(&tc.loop, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  NodeId old_primary = p.primary();
  NodeId target = (old_primary + 1) % 3;
  // The single-replica partition moves entirely.
  Status moved = InternalError("pending");
  rebalancer.MoveReplica(p.id, old_primary, target, [&](Status s) { moved = std::move(s); });
  EXPECT_TRUE(rebalancer.IsMoving(p.id));
  tc.loop.RunFor(10 * kSecond);
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(rebalancer.IsMoving(p.id));
  const PartitionInfo* after = tc.cluster.partitions()->Get(p.id);
  EXPECT_EQ(after->primary(), target);
  // Target must hold the data.
  StorageNode* new_primary = tc.cluster.GetNode(target);
  size_t live_on_target = new_primary->engine()->live_count();
  EXPECT_GE(live_on_target, 200u * 9 / 10);
  EXPECT_GT(rebalancer.records_streamed(), 0);
  // Reads still work after the move.
  auto got = tc.GetSync("k0");
  ASSERT_TRUE(got.ok());
}

TEST(RebalancerTest, MovePreconditionsChecked) {
  TestCluster tc(3, 2);
  Rebalancer rebalancer(&tc.loop, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  Status status = InternalError("pending");
  rebalancer.MoveReplica(999, 0, 1, [&](Status s) { status = std::move(s); });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // to already a replica
  rebalancer.MoveReplica(p.id, p.replicas[0], p.replicas[1],
                         [&](Status s) { status = std::move(s); });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(RebalancerTest, WritesDuringMoveAreNotLost) {
  TestCluster tc(2, 1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tc.PutSync("pre" + std::to_string(i), "v").ok());
  }
  Rebalancer rebalancer(&tc.loop, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  NodeId source = p.primary();
  NodeId target = source == 0 ? 1 : 0;
  Status moved = InternalError("pending");
  rebalancer.MoveReplica(p.id, source, target, [&](Status s) { moved = std::move(s); });
  // Write while the stream is in flight.
  ASSERT_TRUE(tc.PutSync("during_move", "fresh").ok());
  tc.loop.RunFor(20 * kSecond);
  ASSERT_TRUE(moved.ok());
  auto got = tc.GetSync("during_move");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "fresh");
}

TEST(RebalancerTest, DrainNodeEmptiesIt) {
  TestCluster tc(3, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc.PutSync("k" + std::to_string(i), "v").ok());
  }
  tc.loop.RunFor(kSecond);
  Rebalancer rebalancer(&tc.loop, &tc.cluster);
  Status drained = InternalError("pending");
  rebalancer.DrainNode(0, {1, 2}, [&](Status s) { drained = std::move(s); });
  tc.loop.RunFor(30 * kSecond);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(tc.cluster.partitions()->PartitionsOnNode(0).size(), 0u);
  // All data still reachable.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(tc.GetSync("k" + std::to_string(i)).ok()) << i;
  }
}

// Parameterized: convergence must hold across replication factors.
class ConvergenceTest : public testing::TestWithParam<int> {};

TEST_P(ConvergenceTest, AllReplicasConvergeAfterMixedWorkload) {
  int rf = GetParam();
  TestCluster tc(4, rf);
  for (int i = 0; i < 30; ++i) {
    std::string key = "k" + std::to_string(i % 10);
    if (i % 7 == 3) {
      Status st = InternalError("pending");
      tc.router->Delete(key, AckMode::kPrimary, RequestOptions{}, [&](Status s) { st = std::move(s); });
      tc.loop.RunFor(kSecond);
      ASSERT_TRUE(st.ok());
    } else {
      ASSERT_TRUE(tc.PutSync(key, "v" + std::to_string(i)).ok());
    }
  }
  tc.loop.RunFor(10 * kSecond);
  // Every replica of each partition agrees with the primary.
  for (const auto& p : tc.cluster.partitions()->partitions()) {
    StorageNode* primary = tc.cluster.GetNode(p.primary());
    auto truth = primary->engine()->ScanRaw("", "", 0);
    for (NodeId replica : p.replicas) {
      if (replica == p.primary()) continue;
      StorageNode* node = tc.cluster.GetNode(replica);
      for (const Record& row : truth) {
        if (!p.Contains(row.key)) continue;
        auto copy = node->engine()->GetRaw(row.key);
        ASSERT_TRUE(copy.has_value()) << "rf=" << rf << " key=" << row.key;
        EXPECT_EQ(copy->version, row.version);
        EXPECT_EQ(copy->tombstone, row.tombstone);
        EXPECT_EQ(copy->value, row.value);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, ConvergenceTest, testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace scads
