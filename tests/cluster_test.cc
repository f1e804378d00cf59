// Unit + integration tests for src/cluster: partition map, cluster state,
// node queueing model, router request paths, replication streams,
// rebalancing.

#include <algorithm>
#include <cstdint>
#include <functional>
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
#include "storage/wal.h"
#include "support/node_read.h"

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

TEST(RouterTest, MultiWriteChecksEachOpsCondition) {
  TestCluster tc(1, 1);
  ASSERT_TRUE(tc.PutSync("taken", "old").ok());
  int64_t failed_before = tc.router->window().writes_failed;
  std::vector<Status> statuses;
  std::vector<Router::WriteOp> ops = {CasPut("taken", "new", std::nullopt),
                                      {Router::WriteOp::Kind::kPut, "plain", "p"},
                                      CasPut("fresh", "f", std::nullopt),
                                      CasPut("a", "cas", std::nullopt),
                                      {Router::WriteOp::Kind::kPut, "a", "last"}};
  tc.router->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                        [&](std::vector<Status> s) { statuses = std::move(s); });
  tc.loop.RunFor(kSecond);
  ASSERT_EQ(statuses.size(), 5u);
  StorageNode& node = *tc.nodes[0];
  // A failed condition aborts its op and changes nothing...
  EXPECT_EQ(statuses[0].code(), StatusCode::kAborted) << statuses[0].ToString();
  EXPECT_EQ(node.engine()->Get("taken")->value, "old");
  // ...while its siblings apply, an expect-absent op on a fresh key too.
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(node.engine()->Get("plain")->value, "p");
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
  EXPECT_EQ(node.engine()->Get("fresh")->value, "f");
  // Same-key ops coalesce to the last, so an earlier op's condition is
  // never checked: that op fails instead of applying unchecked.
  EXPECT_EQ(statuses[3].code(), StatusCode::kInvalidArgument) << statuses[3].ToString();
  EXPECT_TRUE(statuses[4].ok()) << statuses[4].ToString();
  EXPECT_EQ(node.engine()->Get("a")->value, "last");
  // The lost CAS is an answered write; the refused op is a failed one.
  EXPECT_EQ(tc.router->window().writes_failed - failed_before, 1);
}

TEST(RouterTest, EmptyKeyWriteFailsWithoutAMessage) {
  TestCluster tc(1, 1);
  int64_t sent_before = tc.network.sent_count();
  Status status = InternalError("callback never ran");
  tc.router->Write({Router::WriteOp::Kind::kPut, "", "v"}, AckMode::kPrimary, RequestOptions{},
                   [&](Result<Router::WriteAck> written) { status = written.status(); });
  // Refused before dispatch, so the callback has already run.
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(tc.network.sent_count(), sent_before);
  EXPECT_EQ(tc.nodes[0]->stats().ops_completed, 0);
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

TEST(RouterTest, AnsweredWriteFreesItsStateBeforeItsTimeout) {
  // The reply cancels the request's timer, but a cancelled timer stays
  // queued until it is due. The write's state, which holds the caller's
  // callback, must not wait there with it.
  TestCluster tc(1, 1);
  auto held = std::make_shared<int>(0);
  std::weak_ptr<int> watch = held;
  Status status = InternalError("pending");
  tc.router->Put("k", "v", AckMode::kPrimary, RequestOptions{},
                 [&status, held = std::move(held)](Status s) { status = std::move(s); });
  tc.loop.RunFor(10 * kMillisecond);  // far inside the 250 ms timeout
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(watch.expired());
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

// ---------------------------------------------------------- Write commit --
//
// Three nodes, rf 3, the default NodeConfig, no jitter: every hop takes the
// network's 200 us. A write's 180 us service is the primary's commit; the
// write applies and ships to the secondaries when that service starts, and
// its reply waits for the commit and for the replica acks its level needs.

NetworkConfig NoJitter() {
  NetworkConfig config;
  config.jitter_mean = 0;
  return config;
}

struct TimedReply {
  Status status = InternalError("callback never ran");
  Duration latency = -1;  // us from issue to callback
};

TimedReply TimedWrite(TestCluster& tc, const Router::WriteOp& op, AckMode ack) {
  TimedReply reply;
  Time issued = tc.loop.Now();
  tc.router->Write(op, ack, RequestOptions{}, [&](Result<Router::WriteAck> r) {
    reply.status = r.status();
    reply.latency = tc.loop.Now() - issued;
  });
  tc.loop.RunFor(kSecond);
  return reply;
}

Router::WriteOp PlainPut(const std::string& key, const std::string& value) {
  return {Router::WriteOp::Kind::kPut, key, value};
}

TEST(WriteCommitTest, QuorumAndAllPutsAckAfterTwoHopsAndTheReplicaRoundTrip) {
  // 200 request + max(180 commit, 200 + 40 + 200 replica round trip) + 200
  // reply. Committing before replicating took 200 + 180 + 440 + 200 = 1,020.
  TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, NoJitter());
  TimedReply quorum = TimedWrite(tc, PlainPut("q", "v"), AckMode::kQuorum);
  ASSERT_TRUE(quorum.status.ok()) << quorum.status.ToString();
  EXPECT_EQ(quorum.latency, 840);
  TimedReply all = TimedWrite(tc, PlainPut("a", "v"), AckMode::kAll);
  ASSERT_TRUE(all.status.ok()) << all.status.ToString();
  EXPECT_EQ(all.latency, 840);
}

TEST(WriteCommitTest, PrimaryAckedPutStillWaitsForItsCommit) {
  TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, NoJitter());
  TimedReply reply = TimedWrite(tc, PlainPut("k", "v"), AckMode::kPrimary);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.latency, 200 + 180 + 200);
}

TEST(WriteCommitTest, LostCasAnswersWhenItsCommitEndsAndShipsNothing) {
  TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, NoJitter());
  ASSERT_TRUE(TimedWrite(tc, PlainPut("k", "v1"), AckMode::kAll).status.ok());
  std::vector<int64_t> shipped_out;
  std::vector<int64_t> shipped_in;
  for (const auto& node : tc.nodes) {
    shipped_out.push_back(node->stats().records_replicated_out);
    shipped_in.push_back(node->stats().records_replicated_in);
  }
  // The version check fails when the service starts; the answer still
  // waits for the service to end.
  TimedReply lost = TimedWrite(tc, CasPut("k", "v2", Version{1, 1}), AckMode::kAll);
  EXPECT_EQ(lost.status.code(), StatusCode::kAborted) << lost.status.ToString();
  EXPECT_EQ(lost.latency, 200 + 180 + 200);
  for (size_t i = 0; i < tc.nodes.size(); ++i) {
    EXPECT_EQ(tc.nodes[i]->stats().records_replicated_out, shipped_out[i]) << "node " << i;
    EXPECT_EQ(tc.nodes[i]->stats().records_replicated_in, shipped_in[i]) << "node " << i;
    EXPECT_EQ(tc.nodes[i]->engine()->Get("k")->value, "v1") << "node " << i;
  }
}

TEST(WriteCommitTest, PrimaryKilledMidCommitNeverAcksYetEveryReplicaKeepsTheWrite) {
  TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, NoJitter());
  StorageNode* primary = tc.cluster.GetNode(tc.cluster.partitions()->ForKey("k").primary());
  Status status = InternalError("callback never ran");
  bool answered = false;
  tc.router->Put("k", "v", AckMode::kQuorum, RequestOptions{}, [&](Status s) {
    status = std::move(s);
    answered = true;
  });
  // The request lands at 200 us and its commit runs until 380 us.
  tc.loop.RunFor(290);
  EXPECT_TRUE(primary->engine()->Get("k").ok());  // applied as the service started
  primary->set_alive(false);
  // The replica acks land on a dead node, so the router's wait times out.
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(answered);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  primary->set_alive(true);
  tc.loop.RunFor(2 * kSecond);
  for (const auto& node : tc.nodes) {
    auto got = node->engine()->Get("k");
    ASSERT_TRUE(got.ok()) << "node " << node->id();
    EXPECT_EQ(got->value, "v") << "node " << node->id();
  }
  auto pinned = tc.GetSync("k", /*pin_primary=*/true);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->value, "v");
}

// ------------------------------------------------------------ Node model --

TEST(NodeModelTest, LatencyGrowsWithQueueDepth) {
  TestCluster tc(1, 1);
  StorageNode* node = tc.nodes[0].get();
  // Saturate: submit a burst far above per-request service time.
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    ReadAtNode(node, "k", RequestPriority::kNormal, [&](Result<Record>) { ++completed; });
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
    ReadAtNode(node, "k", RequestPriority::kNormal, [&](Result<Record> r) {
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
  ReadAtNode(node, "k", RequestPriority::kNormal, [&](Result<Record>) { called = true; });
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

// A primary that dies with a write not yet acked by its secondaries sends
// it once revived. A kQuorum write's batch is in flight: the acks land on
// the dead node, and its channel's retry timer keeps ticking through the
// outage, so the first tick after revival resends it. A kPrimary write's
// records still wait for the flush window, which closes while the node is
// dead, so they ship at revival. Either way the next heartbeat after the
// ack moves both watermarks past the revival.
TEST(ReplicationTest, RevivedPrimaryResumesItsStream) {
  for (AckMode ack : {AckMode::kQuorum, AckMode::kPrimary}) {
    SCOPED_TRACE(ack == AckMode::kQuorum ? "kQuorum" : "kPrimary");
    TestCluster tc(3, 3, NodeConfig{}, RouterConfig{}, NoJitter());
    const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
    StorageNode* primary = tc.cluster.GetNode(p.primary());
    tc.router->Put("k", "v", ack, RequestOptions{}, [](Status) {});
    // The write applies at 200 us; a kQuorum batch ships then and its acks
    // land at 640 us, a kPrimary one would ship at 2,200 us.
    tc.loop.RunFor(290);
    primary->set_alive(false);
    tc.loop.RunFor(kSecond);
    primary->set_alive(true);
    const Time revived = tc.loop.Now();
    tc.loop.RunFor(600 * kMillisecond);
    for (NodeId replica : p.replicas) {
      if (replica == p.primary()) continue;
      StorageNode* secondary = tc.cluster.GetNode(replica);
      EXPECT_TRUE(secondary->engine()->Get("k").ok()) << "node " << replica;
      EXPECT_GT(secondary->replicated_through(p.id), revived) << "node " << replica;
    }
  }
}

// Forwards every message to a SimNetwork and logs the payload of each one
// sent from `from` to `to`.
class PayloadLog : public MessageFabric {
 public:
  PayloadLog(SimNetwork* network, NodeId from, NodeId to)
      : network_(network), from_(from), to_(to) {}

  void Send(NodeId from, NodeId to, int64_t payload_bytes,
            std::function<void()> deliver) override {
    if (from == from_ && to == to_) payloads.push_back(payload_bytes);
    network_->Send(from, to, payload_bytes, std::move(deliver));
  }

  std::vector<int64_t> payloads;

 private:
  SimNetwork* network_;
  NodeId from_;
  NodeId to_;
};

// A backlog of 300 records on five lanes, built up behind a cut-off
// secondary, ships after the heal in messages of at most 128 records, which
// pack several lanes each, and converges.
TEST(ReplicationTest, BacklogShipsInMessagesOfAtMostTheBatchCap) {
  EventLoop loop;
  SimNetwork network(&loop, 7);
  PayloadLog fabric(&network, /*from=*/0, /*to=*/1);
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  for (NodeId id : {0, 1}) {
    nodes.push_back(std::make_unique<StorageNode>(id, &loop, &fabric, &cluster, NodeConfig{},
                                                  1000 + static_cast<uint64_t>(id)));
    ASSERT_TRUE(cluster.AddNode(id, nodes.back().get()).ok());
    nodes.back()->Start();
  }
  // Five partitions, all led by node 0 and replicated to node 1.
  auto map = PartitionMap::Create({"b", "c", "d", "e"}, {0, 1}, 2);
  ASSERT_TRUE(map.ok());
  for (const PartitionInfo& partition : map->partitions()) {
    ASSERT_TRUE(map->SetReplicas(partition.id, {0, 1}).ok());
  }
  cluster.set_partitions(std::move(map).value());
  Router router(kClient, &loop, &fabric, &cluster, RouterConfig{}, 99);

  network.SetPartitionGroup(1, 9);
  std::vector<std::string> keys;
  for (char lane : std::string("abcde")) {
    for (int i = 10; i < 70; ++i) keys.push_back(std::string(1, lane) + std::to_string(i));
  }
  int acked = 0;
  for (const std::string& key : keys) {
    router.Put(key, "v", AckMode::kPrimary, RequestOptions{}, [&](Status s) {
      if (s.ok()) ++acked;
    });
  }
  loop.RunFor(2 * kSecond);
  ASSERT_EQ(acked, 300);
  EXPECT_EQ(nodes[1]->engine()->live_count(), 0u);
  network.Heal();
  loop.RunFor(5 * kSecond);
  EXPECT_EQ(nodes[1]->engine()->live_count(), 300u);

  WalRecord sample;
  sample.key = keys[0];
  sample.value = "v";
  const int64_t record_bytes = WireSize(sample);  // every record's size
  int64_t most = 0;
  for (int64_t payload : fabric.payloads) {
    EXPECT_EQ(payload % record_bytes, 0);
    most = std::max(most, payload / record_bytes);
  }
  EXPECT_LE(most, 128);
  EXPECT_GT(most, 60);  // one lane's backlog is 60 records
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
