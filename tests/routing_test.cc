// Tests for the pluggable read-routing policy layer and the cross-router
// read coalescer: p2c-vs-uniform pick distribution under a skewed hot
// node, ReadMode/priority pass-through, a MultiGet's batch deal across a
// partition's replicas, retry-candidate dedup/cap, the coalescer's
// follower staleness/min_version/deadline detach paths, leader-error
// fan-out, the in-flight priority upgrade on shed, cross-request cache
// isolation, callbacks re-entering the router from every completion path,
// the shed asymmetry between point reads and batches, and the rebalancer's
// least-loaded drain destinations.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/coalescer.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/rebalancer.h"
#include "cluster/replica_selector.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

constexpr NodeId kClient = 1 << 20;
constexpr NodeId kClient2 = (1 << 20) + 1;

// Cluster of `node_count` nodes with uniform partitions at `rf`; long
// router timeout so queueing, not failover, is what most tests observe.
struct Harness {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  explicit Harness(int node_count, int rf = 1, RouterConfig config = RouterConfig{},
                   int partitions = 8)
      : network(&loop, 5) {
    NodeConfig node_config;
    node_config.watermark_heartbeat = 0;
    std::vector<NodeId> ids;
    for (NodeId id = 1; id <= node_count; ++id) {
      nodes.push_back(std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                                    40 + static_cast<uint64_t>(id)));
      EXPECT_TRUE(cluster.AddNode(id, nodes.back().get()).ok());
      ids.push_back(id);
    }
    auto map = PartitionMap::CreateUniform(partitions, ids, rf);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    if (config.request_timeout == RouterConfig{}.request_timeout) {
      config.request_timeout = 5 * kSecond;
    }
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, config, 6);
  }

  StorageNode* node(NodeId id) { return nodes[static_cast<size_t>(id - 1)].get(); }

  // Seeds `key` into every replica's engine directly (setup, not traffic),
  // so any replica choice serves the same bytes.
  void Seed(const std::string& key, const std::string& value, Version version = Version{1, 0}) {
    for (NodeId id : cluster.partitions()->ForKey(key).replicas) {
      ASSERT_TRUE(cluster.GetNode(id)->engine()->Put(key, value, version).ok());
    }
  }
};

PartitionInfo MakePartition(std::vector<NodeId> replicas) {
  PartitionInfo partition;
  partition.id = 0;
  partition.replicas = std::move(replicas);
  return partition;
}

// ----------------------------------------------------- selector policy --

TEST(ReplicaSelectorTest, P2cAvoidsHotReplicaUniformDoesNot) {
  Harness h(3, 3);
  h.node(1)->SetBackgroundLoad(0.9, 0);
  PartitionInfo partition = MakePartition({1, 2, 3});

  PowerOfTwoSelector p2c(&h.cluster, 11);
  UniformSelector uniform(12);
  std::map<NodeId, int> p2c_picks, uniform_picks;
  int steers = 0;
  for (int i = 0; i < 3000; ++i) {
    ReplicaPick pick = p2c.Pick(partition.replicas);
    EXPECT_TRUE(pick.policy);
    ++p2c_picks[pick.node];
    if (pick.steered) ++steers;
    ++uniform_picks[uniform.Pick(partition.replicas).node];
  }
  // Two distinct samples can include the hot node at most once, and the
  // other sample is always strictly less loaded: p2c never picks it.
  EXPECT_EQ(p2c_picks[1], 0);
  EXPECT_GT(steers, 0);
  // Uniform keeps sending ~1/3 of reads into the hot node.
  EXPECT_GT(uniform_picks[1], 800);
  EXPECT_LT(uniform_picks[1], 1200);
}

TEST(ReplicaSelectorTest, P2cDegeneratesToUniformWhenIdle) {
  Harness h(3, 3);
  PowerOfTwoSelector p2c(&h.cluster, 13);
  std::map<NodeId, int> picks;
  int steers = 0;
  for (int i = 0; i < 3000; ++i) {
    ReplicaPick pick = p2c.Pick({1, 2, 3});
    ++picks[pick.node];
    if (pick.steered) ++steers;
  }
  // All pressures tie at zero: the first sample always wins, which is a
  // uniform draw — no replica starves, nothing counts as steered.
  EXPECT_EQ(steers, 0);
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_GT(picks[id], 800) << "node " << id;
    EXPECT_LT(picks[id], 1200) << "node " << id;
  }
}

TEST(ReplicaSelectorTest, PinRulesResolveBeforePolicy) {
  Harness h(3, 3);
  h.node(2)->SetBackgroundLoad(0.0, 0);
  PowerOfTwoSelector p2c(&h.cluster, 14);
  PartitionInfo partition = MakePartition({2, 1, 3});  // primary = 2

  RequestOptions pinned;
  pinned.read_mode = ReadMode::kPrimaryOnly;
  ReplicaPick pick = p2c.ChooseReadReplica(partition, pinned, ReadTarget::kAnyReplica);
  EXPECT_EQ(pick.node, 2);
  EXPECT_FALSE(pick.policy);

  // A primary-reading deployment pins kDefault reads...
  pick = p2c.ChooseReadReplica(partition, RequestOptions{}, ReadTarget::kPrimary);
  EXPECT_EQ(pick.node, 2);
  EXPECT_FALSE(pick.policy);

  // ...but an explicit kAnyReplica outranks it and reaches the policy.
  RequestOptions any;
  any.read_mode = ReadMode::kAnyReplica;
  pick = p2c.ChooseReadReplica(partition, any, ReadTarget::kPrimary);
  EXPECT_TRUE(pick.policy);

  // Single replica: nothing to choose.
  pick = p2c.ChooseReadReplica(MakePartition({3}), RequestOptions{}, ReadTarget::kAnyReplica);
  EXPECT_EQ(pick.node, 3);
  EXPECT_FALSE(pick.policy);
}

TEST(ReplicaSelectorTest, CandidatesDedupedAndCappedAtReplicaCount) {
  Harness h(3, 3);
  PowerOfTwoSelector p2c(&h.cluster, 15);
  // A mis-sized read_retries (10 >> 3 replicas) and a replica set that
  // lists nodes twice must still produce each distinct replica at most
  // once — never duplicate retries against the same dead node.
  PartitionInfo duplicated = MakePartition({1, 2, 2, 3, 1});
  for (int i = 0; i < 50; ++i) {
    std::vector<NodeId> candidates =
        p2c.ReadCandidates(duplicated, RequestOptions{}, ReadTarget::kAnyReplica, 10);
    EXPECT_LE(candidates.size(), 3u);
    std::vector<NodeId> sorted = candidates;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << "duplicate candidate";
  }
  // kLow priority: no alternates — shed instead of retrying.
  RequestOptions low;
  low.priority = RequestPriority::kLow;
  EXPECT_EQ(p2c.ReadCandidates(duplicated, low, ReadTarget::kAnyReplica, 10).size(), 1u);
  // kPrimaryOnly: just the primary.
  RequestOptions pinned;
  pinned.read_mode = ReadMode::kPrimaryOnly;
  std::vector<NodeId> candidates =
      p2c.ReadCandidates(duplicated, pinned, ReadTarget::kAnyReplica, 10);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1);
}

TEST(ReplicaSelectorTest, P2cOrdersRetryAlternatesLeastLoadedFirst) {
  Harness h(3, 3);
  h.node(2)->SetBackgroundLoad(0.95, 0);
  PowerOfTwoSelector p2c(&h.cluster, 16);
  PartitionInfo partition = MakePartition({1, 2, 3});
  for (int i = 0; i < 50; ++i) {
    std::vector<NodeId> candidates =
        p2c.ReadCandidates(partition, RequestOptions{}, ReadTarget::kAnyReplica, 2);
    ASSERT_EQ(candidates.size(), 3u);
    // The loaded node is never the first alternate: retries try the idle
    // replica before the hot one.
    EXPECT_NE(candidates[1], 2);
  }
}

// ------------------------------------------------- router pass-through --

TEST(RouterSelectorTest, WindowCountsPolicyPicksAndSteers) {
  RouterConfig config;
  Harness h(3, 3, config);
  h.node(1)->SetBackgroundLoad(0.9, 0);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    h.router->Get("k" + std::to_string(i), RequestOptions{},
                  [&](Result<Record> r) {
                    ++done;
                    EXPECT_TRUE(IsNotFound(r.status()));
                  });
  }
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 50);
  const RouterWindow& window = h.router->window();
  EXPECT_EQ(window.replica_picks, 50);
  EXPECT_GT(window.replica_steers, 0);
  // Per-replica counters: the hot node drew zero policy picks.
  auto hot = window.picks_by_node.find(1);
  EXPECT_TRUE(hot == window.picks_by_node.end() || hot->second == 0);

  // Scan flows through the same policy chokepoint.
  int64_t picks_before = window.replica_picks;
  bool scanned = false;
  h.router->Scan("a", "b", 10, RequestOptions{},
                 [&](Result<std::vector<Record>>) { scanned = true; });
  h.loop.RunFor(kSecond);
  EXPECT_TRUE(scanned);
  EXPECT_EQ(h.router->window().replica_picks, picks_before + 1);
}

TEST(RouterSelectorTest, TakeWindowResetsAndMergePropagatesPickCounters) {
  Harness h(3, 3);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    h.router->Get("k" + std::to_string(i), RequestOptions{}, [&](Result<Record>) { ++done; });
  }
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 10);
  RouterWindow taken = h.router->TakeWindow();
  EXPECT_EQ(taken.replica_picks, 10);
  EXPECT_EQ(h.router->window().replica_picks, 0);
  EXPECT_TRUE(h.router->window().picks_by_node.empty());
  RouterWindow merged;
  merged.MergeFrom(taken);
  merged.MergeFrom(taken);
  EXPECT_EQ(merged.replica_picks, 20);
  int64_t by_node = 0;
  for (const auto& [node, picks] : merged.picks_by_node) by_node += picks;
  EXPECT_EQ(by_node, 20);
}

// The keys of one rf-3 partition (k100..k189 under 8 uniform partitions),
// seeded on every replica.
std::vector<std::string> SeedOnePartition(Harness& h) {
  std::vector<std::string> keys;
  for (int i = 100; i < 190; ++i) keys.push_back("k" + std::to_string(i));
  const PartitionInfo& partition = h.cluster.partitions()->ForKey(keys[0]);
  EXPECT_EQ(partition.replicas.size(), 3u);
  for (const std::string& key : keys) {
    EXPECT_EQ(h.cluster.partitions()->ForKey(key).id, partition.id);
    h.Seed(key, "v" + key);
  }
  return keys;
}

// Keys each node served (ops_completed) since the last call.
class ServedSince {
 public:
  explicit ServedSince(Harness* h) : h_(h) {}
  std::map<NodeId, int64_t> Take() {
    std::map<NodeId, int64_t> delta;
    for (const auto& node : h_->nodes) {
      int64_t total = node->stats().ops_completed;
      delta[node->id()] = total - served_[node->id()];
      served_[node->id()] = total;
    }
    return delta;
  }

 private:
  Harness* h_;
  std::map<NodeId, int64_t> served_;
};

std::vector<Result<Record>> RunMultiGet(Harness& h, const std::vector<std::string>& keys,
                                        RequestOptions options) {
  std::vector<Result<Record>> results;
  h.router->MultiGet(keys, options, [&](std::vector<Result<Record>> r) { results = std::move(r); });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(results.size(), keys.size());
  return results;
}

// A MultiGet deals its misses across each partition's replicas. With three
// distinct pressures p2c never picks the most-pressured replica, so per-key
// picks would send it none of a one-partition batch; dealt, each replica
// serves a third (the pressures are close, so the headroom shares round to
// 30 each). Pinned batches and one-key reads keep their targets, and a
// replica behind an open breaker is dealt nothing.
TEST(RouterSelectorTest, MultiGetDealsAPartitionsKeysAcrossItsReplicas) {
  Harness h(3, 3);
  std::vector<std::string> keys = SeedOnePartition(h);
  const PartitionInfo& partition = h.cluster.partitions()->ForKey(keys[0]);
  const std::vector<NodeId> replicas = partition.replicas;
  // Least to most pressured.
  h.node(replicas[0])->SetBackgroundLoad(0.01, 0);
  h.node(replicas[1])->SetBackgroundLoad(0.02, 0);
  h.node(replicas[2])->SetBackgroundLoad(0.03, 0);
  ServedSince served(&h);

  std::vector<Result<Record>> dealt = RunMultiGet(h, keys, RequestOptions{});
  std::map<NodeId, int64_t> delta = served.Take();
  for (NodeId id : replicas) EXPECT_EQ(delta[id], 30) << "node " << id;
  // Each key is one policy pick, counted under the node it was dealt to.
  const RouterWindow& window = h.router->window();
  EXPECT_EQ(window.replica_picks, 90);
  for (NodeId id : replicas) {
    auto picks = window.picks_by_node.find(id);
    EXPECT_EQ(picks == window.picks_by_node.end() ? 0 : picks->second, 30) << "node " << id;
  }

  // One-key reads are not dealt: p2c's pick never lands on the
  // most-pressured replica. (They run before the pinned batch below, whose
  // 90-key lump would raise the primary's smoothed sojourn past 0.03.)
  int done = 0;
  for (const std::string& key : keys) {
    h.router->Get(key, RequestOptions{}, [&](Result<Record> r) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      ++done;
    });
    h.loop.RunFor(10 * kMillisecond);
  }
  EXPECT_EQ(done, 90);
  delta = served.Take();
  EXPECT_EQ(delta[replicas[2]], 0);
  EXPECT_EQ(delta[replicas[0]] + delta[replicas[1]], 90);

  RequestOptions pinned;
  pinned.read_mode = ReadMode::kPrimaryOnly;
  std::vector<Result<Record>> primary = RunMultiGet(h, keys, pinned);
  delta = served.Take();
  EXPECT_EQ(delta[partition.primary()], 90);
  for (NodeId id : replicas) {
    if (id == partition.primary()) continue;
    EXPECT_EQ(delta[id], 0) << "node " << id;
  }
  ASSERT_EQ(dealt.size(), keys.size());
  ASSERT_EQ(primary.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(dealt[i].ok()) << keys[i] << ": " << dealt[i].status().ToString();
    ASSERT_TRUE(primary[i].ok()) << keys[i] << ": " << primary[i].status().ToString();
    EXPECT_EQ(dealt[i]->value, "v" + keys[i]);
    EXPECT_EQ(dealt[i]->value, primary[i]->value);
    EXPECT_EQ(dealt[i]->version, primary[i]->version);
  }

  // An idle fleet with one replica's breaker open: the batch is dealt over
  // the two healthy replicas alone. Moving a key is not a steer, and idle
  // p2c never steers.
  Harness idle(3, 3);
  keys = SeedOnePartition(idle);
  const NodeId open = replicas[1];
  for (int i = 0; i < RouterConfig{}.breaker.failure_threshold; ++i) {
    idle.router->breaker()->RecordFailure(open);
  }
  ASSERT_FALSE(idle.router->breaker()->Healthy(open));
  ServedSince idle_served(&idle);
  for (const Result<Record>& r : RunMultiGet(idle, keys, RequestOptions{})) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  delta = idle_served.Take();
  for (NodeId id : replicas) EXPECT_EQ(delta[id], id == open ? 0 : 45) << "node " << id;
  EXPECT_EQ(idle.router->window().replica_picks, 90);
  EXPECT_EQ(idle.router->window().replica_steers, 0);
}

// The deal weighs a replica's holdings against its headroom: shares follow
// 1 - pressure, and a replica that is saturated, or so near it that it
// sheds kLow reads outright, gets none of the batch while the others have
// room. kLow reads have no alternates, so a key dealt there would fail.
TEST(RouterSelectorTest, MultiGetDealsByHeadroom) {
  {
    Harness h(3, 3);
    std::vector<std::string> keys = SeedOnePartition(h);
    const std::vector<NodeId> replicas = h.cluster.partitions()->ForKey(keys[0]).replicas;
    h.node(replicas[0])->SetBackgroundLoad(0.2, 0);
    h.node(replicas[1])->SetBackgroundLoad(0.4, 0);
    h.node(replicas[2])->SetBackgroundLoad(0.6, 0);
    ServedSince served(&h);
    for (const Result<Record>& r : RunMultiGet(h, keys, RequestOptions{})) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    std::map<NodeId, int64_t> delta = served.Take();
    EXPECT_EQ(delta[replicas[0]], 40);
    EXPECT_EQ(delta[replicas[1]], 30);
    EXPECT_EQ(delta[replicas[2]], 20);
  }
  for (double hot_load : {0.99, 2.0}) {
    SCOPED_TRACE(hot_load);
    Harness h(3, 3);
    std::vector<std::string> keys = SeedOnePartition(h);
    const std::vector<NodeId> replicas = h.cluster.partitions()->ForKey(keys[0]).replicas;
    const NodeId hot = replicas[1];
    h.node(hot)->SetBackgroundLoad(hot_load, 0);
    ServedSince served(&h);
    RequestOptions low;
    low.priority = RequestPriority::kLow;
    std::vector<Result<Record>> results = RunMultiGet(h, keys, low);
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << keys[i] << ": " << results[i].status().ToString();
      EXPECT_EQ(results[i]->value, "v" + keys[i]);
    }
    std::map<NodeId, int64_t> delta = served.Take();
    for (NodeId id : replicas) EXPECT_EQ(delta[id], id == hot ? 0 : 45) << "node " << id;
  }
}

// ------------------------------------------------------ shed asymmetry --

// Point reads and batches share one dispatcher, but not one shed policy: a
// shed point read surfaces kResourceExhausted (overload is its
// backpressure signal) and never tries its alternate, while a batch key —
// even the only key of a one-key MultiGet — redirects to it.
TEST(RouterShedTest, ShedPointReadSurfacesWhileABatchKeyRedirects) {
  RouterConfig config;
  config.read_target = ReadTarget::kPrimary;  // primary first, secondary its alternate
  Harness h(2, 2, config);
  h.Seed("k", "v");
  const PartitionInfo& partition = h.cluster.partitions()->ForKey("k");
  NodeId primary = partition.primary();
  NodeId secondary = partition.replicas[1];
  h.node(primary)->InjectBackgroundLoad(3 * kSecond);  // past the queue cap

  int64_t before = h.network.sent_to(secondary);
  Result<Record> single(InternalError("pending"));
  h.router->Get("k", RequestOptions{}, [&](Result<Record> r) { single = std::move(r); });
  h.loop.RunFor(10 * kMillisecond);
  EXPECT_EQ(single.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(h.network.sent_to(secondary), before);

  std::vector<Result<Record>> batch;
  h.router->MultiGet({"k"}, RequestOptions{},
                     [&](std::vector<Result<Record>> r) { batch = std::move(r); });
  h.loop.RunFor(10 * kMillisecond);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status().ToString();
  EXPECT_EQ(batch[0]->value, "v");
  EXPECT_GT(h.network.sent_to(secondary), before);
}

// ------------------------------------------------------------ coalescer --

// Harness plus a coalescer shared by two routers (cross-router setup).
struct CoalesceHarness : Harness {
  std::unique_ptr<ReadCoalescer> coalescer;
  std::unique_ptr<Router> router2;

  explicit CoalesceHarness(int node_count, int rf = 1, CoalescerConfig config = DefaultConfig())
      : Harness(node_count, rf) {
    coalescer = std::make_unique<ReadCoalescer>(&loop, &network, &cluster, config);
    router->set_coalescer(coalescer.get());
    RouterConfig router_config;
    router_config.request_timeout = 5 * kSecond;
    router2 = std::make_unique<Router>(kClient2, &loop, &network, &cluster, router_config, 7);
    router2->set_coalescer(coalescer.get());
  }

  static CoalescerConfig DefaultConfig() {
    CoalescerConfig config;
    config.enabled = true;
    return config;
  }
};

TEST(CoalescerTest, SameKeyReadsAcrossRoutersShareOneNodeMessage) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  int64_t before = h.network.sent_to(1);
  std::vector<std::string> got;
  auto collect = [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    got.push_back(r->value);
  };
  h.router->Get("k", RequestOptions{}, collect);    // leader
  h.router->Get("k", RequestOptions{}, collect);    // same-router follower
  h.router2->Get("k", RequestOptions{}, collect);   // cross-router follower
  h.loop.RunFor(kSecond);
  ASSERT_EQ(got.size(), 3u);
  for (const std::string& v : got) EXPECT_EQ(v, "v");
  // One merged message reached the node for all three logical reads.
  EXPECT_EQ(h.network.sent_to(1) - before, 1);
  EXPECT_EQ(h.coalescer->stats().leader_reads, 1);
  EXPECT_EQ(h.coalescer->stats().follower_joins, 2);
  EXPECT_EQ(h.coalescer->stats().followers_served, 2);
  EXPECT_EQ(h.coalescer->stats().followers_detached, 0);
  // Every router's window accounted its own reads.
  EXPECT_EQ(h.router->window().reads_ok, 2);
  EXPECT_EQ(h.router2->window().reads_ok, 1);
}

TEST(CoalescerTest, SameNodeLeadersMergeWithinHoldWindow) {
  CoalesceHarness h(1);
  h.Seed("a", "va");
  h.Seed("b", "vb");
  int64_t before = h.network.sent_to(1);
  int done = 0;
  h.router->Get("a", RequestOptions{}, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "va");
    ++done;
  });
  h.router->Get("b", RequestOptions{}, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "vb");
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  // Two different keys, one node, submitted within the window: one message.
  EXPECT_EQ(h.network.sent_to(1) - before, 1);
  EXPECT_EQ(h.coalescer->stats().batches_sent, 1);
  EXPECT_EQ(h.coalescer->stats().batched_keys, 2);
}

TEST(CoalescerTest, LoneLeaderToAQuietNodeShipsAtOnce) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  int64_t before = h.network.sent_to(1);
  int done = 0;
  h.router->Get("k", RequestOptions{}, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  // No leader reached node 1 in the last window, so nothing suggests
  // another will join: the message leaves at t = 0 instead of waiting out
  // the 100us hold.
  h.loop.RunFor(1);
  EXPECT_EQ(h.network.sent_to(1) - before, 1);
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.coalescer->stats().batches_sent, 1);
}

TEST(CoalescerTest, LeaderSoonAfterThePreviousOneIsHeldForLaterLeaders) {
  CoalesceHarness h(1);
  h.Seed("a", "va");
  h.Seed("b", "vb");
  h.Seed("c", "vc");
  int64_t before = h.network.sent_to(1);
  int done = 0;
  auto expect_ok = [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  };
  Time start = h.loop.Now();
  h.router->Get("a", RequestOptions{}, expect_ok);  // quiet node: ships at once
  h.loop.RunFor(30);
  h.router->Get("b", RequestOptions{}, expect_ok);  // 30us after "a": held until +130
  h.loop.RunFor(30);
  h.router->Get("c", RequestOptions{}, expect_ok);  // joins "b"'s held batch
  h.loop.RunUntil(start + 129);
  EXPECT_EQ(h.network.sent_to(1) - before, 1);
  h.loop.RunUntil(start + 130);
  EXPECT_EQ(h.network.sent_to(1) - before, 2);
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(h.coalescer->stats().batches_sent, 2);
  EXPECT_EQ(h.coalescer->stats().batched_keys, 3);
}

TEST(CoalescerTest, HoldsAreTrackedPerNode) {
  CoalesceHarness h(2);
  // Eight uniform partitions over two nodes: "A" (0x41..) sits in
  // partition 2 on node 1, "a" (0x61..) in partition 3 on node 2.
  ASSERT_EQ(h.cluster.partitions()->ForKey("A").replicas.front(), 1);
  ASSERT_EQ(h.cluster.partitions()->ForKey("a").replicas.front(), 2);
  h.Seed("A", "v1");
  h.Seed("a", "v2");
  int64_t before1 = h.network.sent_to(1);
  int64_t before2 = h.network.sent_to(2);
  int done = 0;
  auto expect_ok = [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  };
  h.router->Get("A", RequestOptions{}, expect_ok);
  h.loop.RunFor(30);
  // Node 1 saw a leader 30us ago, node 2 never did: the read to node 2 is
  // not held on node 1's account.
  h.router->Get("a", RequestOptions{}, expect_ok);
  h.loop.RunFor(1);
  EXPECT_EQ(h.network.sent_to(1) - before1, 1);
  EXPECT_EQ(h.network.sent_to(2) - before2, 1);
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().batches_sent, 2);
}

TEST(CoalescerTest, FollowerDetachesWhenItsStalenessBoundIsTighterThanTheReplyAge) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  int64_t before = h.network.sent_to(1);
  int done = 0;
  h.router->Get("k", RequestOptions{}, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  // The reply's serve-time watermark is one network hop old by the time it
  // arrives; a 50us bound cannot be proven from it, so this follower must
  // detach and fetch its own proof.
  RequestOptions tight;
  tight.max_staleness = 50;  // < one-way network latency
  h.router->Get("k", tight, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "v");
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().followers_detached, 1);
  EXPECT_EQ(h.coalescer->stats().followers_served, 0);
  // The detached follower cost a second node message.
  EXPECT_EQ(h.network.sent_to(1) - before, 2);
}

TEST(CoalescerTest, FollowerDetachesWhenLeaderReplyIsBelowItsVersionFloor) {
  CoalesceHarness h(1);
  h.Seed("k", "v", Version{100, 1});
  int done = 0;
  h.router->Get("k", RequestOptions{}, [&](Result<Record>) { ++done; });
  RequestOptions floored;
  floored.min_version = Version{200, 1};  // above the stored version
  h.router->Get("k", floored, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().followers_detached, 1);

  // A floor the reply's version satisfies is served from the shared reply.
  RequestOptions satisfied;
  satisfied.min_version = Version{100, 1};
  h.router->Get("k", RequestOptions{}, [&](Result<Record>) { ++done; });
  h.router->Get("k", satisfied, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 4);
  EXPECT_EQ(h.coalescer->stats().followers_served, 1);
}

TEST(CoalescerTest, NotFoundCannotProveAVersionFloor) {
  CoalesceHarness h(1);  // key never written
  int done = 0;
  h.router->Get("missing", RequestOptions{}, [&](Result<Record> r) {
    EXPECT_TRUE(IsNotFound(r.status()));
    ++done;
  });
  RequestOptions floored;
  floored.min_version = Version{1, 0};
  h.router->Get("missing", floored, [&](Result<Record> r) {
    EXPECT_TRUE(IsNotFound(r.status()));
    ++done;
  });
  // A plain follower can share the NotFound (it's an answered read).
  h.router->Get("missing", RequestOptions{}, [&](Result<Record> r) {
    EXPECT_TRUE(IsNotFound(r.status()));
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(h.coalescer->stats().followers_detached, 1);
  EXPECT_EQ(h.coalescer->stats().followers_served, 1);
}

TEST(CoalescerTest, FollowerWithExpiredDeadlineDetachesAndSheds) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  int done = 0;
  h.router->Get("k", RequestOptions{}, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  RequestOptions hurried;
  hurried.deadline = 300;  // expires before the reply's ~two network hops
  h.router->Get("k", hurried, [&](Result<Record> r) {
    EXPECT_TRUE(IsDeadlineExceeded(r.status()));
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().followers_detached, 1);
  EXPECT_GE(h.router->window().deadline_exceeded, 1);
}

TEST(CoalescerTest, LeaderWithExpiredDeadlineIsNotServedPastIt) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  // Uncoalesced reads clamp every attempt timeout to the remaining budget,
  // so a success can never arrive past the deadline; the coalesced leader
  // must honor the same contract even though the merged message's timeout
  // can't be clamped to any single member's budget.
  RequestOptions hurried;
  hurried.deadline = 300;  // expires before the reply's ~two network hops
  int done = 0;
  h.router->Get("k", hurried, [&](Result<Record> r) {
    EXPECT_TRUE(IsDeadlineExceeded(r.status()));
    ++done;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.coalescer->stats().leaders_expired, 1);
  EXPECT_GE(h.router->window().deadline_exceeded, 1);
}

TEST(CoalescerTest, LeaderErrorPropagatesToEveryFollowerWithoutCachePollution) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  // Backlog beyond the shed cap: the merged read is turned away.
  h.node(1)->InjectBackgroundLoad(3 * kSecond);
  MetricRegistry metrics;
  CacheConfig cache_config;
  cache_config.enabled = true;
  CacheDirectory cache(cache_config, /*staleness_bound=*/0, &metrics);
  h.router->set_cache(&cache);
  int errors = 0;
  auto expect_shed = [&](Result<Record> r) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    ++errors;
  };
  h.router->Get("k", RequestOptions{}, expect_shed);
  h.router->Get("k", RequestOptions{}, expect_shed);
  h.router2->Get("k", RequestOptions{}, expect_shed);
  h.loop.RunFor(kSecond);
  EXPECT_EQ(errors, 3);
  EXPECT_EQ(h.coalescer->stats().follower_errors, 2);
  // The failed read left nothing behind in the cache.
  Record out;
  EXPECT_FALSE(cache.LookupPoint("k", h.loop.Now(), RequestOptions{}, &out));
  // Each router failed its own reads.
  EXPECT_EQ(h.router->window().reads_failed, 2);
  EXPECT_EQ(h.router2->window().reads_failed, 1);
}

TEST(CoalescerTest, ShedMergedReadRetriesAtUpgradedPriorityFromLateFollower) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  // Backlog between the kLow shed cap (1s) and the kHigh cap (2s): a kLow
  // message is turned away, the same message at kHigh is admitted.
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);
  int served = 0;
  RequestOptions low;
  low.priority = RequestPriority::kLow;
  h.router->Get("k", low, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, "v");
    ++served;
  });
  // Run past the flush: a lone leader to a quiet node ships at once, so by
  // now the kLow message is on its way to the node, where it will be shed.
  h.loop.RunFor(105);
  // A kHigh reader attaches to the already-dispatched kLow message.
  RequestOptions high;
  high.priority = RequestPriority::kHigh;
  h.router2->Get("k", high, [&](Result<Record> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, "v");
    ++served;
  });
  h.loop.RunFor(4 * kSecond);
  // The shed was not propagated: the merged read re-admitted at kHigh and
  // both members were served from the retried reply.
  EXPECT_EQ(served, 2);
  EXPECT_EQ(h.coalescer->stats().priority_upgrades, 1);
  EXPECT_EQ(h.coalescer->stats().follower_errors, 0);
  EXPECT_EQ(h.coalescer->stats().followers_served, 1);
  EXPECT_EQ(h.coalescer->stats().batches_sent, 2);
  // Without the late kHigh follower the same shed propagates: no member
  // outranked what the message shipped at, so there is nothing to upgrade.
  int errors = 0;
  h.node(1)->InjectBackgroundLoad(1500 * kMillisecond);
  h.router->Get("k2", low, [&](Result<Record> r) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    ++errors;
  });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(h.coalescer->stats().priority_upgrades, 1);
}

TEST(CoalescerTest, OnlyTheLeaderRouterStoresTheSharedReply) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  MetricRegistry metrics1, metrics2;
  CacheConfig cache_config;
  cache_config.enabled = true;
  CacheDirectory cache1(cache_config, 0, &metrics1);
  CacheDirectory cache2(cache_config, 0, &metrics2);
  h.router->set_cache(&cache1);
  h.router2->set_cache(&cache2);
  int done = 0;
  h.router->Get("k", RequestOptions{}, [&](Result<Record>) { ++done; });   // leader
  h.router2->Get("k", RequestOptions{}, [&](Result<Record>) { ++done; });  // follower
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().followers_served, 1);
  // The leader's router cached the reply; the follower's router did NOT
  // store a value it never fetched — no cross-request (or cross-router)
  // cache pollution.
  Record out;
  EXPECT_TRUE(cache1.LookupPoint("k", h.loop.Now(), RequestOptions{}, &out));
  EXPECT_EQ(out.value, "v");
  EXPECT_FALSE(cache2.LookupPoint("k", h.loop.Now(), RequestOptions{}, &out));
}

TEST(CoalescerTest, MergedMessageTimeoutFailsOverEveryMember) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  h.node(1)->set_alive(false);  // accepts the message, never answers
  int done = 0;
  auto expect_error = [&](Result<Record> r) {
    EXPECT_FALSE(r.ok());
    ++done;
  };
  h.router->Get("k", RequestOptions{}, expect_error);
  h.router2->Get("k", RequestOptions{}, expect_error);
  h.loop.RunFor(30 * kSecond);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.coalescer->stats().batch_timeouts, 1);
}

TEST(CoalescerTest, PinnedReadsBypassTheCoalescer) {
  CoalesceHarness h(1);
  h.Seed("k", "v");
  int64_t before = h.network.sent_to(1);
  int done = 0;
  RequestOptions pinned;
  pinned.read_mode = ReadMode::kPrimaryOnly;
  h.router->Get("k", pinned, [&](Result<Record>) { ++done; });
  h.router->Get("k", pinned, [&](Result<Record>) { ++done; });
  h.loop.RunFor(kSecond);
  EXPECT_EQ(done, 2);
  // Two reads, two messages: neither entered the coalescer.
  EXPECT_EQ(h.network.sent_to(1) - before, 2);
  EXPECT_EQ(h.coalescer->stats().leader_reads, 0);
  EXPECT_EQ(h.coalescer->stats().follower_joins, 0);
}

// ------------------------------------------------------ re-entrancy --

// Every way a router request can complete must run its callback with no
// router (or coalescer) lock held: the callback below sends a second
// request on the same router, which would deadlock on the plain router
// mutex otherwise. One row per entry point and applicable way to finish.
enum class Finish { kAnswered, kNotFound, kShedAtEntry, kTimedOut, kBreakerSkipped, kCached,
                    kFollower };
constexpr const char* kFinishNames[] = {"answered",  "not found",       "shed at entry",
                                        "timed out", "breaker-skipped", "served from cache",
                                        "coalesced follower"};

struct EntryPoint {
  const char* name;
  std::vector<Finish> finishes;
  std::function<void(Router*, const std::string&, RequestOptions, std::function<void(Status)>)>
      start;
};

const std::vector<EntryPoint>& EntryPoints() {
  using F = Finish;
  using Done = std::function<void(Status)>;
  // Every entry point can be answered, shed at entry, or time out; point
  // reads can also miss, skip an open breaker, and hit the cache.
  const std::vector<F> any = {F::kAnswered, F::kShedAtEntry, F::kTimedOut};
  const std::vector<F> reads = {F::kAnswered, F::kNotFound,       F::kShedAtEntry,
                                F::kTimedOut, F::kBreakerSkipped};
  std::vector<F> get = reads;
  get.push_back(F::kCached);
  get.push_back(F::kFollower);
  std::vector<F> multiget = reads;
  multiget.push_back(F::kCached);
  static const std::vector<EntryPoint> entries = {
      {"Get", get,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->Get(key, o, [done](Result<Record> got) { done(got.status()); });
       }},
      {"GetFromReplica", reads,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->GetFromReplica(key, 1, o, [done](Result<Record> got) { done(got.status()); });
       }},
      {"MultiGet", multiget,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->MultiGet({key}, o, [done](std::vector<Result<Record>> got) { done(got[0].status()); });
       }},
      {"Scan", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->Scan(key, "", 0, o, [done](Result<std::vector<Record>> rows) { done(rows.status()); });
       }},
      {"Put", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->Put(key, "v2", AckMode::kPrimary, o, done);
       }},
      {"Delete", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->Delete(key, AckMode::kPrimary, o, done);
       }},
      {"Write", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->Write({Router::WriteOp::Kind::kPut, key, "v2"}, AckMode::kPrimary, o,
                  [done](Result<Router::WriteAck> written) { done(written.status()); });
       }},
      {"MultiWrite", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         r->MultiWrite({{Router::WriteOp::Kind::kPut, key, "v2"}}, AckMode::kPrimary, o,
                       [done](std::vector<Status> statuses) { done(statuses[0]); });
       }},
      {"Conditional write", any,
       [](Router* r, const std::string& key, RequestOptions o, Done done) {
         Router::WriteOp op{Router::WriteOp::Kind::kPut, key, "v2"};
         op.condition = WriteCondition{Version{1, 0}};  // the version Harness::Seed wrote
         r->Write(op, AckMode::kPrimary, o,
                  [done](Result<Router::WriteAck> written) { done(written.status()); });
       }},
  };
  return entries;
}

StatusCode ExpectedCode(Finish finish) {
  switch (finish) {
    case Finish::kNotFound:
      return StatusCode::kNotFound;
    case Finish::kShedAtEntry:
      return StatusCode::kDeadlineExceeded;
    case Finish::kTimedOut:
    case Finish::kBreakerSkipped:
      return StatusCode::kUnavailable;
    default:
      return StatusCode::kOk;
  }
}

TEST(RouterReentryTest, CallbacksMayReenterTheRouterFromEveryCompletionPath) {
  for (const EntryPoint& entry : EntryPoints()) {
    for (Finish finish : entry.finishes) {
      SCOPED_TRACE(std::string(entry.name) + ", " + kFinishNames[static_cast<int>(finish)]);
      Harness h(1);
      h.Seed("k", "v");
      // Stamp every write past the seed's version, so each one applies.
      h.loop.RunFor(kMillisecond);
      MetricRegistry metrics;
      CacheConfig cache_config;
      cache_config.enabled = true;
      CacheDirectory cache(cache_config, /*staleness_bound=*/kMinute, &metrics);
      ReadCoalescer coalescer(&h.loop, &h.network, &h.cluster, CoalesceHarness::DefaultConfig());
      RequestOptions options;
      int leader_done = 0;
      switch (finish) {
        case Finish::kShedAtEntry:
          h.loop.RunFor(kMillisecond);
          options.deadline_at = 1;  // armed in the past
          break;
        case Finish::kTimedOut:
          h.node(1)->set_alive(false);  // accepts every message, never answers
          break;
        case Finish::kBreakerSkipped:
          for (int i = 0; i < RouterConfig{}.breaker.failure_threshold; ++i) {
            h.router->breaker()->RecordFailure(1);
          }
          break;
        case Finish::kCached:
          h.router->set_cache(&cache);
          cache.StorePoint("k", "v", Version{1, 0}, h.loop.Now());
          break;
        case Finish::kFollower:
          h.router->set_coalescer(&coalescer);
          h.router->Get("k", RequestOptions{}, [&](Result<Record>) { ++leader_done; });
          break;
        default:
          break;
      }
      const std::string key = finish == Finish::kNotFound ? "ghost" : "k";
      int done = 0;
      int reentered = 0;
      Status outcome;
      entry.start(h.router.get(), key, options, [&](Status status) {
        ++done;
        outcome = std::move(status);
        h.router->Get("other", RequestOptions{}, [&](Result<Record>) { ++reentered; });
      });
      h.loop.RunFor(30 * kSecond);
      EXPECT_EQ(done, 1);
      EXPECT_EQ(reentered, 1);
      EXPECT_EQ(outcome.code(), ExpectedCode(finish)) << outcome.ToString();
      if (finish == Finish::kBreakerSkipped) {
        EXPECT_GE(h.router->window().breaker_skips, 1);
      }
      if (finish == Finish::kCached) {
        EXPECT_EQ(metrics.CounterValue("cache.point.hits"), 1);
      }
      if (finish == Finish::kFollower) {
        EXPECT_EQ(leader_done, 1);
        EXPECT_EQ(coalescer.stats().follower_joins, 1);
      }
    }
  }
}

// ----------------------------------------------------------- rebalancer --

TEST(RebalancerDrainTest, DrainPrefersLeastLoadedLiveTargets) {
  Harness h(4, 1);
  // Node 2 is drowning; 3 and 4 are idle.
  h.node(2)->InjectBackgroundLoad(1500 * kMillisecond);
  size_t on2_before = h.cluster.partitions()->PartitionsOnNode(2).size();
  size_t on3_before = h.cluster.partitions()->PartitionsOnNode(3).size();
  size_t on4_before = h.cluster.partitions()->PartitionsOnNode(4).size();
  size_t draining = h.cluster.partitions()->PartitionsOnNode(1).size();
  ASSERT_GT(draining, 0u);

  Rebalancer rebalancer(&h.loop, &h.cluster);
  Status drained = InternalError("pending");
  rebalancer.DrainNode(1, {2, 3, 4}, [&](Status status) { drained = status; });
  h.loop.RunFor(kMinute);
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_TRUE(h.cluster.partitions()->PartitionsOnNode(1).empty());
  // Everything went to the idle nodes (spread between them by the
  // assigned-count tiebreak); the loaded node gained nothing.
  EXPECT_EQ(h.cluster.partitions()->PartitionsOnNode(2).size(), on2_before);
  size_t on3_gain = h.cluster.partitions()->PartitionsOnNode(3).size() - on3_before;
  size_t on4_gain = h.cluster.partitions()->PartitionsOnNode(4).size() - on4_before;
  EXPECT_EQ(on3_gain + on4_gain, draining);
  EXPECT_GT(on3_gain, 0u);
  EXPECT_GT(on4_gain, 0u);
}

TEST(RebalancerDrainTest, DeadAndUnregisteredTargetsAreSkipped) {
  Harness h(4, 1);
  h.cluster.SetNodeAlive(3, false);
  size_t on3_before = h.cluster.partitions()->PartitionsOnNode(3).size();
  Status drained = InternalError("pending");
  Rebalancer rebalancer(&h.loop, &h.cluster);
  // Target list names a dead node (3) and an unregistered one (99): both
  // must be skipped, not attempted-and-failed.
  rebalancer.DrainNode(1, {3, 99, 2, 4}, [&](Status status) { drained = status; });
  h.loop.RunFor(kMinute);
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_TRUE(h.cluster.partitions()->PartitionsOnNode(1).empty());
  // The dead node gained nothing from the drain.
  EXPECT_EQ(h.cluster.partitions()->PartitionsOnNode(3).size(), on3_before);
}

}  // namespace
}  // namespace scads
