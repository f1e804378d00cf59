// Chaos scenario suite (ISSUE 7 tentpole e): the self-healing loop under a
// seed x scenario matrix — crash+restart, permanent node loss, network
// partition + heal, gray/slow node — plus unit coverage for the failure
// detector, the one-path liveness consolidation, and the router's circuit
// breaker.
//
// The invariant every scenario asserts: ZERO acked-write loss. The harness
// writes monotonically increasing values round-robin over a fixed key set
// and records the highest value each key ever acked; after the fault heals
// (or repair completes), a primary-pinned read of every key must return a
// value at least that high. Availability may dip during the fault — that is
// the paper's availability-vs-staleness trade — but an acknowledged write
// regressing is a durability bug, never acceptable.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/coalescer.h"
#include "common/strings.h"
#include "core/scads.h"
#include "gtest/gtest.h"
#include "sim/failure.h"

namespace scads {
namespace {

constexpr int kKeySlots = 16;
constexpr uint64_t kSeeds[] = {3, 11, 42};

ScadsOptions BaseOptions(uint64_t seed) {
  ScadsOptions options;
  options.seed = seed;
  options.initial_nodes = 5;
  options.partitions = 8;
  // rf=3 with quorum acks: an acked write provably exists on >= 2 nodes, so
  // losing any single node cannot lose it.
  options.consistency_spec = "durability: 99.999%\nstaleness: 10s\n";
  return options;
}

// Drives a raw-KV workload against the router and keeps the acked-write
// ledger the loss check verifies against.
struct ChaosHarness {
  std::unique_ptr<Scads> db;
  std::map<std::string, int64_t> acked;  // key -> highest acked value id
  int64_t next_value = 0;
  int64_t puts_acked = 0;

  explicit ChaosHarness(ScadsOptions options) {
    auto created = Scads::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status();
    db = std::move(created).value();
    EXPECT_TRUE(db->Start().ok());
  }

  static std::string KeyOf(int slot) { return StrFormat("chaos/%02d", slot); }

  // `count` sequential puts round-robin over the key slots, pumping `gap`
  // of simulated time after each. Failed puts are expected during faults
  // (a primary may be unreachable); only acked puts join the ledger.
  void WriteSome(int count, Duration gap = 100 * kMillisecond) {
    for (int i = 0; i < count; ++i) {
      int64_t value_id = next_value++;
      std::string key = KeyOf(static_cast<int>(value_id % kKeySlots));
      db->router()->Put(key, "v" + std::to_string(value_id), db->durability_plan().ack_mode, RequestOptions{},
                        [this, key, value_id](Status status) {
                          if (!status.ok()) return;
                          ++puts_acked;
                          int64_t& high = acked[key];
                          high = std::max(high, value_id);
                        });
      db->RunFor(gap);
    }
  }

  Result<Record> Read(const std::string& key, bool pin_primary = false) {
    Result<Record> out(InternalError("callback never ran"));
    bool done = false;
    RequestOptions options;
    if (pin_primary) options.read_mode = ReadMode::kPrimaryOnly;
    db->router()->Get(key, options, [&](Result<Record> r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 100000 && !done; ++i) db->RunFor(kMillisecond);
    EXPECT_TRUE(done);
    return out;
  }

  // Availability probe: how many key slots answer a default-mode read now.
  int ReadableSlots() {
    int ok = 0;
    for (int slot = 0; slot < kKeySlots; ++slot) {
      if (Read(KeyOf(slot)).ok()) ++ok;
    }
    return ok;
  }

  void VerifyNoAckedLoss() {
    ASSERT_FALSE(acked.empty()) << "scenario acked nothing; the check is vacuous";
    for (const auto& [key, high] : acked) {
      Result<Record> got = Read(key, /*pin_primary=*/true);
      ASSERT_TRUE(got.ok()) << "acked write lost entirely: " << key << ": " << got.status();
      int64_t seen = std::stoll(got->value.substr(1));
      EXPECT_GE(seen, high) << key << " regressed below its last acked write";
    }
  }
};

// ------------------------------------------------------ scenario matrix --

TEST(ChaosSuiteTest, CrashRestartCatchesUpByDeltaSync) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosHarness chaos(BaseOptions(seed));
    chaos.WriteSome(32);
    chaos.db->RunFor(2 * kSecond);  // replication settles

    // Crash the primary of slot 0's partition; keep writing while it is
    // down (writes to its partitions fail unacked, the rest proceed).
    NodeId victim =
        chaos.db->cluster()->partitions()->ForKey(ChaosHarness::KeyOf(0)).primary();
    chaos.db->failures()->TakeDown(victim);
    chaos.WriteSome(32);
    chaos.db->RunFor(5 * kSecond);
    chaos.db->failures()->BringUp(victim);
    chaos.db->RunFor(15 * kSecond);  // delta-sync + stream catch-up

    StorageNode* node = chaos.db->cluster()->GetNode(victim);
    ASSERT_NE(node, nullptr);
    EXPECT_GE(node->stats().delta_syncs_completed, 1)
        << "restart did not trigger crash-recovery catch-up";
    EXPECT_TRUE(chaos.db->cluster()->IsAlive(victim));
    chaos.VerifyNoAckedLoss();
  }
}

TEST(ChaosSuiteTest, PermanentNodeLossIsRepairedWithinWindow) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScadsOptions options = BaseOptions(seed);
    options.enable_director = true;
    // The durability model plans around a 60s restore window; the Director
    // declares a replica lost after a quarter of it and must finish the
    // copy inside the remainder.
    options.failure_model.re_replication_time = kMinute;
    options.director_config.control_interval = 2 * kSecond;
    options.director_config.repair_after_fraction = 0.25;
    // Freeze autoscaling so the only fleet change is the repair itself.
    options.director_config.min_nodes = 5;
    options.director_config.scale_down_patience = 1 << 20;
    ChaosHarness chaos(options);
    chaos.WriteSome(32);
    chaos.db->RunFor(2 * kSecond);

    NodeId victim =
        chaos.db->cluster()->partitions()->ForKey(ChaosHarness::KeyOf(0)).primary();
    Time failed_at = chaos.db->loop()->Now();
    chaos.db->failures()->TakeDown(victim);  // never brought back
    chaos.WriteSome(64);                     // ~6.4s of writes during the loss
    // Run out the rest of the re-replication window.
    while (chaos.db->loop()->Now() - failed_at < kMinute) {
      chaos.db->RunFor(kSecond);
    }

    // Full replication restored: the lost node is out of every replica set
    // and every remaining replica is live.
    int rf = chaos.db->durability_plan().replication_factor;
    for (const PartitionInfo& partition : chaos.db->cluster()->partitions()->partitions()) {
      EXPECT_EQ(std::count(partition.replicas.begin(), partition.replicas.end(), victim), 0)
          << "partition " << partition.id << " still lists the lost node";
      EXPECT_EQ(static_cast<int>(partition.replicas.size()), rf);
      for (NodeId replica : partition.replicas) {
        EXPECT_TRUE(chaos.db->cluster()->IsAlive(replica));
      }
    }
    Director* director = chaos.db->director();
    ASSERT_NE(director, nullptr);
    EXPECT_GE(director->repairs_completed(), 1);
    // Measured restore time validates the PlanDurability assumption.
    EXPECT_GT(director->last_restore_time(), 0);
    EXPECT_LE(director->last_restore_time(), kMinute)
        << "repair missed the re_replication_time the durability plan assumed";
    ASSERT_FALSE(director->history().empty());
    const DirectorSnapshot& last = director->history().back();
    EXPECT_EQ(last.under_replicated_partitions, 0);
    EXPECT_EQ(last.repairs_completed, director->repairs_completed());
    chaos.VerifyNoAckedLoss();
  }
}

TEST(ChaosSuiteTest, NetworkPartitionHealsWithoutAckedLoss) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosHarness chaos(BaseOptions(seed));
    chaos.WriteSome(32);
    chaos.db->RunFor(2 * kSecond);

    // Cut {3,4} off for 10s, starting mid-replication so in-flight batches
    // are lost on the wire; the majority side keeps the client, the router,
    // and the control-plane heartbeat sink.
    chaos.db->failures()->SchedulePartition({0, 1, 2}, {3, 4},
                                            chaos.db->loop()->Now() + 500 * kMillisecond,
                                            10 * kSecond);
    chaos.WriteSome(64);  // spans the partition forming and healing
    chaos.db->RunFor(15 * kSecond);

    EXPECT_EQ(chaos.db->failures()->partitions_injected(), 1);
    // Healed: nobody stays suspected once heartbeats resume.
    for (NodeId id : {0, 1, 2, 3, 4}) {
      EXPECT_TRUE(chaos.db->cluster()->IsAlive(id)) << "node " << id;
    }
    chaos.VerifyNoAckedLoss();
  }
}

TEST(ChaosSuiteTest, GrayNodeDegradesWithoutAckedLoss) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosHarness chaos(BaseOptions(seed));
    chaos.WriteSome(32);
    chaos.db->RunFor(2 * kSecond);

    // Fail-slow, not fail-stop: 20x delivery latency and 30% loss on one
    // node for 10s. Oracle liveness never flips — only measured suspicion
    // and the circuit breaker can route around this.
    NodeId victim =
        chaos.db->cluster()->partitions()->ForKey(ChaosHarness::KeyOf(0)).primary();
    chaos.db->failures()->ScheduleGrayNode(victim, chaos.db->loop()->Now() + 500 * kMillisecond,
                                           10 * kSecond, 20.0, 0.3);
    chaos.WriteSome(64);
    int readable_during = chaos.ReadableSlots();
    EXPECT_GT(readable_during, 0) << "gray node took the whole keyspace down";
    chaos.db->RunFor(15 * kSecond);  // gray window ends, heartbeats recover

    EXPECT_EQ(chaos.db->failures()->gray_failures_injected(), 1);
    EXPECT_TRUE(chaos.db->cluster()->IsAlive(victim));
    chaos.VerifyNoAckedLoss();
  }
}

// ------------------------------------------------- detection & liveness --

TEST(ChaosDetectionTest, SilentNodeIsSuspectedWithoutOracle) {
  ChaosHarness chaos(BaseOptions(7));
  chaos.WriteSome(16);
  chaos.db->RunFor(3 * kSecond);  // heartbeat history accumulates

  // Isolate a node at the network layer ONLY: no oracle SetNodeAlive, no
  // injector callback. Detection must take liveness away by itself.
  constexpr NodeId kVictim = 2;
  chaos.db->network()->SetPartitionGroup(kVictim, 99);
  chaos.db->RunFor(10 * kSecond);
  EXPECT_TRUE(chaos.db->cluster()->Suspected(kVictim))
      << "silent node never crossed the suspicion threshold";
  EXPECT_FALSE(chaos.db->cluster()->IsAlive(kVictim));
  // The administrative flag was never touched — this is measured death.
  StorageNode* node = chaos.db->cluster()->GetNode(kVictim);
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->alive());

  // Reconnect: the next heartbeats clear the suspicion.
  chaos.db->network()->SetPartitionGroup(kVictim, 0);
  chaos.db->RunFor(5 * kSecond);
  EXPECT_FALSE(chaos.db->cluster()->Suspected(kVictim));
  EXPECT_TRUE(chaos.db->cluster()->IsAlive(kVictim));
}

TEST(ChaosLivenessTest, DownPathKeepsAllViewsConsistent) {
  // Regression for the split-brain bookkeeping: node->alive(),
  // ClusterState liveness, and network reachability used to be three
  // independently-toggled states. TakeDown/BringUp + SetNodeAlive is now
  // the one path, so all three views must flip together.
  ChaosHarness chaos(BaseOptions(5));
  constexpr NodeId kVictim = 1;
  StorageNode* node = chaos.db->cluster()->GetNode(kVictim);
  ASSERT_NE(node, nullptr);

  chaos.db->failures()->TakeDown(kVictim);
  EXPECT_FALSE(chaos.db->cluster()->IsAlive(kVictim));
  EXPECT_FALSE(node->alive());
  EXPECT_FALSE(chaos.db->network()->Connected(kVictim, 0));
  std::vector<NodeId> alive = chaos.db->cluster()->AliveNodes();
  EXPECT_EQ(std::count(alive.begin(), alive.end(), kVictim), 0)
      << "downed node still offered to selection";

  chaos.db->failures()->BringUp(kVictim);
  EXPECT_TRUE(chaos.db->cluster()->IsAlive(kVictim));
  EXPECT_TRUE(node->alive());
  EXPECT_TRUE(chaos.db->network()->Connected(kVictim, 0));
  alive = chaos.db->cluster()->AliveNodes();
  EXPECT_EQ(std::count(alive.begin(), alive.end(), kVictim), 1);
}

// ------------------------------------------------------- circuit breaker --

TEST(CircuitBreakerTest, OpensAfterFailuresAndProbesHalfOpen) {
  EventLoop loop;
  ClusterState cluster;
  ASSERT_TRUE(cluster.AddNode(1, nullptr).ok());
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_backoff = 200 * kMillisecond;
  config.jitter = 0;  // deterministic backoff for the assertions below
  CircuitBreaker breaker(&cluster, loop.clock(), config, /*seed=*/1);

  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.TryAcquire(1));
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kClosed);  // 1 < threshold
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Healthy(1));
  EXPECT_FALSE(breaker.TryAcquire(1)) << "open breaker admitted a request";

  // Backoff elapses: exactly one half-open probe is admitted.
  loop.RunFor(250 * kMillisecond);
  EXPECT_TRUE(breaker.TryAcquire(1));
  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.TryAcquire(1)) << "half-open admitted a second probe";

  // Probe fails: reopen, with doubled backoff.
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kOpen);
  loop.RunFor(250 * kMillisecond);
  EXPECT_FALSE(breaker.TryAcquire(1)) << "reopen did not double the backoff";
  loop.RunFor(250 * kMillisecond);
  ASSERT_TRUE(breaker.TryAcquire(1));

  // Probe succeeds: closed, traffic flows again.
  breaker.RecordSuccess(1);
  EXPECT_EQ(breaker.StateOf(1), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.TryAcquire(1));
  EXPECT_GE(breaker.stats().opens, 1);
  EXPECT_GE(breaker.stats().reopens, 1);
  EXPECT_GE(breaker.stats().closes, 1);
}

TEST(CircuitBreakerTest, SuspicionTripsWithoutTimeouts) {
  EventLoop loop;
  ClusterState cluster;
  ASSERT_TRUE(cluster.AddNode(1, nullptr).ok());
  cluster.EnableFailureDetection(loop.clock());
  CircuitBreaker breaker(&cluster, loop.clock(), CircuitBreakerConfig{}, /*seed=*/1);

  // Heartbeats establish a cadence, then stop.
  for (int i = 0; i < 5; ++i) {
    loop.RunFor(500 * kMillisecond);
    cluster.RecordHeartbeat(1, loop.Now());
  }
  EXPECT_TRUE(breaker.Healthy(1));
  loop.RunFor(10 * kSecond);  // silence
  EXPECT_FALSE(breaker.Healthy(1)) << "suspicion did not trip the breaker";
  EXPECT_GE(breaker.stats().suspicion_opens, 1);
}

}  // namespace
}  // namespace scads
