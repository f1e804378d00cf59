// Tests for src/consistency: spec parsing, session guarantees, staleness
// bounds, write policies, durability planning, SLA monitoring.

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "consistency/durability.h"
#include "consistency/session.h"
#include "consistency/sla.h"
#include "consistency/spec.h"
#include "consistency/staleness.h"
#include "consistency/write_policy.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

// ------------------------------------------------------------------ Spec --

TEST(SpecTest, DefaultsAreSane) {
  ConsistencySpec spec;
  EXPECT_EQ(spec.writes, WriteConsistency::kLastWriteWins);
  EXPECT_EQ(spec.max_staleness, 10 * kMinute);
  EXPECT_TRUE(spec.AvailabilityFirst());
  EXPECT_FALSE(spec.session.read_your_writes);
}

TEST(SpecTest, ParseFullSpec) {
  auto spec = ParseConsistencySpec(
      "performance: p99.9 read < 100ms, availability 99.99%\n"
      "writes: serializable\n"
      "staleness: 10m\n"
      "session: read_your_writes, monotonic_reads\n"
      "durability: 99.999%\n"
      "priority: staleness > availability\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_NEAR(spec->performance.read_quantile, 0.999, 1e-9);
  EXPECT_EQ(spec->performance.read_latency_bound, 100 * kMillisecond);
  EXPECT_NEAR(spec->performance.min_availability, 0.9999, 1e-9);
  EXPECT_EQ(spec->writes, WriteConsistency::kSerializable);
  EXPECT_EQ(spec->max_staleness, 10 * kMinute);
  EXPECT_TRUE(spec->session.read_your_writes);
  EXPECT_TRUE(spec->session.monotonic_reads);
  EXPECT_NEAR(spec->durability_probability, 0.99999, 1e-9);
  EXPECT_FALSE(spec->AvailabilityFirst());
}

TEST(SpecTest, ParseCommentsAndBlanksIgnored) {
  auto spec = ParseConsistencySpec(
      "# the Craigslist example from the paper\n"
      "\n"
      "staleness: 5m   # listings may lag\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->max_staleness, 5 * kMinute);
}

TEST(SpecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseConsistencySpec("nonsense line").ok());
  EXPECT_FALSE(ParseConsistencySpec("writes: fancy").ok());
  EXPECT_FALSE(ParseConsistencySpec("staleness: soon").ok());
  EXPECT_FALSE(ParseConsistencySpec("durability: 150%").ok());
  EXPECT_FALSE(ParseConsistencySpec("priority: cost > beauty").ok());
  EXPECT_FALSE(ParseConsistencySpec("session: psychic_reads").ok());
}

TEST(SpecTest, ParseUnboundedStaleness) {
  auto spec = ParseConsistencySpec("staleness: unbounded\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->max_staleness, 0);
}

TEST(SpecTest, ToStringRoundTripsThroughParser) {
  ConsistencySpec original;
  original.writes = WriteConsistency::kMergeFunction;
  original.max_staleness = 30 * kSecond;
  original.session.read_your_writes = true;
  auto reparsed = ParseConsistencySpec(original.ToString());
  ASSERT_TRUE(reparsed.ok()) << original.ToString() << " -> " << reparsed.status();
  EXPECT_EQ(reparsed->writes, original.writes);
  EXPECT_EQ(reparsed->max_staleness, original.max_staleness);
  EXPECT_EQ(reparsed->session.read_your_writes, true);
}

TEST(SpecTest, DurationParsing) {
  EXPECT_EQ(*ParseDurationText("100ms"), 100 * kMillisecond);
  EXPECT_EQ(*ParseDurationText("10m"), 10 * kMinute);
  EXPECT_EQ(*ParseDurationText("1.5s"), 1500 * kMillisecond);
  EXPECT_EQ(*ParseDurationText("2h"), 2 * kHour);
  EXPECT_EQ(*ParseDurationText("250us"), 250);
  EXPECT_FALSE(ParseDurationText("fast").ok());
  EXPECT_FALSE(ParseDurationText("10 parsecs").ok());
}

TEST(SpecTest, PercentParsing) {
  EXPECT_NEAR(*ParsePercent("99.9%"), 0.999, 1e-12);
  EXPECT_NEAR(*ParsePercent("0.95"), 0.95, 1e-12);
  EXPECT_FALSE(ParsePercent("0").ok());
  EXPECT_FALSE(ParsePercent("101%").ok());
}

// --------------------------------------------------------- Test cluster --

constexpr NodeId kClient = 1000;

struct ConsistencyCluster {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  explicit ConsistencyCluster(int node_count, int rf, NodeConfig node_config = NodeConfig{})
      : network(&loop, 5) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, node_config,
                                                500 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::Create({}, ids, rf);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, RouterConfig{}, 11);
  }

  void Settle(Duration d = kSecond) { loop.RunFor(d); }
};

// --------------------------------------------------------------- Session --

TEST(SessionTest, ReadYourWritesFallsBackToPrimary) {
  ConsistencyCluster cc(2, 2);
  SessionGuarantees guarantees;
  guarantees.read_your_writes = true;
  SessionClient session(ScadsClient{cc.router.get()}, guarantees);

  Status put_status = InternalError("pending");
  session.Put("wall:alice", "post-1", AckMode::kPrimary, RequestOptions{},
              [&](Status s) { put_status = std::move(s); });
  cc.Settle(50 * kMillisecond);
  ASSERT_TRUE(put_status.ok());

  // Immediately read many times; replication may not have reached the
  // secondary yet, but the session must never show the write missing.
  for (int i = 0; i < 10; ++i) {
    Result<Record> got(InternalError("pending"));
    bool done = false;
    session.Get("wall:alice", RequestOptions{}, [&](Result<Record> r) {
      got = std::move(r);
      done = true;
    });
    cc.Settle(50 * kMillisecond);
    ASSERT_TRUE(done);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, "post-1");
  }
}

TEST(SessionTest, WithoutGuaranteeStaleReadsArePossible) {
  NodeConfig slow_replication;
  slow_replication.replication_flush_interval = 10 * kSecond;
  slow_replication.watermark_heartbeat = 20 * kSecond;
  ConsistencyCluster cc(2, 2, slow_replication);
  SessionClient session(ScadsClient{cc.router.get()}, SessionGuarantees{});  // none
  Status put_status = InternalError("pending");
  session.Put("k", "v", AckMode::kPrimary, RequestOptions{}, [&](Status s) { put_status = std::move(s); });
  cc.Settle(5 * kMillisecond);  // too fast for replication
  ASSERT_TRUE(put_status.ok());
  int missing = 0;
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    session.Get("k", RequestOptions{}, [&](Result<Record> r) {
      if (!r.ok()) ++missing;
      done = true;
    });
    cc.Settle(5 * kMillisecond);
    ASSERT_TRUE(done);
  }
  // With reads spread over 2 replicas and replication not yet settled, some
  // answers must have been NotFound (the stale secondary).
  EXPECT_GT(missing, 0);
}

TEST(SessionTest, ReadYourDeletes) {
  ConsistencyCluster cc(2, 2);
  SessionGuarantees guarantees;
  guarantees.read_your_writes = true;
  SessionClient session(ScadsClient{cc.router.get()}, guarantees);
  Status status = InternalError("pending");
  session.Put("k", "v", AckMode::kAll, RequestOptions{}, [&](Status s) { status = std::move(s); });
  cc.Settle();
  ASSERT_TRUE(status.ok());
  session.Delete("k", AckMode::kPrimary, RequestOptions{}, [&](Status s) { status = std::move(s); });
  cc.Settle(20 * kMillisecond);
  ASSERT_TRUE(status.ok());
  // Reads must observe the deletion even from a stale secondary.
  for (int i = 0; i < 10; ++i) {
    Result<Record> got(InternalError("pending"));
    bool done = false;
    session.Get("k", RequestOptions{}, [&](Result<Record> r) {
      got = std::move(r);
      done = true;
    });
    cc.Settle(50 * kMillisecond);
    ASSERT_TRUE(done);
    EXPECT_TRUE(IsNotFound(got.status())) << got.status();
  }
}

TEST(SessionTest, MonotonicReadsNeverGoBackwards) {
  ConsistencyCluster cc(2, 2);
  SessionGuarantees guarantees;
  guarantees.monotonic_reads = true;
  SessionClient session(ScadsClient{cc.router.get()}, guarantees);
  // Writer session (separate) updates the key repeatedly.
  Version last_seen{0, kInvalidNode};
  for (int i = 0; i < 10; ++i) {
    Status put = InternalError("pending");
    cc.router->Put("mr", "v" + std::to_string(i), AckMode::kPrimary, RequestOptions{},
                   [&](Status s) { put = std::move(s); });
    cc.Settle(10 * kMillisecond);
    ASSERT_TRUE(put.ok());
    Result<Record> got(InternalError("pending"));
    bool done = false;
    session.Get("mr", RequestOptions{}, [&](Result<Record> r) {
      got = std::move(r);
      done = true;
    });
    cc.Settle(100 * kMillisecond);
    ASSERT_TRUE(done);
    if (got.ok()) {
      EXPECT_FALSE(got->version < last_seen) << "monotonicity violated at i=" << i;
      last_seen = got->version;
    }
  }
}

// -------------------------------------------------------------- Staleness --

TEST(StalenessTest, FreshReplicaServesWithinBound) {
  ConsistencyCluster cc(2, 2);
  ConsistencySpec spec;
  spec.max_staleness = kMinute;
  StalenessController controller(&cc.loop, cc.router.get(), &cc.cluster, spec);
  Status put = InternalError("pending");
  cc.router->Put("k", "v", AckMode::kAll, RequestOptions{}, [&](Status s) { put = std::move(s); });
  cc.Settle();
  ASSERT_TRUE(put.ok());
  cc.Settle(2 * kSecond);  // heartbeats advance watermark
  Result<Record> got(InternalError("pending"));
  bool done = false;
  controller.Get("k", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  cc.Settle();
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(controller.stats().fresh_replica_reads, 1);
  EXPECT_EQ(controller.stats().primary_escalations, 0);
}

TEST(StalenessTest, LaggingReplicaEscalatesToPrimary) {
  ConsistencyCluster cc(2, 2);
  ConsistencySpec spec;
  spec.max_staleness = 100 * kMillisecond;  // tight bound
  StalenessController controller(&cc.loop, cc.router.get(), &cc.cluster, spec);
  const PartitionInfo& p = cc.cluster.partitions()->ForKey("k");
  NodeId secondary = p.replicas[1];
  // Cut off the secondary so its watermark freezes.
  cc.network.SetPartitionGroup(secondary, 3);
  Status put = InternalError("pending");
  cc.router->Put("k", "fresh", AckMode::kPrimary, RequestOptions{}, [&](Status s) { put = std::move(s); });
  cc.Settle();
  ASSERT_TRUE(put.ok());
  cc.Settle(kSecond);  // watermark now stale beyond the bound
  Result<Record> got(InternalError("pending"));
  bool done = false;
  controller.Get("k", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  cc.Settle();
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "fresh");
  EXPECT_GE(controller.stats().primary_escalations, 1);
}

TEST(StalenessTest, PartitionAvailabilityFirstServesStale) {
  ConsistencyCluster cc(2, 2);
  ConsistencySpec spec;
  spec.max_staleness = 100 * kMillisecond;
  spec.priority = {RequirementAxis::kAvailability, RequirementAxis::kStaleness};
  StalenessController controller(&cc.loop, cc.router.get(), &cc.cluster, spec);
  const PartitionInfo& p = cc.cluster.partitions()->ForKey("k");
  // Seed the key everywhere, then isolate the primary.
  Status put = InternalError("pending");
  cc.router->Put("k", "old", AckMode::kAll, RequestOptions{}, [&](Status s) { put = std::move(s); });
  cc.Settle();
  ASSERT_TRUE(put.ok());
  cc.Settle(2 * kSecond);
  cc.network.SetPartitionGroup(p.primary(), 77);
  cc.Settle(kSecond);  // secondary watermark goes stale
  Result<Record> got(InternalError("pending"));
  bool done = false;
  controller.Get("k", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  cc.Settle(2 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok()) << got.status();  // stale but served
  EXPECT_EQ(got->value, "old");
  EXPECT_EQ(controller.stats().stale_served, 1);
}

TEST(StalenessTest, PartitionConsistencyFirstFailsRead) {
  ConsistencyCluster cc(2, 2);
  ConsistencySpec spec;
  spec.max_staleness = 100 * kMillisecond;
  spec.priority = {RequirementAxis::kStaleness, RequirementAxis::kAvailability};
  StalenessController controller(&cc.loop, cc.router.get(), &cc.cluster, spec);
  const PartitionInfo& p = cc.cluster.partitions()->ForKey("k");
  Status put = InternalError("pending");
  cc.router->Put("k", "old", AckMode::kAll, RequestOptions{}, [&](Status s) { put = std::move(s); });
  cc.Settle();
  ASSERT_TRUE(put.ok());
  cc.network.SetPartitionGroup(p.primary(), 77);
  cc.Settle(kSecond);
  Result<Record> got(InternalError("pending"));
  bool done = false;
  controller.Get("k", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  cc.Settle(2 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(IsDeadlineExceeded(got.status())) << got.status();
  EXPECT_EQ(controller.stats().consistency_failures, 1);
}

// ----------------------------------------------------------- WritePolicy --

TEST(WritePolicyTest, LastWriteWinsCommits) {
  ConsistencyCluster cc(2, 2);
  WritePolicy policy(cc.router.get(), WriteConsistency::kLastWriteWins);
  Status status = InternalError("pending");
  policy.Put("k", "v", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { status = r.status(); });
  cc.Settle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(policy.stats().writes_committed, 1);
}

TEST(WritePolicyTest, SerializableCreatesAndUpdates) {
  ConsistencyCluster cc(2, 2);
  WritePolicy policy(cc.router.get(), WriteConsistency::kSerializable);
  Status status = InternalError("pending");
  policy.Put("doc", "v1", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { status = r.status(); });
  cc.Settle();
  ASSERT_TRUE(status.ok());
  policy.Put("doc", "v2", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { status = r.status(); });
  cc.Settle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(policy.stats().writes_committed, 2);
}

TEST(WritePolicyTest, SerializableConflictRetriesThenWins) {
  ConsistencyCluster cc(2, 2);
  WritePolicy a(cc.router.get(), WriteConsistency::kSerializable);
  WritePolicy b(cc.router.get(), WriteConsistency::kSerializable);
  Status sa = InternalError("pending"), sb = InternalError("pending");
  // Two writers race on the same key; both must eventually commit (their
  // CAS loops serialize through the primary).
  a.Put("race", "from-a", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { sa = r.status(); });
  b.Put("race", "from-b", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { sb = r.status(); });
  cc.Settle(5 * kSecond);
  EXPECT_TRUE(sa.ok()) << sa;
  EXPECT_TRUE(sb.ok()) << sb;
  EXPECT_GE(a.stats().conflicts_retried + b.stats().conflicts_retried, 1);
}

TEST(WritePolicyTest, MergePreservesBothWriters) {
  ConsistencyCluster cc(2, 2);
  // Merge = append with '|' separator: a set-union-ish CRDT for the test.
  MergeFunction merge = [](std::string_view stored, std::string_view incoming) {
    return std::string(stored) + "|" + std::string(incoming);
  };
  WritePolicy a(cc.router.get(), WriteConsistency::kMergeFunction, merge);
  WritePolicy b(cc.router.get(), WriteConsistency::kMergeFunction, merge);
  Status sa = InternalError("pending"), sb = InternalError("pending");
  a.Put("cart", "apples", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { sa = r.status(); });
  cc.Settle();
  ASSERT_TRUE(sa.ok());
  b.Put("cart", "bread", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { sb = r.status(); });
  cc.Settle();
  ASSERT_TRUE(sb.ok());
  // Final value contains both updates.
  Result<Record> got(InternalError("pending"));
  bool done = false;
  cc.router->Get("cart", RequestOptions::PrimaryOnly(), [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  cc.Settle();
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->value.find("apples"), std::string::npos);
  EXPECT_NE(got->value.find("bread"), std::string::npos);
}

TEST(WritePolicyTest, EveryModeReportsTheReplacedRecordAndTheStoredImage) {
  MergeFunction merge = [](std::string_view stored, std::string_view incoming) {
    return std::string(stored) + "|" + std::string(incoming);
  };
  for (WriteConsistency mode : {WriteConsistency::kLastWriteWins,
                                WriteConsistency::kSerializable,
                                WriteConsistency::kMergeFunction}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ConsistencyCluster cc(2, 2);
    WritePolicy policy(cc.router.get(), mode, merge);
    std::vector<PutOutcome> outcomes;
    for (const char* value : {"a", "b"}) {
      policy.Put("k", value, AckMode::kPrimary, RequestOptions{},
                 [&](Result<PutOutcome> outcome) {
                   ASSERT_TRUE(outcome.ok()) << outcome.status();
                   outcomes.push_back(std::move(outcome).value());
                 });
      cc.Settle();
    }
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].replaced.has_value());
    EXPECT_EQ(outcomes[0].stored.value, "a");
    ASSERT_TRUE(outcomes[1].replaced.has_value());
    EXPECT_EQ(outcomes[1].replaced->value, "a");
    EXPECT_EQ(outcomes[1].replaced->version, outcomes[0].stored.version);
    EXPECT_EQ(outcomes[1].stored.value,
              mode == WriteConsistency::kMergeFunction ? "a|b" : "b");
    // The reported image is the one the primary holds.
    Result<Record> got(InternalError("pending"));
    cc.router->Get("k", RequestOptions::PrimaryOnly(),
                   [&](Result<Record> r) { got = std::move(r); });
    cc.Settle();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, outcomes[1].stored.value);
    EXPECT_EQ(got->version, outcomes[1].stored.version);
    EXPECT_EQ(policy.stats().writes_committed, 2);
  }
}

// -------------------------------------------------------------- Durability --

TEST(DurabilityTest, SurvivalIncreasesWithReplication) {
  FailureModel model;
  double s1 = PredictSurvival(1, model);
  double s2 = PredictSurvival(2, model);
  double s3 = PredictSurvival(3, model);
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s3);
  EXPECT_GT(s3, 0.999);
}

TEST(DurabilityTest, PlanMeetsTarget) {
  FailureModel model;
  auto plan = PlanDurability(0.99999, model);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->predicted_survival, 0.99999);
  EXPECT_GE(plan->replication_factor, 2);
  EXPECT_EQ(plan->ack_mode, AckMode::kQuorum);
  // A weaker target for "old comments" needs fewer replicas.
  auto cheap = PlanDurability(0.9, model);
  ASSERT_TRUE(cheap.ok());
  EXPECT_LT(cheap->replication_factor, plan->replication_factor);
}

TEST(DurabilityTest, SingleReplicaUsesPrimaryAck) {
  FailureModel reliable;
  reliable.node_mtbf = 36500 * kDay;  // nodes basically never fail
  auto plan = PlanDurability(0.9, reliable);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->replication_factor, 1);
  EXPECT_EQ(plan->ack_mode, AckMode::kPrimary);
}

TEST(DurabilityTest, ImpossibleTargetFails) {
  FailureModel flaky;
  flaky.node_mtbf = kMinute;  // nodes die every minute
  flaky.re_replication_time = kHour;
  auto plan = PlanDurability(0.999999, flaky, 3);
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(DurabilityTest, RejectsBadTargets) {
  FailureModel model;
  EXPECT_FALSE(PlanDurability(0.0, model).ok());
  EXPECT_FALSE(PlanDurability(1.5, model).ok());
}

// ------------------------------------------------------------------- SLA --

TEST(SlaTest, EmptyWindowIsCompliant) {
  SlaMonitor monitor(PerformanceSla{});
  RouterWindow window;
  SlaReport report = monitor.Evaluate(window, 0);
  EXPECT_TRUE(report.ok());
}

TEST(SlaTest, FastTrafficPasses) {
  PerformanceSla sla;
  sla.read_quantile = 0.99;
  sla.read_latency_bound = 100 * kMillisecond;
  SlaMonitor monitor(sla);
  RouterWindow window;
  for (int i = 0; i < 1000; ++i) {
    window.read_latency.Record(2 * kMillisecond);
    ++window.reads_ok;
  }
  SlaReport report = monitor.Evaluate(window, kSecond);
  EXPECT_TRUE(report.latency_ok);
  EXPECT_TRUE(report.availability_ok);
}

TEST(SlaTest, SlowTailViolatesLatency) {
  PerformanceSla sla;
  sla.read_quantile = 0.99;
  sla.read_latency_bound = 100 * kMillisecond;
  SlaMonitor monitor(sla);
  RouterWindow window;
  for (int i = 0; i < 95; ++i) {
    window.read_latency.Record(kMillisecond);
    ++window.reads_ok;
  }
  for (int i = 0; i < 5; ++i) {
    window.read_latency.Record(500 * kMillisecond);  // 5% slow > 1% budget
    ++window.reads_ok;
  }
  SlaReport report = monitor.Evaluate(window, kSecond);
  EXPECT_FALSE(report.latency_ok);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(monitor.windows_violated(), 1);
}

TEST(SlaTest, FailuresViolateAvailability) {
  PerformanceSla sla;
  sla.min_availability = 0.9999;
  SlaMonitor monitor(sla);
  RouterWindow window;
  window.reads_ok = 9000;
  window.reads_failed = 1000;
  for (int i = 0; i < 100; ++i) window.read_latency.Record(kMillisecond);
  SlaReport report = monitor.Evaluate(window, kSecond);
  EXPECT_FALSE(report.availability_ok);
  EXPECT_NEAR(report.availability, 0.9, 1e-9);
}

TEST(SlaTest, ReportToStringMentionsVerdict) {
  SlaMonitor monitor(PerformanceSla{});
  RouterWindow window;
  window.reads_ok = 1;
  window.read_latency.Record(10);
  SlaReport report = monitor.Evaluate(window, kSecond);
  EXPECT_NE(report.ToString().find("OK"), std::string::npos);
}

}  // namespace
}  // namespace scads
