// Tests for the per-request RequestOptions contract: deadline budgets
// (clamped timeouts, budget-aware retries, kDeadlineExceeded shedding,
// per-template SLA accounting), per-request staleness overriding the
// deployment spec on both cache-hit and cache-miss paths, session version
// floors enforced on cache hits, WITH-clause parsing/validation, and the
// parallel MultiScan stitching.

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "common/request_options.h"
#include "consistency/session.h"
#include "consistency/sla.h"
#include "core/scads.h"
#include "gtest/gtest.h"
#include "index/scan.h"
#include "query/parser.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

constexpr NodeId kClient = 1000;

// A small in-process cluster (mirrors cluster_test's harness).
struct TestCluster {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  TestCluster(int node_count, int replication_factor,
              RouterConfig router_config = RouterConfig{})
      : network(&loop, 7) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, NodeConfig{},
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

  Result<Record> GetSync(const std::string& key, RequestOptions options) {
    Result<Record> out(InternalError("callback never ran"));
    bool done = false;
    router->Get(key, std::move(options), [&](Result<Record> r) {
      out = std::move(r);
      done = true;
    });
    RunUntil(done);
    return out;
  }

  std::vector<Result<Record>> MultiGetSync(const std::vector<std::string>& keys,
                                           RequestOptions options) {
    std::vector<Result<Record>> out;
    bool done = false;
    router->MultiGet(keys, std::move(options), [&](std::vector<Result<Record>> results) {
      out = std::move(results);
      done = true;
    });
    RunUntil(done);
    return out;
  }
};

// ------------------------------------------------------ deadline budgets --

TEST(DeadlineTest, RetryUsedWithAmpleBudgetButSkippedWhenBudgetGone) {
  // Primary-first reads with the primary cut off: a read with no deadline
  // retries onto the surviving replica; the same read under a budget
  // smaller than one attempt timeout sheds with kDeadlineExceeded instead.
  RouterConfig config;
  config.read_target = ReadTarget::kPrimary;  // deterministic first choice
  TestCluster tc(2, 2, config);
  ASSERT_TRUE(tc.PutSync("apple", "v", AckMode::kAll).ok());
  NodeId primary = tc.cluster.partitions()->ForKey("apple").primary();
  tc.network.SetPartitionGroup(primary, 42);

  Result<Record> unbounded = tc.GetSync("apple", RequestOptions{});
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  EXPECT_EQ(unbounded->value, "v");
  EXPECT_EQ(tc.router->window().deadline_exceeded, 0);

  RequestOptions bounded;
  bounded.deadline = 50 * kMillisecond;  // < one 250ms attempt timeout
  Time start = tc.loop.Now();
  Result<Record> shed = tc.GetSync("apple", bounded);
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded) << shed.status();
  // The first attempt's timeout was clamped to the budget: the call sheds
  // at ~50ms, not after the full 250ms timeout plus a retry.
  EXPECT_LE(tc.loop.Now() - start, 60 * kMillisecond);
  EXPECT_EQ(tc.router->window().deadline_exceeded, 1);
}

TEST(DeadlineTest, AmpleBudgetStillSucceedsThroughRetry) {
  RouterConfig config;
  config.read_target = ReadTarget::kPrimary;
  TestCluster tc(2, 2, config);
  ASSERT_TRUE(tc.PutSync("apple", "v", AckMode::kAll).ok());
  tc.network.SetPartitionGroup(tc.cluster.partitions()->ForKey("apple").primary(), 42);
  RequestOptions bounded;
  bounded.deadline = 2 * kSecond;  // room for timeout + retry
  Result<Record> got = tc.GetSync("apple", bounded);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, "v");
  EXPECT_EQ(tc.router->window().deadline_exceeded, 0);
}

TEST(DeadlineTest, MultiGetShedsOnlyTheStarvedSubBatchMidFanOut) {
  // Two nodes, rf=1: keys split between them. Cut one node off and give the
  // batch a budget below one attempt timeout: keys on the live node are
  // answered, keys on the dead node shed kDeadlineExceeded when the budget
  // expires — the fan-out degrades per-key instead of failing wholesale.
  TestCluster tc(2, 1);
  ASSERT_TRUE(tc.PutSync("apple", "va").ok());   // partition 0
  ASSERT_TRUE(tc.PutSync("hello", "vh").ok());   // partition 1
  NodeId dead = tc.cluster.partitions()->ForKey("hello").primary();
  NodeId live = tc.cluster.partitions()->ForKey("apple").primary();
  ASSERT_NE(dead, live);
  tc.network.SetPartitionGroup(dead, 42);

  RequestOptions bounded;
  bounded.deadline = 50 * kMillisecond;
  auto out = tc.MultiGetSync({"apple", "hello"}, bounded);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].ok()) << out[0].status();
  EXPECT_EQ(out[0]->value, "va");
  EXPECT_EQ(out[1].status().code(), StatusCode::kDeadlineExceeded) << out[1].status();
  EXPECT_EQ(tc.router->window().deadline_exceeded, 1);
}

TEST(DeadlineTest, ExpiredBudgetShedsWritesAndReadsAtEntry) {
  TestCluster tc(1, 1);
  ASSERT_TRUE(tc.PutSync("apple", "v").ok());
  RequestOptions expired;
  expired.deadline_at = 1;  // armed in the past
  Result<Record> read = tc.GetSync("apple", expired);
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);

  Status write = InternalError("pending");
  bool done = false;
  tc.router->Put("apple", "v2", AckMode::kPrimary, expired, [&](Status s) {
    write = std::move(s);
    done = true;
  });
  tc.RunUntil(done);
  EXPECT_EQ(write.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tc.router->window().deadline_exceeded, 2);
}

TEST(PriorityTest, LowPriorityReadShedsInsteadOfRetrying) {
  RouterConfig config;
  config.read_target = ReadTarget::kPrimary;
  TestCluster tc(2, 2, config);
  ASSERT_TRUE(tc.PutSync("apple", "v", AckMode::kAll).ok());
  tc.network.SetPartitionGroup(tc.cluster.partitions()->ForKey("apple").primary(), 42);
  RequestOptions low;
  low.priority = RequestPriority::kLow;
  Time start = tc.loop.Now();
  Result<Record> got = tc.GetSync("apple", low);
  // No replica alternates for low priority: one timeout, then unavailable.
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_LE(tc.loop.Now() - start, RouterConfig{}.request_timeout + 10 * kMillisecond);
}

// -------------------------------------------- session floor on cache hits --

TEST(SessionFloorTest, MinVersionBypassesOlderCacheEntry) {
  TestCluster tc(1, 1);
  MetricRegistry metrics;
  CacheDirectory cache(CacheConfig{/*enabled=*/true}, /*staleness_bound=*/0, &metrics);
  tc.router->set_cache(&cache);

  ASSERT_TRUE(tc.PutSync("k", "new").ok());  // write-through caches the ack
  // Simulate another router's stale view: force an older entry in.
  Version old_version{1, 0};
  ASSERT_TRUE(cache.point_cache()->Erase("k"));
  cache.point_cache()->Insert("k", "old", old_version, tc.loop.Now());

  // Unpinned read: served from cache — the stale value.
  Result<Record> unpinned = tc.GetSync("k", RequestOptions{});
  ASSERT_TRUE(unpinned.ok());
  EXPECT_EQ(unpinned->value, "old");

  // A version floor above the cached entry bypasses it to storage.
  RequestOptions pinned;
  pinned.min_version = Version{2, 0};
  Result<Record> floored = tc.GetSync("k", pinned);
  ASSERT_TRUE(floored.ok()) << floored.status();
  EXPECT_EQ(floored->value, "new");
  EXPECT_EQ(metrics.CounterValue("cache.point.version_bypasses"), 1);
}

TEST(SessionFloorTest, ReadYourWritesHoldsOnCacheHitWithoutFallback) {
  TestCluster tc(2, 2);
  MetricRegistry metrics;
  CacheDirectory cache(CacheConfig{/*enabled=*/true}, /*staleness_bound=*/0, &metrics);
  tc.router->set_cache(&cache);
  SessionGuarantees guarantees;
  guarantees.read_your_writes = true;
  SessionClient session(ScadsClient{tc.router.get()}, guarantees);

  tc.loop.RunFor(kSecond);  // so the write's version outranks the poison below
  Status put = InternalError("pending");
  bool put_done = false;
  session.Put("wall", "post-2", AckMode::kAll, RequestOptions{}, [&](Status s) {
    put = std::move(s);
    put_done = true;
  });
  tc.RunUntil(put_done);
  ASSERT_TRUE(put.ok());

  // Poison the cache with the predecessor value, as a lagging replica's
  // response would have before the invalidation-marker protections.
  ASSERT_TRUE(cache.point_cache()->Erase("wall"));
  cache.point_cache()->Insert("wall", "post-1", Version{1, 0}, tc.loop.Now());

  Result<Record> got(InternalError("pending"));
  bool done = false;
  session.Get("wall", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  tc.RunUntil(done);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, "post-2");
  // The session token bypassed the poisoned entry up front: one storage
  // read, no stale first answer, no primary fallback.
  EXPECT_EQ(session.first_try_reads(), 1);
  EXPECT_EQ(session.guarantee_fallbacks(), 0);
  EXPECT_EQ(metrics.CounterValue("cache.point.version_bypasses"), 1);
}

// ------------------------------------------------- parallel MultiScan -----

TEST(ParallelScanTest, StitchesAcrossPartitionsInKeyOrder) {
  TestCluster tc(3, 1);
  // Keys spanning all three partitions (boundaries "g" and "p").
  std::vector<std::string> keys = {"ant", "bat", "gnu", "hen", "pig", "yak"};
  for (const auto& key : keys) ASSERT_TRUE(tc.PutSync(key, "v:" + key).ok());

  Result<std::vector<Record>> got(InternalError("pending"));
  bool done = false;
  MultiScan(tc.router.get(), &tc.cluster, "", "", 0, RequestOptions{},
            [&](Result<std::vector<Record>> r) {
              got = std::move(r);
              done = true;
            });
  tc.RunUntil(done);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ((*got)[i].key, keys[i]);
    EXPECT_EQ((*got)[i].value, "v:" + keys[i]);
  }
}

TEST(ParallelScanTest, LimitTruncatesAcrossSubRanges) {
  TestCluster tc(3, 1);
  std::vector<std::string> keys = {"ant", "bat", "gnu", "hen", "pig", "yak"};
  for (const auto& key : keys) ASSERT_TRUE(tc.PutSync(key, "v").ok());
  Result<std::vector<Record>> got(InternalError("pending"));
  bool done = false;
  MultiScan(tc.router.get(), &tc.cluster, "", "", 4, RequestOptions{},
            [&](Result<std::vector<Record>> r) {
              got = std::move(r);
              done = true;
            });
  tc.RunUntil(done);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ((*got)[i].key, keys[i]);
}

TEST(ParallelScanTest, LimitSatisfiedScanToleratesTrailingPartitionFailure) {
  TestCluster tc(3, 1);
  std::vector<std::string> keys = {"ant", "bat", "gnu", "hen"};
  for (const auto& key : keys) ASSERT_TRUE(tc.PutSync(key, "v").ok());
  // Kill the last partition's only replica. A limit the earlier partitions
  // can satisfy must still succeed (the sequential stitcher never contacted
  // that partition); an unlimited scan genuinely needs it and must fail.
  tc.network.SetPartitionGroup(tc.cluster.partitions()->ForKey("zebra").primary(), 42);

  Result<std::vector<Record>> limited(InternalError("pending"));
  bool done = false;
  MultiScan(tc.router.get(), &tc.cluster, "", "", 3, RequestOptions{},
            [&](Result<std::vector<Record>> r) {
              limited = std::move(r);
              done = true;
            });
  tc.RunUntil(done);
  ASSERT_TRUE(limited.ok()) << limited.status();
  ASSERT_EQ(limited->size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ((*limited)[i].key, keys[i]);

  Result<std::vector<Record>> unlimited(InternalError("pending"));
  done = false;
  MultiScan(tc.router.get(), &tc.cluster, "", "", 0, RequestOptions{},
            [&](Result<std::vector<Record>> r) {
              unlimited = std::move(r);
              done = true;
            });
  tc.RunUntil(done);
  EXPECT_FALSE(unlimited.ok());
}

TEST(ParallelScanTest, FanOutIsConcurrentNotSequential) {
  TestCluster tc(3, 1);
  for (const char* key : {"ant", "gnu", "pig"}) {
    ASSERT_TRUE(tc.PutSync(key, "v").ok());
  }
  // Baseline: one single-partition scan's wall-clock.
  Time start = tc.loop.Now();
  bool done = false;
  tc.router->Scan("", "g", 0, RequestOptions{}, [&](Result<std::vector<Record>> r) {
    ASSERT_TRUE(r.ok());
    done = true;
  });
  tc.RunUntil(done);
  Duration single = tc.loop.Now() - start;
  ASSERT_GT(single, 0);

  // Three partitions fanned out concurrently: wall-clock must be well under
  // three sequential round trips.
  start = tc.loop.Now();
  done = false;
  MultiScan(tc.router.get(), &tc.cluster, "", "", 0, RequestOptions{},
            [&](Result<std::vector<Record>> r) {
              ASSERT_TRUE(r.ok());
              EXPECT_EQ(r->size(), 3u);
              done = true;
            });
  tc.RunUntil(done);
  Duration fanned = tc.loop.Now() - start;
  EXPECT_LT(fanned, 2 * single) << "3-partition scan should cost ~1 round trip, got "
                                << FormatDuration(fanned) << " vs single "
                                << FormatDuration(single);
}

// ------------------------------------------------------ WITH clause -------

TEST(WithClauseTest, ParsesStalenessAndDeadline) {
  auto ast = ParseQueryTemplate(
      "SELECT p.* FROM profiles p WHERE p.user_id = <u> WITH STALENESS 5s, DEADLINE 50ms");
  ASSERT_TRUE(ast.ok()) << ast.status();
  ASSERT_TRUE(ast->staleness_bound.has_value());
  EXPECT_EQ(*ast->staleness_bound, 5 * kSecond);
  ASSERT_TRUE(ast->deadline.has_value());
  EXPECT_EQ(*ast->deadline, 50 * kMillisecond);
}

TEST(WithClauseTest, UnitsAndOrderAreFlexible) {
  auto ast = ParseQueryTemplate(
      "SELECT p.* FROM profiles p WHERE p.user_id = <u> "
      "ORDER BY p.bday LIMIT 10 WITH DEADLINE 2m, STALENESS 500us");
  ASSERT_TRUE(ast.ok()) << ast.status();
  EXPECT_EQ(*ast->deadline, 2 * kMinute);
  EXPECT_EQ(*ast->staleness_bound, 500 * kMicrosecond);
}

TEST(WithClauseTest, RejectsMalformedBounds) {
  const char* base = "SELECT p.* FROM profiles p WHERE p.user_id = <u> ";
  EXPECT_FALSE(ParseQueryTemplate(std::string(base) + "WITH").ok());
  EXPECT_FALSE(ParseQueryTemplate(std::string(base) + "WITH BUDGET 5s").ok());
  EXPECT_FALSE(ParseQueryTemplate(std::string(base) + "WITH STALENESS 5").ok());
  EXPECT_FALSE(ParseQueryTemplate(std::string(base) + "WITH STALENESS 5fortnights").ok());
  EXPECT_FALSE(ParseQueryTemplate(std::string(base) + "WITH DEADLINE 0ms").ok());
  EXPECT_FALSE(
      ParseQueryTemplate(std::string(base) + "WITH STALENESS 1s, STALENESS 2s").ok());
}

// --------------------------------------------- whole-stack acceptance -----

EntityDef ProfilesEntity() {
  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  return profiles;
}

Row Profile(int64_t id, const char* name) {
  Row row;
  row.SetInt("user_id", id);
  row.SetString("name", name);
  row.SetInt("bday", 100);
  return row;
}

TEST(ScadsOptionsTest, RegisterQueryRejectsStalenessLooserThanSpec) {
  ScadsOptions options;
  options.consistency_spec = "staleness: 10s\n";
  auto created = Scads::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Scads> db = std::move(created).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  auto bounds = db->RegisterQuery(
      "loose", "SELECT p.* FROM profiles p WHERE p.user_id = <u> WITH STALENESS 30s");
  EXPECT_EQ(bounds.status().code(), StatusCode::kInvalidArgument) << bounds.status();
  // Tighter than the spec is exactly the point — accepted.
  EXPECT_TRUE(db->RegisterQuery(
                    "tight",
                    "SELECT p.* FROM profiles p WHERE p.user_id = <u> WITH STALENESS 1s")
                  .ok());
}

// The ISSUE's acceptance scenario: a query registered WITH STALENESS 1s,
// DEADLINE 20ms must (a) reject cache entries older than 1s that the
// deployment-wide 10s spec would have served, and (b) shed with
// kDeadlineExceeded — counted per template — when node latency exceeds its
// 20ms budget, while the identical unbounded query keeps succeeding.
TEST(ScadsOptionsTest, TemplateBoundsOverrideSpecAndShedOnDeadline) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.consistency_spec = "staleness: 10s\n";
  options.cache_config.enabled = true;
  auto created = Scads::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Scads> db = std::move(created).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->RegisterQuery("prof_plain",
                                "SELECT p.* FROM profiles p WHERE p.user_id = <u>")
                  .ok());
  ASSERT_TRUE(db->RegisterQuery("prof_bounded",
                                "SELECT p.* FROM profiles p WHERE p.user_id = <u> "
                                "WITH STALENESS 1s, DEADLINE 20ms")
                  .ok());
  ASSERT_TRUE(db->Start().ok());
  ASSERT_TRUE(db->PutRowSync("profiles", Profile(7, "alice"), RequestOptions{}).ok());

  // Age the cached entry past the template bound but well inside the spec's.
  db->RunFor(2 * kSecond);

  int64_t hits_before = db->metrics()->CounterValue("cache.point.hits");
  int64_t stale_before = db->metrics()->CounterValue("cache.point.stale_rejects");
  ParamMap params = {{"u", Value(int64_t{7})}};

  // (a) Deployment-wide bound serves the 2s-old entry from cache...
  Result<std::vector<Row>> plain = db->QuerySync("prof_plain", params, RequestOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->size(), 1u);
  EXPECT_EQ(db->metrics()->CounterValue("cache.point.hits"), hits_before + 1);

  // ...the 1s template rejects it and reads storage — same row, fresh path.
  Result<std::vector<Row>> bounded = db->QuerySync("prof_bounded", params, RequestOptions{});
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  ASSERT_EQ(bounded->size(), 1u);
  EXPECT_EQ((*bounded)[0].GetString("name"), "alice");
  EXPECT_EQ(db->metrics()->CounterValue("cache.point.stale_rejects"), stale_before + 1);
  EXPECT_EQ(db->metrics()->CounterValue("cache.point.hits"), hits_before + 1);

  // The tight-bounded reject must NOT have purged the entry for lax
  // requests: the deployment-wide query still hits cache.
  Result<std::vector<Row>> plain_again = db->QuerySync("prof_plain", params, RequestOptions{});
  ASSERT_TRUE(plain_again.ok());
  EXPECT_EQ(db->metrics()->CounterValue("cache.point.hits"), hits_before + 2);

  // (b) Slow every node past the 20ms budget. The storage read the bounded
  // template needs (its fresh cache entry from the read above ages out
  // first) cannot finish in time: kDeadlineExceeded, accounted to the
  // template. The unbounded twin still succeeds.
  db->RunFor(1500 * kMillisecond);  // age the bounded template's entry > 1s
  for (NodeId id = 0; id < 3; ++id) {
    StorageNode* node = db->cluster()->GetNode(id);
    if (node != nullptr) node->InjectBackgroundLoad(100 * kMillisecond);
  }
  Result<std::vector<Row>> shed = db->QuerySync("prof_bounded", params, RequestOptions{});
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded) << shed.status();

  Result<std::vector<Row>> still_ok = db->QuerySync("prof_plain", params, RequestOptions{});
  ASSERT_TRUE(still_ok.ok()) << still_ok.status();

  TemplateSlaAccountant::TemplateStats bounded_stats =
      db->template_sla()->stats("prof_bounded");
  EXPECT_EQ(bounded_stats.deadline, 20 * kMillisecond);
  EXPECT_EQ(bounded_stats.staleness, kSecond);
  EXPECT_EQ(bounded_stats.issued, 2);
  EXPECT_EQ(bounded_stats.ok, 1);
  EXPECT_EQ(bounded_stats.deadline_exceeded, 1);
  TemplateSlaAccountant::TemplateStats plain_stats = db->template_sla()->stats("prof_plain");
  EXPECT_EQ(plain_stats.issued, 3);
  EXPECT_EQ(plain_stats.ok, 3);
  EXPECT_EQ(plain_stats.deadline_exceeded, 0);
}

TEST(ScadsOptionsTest, PerRequestStalenessGovernsReplicaChoiceOnCacheMiss) {
  // No cache: the override must still steer the replica-watermark check —
  // a 1s-bounded read escalates to the primary where the 10s default would
  // have trusted a lagging secondary.
  ScadsOptions options;
  options.initial_nodes = 3;
  options.consistency_spec = "staleness: 10s\n";
  // Oracle liveness: this test freezes the secondaries' heartbeats to
  // manufacture watermark lag, and needs the lagging secondary to stay an
  // eligible read target — with the failure detector armed, 3s of silence
  // would mark it dead and steer the read before staleness ever decides.
  options.enable_failure_detection = false;
  auto created = Scads::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Scads> db = std::move(created).value();
  ASSERT_TRUE(db->DefineEntity(ProfilesEntity()).ok());
  ASSERT_TRUE(db->Start().ok());

  Row row = Profile(9, "bob");
  ASSERT_TRUE(db->PutRowSync("profiles", row, RequestOptions{}).ok());
  db->RunFor(500 * kMillisecond);  // let the write finish replicating
  Row key;
  key.SetInt("user_id", 9);

  // Freeze the key's partition by isolating each of its secondaries (every
  // node in its own group, so they cannot heartbeat each other either),
  // then let simulated time pass so the watermark lag exceeds 1s but stays
  // under 10s. Heal right before reading: the watermark check is
  // synchronous at Get() time, ahead of the next heartbeat.
  Result<std::string> storage_key = EncodePrimaryKey(ProfilesEntity(), key);
  ASSERT_TRUE(storage_key.ok());
  const PartitionInfo& partition = db->cluster()->partitions()->ForKey(*storage_key);
  ASSERT_GE(partition.replicas.size(), 2u) << "test needs a secondary to lag";
  for (size_t i = 1; i < partition.replicas.size(); ++i) {
    db->network()->SetPartitionGroup(partition.replicas[i], 77 + static_cast<int>(i));
  }
  db->RunFor(3 * kSecond);
  db->network()->Heal();

  StalenessStats before = db->staleness()->stats();
  Result<Row> lax = db->GetRowSync("profiles", key, RequestOptions{});
  ASSERT_TRUE(lax.ok()) << lax.status();
  StalenessStats mid = db->staleness()->stats();
  EXPECT_EQ(mid.fresh_replica_reads, before.fresh_replica_reads + 1)
      << "3s-lagged secondary should satisfy the 10s spec bound";

  RequestOptions tight;
  tight.max_staleness = kSecond;
  Result<Row> fresh = db->GetRowSync("profiles", key, tight);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  StalenessStats after = db->staleness()->stats();
  EXPECT_EQ(after.primary_escalations, mid.primary_escalations + 1)
      << "1s override must reject the 3s-lagged secondary";
  EXPECT_EQ(after.fresh_replica_reads, mid.fresh_replica_reads);
}

TEST(SlaMonitorTest, ReportCarriesDeadlineExceededCount) {
  RouterWindow window;
  window.reads_ok = 10;
  window.reads_failed = 2;
  window.deadline_exceeded = 2;
  SlaMonitor monitor(PerformanceSla{});
  SlaReport report = monitor.Evaluate(window, /*now=*/kSecond);
  EXPECT_EQ(report.deadline_exceeded, 2);
}

}  // namespace
}  // namespace scads
