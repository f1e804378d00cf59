// Tests for src/index: update queue ordering, key codecs, and end-to-end
// index maintenance + execution of the paper's example queries on a live
// simulated cluster.

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "gtest/gtest.h"
#include "index/executor.h"
#include "index/keys.h"
#include "index/maintenance.h"
#include "index/scan.h"
#include "index/update_queue.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

// ------------------------------------------------------------ UpdateQueue --

TEST(UpdateQueueTest, DeadlineOrderRunsUrgentFirst) {
  EventLoop loop;
  UpdateQueue queue(&loop, QueuePolicy::kDeadline);
  queue.SetPaused(true);
  std::vector<int> order;
  queue.Enqueue(3000, "late", [&](std::function<void(Status)> done) {
    order.push_back(3);
    done(Status::Ok());
  });
  queue.Enqueue(1000, "urgent", [&](std::function<void(Status)> done) {
    order.push_back(1);
    done(Status::Ok());
  });
  queue.Enqueue(2000, "mid", [&](std::function<void(Status)> done) {
    order.push_back(2);
    done(Status::Ok());
  });
  queue.SetPaused(false);
  loop.RunFor(kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.processed(), 3);
}

TEST(UpdateQueueTest, FifoIgnoresDeadlines) {
  EventLoop loop;
  UpdateQueue queue(&loop, QueuePolicy::kFifo);
  queue.SetPaused(true);
  std::vector<int> order;
  queue.Enqueue(3000, "first-in", [&](std::function<void(Status)> done) {
    order.push_back(1);
    done(Status::Ok());
  });
  queue.Enqueue(1000, "second-in", [&](std::function<void(Status)> done) {
    order.push_back(2);
    done(Status::Ok());
  });
  queue.SetPaused(false);
  loop.RunFor(kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UpdateQueueTest, TasksRunStrictlySequentially) {
  EventLoop loop;
  UpdateQueue queue(&loop);
  bool first_running = false;
  bool overlap = false;
  queue.Enqueue(100, "slow", [&](std::function<void(Status)> done) {
    first_running = true;
    loop.ScheduleAfter(10 * kMillisecond, [&, done] {
      first_running = false;
      done(Status::Ok());
    });
  });
  queue.Enqueue(200, "second", [&](std::function<void(Status)> done) {
    overlap = first_running;
    done(Status::Ok());
  });
  loop.RunFor(kSecond);
  EXPECT_FALSE(overlap);
  EXPECT_EQ(queue.processed(), 2);
}

TEST(UpdateQueueTest, DeadlineMissesCounted) {
  EventLoop loop;
  UpdateQueue queue(&loop);
  queue.SetPaused(true);
  queue.Enqueue(loop.Now() + 10, "tight", [&](std::function<void(Status)> done) {
    done(Status::Ok());
  });
  loop.RunFor(kSecond);  // deadline passes while paused
  queue.SetPaused(false);
  loop.RunFor(kSecond);
  EXPECT_EQ(queue.deadline_misses(), 1);
  EXPECT_GT(queue.lag_histogram().max(), 900 * kMillisecond);
}

TEST(UpdateQueueTest, EarliestDeadlineTracksHead) {
  EventLoop loop;
  UpdateQueue queue(&loop);
  queue.SetPaused(true);
  queue.Enqueue(500, "a", [](std::function<void(Status)> done) { done(Status::Ok()); });
  queue.Enqueue(100, "b", [](std::function<void(Status)> done) { done(Status::Ok()); });
  EXPECT_EQ(queue.earliest_deadline(), 100);
  EXPECT_EQ(queue.depth(), 2u);
  queue.SetPaused(false);
  loop.RunFor(kSecond);
  EXPECT_TRUE(queue.idle());
}

TEST(UpdateQueueTest, FailuresCounted) {
  EventLoop loop;
  UpdateQueue queue(&loop);
  queue.Enqueue(100, "boom", [](std::function<void(Status)> done) {
    done(InternalError("synthetic"));
  });
  loop.RunFor(kSecond);
  EXPECT_EQ(queue.failures(), 1);
}

// -------------------------------------------------------- Full mini-SCADS --

constexpr NodeId kClient = 1000;

Catalog SocialCatalog() {
  Catalog catalog;
  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  EXPECT_TRUE(catalog.AddEntity(profiles).ok());
  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = 100;
  friendships.fanout_caps["f2"] = 100;
  EXPECT_TRUE(catalog.AddEntity(friendships).ok());
  EntityDef listings;
  listings.name = "listings";
  listings.fields = {{"listing_id", FieldType::kInt64},
                     {"city", FieldType::kString},
                     {"created", FieldType::kInt64}};
  listings.key_fields = {"listing_id"};
  EXPECT_TRUE(catalog.AddEntity(listings).ok());
  return catalog;
}

struct MiniScads {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;
  Catalog catalog;
  UpdateQueue queue;
  std::unique_ptr<IndexMaintainer> maintainer;
  std::unique_ptr<QueryExecutor> executor;
  std::map<std::string, QueryPlan> queries;

  MiniScads() : network(&loop, 3), catalog(SocialCatalog()), queue(&loop) {
    std::vector<NodeId> ids;
    for (int i = 0; i < 3; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, NodeConfig{},
                                                77 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::Create({}, ids, 2);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, RouterConfig{}, 9);
    maintainer =
        std::make_unique<IndexMaintainer>(&loop, router.get(), &cluster, &catalog, &queue);
    executor = std::make_unique<QueryExecutor>(router.get(), &cluster, &catalog);
  }

  void RegisterQuery(const std::string& name, const std::string& text,
                     Duration staleness = 10 * kSecond) {
    auto ast = ParseQueryTemplate(text);
    ASSERT_TRUE(ast.ok()) << ast.status();
    auto bounds = AnalyzeTemplate(catalog, *ast);
    ASSERT_TRUE(bounds.ok()) << bounds.status();
    auto plan = PlanQuery(catalog, name, *ast, *bounds);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (const IndexPlan& index_plan : plan->plans) {
      ASSERT_TRUE(maintainer->RegisterPlan(index_plan, staleness).ok());
    }
    queries.emplace(name, std::move(plan).value());
  }

  // Upsert a base row the way the Scads facade does: one write whose reply
  // carries the record it replaced, then maintenance from that record.
  void PutRow(const std::string& entity_name, const Row& row) {
    WriteRow(entity_name, row, Router::WriteOp::Kind::kPut);
  }

  void DeleteRow(const std::string& entity_name, const Row& row) {
    WriteRow(entity_name, row, Router::WriteOp::Kind::kDelete);
  }

  void WriteRow(const std::string& entity_name, const Row& row, Router::WriteOp::Kind kind) {
    const EntityDef* entity = catalog.Get(entity_name);
    ASSERT_NE(entity, nullptr);
    auto key = EncodePrimaryKey(*entity, row);
    ASSERT_TRUE(key.ok());
    const bool put = kind == Router::WriteOp::Kind::kPut;
    bool done = false;
    router->Write({kind, *key, put ? EncodeRow(*entity, row) : "", /*return_prior=*/true},
                  AckMode::kPrimary, RequestOptions{}, [&](Result<Router::WriteAck> written) {
      ASSERT_TRUE(written.ok());
      done = true;
      const std::optional<Record>& prior = written->prior;
      // A prior at or past the write's stamp: the primary dropped the write.
      if (prior.has_value() && !(written->version > prior->version)) return;
      std::optional<Row> old_row;
      if (prior.has_value() && !prior->tombstone) {
        auto decoded = DecodeRow(*entity, prior->value);
        if (decoded.ok()) old_row = *decoded;
      }
      if (!put && !old_row.has_value()) return;
      maintainer->OnBaseWrite(entity->name, old_row, put ? std::optional<Row>(row) : std::nullopt);
    });
    loop.RunFor(kSecond);
    ASSERT_TRUE(done);
  }

  void Drain() {
    for (int i = 0; i < 600 && !queue.idle(); ++i) loop.RunFor(100 * kMillisecond);
    loop.RunFor(kSecond);
  }

  Result<std::vector<Row>> Run(const std::string& query, const ParamMap& params) {
    Result<std::vector<Row>> out(InternalError("pending"));
    bool done = false;
    executor->Execute(queries.at(query), params, RequestOptions{}, [&](Result<std::vector<Row>> rows) {
      out = std::move(rows);
      done = true;
    });
    loop.RunFor(2 * kSecond);
    EXPECT_TRUE(done);
    return out;
  }

  Row Profile(int64_t id, const std::string& name, int64_t bday) {
    Row row;
    row.SetInt("user_id", id);
    row.SetString("name", name);
    row.SetInt("bday", bday);
    return row;
  }

  Row Edge(int64_t a, int64_t b) {
    Row row;
    row.SetInt("f1", a);
    row.SetInt("f2", b);
    return row;
  }
};

TEST(IndexIntegrationTest, PointLookupReadsBaseRow) {
  MiniScads s;
  s.RegisterQuery("profile_by_id", "SELECT p.* FROM profiles p WHERE p.user_id = <u>");
  s.PutRow("profiles", s.Profile(1, "ada", 19850101));
  s.Drain();
  auto rows = s.Run("profile_by_id", {{"u", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].GetString("name"), "ada");
  // Missing user -> empty set.
  auto none = s.Run("profile_by_id", {{"u", Value(int64_t{999})}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(IndexIntegrationTest, SelectionIndexWithOrderAndLimit) {
  MiniScads s;
  s.RegisterQuery("recent_listings",
                  "SELECT l.* FROM listings l WHERE l.city = <c> "
                  "ORDER BY l.created DESC LIMIT 3");
  for (int i = 0; i < 6; ++i) {
    Row listing;
    listing.SetInt("listing_id", i);
    listing.SetString("city", i % 2 == 0 ? "sf" : "la");
    listing.SetInt("created", 1000 + i);
    s.PutRow("listings", listing);
  }
  s.Drain();
  auto rows = s.Run("recent_listings", {{"c", Value(std::string("sf"))}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);
  // Descending by created: 1004, 1002, 1000.
  EXPECT_EQ((*rows)[0].GetInt("created"), 1004);
  EXPECT_EQ((*rows)[1].GetInt("created"), 1002);
  EXPECT_EQ((*rows)[2].GetInt("created"), 1000);
}

TEST(IndexIntegrationTest, SelectionIndexFollowsRowUpdates) {
  MiniScads s;
  s.RegisterQuery("by_city",
                  "SELECT l.* FROM listings l WHERE l.city = <c> ORDER BY l.created LIMIT 10");
  Row listing;
  listing.SetInt("listing_id", 7);
  listing.SetString("city", "sf");
  listing.SetInt("created", 42);
  s.PutRow("listings", listing);
  s.Drain();
  ASSERT_EQ(s.Run("by_city", {{"c", Value(std::string("sf"))}})->size(), 1u);
  // Move the listing to another city: old entry must disappear.
  listing.SetString("city", "nyc");
  s.PutRow("listings", listing);
  s.Drain();
  EXPECT_TRUE(s.Run("by_city", {{"c", Value(std::string("sf"))}})->empty());
  ASSERT_EQ(s.Run("by_city", {{"c", Value(std::string("nyc"))}})->size(), 1u);
  // Delete the row entirely.
  s.DeleteRow("listings", listing);
  s.Drain();
  EXPECT_TRUE(s.Run("by_city", {{"c", Value(std::string("nyc"))}})->empty());
}

TEST(IndexIntegrationTest, PaperBirthdayQueryEndToEnd) {
  MiniScads s;
  s.RegisterQuery("birthday",
                  "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                  "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  // Users: 1 (alice) friends with 2,3; 4 is a friend of alice via (4,1).
  s.PutRow("profiles", s.Profile(1, "alice", 300));
  s.PutRow("profiles", s.Profile(2, "bob", 200));
  s.PutRow("profiles", s.Profile(3, "carol", 100));
  s.PutRow("profiles", s.Profile(4, "dave", 150));
  s.PutRow("friendships", s.Edge(1, 2));
  s.PutRow("friendships", s.Edge(1, 3));
  s.PutRow("friendships", s.Edge(4, 1));  // symmetric: alice sees dave
  s.Drain();
  auto rows = s.Run("birthday", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);
  // Ordered by bday ascending: carol(100), dave(150), bob(200).
  EXPECT_EQ((*rows)[0].GetString("name"), "carol");
  EXPECT_EQ((*rows)[1].GetString("name"), "dave");
  EXPECT_EQ((*rows)[2].GetString("name"), "bob");
}

TEST(IndexIntegrationTest, BirthdayIndexUpdatesWhenProfileChanges) {
  MiniScads s;
  s.RegisterQuery("birthday",
                  "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                  "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  s.PutRow("profiles", s.Profile(1, "alice", 300));
  s.PutRow("profiles", s.Profile(2, "bob", 200));
  s.PutRow("profiles", s.Profile(3, "carol", 100));
  s.PutRow("friendships", s.Edge(1, 2));
  s.PutRow("friendships", s.Edge(1, 3));
  s.Drain();
  // Bob moves his birthday before carol's: order must flip.
  s.PutRow("profiles", s.Profile(2, "bob", 50));
  s.Drain();
  auto rows = s.Run("birthday", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].GetString("name"), "bob");
  EXPECT_EQ((*rows)[0].GetInt("bday"), 50);
  EXPECT_EQ((*rows)[1].GetString("name"), "carol");
}

TEST(IndexIntegrationTest, UnfriendRemovesIndexEntries) {
  MiniScads s;
  s.RegisterQuery("birthday",
                  "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                  "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  s.PutRow("profiles", s.Profile(1, "alice", 300));
  s.PutRow("profiles", s.Profile(2, "bob", 200));
  s.PutRow("friendships", s.Edge(1, 2));
  s.Drain();
  ASSERT_EQ(s.Run("birthday", {{"user_id", Value(int64_t{1})}})->size(), 1u);
  s.DeleteRow("friendships", s.Edge(1, 2));
  s.Drain();
  EXPECT_TRUE(s.Run("birthday", {{"user_id", Value(int64_t{1})}})->empty());
  EXPECT_TRUE(s.Run("birthday", {{"user_id", Value(int64_t{2})}})->empty());
}

TEST(IndexIntegrationTest, FriendsOfFriendsEndToEnd) {
  MiniScads s;
  s.RegisterQuery("fof",
                  "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
                  "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <user_id>");
  for (int64_t i = 1; i <= 5; ++i) {
    s.PutRow("profiles", s.Profile(i, "user" + std::to_string(i), 100 * i));
  }
  // Graph: 1-2, 2-3, 2-4, 4-5. FoF(1) = {3, 4}; 5 is three hops away.
  s.PutRow("friendships", s.Edge(1, 2));
  s.PutRow("friendships", s.Edge(2, 3));
  s.PutRow("friendships", s.Edge(2, 4));
  s.PutRow("friendships", s.Edge(4, 5));
  s.Drain();
  auto rows = s.Run("fof", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<int64_t> ids;
  for (const Row& row : *rows) ids.push_back(row.GetInt("user_id"));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{3, 4}));
}

TEST(IndexIntegrationTest, FriendsOfFriendsSurvivesUnfriendWithWitnessCounting) {
  MiniScads s;
  s.RegisterQuery("fof",
                  "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
                  "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <user_id>");
  for (int64_t i = 1; i <= 4; ++i) {
    s.PutRow("profiles", s.Profile(i, "user" + std::to_string(i), 100 * i));
  }
  // Two witness paths 1->3: via 2 and via 4.
  s.PutRow("friendships", s.Edge(1, 2));
  s.PutRow("friendships", s.Edge(2, 3));
  s.PutRow("friendships", s.Edge(1, 4));
  s.PutRow("friendships", s.Edge(4, 3));
  s.Drain();
  auto rows = s.Run("fof", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok());
  // FoF(1) = N(N(1)) \ {1} = {3}; the two witness paths collapse to one
  // entry with count 2.
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].GetInt("user_id"), 3);
  // Remove one path: 3 must stay reachable via the other witness.
  s.DeleteRow("friendships", s.Edge(2, 3));
  s.Drain();
  rows = s.Run("fof", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok());
  bool has3 = false;
  for (const Row& row : *rows) has3 |= row.GetInt("user_id") == 3;
  EXPECT_TRUE(has3) << "second witness path must keep the fof entry alive";
  // Remove the second path: now 3 disappears.
  s.DeleteRow("friendships", s.Edge(4, 3));
  s.Drain();
  rows = s.Run("fof", {{"user_id", Value(int64_t{1})}});
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) EXPECT_NE(row.GetInt("user_id"), 3);
}

TEST(IndexIntegrationTest, MaintenanceTableContainsFigure3Rows) {
  MiniScads s;
  s.RegisterQuery("birthday",
                  "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                  "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  s.RegisterQuery("fof",
                  "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
                  "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <user_id>");
  auto table = s.maintainer->MaintenanceTable();
  auto contains = [&](const MaintenanceEntry& expected) {
    for (const auto& entry : table) {
      if (entry == expected) return true;
    }
    return false;
  };
  // The paper's four Figure-3 rows, modulo naming:
  EXPECT_TRUE(contains({"adj_friendships", "friendships", "*"}));        // friend index
  EXPECT_TRUE(contains({"idx_fof", "adj_friendships", "*"}));            // fof <- friend index
  EXPECT_TRUE(contains({"idx_birthday", "profiles", "bday"}));           // birthday <- profiles
  EXPECT_TRUE(contains({"idx_birthday", "friendships", "*"}));           // birthday <- friendship
}

TEST(IndexIntegrationTest, QueueLagStaysWithinStalenessBound) {
  MiniScads s;
  const Duration bound = 5 * kSecond;
  s.RegisterQuery("birthday",
                  "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                  "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday",
                  bound);
  for (int64_t i = 1; i <= 20; ++i) {
    s.PutRow("profiles", s.Profile(i, "u" + std::to_string(i), i));
  }
  for (int64_t i = 2; i <= 20; ++i) {
    s.PutRow("friendships", s.Edge(1, i));
  }
  s.Drain();
  EXPECT_EQ(s.queue.deadline_misses(), 0);
  EXPECT_GT(s.queue.processed(), 0);
}

}  // namespace
}  // namespace scads
