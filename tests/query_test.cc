// Tests for src/query: schema/catalog, row codec, parser, analyzer, planner
// — including the paper's three example queries and its Twitter rejection.

#include <string>

#include "gtest/gtest.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/schema.h"

namespace scads {
namespace {

// Social-network schema mirroring the paper (Figure 3's tables).
Catalog SocialCatalog(int64_t friend_cap = 5000) {
  Catalog catalog;
  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64},
                     {"city", FieldType::kString}};
  profiles.key_fields = {"user_id"};
  EXPECT_TRUE(catalog.AddEntity(profiles).ok());

  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  if (friend_cap > 0) {
    friendships.fanout_caps["f1"] = friend_cap;
    friendships.fanout_caps["f2"] = friend_cap;
  }
  EXPECT_TRUE(catalog.AddEntity(friendships).ok());

  EntityDef listings;
  listings.name = "listings";
  listings.fields = {{"listing_id", FieldType::kInt64},
                     {"city", FieldType::kString},
                     {"created", FieldType::kInt64},
                     {"title", FieldType::kString}};
  listings.key_fields = {"listing_id"};
  EXPECT_TRUE(catalog.AddEntity(listings).ok());
  return catalog;
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, CatalogValidation) {
  Catalog catalog;
  EntityDef bad;
  EXPECT_FALSE(catalog.AddEntity(bad).ok());  // empty

  bad.name = "t";
  bad.fields = {{"a", FieldType::kInt64}};
  EXPECT_FALSE(catalog.AddEntity(bad).ok());  // no key

  bad.key_fields = {"missing"};
  EXPECT_FALSE(catalog.AddEntity(bad).ok());  // key not a field

  bad.key_fields = {"a"};
  bad.fanout_caps["ghost"] = 5;
  EXPECT_FALSE(catalog.AddEntity(bad).ok());  // cap on unknown field

  bad.fanout_caps.clear();
  EXPECT_TRUE(catalog.AddEntity(bad).ok());
  EXPECT_EQ(catalog.AddEntity(bad).code(), StatusCode::kAlreadyExists);
  EXPECT_NE(catalog.Get("t"), nullptr);
  EXPECT_EQ(catalog.Get("zzz"), nullptr);
}

TEST(SchemaTest, RowAccessors) {
  Row row;
  row.SetInt("id", 7);
  row.SetString("name", "ada");
  EXPECT_TRUE(row.Has("id"));
  EXPECT_FALSE(row.Has("ghost"));
  EXPECT_EQ(row.GetInt("id"), 7);
  EXPECT_EQ(row.GetString("name"), "ada");
  EXPECT_EQ(row.GetInt("ghost"), 0);
  EXPECT_EQ(row.GetString("ghost"), "");
}

TEST(SchemaTest, RowCodecRoundTrip) {
  Catalog catalog = SocialCatalog();
  const EntityDef* profiles = catalog.Get("profiles");
  Row row;
  row.SetInt("user_id", 42);
  row.SetString("name", "bob");
  row.SetInt("bday", 19900101);
  // city intentionally absent
  auto decoded = DecodeRow(*profiles, EncodeRow(*profiles, row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_FALSE(decoded->Has("city"));
}

TEST(SchemaTest, RowCodecRejectsTruncation) {
  Catalog catalog = SocialCatalog();
  const EntityDef* profiles = catalog.Get("profiles");
  Row row;
  row.SetInt("user_id", 1);
  row.SetString("name", "x");
  std::string bytes = EncodeRow(*profiles, row);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DecodeRow(*profiles, bytes).ok());
}

TEST(SchemaTest, PrimaryKeyEncoding) {
  Catalog catalog = SocialCatalog();
  const EntityDef* friendships = catalog.Get("friendships");
  Row edge;
  edge.SetInt("f1", 10);
  edge.SetInt("f2", 20);
  auto key = EncodePrimaryKey(*friendships, edge);
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(key->starts_with("t/friendships/"));
  // Order preserved: (10,20) < (10,21) < (11,0).
  Row edge2 = edge;
  edge2.SetInt("f2", 21);
  Row edge3;
  edge3.SetInt("f1", 11);
  edge3.SetInt("f2", 0);
  EXPECT_LT(*key, *EncodePrimaryKey(*friendships, edge2));
  EXPECT_LT(*EncodePrimaryKey(*friendships, edge2), *EncodePrimaryKey(*friendships, edge3));
}

TEST(SchemaTest, PrimaryKeyRequiresKeyFields) {
  Catalog catalog = SocialCatalog();
  Row row;
  row.SetInt("f1", 1);  // f2 missing
  EXPECT_FALSE(EncodePrimaryKey(*catalog.Get("friendships"), row).ok());
}

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, SimpleSelection) {
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM profiles p WHERE p.user_id = <uid>");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select_alias, "p");
  EXPECT_EQ(q->from.table, "profiles");
  EXPECT_EQ(q->from.alias, "p");
  ASSERT_EQ(q->where.size(), 1u);
  ASSERT_EQ(q->where[0].alternatives.size(), 1u);
  const Predicate& pred = q->where[0].alternatives[0];
  EXPECT_EQ(pred.lhs.field, "user_id");
  EXPECT_TRUE(pred.rhs_is_param);
  EXPECT_EQ(pred.param.name, "uid");
}

TEST(ParserTest, PaperBirthdayQuery) {
  // The paper's §3.2 example (normalized to explicit join syntax).
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
      "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->joins.size(), 1u);
  EXPECT_EQ(q->joins[0].table.table, "profiles");
  ASSERT_EQ(q->where.size(), 1u);
  EXPECT_EQ(q->where[0].alternatives.size(), 2u);  // the OR
  ASSERT_TRUE(q->order_by.has_value());
  EXPECT_EQ(q->order_by->field, "bday");
  EXPECT_FALSE(q->descending);
}

TEST(ParserTest, OrderDescAndLimit) {
  auto q = ParseQueryTemplate(
      "SELECT l.* FROM listings l WHERE l.city = <city> ORDER BY l.created DESC LIMIT 50");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->descending);
  EXPECT_EQ(q->limit, 50);
}

TEST(ParserTest, TwoHopQuery) {
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
      "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <user_id>");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->joins.size(), 2u);
}

TEST(ParserTest, AliasDefaultsToTableName) {
  auto q = ParseQueryTemplate("SELECT profiles.* FROM profiles WHERE profiles.user_id = <u>");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->from.alias, "profiles");
}

TEST(ParserTest, SyntaxErrorsAreReported) {
  EXPECT_FALSE(ParseQueryTemplate("").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT FROM profiles").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT p.* FROM").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT p.* FROM profiles p WHERE").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT p.* FROM profiles p LIMIT many").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT p.* FROM profiles p WHERE p.x = <u> garbage").ok());
  EXPECT_FALSE(ParseQueryTemplate("SELECT p.x FROM profiles p").ok());  // only .* allowed
}

TEST(ParserTest, ComparisonOperators) {
  auto q = ParseQueryTemplate(
      "SELECT l.* FROM listings l WHERE l.city = <c> AND l.created >= <since> LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[1].alternatives[0].op, CompareOp::kGe);
}

TEST(ParserTest, ParamVersusLessThan) {
  // '<' must lex as an operator here, not a parameter.
  auto q = ParseQueryTemplate(
      "SELECT l.* FROM listings l WHERE l.listing_id = <id> AND l.created < <cutoff> LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where[1].alternatives[0].op, CompareOp::kLt);
  EXPECT_EQ(q->where[1].alternatives[0].param.name, "cutoff");
}

// -------------------------------------------------------------- Analyzer --

TEST(AnalyzerTest, PointLookupBoundIsOne) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate("SELECT p.* FROM profiles p WHERE p.user_id = <u>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->read_rows, 1);
}

TEST(AnalyzerTest, CappedFanoutBound) {
  Catalog catalog = SocialCatalog(5000);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
      "WHERE f.f1 = <u>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->read_rows, 5000);  // <= friend cap, x1 for pk join
}

TEST(AnalyzerTest, TwitterUnboundedFollowersRejected) {
  // The paper's counterexample: no cap on the follow edge -> reject.
  Catalog catalog = SocialCatalog(/*friend_cap=*/0);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
      "WHERE f.f1 = <u>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  EXPECT_EQ(bounds.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(bounds.status().message().find("unbounded"), std::string_view::npos)
      << bounds.status();
}

TEST(AnalyzerTest, UnanchoredQueryRejected) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate("SELECT p.* FROM profiles p WHERE p.bday = <b>");
  ASSERT_TRUE(q.ok());
  // bday has no cap and is not the key: matching rows are unbounded and
  // there is no LIMIT.
  EXPECT_EQ(AnalyzeTemplate(catalog, *q).status().code(), StatusCode::kFailedPrecondition);
}

TEST(AnalyzerTest, LimitBoundsUncappedSelection) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate(
      "SELECT l.* FROM listings l WHERE l.city = <c> ORDER BY l.created DESC LIMIT 50");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->read_rows, 50);
  EXPECT_TRUE(bounds->bounded_by_limit);
}

TEST(AnalyzerTest, TwoHopMultipliesBounds) {
  Catalog catalog = SocialCatalog(100);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
      "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <u>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->read_rows, 100 * 100);
}

TEST(AnalyzerTest, ReadBudgetEnforced) {
  Catalog catalog = SocialCatalog(5000);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
      "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <u>");
  ASSERT_TRUE(q.ok());
  // 5000 * 5000 = 25M > default budget.
  EXPECT_EQ(AnalyzeTemplate(catalog, *q).status().code(), StatusCode::kFailedPrecondition);
}

TEST(AnalyzerTest, UnknownTableAndFieldAreInvalid) {
  Catalog catalog = SocialCatalog();
  auto q1 = ParseQueryTemplate("SELECT x.* FROM unicorns x WHERE x.id = <i>");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(AnalyzeTemplate(catalog, *q1).status().code(), StatusCode::kInvalidArgument);
  auto q2 = ParseQueryTemplate("SELECT p.* FROM profiles p WHERE p.ghost = <g>");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(AnalyzeTemplate(catalog, *q2).status().code(), StatusCode::kInvalidArgument);
}

TEST(AnalyzerTest, SymmetricOrSumsBranches) {
  Catalog catalog = SocialCatalog(5000);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
      "WHERE f.f1 = <u> OR f.f2 = <u> ORDER BY p.bday");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->read_rows, 10000);  // both directions
}

// --------------------------------------------------------------- Planner --

TEST(PlannerTest, PointLookupNeedsNoIndex) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate("SELECT p.* FROM profiles p WHERE p.user_id = <u>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok());
  auto plan = PlanQuery(catalog, "profile_by_id", *q, *bounds);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->main().shape, QueryShape::kPointLookup);
  EXPECT_TRUE(plan->main().maintenance.empty());
  EXPECT_EQ(plan->main().update_cost, 0);
}

TEST(PlannerTest, SelectionIndexPlanned) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate(
      "SELECT l.* FROM listings l WHERE l.city = <c> ORDER BY l.created DESC LIMIT 50");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok());
  auto plan = PlanQuery(catalog, "listings_by_city", *q, *bounds);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const IndexPlan& main = plan->main();
  EXPECT_EQ(main.shape, QueryShape::kSelection);
  EXPECT_EQ(main.target_entity, "listings");
  ASSERT_EQ(main.eq_fields.size(), 1u);
  EXPECT_EQ(main.eq_fields[0], "city");
  EXPECT_EQ(main.order_field, "created");
  EXPECT_TRUE(main.descending);
  ASSERT_EQ(main.maintenance.size(), 1u);
  EXPECT_EQ(main.maintenance[0], (MaintenanceEntry{"idx_listings_by_city", "listings", "*"}));
}

TEST(PlannerTest, PaperBirthdayIndexMatchesFigure3) {
  Catalog catalog = SocialCatalog();
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
      "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok());
  auto plan = PlanQuery(catalog, "birthday", *q, *bounds);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const IndexPlan& main = plan->main();
  EXPECT_EQ(main.shape, QueryShape::kJoin);
  EXPECT_TRUE(main.symmetric);
  EXPECT_EQ(main.order_field, "bday");
  // Figure 3's rows for the birthday index:
  //   birthday index | profiles   | birthday
  //   birthday index | friendship | *
  ASSERT_EQ(main.maintenance.size(), 2u);
  EXPECT_EQ(main.maintenance[0], (MaintenanceEntry{"idx_birthday", "profiles", "bday"}));
  EXPECT_EQ(main.maintenance[1], (MaintenanceEntry{"idx_birthday", "friendships", "*"}));
  // Plus the shared adjacency ("friend index") helper.
  ASSERT_EQ(plan->plans.size(), 2u);
  EXPECT_EQ(plan->plans[1].shape, QueryShape::kAdjacency);
  EXPECT_EQ(plan->plans[1].name, "adj_friendships");
}

TEST(PlannerTest, FriendsOfFriendsCascadesFromFriendIndex) {
  Catalog catalog = SocialCatalog(300);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
      "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <user_id>");
  ASSERT_TRUE(q.ok());
  auto bounds = AnalyzeTemplate(catalog, *q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  auto plan = PlanQuery(catalog, "fof", *q, *bounds);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->main().shape, QueryShape::kTwoHop);
  // Figure 3's cascade: the fof index updates when the friend index does.
  ASSERT_EQ(plan->main().maintenance.size(), 1u);
  EXPECT_EQ(plan->main().maintenance[0],
            (MaintenanceEntry{"idx_fof", "adj_friendships", "*"}));
  // One task writes the two-hop lists of the edge's endpoints and their
  // friends: at most 2 * cap + 2 records.
  EXPECT_EQ(plan->main().update_cost, 2 * 300 + 2);
}

// Adjacency and two-hop indexes store endpoints as lists of int64 ids, so
// a join or two-hop over an edge with string endpoints is refused.
TEST(PlannerTest, EdgeIndexesNeedInt64Endpoints) {
  Catalog catalog;
  EntityDef members;
  members.name = "members";
  members.fields = {{"handle", FieldType::kString}, {"name", FieldType::kString}};
  members.key_fields = {"handle"};
  ASSERT_TRUE(catalog.AddEntity(members).ok());
  EntityDef follows;
  follows.name = "follows";
  follows.fields = {{"a", FieldType::kString}, {"b", FieldType::kString}};
  follows.key_fields = {"a", "b"};
  follows.fanout_caps["a"] = 50;
  follows.fanout_caps["b"] = 50;
  ASSERT_TRUE(catalog.AddEntity(follows).ok());
  for (const char* sql :
       {"SELECT m.* FROM follows f JOIN members m ON f.b = m.handle WHERE f.a = <h>",
        "SELECT m.* FROM follows x JOIN follows y ON x.b = y.a "
        "JOIN members m ON y.b = m.handle WHERE x.a = <h>"}) {
    auto q = ParseQueryTemplate(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto bounds = AnalyzeTemplate(catalog, *q);
    ASSERT_TRUE(bounds.ok()) << bounds.status();
    auto plan = PlanQuery(catalog, "q", *q, *bounds);
    EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented) << sql;
  }
}

TEST(PlannerTest, UpdateBudgetRejectsHotTwoHop) {
  Catalog catalog = SocialCatalog(5000);
  auto q = ParseQueryTemplate(
      "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
      "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <u>");
  ASSERT_TRUE(q.ok());
  QueryBounds fake_bounds;  // bypass the analyzer read budget for this test
  PlannerConfig config;
  config.max_update_cost = 1000;  // 2*5000+2 exceeds this
  auto plan = PlanQuery(catalog, "fof", *q, fake_bounds, config);
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlannerTest, RenderMaintenanceTableLooksRight) {
  std::vector<MaintenanceEntry> entries = {
      {"friend index", "friendships", "*"},
      {"birthday index", "profiles", "birthday"},
  };
  std::string table = RenderMaintenanceTable(entries);
  EXPECT_NE(table.find("Index"), std::string::npos);
  EXPECT_NE(table.find("friend index"), std::string::npos);
  EXPECT_NE(table.find("birthday"), std::string::npos);
}

}  // namespace
}  // namespace scads
