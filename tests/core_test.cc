// Tests for the public Scads facade (src/core) and the paper's baselines
// (src/baseline).

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/adhoc.h"
#include "baseline/appside.h"
#include "core/scads.h"
#include "gtest/gtest.h"

namespace scads {
namespace {

EntityDef ProfilesEntity() {
  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  return profiles;
}

EntityDef FriendshipsEntity(int64_t cap = 100) {
  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = cap;
  friendships.fanout_caps["f2"] = cap;
  return friendships;
}

std::unique_ptr<Scads> MakeSocialScads(std::string spec_text = "",
                                       MergeFunction merge = nullptr) {
  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 8;
  options.consistency_spec = std::move(spec_text);
  options.merge_function = std::move(merge);
  auto scads = Scads::Create(options);
  EXPECT_TRUE(scads.ok()) << scads.status();
  auto instance = std::move(scads).value();
  EXPECT_TRUE(instance->DefineEntity(ProfilesEntity()).ok());
  EXPECT_TRUE(instance->DefineEntity(FriendshipsEntity()).ok());
  return instance;
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

TEST(ScadsTest, CreateValidatesOptions) {
  ScadsOptions bad;
  bad.initial_nodes = 0;
  EXPECT_FALSE(Scads::Create(bad).ok());
  ScadsOptions bad_spec;
  bad_spec.consistency_spec = "writes: telepathy";
  EXPECT_FALSE(Scads::Create(bad_spec).ok());
  ScadsOptions merge_without_fn;
  merge_without_fn.consistency_spec = "writes: merge";
  EXPECT_FALSE(Scads::Create(merge_without_fn).ok());
}

TEST(ScadsTest, LifecycleAndPointQueries) {
  auto scads = MakeSocialScads();
  ASSERT_TRUE(scads->RegisterQuery("profile_by_id",
                                   "SELECT p.* FROM profiles p WHERE p.user_id = <u>")
                  .ok());
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "ada", 101), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  auto rows = scads->QuerySync("profile_by_id", {{"u", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].GetString("name"), "ada");
}

TEST(ScadsTest, RejectsUnboundedQueryAtRegistration) {
  ScadsOptions options;
  auto scads = Scads::Create(options);
  ASSERT_TRUE(scads.ok());
  ASSERT_TRUE((*scads)->DefineEntity(ProfilesEntity()).ok());
  // Twitter-style uncapped follow edge.
  EntityDef follows;
  follows.name = "follows";
  follows.fields = {{"follower", FieldType::kInt64}, {"followee", FieldType::kInt64}};
  follows.key_fields = {"follower", "followee"};
  ASSERT_TRUE((*scads)->DefineEntity(follows).ok());
  auto result = (*scads)->RegisterQuery(
      "timeline_fanout",
      "SELECT p.* FROM follows f JOIN profiles p ON f.follower = p.user_id "
      "WHERE f.followee = <star>");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ScadsTest, BirthdayQueryEndToEndThroughFacade) {
  auto scads = MakeSocialScads("staleness: 5s\n");
  ASSERT_TRUE(scads
                  ->RegisterQuery("birthday",
                                  "SELECT p.* FROM friendships f JOIN profiles p "
                                  "ON f.f2 = p.user_id WHERE f.f1 = <user_id> OR "
                                  "f.f2 = <user_id> ORDER BY p.bday")
                  .ok());
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "alice", 300), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(2, "bob", 100), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(3, "carol", 200), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(1, 2), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(3, 1), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  auto rows = scads->QuerySync("birthday", {{"user_id", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].GetString("name"), "bob");
  EXPECT_EQ((*rows)[1].GetString("name"), "carol");
  // The maintenance table renders with the Figure-3 rows.
  std::string table = scads->RenderMaintenanceTable();
  EXPECT_NE(table.find("idx_birthday"), std::string::npos);
  EXPECT_NE(table.find("adj_friendships"), std::string::npos);
}

TEST(ScadsTest, GetRowHonoursStalenessPath) {
  auto scads = MakeSocialScads("staleness: 1m\n");
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(9, "zed", 7), RequestOptions{}).ok());
  scads->RunFor(2 * kSecond);
  Row key;
  key.SetInt("user_id", 9);
  auto row = scads->GetRowSync("profiles", key, RequestOptions{});
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->GetString("name"), "zed");
  Row missing;
  missing.SetInt("user_id", 404);
  EXPECT_TRUE(IsNotFound(scads->GetRowSync("profiles", missing, RequestOptions{}).status()));
}

TEST(ScadsTest, DeleteRowUpdatesIndexes) {
  auto scads = MakeSocialScads();
  ASSERT_TRUE(scads
                  ->RegisterQuery("birthday",
                                  "SELECT p.* FROM friendships f JOIN profiles p "
                                  "ON f.f2 = p.user_id WHERE f.f1 = <user_id> OR "
                                  "f.f2 = <user_id> ORDER BY p.bday")
                  .ok());
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "a", 1), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(2, "b", 2), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(1, 2), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  ASSERT_EQ(scads->QuerySync("birthday", {{"user_id", Value(int64_t{1})}}, RequestOptions{})->size(), 1u);
  ASSERT_TRUE(scads->DeleteRowSync("friendships", Edge(1, 2), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  EXPECT_TRUE(scads->QuerySync("birthday", {{"user_id", Value(int64_t{1})}}, RequestOptions{})->empty());
}

TEST(ScadsTest, SerializableSpecAppliesCasWrites) {
  auto scads = MakeSocialScads("writes: serializable\n");
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "v1", 1), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "v2", 2), RequestOptions{}).ok());
  Row key;
  key.SetInt("user_id", 1);
  auto row = scads->GetRowSync("profiles", key, RequestOptions{});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->GetString("name"), "v2");
  EXPECT_GT(scads->write_policy()->stats().writes_committed, 0);
}

constexpr char kBirthdayQuery[] =
    "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
    "WHERE f.f1 = <user_id> OR f.f2 = <user_id> ORDER BY p.bday";

/// Keeps what is stored: a merge-mode write to an existing row changes
/// nothing but its version.
std::string KeepStored(std::string_view stored, std::string_view /*incoming*/) {
  return std::string(stored);
}

/// The bdays birthday(<user_id>) lists for `friend_id`.
std::vector<int64_t> ListedBdays(Scads* scads, int64_t user_id, int64_t friend_id) {
  auto rows = scads->QuerySync("birthday", {{"user_id", Value(user_id)}}, RequestOptions{});
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<int64_t> bdays;
  if (!rows.ok()) return bdays;
  for (const Row& row : *rows) {
    if (row.GetInt("user_id") == friend_id) bdays.push_back(row.GetInt("bday"));
  }
  return bdays;
}

/// The bday the partition primary stores for `user_id`.
int64_t StoredBday(Scads* scads, int64_t user_id) {
  Row key;
  key.SetInt("user_id", user_id);
  auto row = scads->GetRowSync("profiles", key, RequestOptions::PrimaryOnly());
  EXPECT_TRUE(row.ok()) << row.status();
  return row.ok() ? row->GetInt("bday") : -1;
}

TEST(ScadsTest, PutRowMakesOneExchangeUnderLwwAndTwoUnderCas) {
  // The write reports the record it replaced, so PutRow reads nothing of
  // its own: last-write-wins makes one exchange, and the CAS modes two (the
  // CAS read is the old image). The row is one no registered index covers,
  // so index maintenance reads nothing either.
  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"", 0}, {"writes: serializable\n", 1}, {"writes: merge\n", 1}};
  for (const auto& [spec, reads_per_put] : cases) {
    SCOPED_TRACE(spec);
    auto scads = MakeSocialScads(spec, KeepStored);
    EntityDef settings;
    settings.name = "settings";
    settings.fields = {{"user_id", FieldType::kInt64}, {"theme", FieldType::kString}};
    settings.key_fields = {"user_id"};
    ASSERT_TRUE(scads->DefineEntity(settings).ok());
    ASSERT_TRUE(scads->RegisterQuery("birthday", kBirthdayQuery).ok());
    ASSERT_TRUE(scads->Start().ok());
    for (const char* theme : {"dark", "light"}) {  // create, then update
      Row row;
      row.SetInt("user_id", 7);
      row.SetString("theme", theme);
      const RouterWindow& window = scads->router()->window();
      const int64_t reads = window.reads_ok + window.reads_failed;
      const int64_t writes = window.writes_ok + window.writes_failed;
      ASSERT_TRUE(scads->PutRowSync("settings", row, RequestOptions{}).ok());
      scads->DrainIndexQueue();
      EXPECT_EQ(window.reads_ok + window.reads_failed - reads, reads_per_put);
      EXPECT_EQ(window.writes_ok + window.writes_failed - writes, 1);
    }
  }
}

TEST(ScadsTest, SameStampPutRowsIndexOnlyTheWriteThatApplied) {
  auto scads = MakeSocialScads("staleness: 5s\n");
  ASSERT_TRUE(scads->RegisterQuery("birthday", kBirthdayQuery).ok());
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "alice", 300), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(2, "bob", 100), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(1, 2), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  ASSERT_EQ(ListedBdays(scads.get(), 1, 2), std::vector<int64_t>{100});
  // Both writes leave before the loop runs, so they carry one version
  // stamp: the primary applies whichever arrives first and drops the other
  // as superseded. Only the applied one may reach the index.
  Status first = InternalError("pending");
  Status second = InternalError("pending");
  scads->PutRow("profiles", Profile(2, "bob50", 50), RequestOptions{},
                [&](Status s) { first = std::move(s); });
  scads->PutRow("profiles", Profile(2, "bob70", 70), RequestOptions{},
                [&](Status s) { second = std::move(s); });
  scads->RunFor(kSecond);
  ASSERT_TRUE(first.ok()) << first;
  ASSERT_TRUE(second.ok()) << second;
  scads->DrainIndexQueue();
  EXPECT_EQ(ListedBdays(scads.get(), 1, 2), std::vector<int64_t>{StoredBday(scads.get(), 2)});
}

TEST(ScadsTest, MergePutRowIndexesTheRowItStored) {
  auto scads = MakeSocialScads("writes: merge\n", KeepStored);
  ASSERT_TRUE(scads->RegisterQuery("birthday", kBirthdayQuery).ok());
  ASSERT_TRUE(scads->Start().ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(1, "alice", 300), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(2, "bob", 200), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(1, 2), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  // The merge keeps bday 200; the index must follow what was stored, not
  // the caller's row.
  ASSERT_TRUE(scads->PutRowSync("profiles", Profile(2, "bob", 50), RequestOptions{}).ok());
  scads->DrainIndexQueue();
  EXPECT_EQ(StoredBday(scads.get(), 2), 200);
  EXPECT_EQ(ListedBdays(scads.get(), 1, 2), std::vector<int64_t>{200});
}

TEST(ScadsTest, DurabilitySpecRaisesReplication) {
  auto strict = MakeSocialScads("durability: 99.99999%\n");
  auto relaxed = MakeSocialScads("durability: 90%\n");
  EXPECT_GT(strict->durability_plan().replication_factor,
            relaxed->durability_plan().replication_factor);
}

TEST(ScadsTest, SessionGuaranteesComeFromSpec) {
  auto scads = MakeSocialScads("session: read_your_writes\n");
  ASSERT_TRUE(scads->Start().ok());
  auto session = scads->NewSession();
  Status put = InternalError("pending");
  session->Put("app/key", "value", AckMode::kPrimary, RequestOptions{}, [&](Status s) { put = std::move(s); });
  scads->RunFor(kSecond);
  ASSERT_TRUE(put.ok());
  Result<Record> got(InternalError("pending"));
  bool done = false;
  session->Get("app/key", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  scads->RunFor(kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "value");
}

// --------------------------------------------------------------- Baselines --

TEST(BaselineTest, AdHocAnswersMatchScads) {
  auto scads = MakeSocialScads();
  ASSERT_TRUE(scads
                  ->RegisterQuery("birthday",
                                  "SELECT p.* FROM friendships f JOIN profiles p "
                                  "ON f.f2 = p.user_id WHERE f.f1 = <user_id> OR "
                                  "f.f2 = <user_id> ORDER BY p.bday")
                  .ok());
  ASSERT_TRUE(scads->Start().ok());
  for (int64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(scads->PutRowSync("profiles", Profile(i, "u" + std::to_string(i), 10 * i), RequestOptions{}).ok());
  }
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(1, 3), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(5, 1), RequestOptions{}).ok());
  ASSERT_TRUE(scads->PutRowSync("friendships", Edge(2, 6), RequestOptions{}).ok());
  scads->DrainIndexQueue();

  AdHocExecutor adhoc(scads->router(), scads->cluster(), &scads->catalog());
  Result<std::vector<Row>> adhoc_rows(InternalError("pending"));
  bool done = false;
  adhoc.FriendsByBirthday(1, [&](Result<std::vector<Row>> rows) {
    adhoc_rows = std::move(rows);
    done = true;
  });
  scads->RunFor(10 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(adhoc_rows.ok()) << adhoc_rows.status();

  auto scads_rows = scads->QuerySync("birthday", {{"user_id", Value(int64_t{1})}}, RequestOptions{});
  ASSERT_TRUE(scads_rows.ok());
  ASSERT_EQ(adhoc_rows->size(), scads_rows->size());
  for (size_t i = 0; i < adhoc_rows->size(); ++i) {
    EXPECT_EQ((*adhoc_rows)[i].GetInt("user_id"), (*scads_rows)[i].GetInt("user_id"));
  }
  // The ad-hoc path had to scan the whole friendships table.
  EXPECT_GE(adhoc.rows_scanned(), 3);
}

TEST(BaselineTest, AppSideJoinCostsOneRoundTripPerFriend) {
  auto scads = MakeSocialScads();
  ASSERT_TRUE(scads->Start().ok());
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(scads->PutRowSync("profiles", Profile(i, "u" + std::to_string(i), 10 * i), RequestOptions{}).ok());
  }
  AppSideJoinClient app(scads->router(), &scads->catalog());
  Status stored = InternalError("pending");
  app.StoreFriendList(1, {2, 3, 4, 5}, [&](Status s) { stored = std::move(s); });
  scads->RunFor(kSecond);
  ASSERT_TRUE(stored.ok());
  int64_t before = app.round_trips();
  Result<std::vector<Row>> rows(InternalError("pending"));
  bool done = false;
  app.FriendsByBirthday(1, [&](Result<std::vector<Row>> r) {
    rows = std::move(r);
    done = true;
  });
  scads->RunFor(5 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  // 1 list fetch + 4 profile gets.
  EXPECT_EQ(app.round_trips() - before, 5);
  // Sorted by birthday.
  EXPECT_EQ((*rows)[0].GetInt("user_id"), 2);
  EXPECT_EQ((*rows)[3].GetInt("user_id"), 5);
}

}  // namespace
}  // namespace scads
