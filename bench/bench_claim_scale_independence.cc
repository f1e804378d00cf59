// CLAIM-SI: the paper's central claim (§1.1, §2.1) — *data scale
// independence*: "the response time for any given query must be invariant
// with respect to the number of users in the system."
//
// Sweep the user count, keep per-user data constant (10 friends each), and
// measure the same logical query ("friends by birthday") three ways:
//   * SCADS — one bounded precomputed-index scan;
//   * ad-hoc SQL baseline — no index: full friendship-table scan for the
//     reverse edge direction (cost grows with the user base);
//   * plain-KV baseline — app-side join, one round trip per friend
//     (bounded but paying K network RTTs).
// Expected shape: SCADS flat; ad-hoc linear in users; app-side flat but a
// constant factor above SCADS.

#include <cstdio>
#include <optional>
#include <string>

#include "baseline/adhoc.h"
#include "baseline/appside.h"
#include "core/scads.h"
#include "workload/social_graph.h"
#include "common/benchjson.h"

using namespace scads;  // NOLINT: benchmark brevity

namespace {

struct Sample {
  int64_t users = 0;
  double scads_ms = 0;
  double adhoc_ms = 0;
  double appside_ms = 0;
  int64_t adhoc_rows_scanned = 0;
};

Sample RunAtScale(int64_t users) {
  ScadsOptions options;
  options.initial_nodes = 4;
  options.partitions = 16;
  options.consistency_spec = "staleness: 30s\n";
  auto db = std::move(Scads::Create(options)).value();

  EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", FieldType::kInt64},
                     {"name", FieldType::kString},
                     {"bday", FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  (void)db->DefineEntity(profiles);
  EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", FieldType::kInt64}, {"f2", FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = 50;
  friendships.fanout_caps["f2"] = 50;
  (void)db->DefineEntity(friendships);
  (void)db->RegisterQuery("birthday",
                          "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
                          "WHERE f.f1 = <u> OR f.f2 = <u> ORDER BY p.bday");
  (void)db->Start();

  // Per-user data is constant: ~10 friends regardless of population.
  SocialGraphConfig graph_config;
  graph_config.user_count = users;
  graph_config.mean_degree = 10;
  graph_config.friend_cap = 50;
  SocialGraph graph = SocialGraph::Generate(graph_config, 17);
  for (int64_t u = 0; u < users; ++u) {
    Row row;
    row.SetInt("user_id", u);
    row.SetString("name", "u" + std::to_string(u));
    row.SetInt("bday", 1 + (u * 97) % 1300);
    (void)db->PutRowSync("profiles", row, RequestOptions{});
  }
  AppSideJoinClient appside(db->router(), &db->catalog());
  for (const auto& [a, b] : graph.Edges()) {
    Row edge;
    edge.SetInt("f1", a);
    edge.SetInt("f2", b);
    (void)db->PutRowSync("friendships", edge, RequestOptions{});
  }
  // Denormalized friend lists for the KV baseline.
  const int64_t subject = users / 2;
  {
    std::vector<int64_t> list = graph.Friends(subject);
    Status stored = InternalError("pending");
    appside.StoreFriendList(subject, list, [&](Status s) { stored = s; });
    db->RunFor(kSecond);
  }
  db->DrainIndexQueue(30 * kMinute);

  Sample sample;
  sample.users = users;
  // The callback records its own completion time, so a latency is exact
  // rather than rounded up to the step the loop is pumped in.
  auto time_one = [&](std::function<void(std::function<void()>)> op) {
    Time start = db->loop()->Now();
    std::optional<Time> finished;
    op([&] { finished = db->loop()->Now(); });
    while (!finished.has_value()) db->RunFor(10 * kMillisecond);
    return static_cast<double>(*finished - start) / kMillisecond;
  };

  // Average kRuns executions each: network jitter moves single runs.
  constexpr int kRuns = 30;
  double scads_total = 0, adhoc_total = 0, appside_total = 0;
  AdHocExecutor adhoc(db->router(), db->cluster(), &db->catalog());
  for (int i = 0; i < kRuns; ++i) {
    scads_total += time_one([&](std::function<void()> done) {
      db->Query("birthday", {{"u", Value(subject)}}, RequestOptions{},
                [done](Result<std::vector<Row>>) { done(); });
    });
    adhoc_total += time_one([&](std::function<void()> done) {
      adhoc.FriendsByBirthday(subject, [done](Result<std::vector<Row>>) { done(); });
    });
    appside_total += time_one([&](std::function<void()> done) {
      appside.FriendsByBirthday(subject, [done](Result<std::vector<Row>>) { done(); });
    });
  }
  sample.scads_ms = scads_total / kRuns;
  sample.adhoc_ms = adhoc_total / kRuns;
  sample.appside_ms = appside_total / kRuns;
  sample.adhoc_rows_scanned = adhoc.rows_scanned() / kRuns;
  return sample;
}

}  // namespace

int main() {
  BenchJson json("claim_scale_independence");
  std::printf("=== CLAIM-SI: scale independence — query cost vs. user count ===\n\n");
  std::printf("%8s %12s %12s %12s %18s\n", "users", "scads(ms)", "adhoc(ms)", "appside(ms)",
              "adhoc rows scanned");
  std::vector<Sample> samples;
  for (int64_t users : {500, 1000, 2000, 4000, 8000}) {
    Sample s = RunAtScale(users);
    samples.push_back(s);
    std::printf("%8lld %12.2f %12.2f %12.2f %18lld\n", static_cast<long long>(s.users),
                s.scads_ms, s.adhoc_ms, s.appside_ms,
                static_cast<long long>(s.adhoc_rows_scanned));
    json.BeginRow("users_" + std::to_string(users));
    json.Add("users", s.users);
    json.Add("scads_ms", s.scads_ms);
    json.Add("adhoc_ms", s.adhoc_ms);
    json.Add("appside_ms", s.appside_ms);
    json.Add("adhoc_rows_scanned", s.adhoc_rows_scanned);
  }
  const Sample& first = samples.front();
  const Sample& last = samples.back();
  double scads_growth = last.scads_ms / std::max(0.01, first.scads_ms);
  double adhoc_growth = last.adhoc_ms / std::max(0.01, first.adhoc_ms);
  std::printf("\nusers grew %.0fx:\n", static_cast<double>(last.users) / first.users);
  std::printf("  SCADS latency grew   %.2fx  (scale-independent: ~1x expected)\n", scads_growth);
  std::printf("  ad-hoc latency grew  %.2fx  (linear in users expected)\n", adhoc_growth);
  std::printf("  ad-hoc rows scanned grew %.1fx\n",
              static_cast<double>(last.adhoc_rows_scanned) /
                  std::max<int64_t>(1, first.adhoc_rows_scanned));
  bool shape_holds = scads_growth < 2.0 && adhoc_growth > 4.0;
  std::printf("\nshape check (SCADS flat <2x, ad-hoc grows >4x): %s\n",
              shape_holds ? "PASS" : "FAIL");
  json.BeginRow("summary");
  json.Add("scads_growth", scads_growth);
  json.Add("adhoc_growth", adhoc_growth);
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
