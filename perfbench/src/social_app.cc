// social_app: the paper's application on the Scads facade (deterministic
// simulator, default NodeConfig and NetworkConfig).
//
// 4 nodes, 32 partitions, point and scan cache and the read coalescer on,
// a last-write-wins spec with a 5 s staleness bound. Entities `profiles`
// and `friendships` (fan-out cap 64 on both endpoints); registered queries
// `profile`, `friend_birthdays` (index scan plus hydration, ORDER BY bday
// LIMIT 10) and `fof` (two-hop). The benchmark generates a power-law
// friendship graph (preferential attachment) and drives an open loop of
// Poisson arrivals over Zipf-skewed users, all through Scads::Query and
// Scads::PutRow. 90% of ops read and 10% write; no published trace of this
// application splits those shares further, so each read kind gets an equal
// share (30% profile, 30% friend_birthdays, 30% fof) and so does each write
// kind (5% new friendships, 5% profile edits). Latency is simulated time
// from an op's due time to its callback.
//
// New friendships grow the graph through the run, so the load grows with
// it: on seed 200 write p99 was 13 ms at --seconds 10 and 23 ms at 20.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/strings.h"
#include "core/scads.h"
#include "harness.h"
#include "index/keys.h"
#include "storage/engine.h"
#include "trace.h"

namespace perfbench {
namespace {

using scads::kMillisecond;
using scads::RequestOptions;
using scads::Result;
using scads::Row;
using scads::Status;
using scads::Time;

constexpr int64_t kUsers = 800;
constexpr int kEdgesPerNewUser = 3;  // preferential attachment: mean degree ~6
constexpr int64_t kFriendCap = 64;   // entity fan-out cap; the generator keeps degree below it
constexpr double kUserTheta = 0.9;
// Offered ops/s (simulated): about 60% of the rate at which this mix
// saturates the fleet (at 1,100 ops/s write p99 reached ~93 ms and the index
// lagged 1.6 s behind the last write).
constexpr double kRate = 650;
// The measured phase offers this many ops per --seconds: enough writes for
// a steady write p99 (about 62 s of simulated time at --seconds 10).
constexpr int64_t kOpsPerSecond = 4000;
constexpr double kProfileShare = 0.30, kBirthdayShare = 0.30, kFofShare = 0.30,
                 kNewEdgeShare = 0.05;  // the rest: profile edits
constexpr int kLoadWindow = 32;
constexpr double kWarmupSeconds = 1.0;
constexpr int kCheckUsers = 40;
// The friendship graph, the users' popularity order and the sequence of
// friendships the run adds are the workload's fixed data set; --seed varies
// the traffic (op sequence, arrival times) and the simulated network.
constexpr uint64_t kGraphSeed = 20090104;
// Point-cache capacity: a few dozen profiles, so the hot users hit and the
// long tail (and every fof hydration) misses.
constexpr size_t kPointCacheBytes = 16 << 10;
constexpr int64_t kScanProbes = 2000;

const char* kSpec =
    "performance: p99 read < 100ms, availability 99.9%\n"
    "writes: last_write_wins\n"
    "staleness: 5s\n";

// Each profile version is (seq, bday); bdays are unique across all users
// and versions so ORDER BY bday has no ties.
int64_t BdayFor(int64_t user, int64_t seq) { return seq * kUsers + user + 1; }
std::string NameFor(int64_t user, int64_t seq) {
  return "u" + std::to_string(user) + "." + std::to_string(seq);
}

Row ProfileRow(int64_t user, int64_t seq) {
  Row row;
  row.SetInt("user_id", user);
  row.SetString("name", NameFor(user, seq));
  row.SetInt("bday", BdayFor(user, seq));
  return row;
}

Row EdgeRow(int64_t a, int64_t b) {
  Row row;
  row.SetInt("f1", a);
  row.SetInt("f2", b);
  return row;
}

// The benchmark's own copy of what it wrote.
struct Model {
  std::vector<std::set<int64_t>> friends = std::vector<std::set<int64_t>>(kUsers);
  std::vector<int64_t> issued = std::vector<int64_t>(kUsers, 0);  // profile versions issued
  std::vector<int64_t> acked = std::vector<int64_t>(kUsers, 0);   // highest acked version
  std::vector<uint8_t> editing = std::vector<uint8_t>(kUsers, 0);
  std::set<int64_t> uncertain;  // users touched by a failed write: not checked
  int64_t user_bytes = 0;       // logical key + value bytes of live rows
  Gen new_edges{kGraphSeed + 2};  // the friendships the run adds

  static int64_t ProfileBytes(int64_t user, int64_t seq) {
    return 8 + static_cast<int64_t>(NameFor(user, seq).size()) + 8;  // user_id, name, bday
  }
};

// Power-law friendships by preferential attachment: each new user links to
// kEdgesPerNewUser distinct earlier users, picked in proportion to degree.
std::vector<std::pair<int64_t, int64_t>> MakeGraph(Gen& gen) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  std::vector<int64_t> ends;  // every edge endpoint, for degree-proportional picks
  std::vector<int64_t> degree(kUsers, 0);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (int64_t u = 1; u < kUsers; ++u) {
    for (int k = 0; k < kEdgesPerNewUser && k < u; ++k) {
      for (int attempt = 0; attempt < 20; ++attempt) {
        int64_t v = ends.empty() || gen.Uniform(4) == 0
                        ? static_cast<int64_t>(gen.Uniform(static_cast<uint64_t>(u)))
                        : ends[gen.Uniform(ends.size())];
        auto e = std::minmax(u, v);
        if (v == u || degree[v] >= kFriendCap / 2 || seen.count(e) != 0) continue;
        seen.insert(e);
        edges.emplace_back(e.first, e.second);
        ends.push_back(u);
        ends.push_back(v);
        ++degree[u];
        ++degree[v];
        break;
      }
    }
  }
  return edges;
}

struct Phase {
  std::vector<int64_t> read_us, write_us, query_us;
  int64_t attempted = 0, failed = 0, writes = 0;
  Time last_write_ack = 0;
  Time idle_since = -1;  // first instant the index queue went idle after the last ack
  int64_t depth_max = 0;
};

class Generator {
 public:
  Generator(scads::Scads* db, Model* model, Report* report, const std::vector<int64_t>* hot,
         const Zipf* users)
      : db_(db), m_(model), report_(report), hot_(hot), users_(users) {}

  // Offers `ops` ops at Poisson arrivals of `rate` per simulated second and
  // steps the loop one event at a time until every reply is in and the
  // index queue is idle. `segments`, when given, is sampled at every tenth
  // of the arrivals.
  Phase Run(Gen& gen, double rate, int64_t ops, int64_t op_base, Segments* segments = nullptr) {
    Phase p;
    p.read_us.reserve(static_cast<size_t>(ops));
    p_ = &p;
    gen_ = &gen;
    op_base_ = op_base;
    issued_ = 0;
    outstanding_ = 0;
    writes_outstanding_ = 0;
    int64_t segment = std::max<int64_t>(1, ops / Segments::kSegments);
    double mean_gap = 1e6 / rate;
    Time due = db_->loop()->Now() + gen.ExpGap(mean_gap);
    std::function<void()> arrive = [&] {
      Issue(due);
      ++issued_;
      p.depth_max = std::max<int64_t>(p.depth_max,
                                      static_cast<int64_t>(db_->update_queue()->depth()));
      if (segments != nullptr && issued_ == ops) {
        segments->Finish(issued_);
      } else if (segments != nullptr && issued_ % segment == 0) {
        segments->Boundary(issued_);
      }
      if (issued_ < ops) {
        due += gen.ExpGap(mean_gap);
        db_->loop()->ScheduleAt(due, arrive);
      }
    };
    db_->loop()->ScheduleAt(due, arrive);
    scads::UpdateQueue* queue = db_->update_queue();
    while (issued_ < ops || outstanding_ > 0 || !queue->idle()) {
      db_->loop()->RunOne();
      if (writes_outstanding_ == 0 && queue->idle()) {
        if (p.idle_since < 0) p.idle_since = db_->loop()->Now();
      } else {
        p.idle_since = -1;
      }
    }
    return p;
  }

 private:
  void Issue(Time due) {
    Tracer::SetOp(op_base_ + issued_);
    ++p_->attempted;
    ++outstanding_;
    int64_t user = (*hot_)[static_cast<size_t>(users_->Sample(*gen_))];
    double pick = gen_->NextDouble();
    if (pick < kProfileShare) {
      QueryProfile(user, due);
    } else if (pick < kProfileShare + kBirthdayShare + kFofShare) {
      const char* name = pick < kProfileShare + kBirthdayShare ? "friend_birthdays" : "fof";
      ScopedSpan span(SpanKind::kQueryCall);
      db_->Query(name, {{"u", scads::Value(user)}}, RequestOptions{},
                 [this, due](Result<std::vector<Row>> rows) {
                   Done(&p_->query_us, due, rows.ok());
                 });
    } else if (pick < kProfileShare + kBirthdayShare + kFofShare + kNewEdgeShare) {
      // The friendships a run adds, in order, come from the fixed data set
      // (like the initial graph); --seed decides when each one is added.
      int64_t a = (*hot_)[static_cast<size_t>(users_->Sample(m_->new_edges))];
      auto b = static_cast<int64_t>(m_->new_edges.Uniform(kUsers));
      if (a == b || m_->friends[a].count(b) != 0 ||
          static_cast<int64_t>(m_->friends[a].size()) >= kFriendCap - 1 ||
          static_cast<int64_t>(m_->friends[b].size()) >= kFriendCap - 1) {
        EditProfile(user, due);  // no new edge possible: edit instead
      } else {
        AddEdge(a, b, due);
      }
    } else {
      EditProfile(user, due);
    }
    Tracer::SetOp(-1);
  }

  void QueryProfile(int64_t user, Time due) {
    ScopedSpan span(SpanKind::kQueryCall);
    db_->Query("profile", {{"u", scads::Value(user)}}, RequestOptions{},
               [this, user, due](Result<std::vector<Row>> rows) {
                 if (rows.ok()) {
                   if (rows->size() != 1 || !ValidProfile(user, (*rows)[0])) {
                     report_->Mismatch("social_app: profile read of user " +
                                       std::to_string(user) +
                                       " returned a row the generator never wrote");
                   }
                 }
                 Done(&p_->read_us, due, rows.ok());
               });
  }

  void EditProfile(int64_t user, Time due) {
    if (m_->editing[user] != 0) {  // one edit per user in flight: PutRow is read-modify-write
      QueryProfile(user, due);
      return;
    }
    m_->editing[user] = 1;
    int64_t seq = ++m_->issued[user];
    Write("profiles", ProfileRow(user, seq), due, [this, user, seq](bool ok) {
      m_->editing[user] = 0;
      if (ok) {
        m_->user_bytes += Model::ProfileBytes(user, seq) -
                          Model::ProfileBytes(user, m_->acked[user]);
        m_->acked[user] = std::max(m_->acked[user], seq);
      } else {
        m_->uncertain.insert(user);
      }
    });
  }

  void AddEdge(int64_t a, int64_t b, Time due) {
    m_->friends[a].insert(b);
    m_->friends[b].insert(a);
    auto e = std::minmax(a, b);
    Write("friendships", EdgeRow(e.first, e.second), due, [this, a, b](bool ok) {
      if (ok) {
        m_->user_bytes += 16;
      } else {
        m_->uncertain.insert(a);
        m_->uncertain.insert(b);
      }
    });
  }

  void Write(const char* entity, const Row& row, Time due, std::function<void(bool)> after) {
    ++p_->writes;
    ++writes_outstanding_;
    ScopedSpan span(SpanKind::kPutRowCall);
    db_->PutRow(entity, row, RequestOptions{},
                [this, due, after = std::move(after)](Status status) {
                  --writes_outstanding_;
                  p_->last_write_ack = std::max(p_->last_write_ack, db_->loop()->Now());
                  after(status.ok());
                  Done(&p_->write_us, due, status.ok());
                });
  }

  bool ValidProfile(int64_t user, const Row& row) const {
    if (row.GetInt("user_id") != user) return false;
    long long u = -1, seq = -1;
    std::string name = row.GetString("name");
    if (std::sscanf(name.c_str(), "u%lld.%lld", &u, &seq) != 2) return false;
    return u == user && seq >= 0 && seq <= m_->issued[user] && name == NameFor(user, seq) &&
           row.GetInt("bday") == BdayFor(user, seq);
  }

  void Done(std::vector<int64_t>* samples, Time due, bool ok) {
    --outstanding_;
    int64_t latency = db_->loop()->Now() - due;
    if (!ok) {
      ++p_->failed;
      latency = INT64_MAX / 4;  // a failed op misses every latency limit
    }
    samples->push_back(latency);
  }

  scads::Scads* db_;
  Model* m_;
  Report* report_;
  const std::vector<int64_t>* hot_;
  const Zipf* users_;
  Phase* p_ = nullptr;
  Gen* gen_ = nullptr;
  int64_t op_base_ = 0, issued_ = 0, outstanding_ = 0, writes_outstanding_ = 0;
};

void Pump(scads::Scads* db, const std::function<bool()>& done) {
  while (!done()) db->loop()->RunUntil(db->loop()->Now() + 10 * kMillisecond);
}

struct Setup {
  std::unique_ptr<scads::Scads> db;
  double compile_us = 0;
};

Setup Build(uint64_t seed, Model* model, Gen& graph_gen) {
  scads::ScadsOptions options;
  options.seed = seed * 977 + 13;
  options.initial_nodes = 4;
  options.partitions = 32;
  options.consistency_spec = kSpec;
  options.cache_config.enabled = true;
  options.cache_config.capacity_bytes = kPointCacheBytes;
  options.coalescer_config.enabled = true;
  auto created = scads::Scads::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "social_app: %s\n", created.status().ToString().c_str());
    std::exit(3);
  }
  Setup s;
  s.db = std::move(created).value();
  scads::Scads* db = s.db.get();

  scads::EntityDef profiles;
  profiles.name = "profiles";
  profiles.fields = {{"user_id", scads::FieldType::kInt64},
                     {"name", scads::FieldType::kString},
                     {"bday", scads::FieldType::kInt64}};
  profiles.key_fields = {"user_id"};
  scads::EntityDef friendships;
  friendships.name = "friendships";
  friendships.fields = {{"f1", scads::FieldType::kInt64}, {"f2", scads::FieldType::kInt64}};
  friendships.key_fields = {"f1", "f2"};
  friendships.fanout_caps["f1"] = kFriendCap;
  friendships.fanout_caps["f2"] = kFriendCap;
  bool ok = db->DefineEntity(profiles).ok() && db->DefineEntity(friendships).ok();
  const std::pair<const char*, const char*> queries[] = {
      {"profile", "SELECT p.* FROM profiles p WHERE p.user_id = <u>"},
      {"friend_birthdays",
       "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
       "WHERE f.f1 = <u> OR f.f2 = <u> ORDER BY p.bday LIMIT 10"},
      {"fof",
       "SELECT p.* FROM friendships a JOIN friendships b ON a.f2 = b.f1 "
       "JOIN profiles p ON b.f2 = p.user_id WHERE a.f1 = <u>"},
  };
  for (const auto& [name, sql] : queries) {
    int64_t t0 = WallNanos();
    ok = ok && db->RegisterQuery(name, sql).ok();
    s.compile_us += static_cast<double>(WallNanos() - t0) * 1e-3 / 3;
  }
  ok = ok && db->Start().ok();
  if (!ok) {
    std::fprintf(stderr, "social_app: schema or query registration failed\n");
    std::exit(3);
  }

  // Load profiles, then friendships, through PutRow with a bounded window.
  std::vector<std::pair<const char*, Row>> rows;
  for (int64_t u = 0; u < kUsers; ++u) {
    rows.emplace_back("profiles", ProfileRow(u, 0));
    model->user_bytes += Model::ProfileBytes(u, 0);
  }
  for (const auto& [a, b] : MakeGraph(graph_gen)) {
    rows.emplace_back("friendships", EdgeRow(a, b));
    model->friends[a].insert(b);
    model->friends[b].insert(a);
    model->user_bytes += 16;
  }
  size_t next = 0;
  int outstanding = 0;
  bool failed = false;
  std::function<void()> send = [&] {
    while (outstanding < kLoadWindow && next < rows.size()) {
      ++outstanding;
      const auto& [entity, row] = rows[next++];
      db->PutRow(entity, row, RequestOptions{}, [&](Status status) {
        --outstanding;
        failed = failed || !status.ok();
        send();
      });
    }
  };
  send();
  Pump(db, [&] { return next == rows.size() && outstanding == 0; });
  db->DrainIndexQueue();
  if (failed || !db->update_queue()->idle()) {
    std::fprintf(stderr, "social_app: load failed\n");
    std::exit(3);
  }
  return s;
}

// After the queue drains, friend_birthdays and fof for a sample of users
// must equal a brute-force answer from the benchmark's own graph and acked
// profile versions.
void CheckQueries(scads::Scads* db, const Model& m, const std::vector<int64_t>& hot, Gen& gen,
                  Report* report) {
  std::vector<int64_t> sample(hot.begin(), hot.begin() + kCheckUsers / 2);
  while (static_cast<int>(sample.size()) < kCheckUsers) {
    sample.push_back(static_cast<int64_t>(gen.Uniform(kUsers)));
  }
  auto profile_ok = [&](int64_t user, const Row& row) {
    return row.GetInt("user_id") == user && row.GetString("name") == NameFor(user, m.acked[user]) &&
           row.GetInt("bday") == BdayFor(user, m.acked[user]);
  };
  RequestOptions fresh = RequestOptions::PrimaryOnly();
  for (int64_t u : sample) {
    if (m.uncertain.count(u) != 0) continue;
    std::vector<std::pair<int64_t, int64_t>> by_bday;  // (bday, user)
    for (int64_t f : m.friends[u]) by_bday.emplace_back(BdayFor(f, m.acked[f]), f);
    std::sort(by_bday.begin(), by_bday.end());
    if (by_bday.size() > 10) by_bday.resize(10);
    std::set<int64_t> fof;
    for (int64_t x : m.friends[u]) {
      for (int64_t y : m.friends[x]) {
        if (y != u) fof.insert(y);
      }
    }
    bool done = false;
    db->Query("friend_birthdays", {{"u", scads::Value(u)}}, fresh,
              [&](Result<std::vector<Row>> rows) {
                done = true;
                bool ok = rows.ok() && rows->size() == by_bday.size();
                for (size_t i = 0; ok && i < rows->size(); ++i) {
                  ok = profile_ok(by_bday[i].second, (*rows)[i]);
                }
                if (!ok) {
                  report->Mismatch("social_app: friend_birthdays(" + std::to_string(u) +
                                   ") differs from the brute-force answer");
                }
              });
    Pump(db, [&] { return done; });
    done = false;
    db->Query("fof", {{"u", scads::Value(u)}}, fresh, [&](Result<std::vector<Row>> rows) {
      done = true;
      std::set<int64_t> got;
      bool ok = rows.ok();
      for (size_t i = 0; ok && i < rows->size(); ++i) {
        int64_t y = (*rows)[i].GetInt("user_id");
        ok = profile_ok(y, (*rows)[i]) && got.insert(y).second;
      }
      if (!ok || got != fof) {
        report->Mismatch("social_app: fof(" + std::to_string(u) +
                         ") differs from the brute-force answer");
      }
    });
    Pump(db, [&] { return done; });
  }
}

struct Snapshot {
  int64_t sent = 0, bytes = 0, events = 0, shed = 0, puts = 0, scan_rows = 0, rows_returned = 0;
  int64_t entries = 0, processed = 0, misses = 0, cas_retried = 0, cas_attempted = 0;
  int64_t memory = 0, payload = 0;  // engine bytes, all nodes
  scads::CoalescerStats coalescer;
  std::map<std::string, int64_t> cache;
};

Snapshot Take(scads::Scads* db) {
  Snapshot s;
  s.sent = db->network()->sent_count();
  s.bytes = db->network()->bytes_sent();
  s.events = db->loop()->executed_count();
  for (scads::NodeId id : db->cluster()->AllNodes()) {
    scads::StorageNode* node = db->cluster()->GetNode(id);
    s.shed += node->stats().ops_shed;
    s.puts += node->engine()->metrics().CounterValue("puts");
    s.scan_rows += node->engine()->metrics().CounterValue("scan_rows");
    s.memory += static_cast<int64_t>(node->engine()->memory_usage());
    if (auto* engine = dynamic_cast<scads::StorageEngine*>(node->engine())) {
      s.payload += static_cast<int64_t>(engine->payload_bytes());
    }
  }
  s.rows_returned = db->executor()->rows_returned();
  s.entries = db->maintainer()->stats().entries_written;
  s.processed = db->update_queue()->processed();
  s.misses = db->update_queue()->deadline_misses();
  s.cas_retried = db->write_policy()->stats().conflicts_retried;
  s.cas_attempted = db->write_policy()->stats().writes_attempted;
  s.coalescer = db->coalescer()->stats();
  for (const char* name : {"cache.point.hits", "cache.point.misses", "cache.point.stale_rejects",
                           "cache.point.version_bypasses", "cache.scan.hits",
                           "cache.scan.misses"}) {
    s.cache[name] = db->metrics()->CounterValue(name);
  }
  return s;
}

}  // namespace

Report RunSocialApp(const Args& args) {
  Report report;
  Gen gen(args.seed * 0x9e3779b97f4a7c15ull + 11);
  Gen user_gen(kGraphSeed + 1);  // which users are hot is part of the data set
  std::vector<int64_t> hot = Permutation(kUsers, user_gen);
  Zipf users(kUsers, kUserTheta);

  std::unique_ptr<Model> model;
  Setup setup;
  std::vector<double> setup_s;
  int64_t op_base = 0;
  auto warm_ops = static_cast<int64_t>(kRate * kWarmupSeconds);
  auto set_up = [&](int rep) {
    setup.db.reset();  // tearing down the previous deployment is not set-up time
    model = std::make_unique<Model>();
    Gen graph_gen(kGraphSeed);
    Gen warm_gen(args.seed * 131 + static_cast<uint64_t>(rep));
    int64_t t0 = WallNanos();
    setup = Build(args.seed, model.get(), graph_gen);
    Generator warm(setup.db.get(), model.get(), &report, &hot, &users);
    warm.Run(warm_gen, kRate, warm_ops, op_base);
    op_base += warm_ops;
    setup_s.push_back(static_cast<double>(WallNanos() - t0) * 1e-9);
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up(rep);
  scads::Scads* db = setup.db.get();
  Generator generator(db, model.get(), &report, &hot, &users);

  // Measured phase: kOpsPerSecond ops per --seconds. A traced run traces
  // every other tenth of it; counts cover the whole phase.
  int64_t ops = kOpsPerSecond * args.seconds;
  Snapshot s0 = Take(db);
  report.end_to_end["bytes_per_user_byte"] =
      static_cast<double>(s0.memory) / static_cast<double>(model->user_bytes);
  Segments segments(args.trace);
  Phase main = generator.Run(gen, kRate, ops, op_base, &segments);
  Snapshot s1 = Take(db);
  op_base += ops;
  report.attempted = main.attempted;
  report.failed = main.failed;
  auto per_op = [&](double v) { return v / static_cast<double>(main.attempted); };
  report.workload["process.allocs_per_op"] = segments.allocs_per_op();

  if (!args.trace) {
    report.end_to_end["read_p50_us"] = Percentile(&main.read_us, 0.50);
    report.end_to_end["read_p99_us"] = Percentile(&main.read_us, 0.99);
    report.end_to_end["write_p50_us"] = Percentile(&main.write_us, 0.50);
    report.end_to_end["write_p99_us"] = Percentile(&main.write_us, 0.99);
    report.workload["cpu_us_per_op"] = segments.cpu_us_per_op();
    report.workload["query_p50_us"] = Percentile(&main.query_us, 0.50);
    report.workload["query_p99_us"] = Percentile(&main.query_us, 0.99);
  } else {
    auto& L = report.layers;
    auto delta = [&](const char* name) {
      return static_cast<double>(s1.cache[name] - s0.cache[name]);
    };
    L["router.msgs_per_op"] = per_op(static_cast<double>(s1.sent - s0.sent));
    L["cache.point_hit_rate"] =
        Ratio(delta("cache.point.hits"), delta("cache.point.hits") + delta("cache.point.misses"));
    L["cache.scan_hit_rate"] =
        Ratio(delta("cache.scan.hits"), delta("cache.scan.hits") + delta("cache.scan.misses"));
    double rejects = delta("cache.point.stale_rejects") + delta("cache.point.version_bypasses");
    L["cache.reject_frac"] =
        Ratio(rejects, rejects + delta("cache.point.hits") + delta("cache.point.misses"));
    L["coalescer.followers_per_leader"] =
        Ratio(static_cast<double>(s1.coalescer.follower_joins - s0.coalescer.follower_joins),
              static_cast<double>(s1.coalescer.leader_reads - s0.coalescer.leader_reads));
    L["coalescer.keys_per_batch"] =
        Ratio(static_cast<double>(s1.coalescer.batched_keys - s0.coalescer.batched_keys),
              static_cast<double>(s1.coalescer.batches_sent - s0.coalescer.batches_sent));
    L["sim.events_per_op"] = per_op(static_cast<double>(s1.events - s0.events));
    L["sim.event_ns"] = segments.cpu_us_per_op() * 1e3 / L["sim.events_per_op"];
    L["sim.bytes_per_op"] = per_op(static_cast<double>(s1.bytes - s0.bytes));
    L["node.shed_frac"] = per_op(static_cast<double>(s1.shed - s0.shed));
    L["storage.writes_per_op"] = per_op(static_cast<double>(s1.puts - s0.puts));
    L["index.rows_examined_per_row"] =
        Ratio(static_cast<double>(s1.scan_rows - s0.scan_rows),
              static_cast<double>(s1.rows_returned - s0.rows_returned));
    L["index.entries_per_write"] = Ratio(static_cast<double>(s1.entries - s0.entries),
                                         static_cast<double>(main.writes));
    L["index.deadline_miss_frac"] = Ratio(static_cast<double>(s1.misses - s0.misses),
                                          static_cast<double>(s1.processed - s0.processed));
    L["index.queue_depth_max"] = static_cast<double>(main.depth_max);
    L["query.compile_us"] = setup.compile_us;
    L["consistency.cas_retry_frac"] =
        Ratio(static_cast<double>(s1.cas_retried - s0.cas_retried),
              static_cast<double>(s1.cas_attempted - s0.cas_attempted));
    L["process.allocs_per_op"] = segments.allocs_per_op();
    L["trace.overhead_frac"] = segments.traced_cpu_us_per_op() / segments.cpu_us_per_op() - 1.0;

    // Direct engine scans of the fof index ranges of sampled users, on the
    // node that holds each range.
    const scads::IndexPlan& fof_plan = db->queries().at("fof").main();
    Gen probe_gen(args.seed + 99);
    Tracer::Get().set_enabled(true);
    size_t rows_seen = 0;
    for (int64_t i = 0; i < kScanProbes; ++i) {
      int64_t u = hot[static_cast<size_t>(users.Sample(probe_gen))];
      std::string prefix =
          scads::AnchorScanPrefix(fof_plan, scads::EncodeKeyValue(scads::Value(u)));
      scads::NodeId owner = db->cluster()->partitions()->ForKey(prefix).primary();
      scads::EngineInterface* engine = db->cluster()->GetNode(owner)->engine();
      ScopedSpan span(SpanKind::kEngineScan);
      auto rows = engine->Scan(prefix, scads::PrefixSuccessor(prefix), 0);
      rows_seen += rows.ok() ? rows->size() : 0;
    }
    Tracer::Get().set_enabled(false);
    if (rows_seen == 0) report.Mismatch("social_app: fof index scans found no entries");
    SpanLayers(&L);
  }

  report.workload["index_lag_ms"] =
      static_cast<double>(main.idle_since - main.last_write_ack) / kMillisecond;
  report.workload["failed_frac"] = per_op(static_cast<double>(main.failed));
  if (main.idle_since < main.last_write_ack || main.writes == 0) {
    report.Mismatch("social_app: index queue never went idle after the last write");
  }

  if (args.trace) {
    report.layers["storage.bytes_per_live_byte"] =
        Ratio(static_cast<double>(s1.memory), static_cast<double>(s1.payload));
  }

  report.end_to_end["peak_rss_mb"] = PeakRssMb();
  Gen check_gen(args.seed + 5);
  CheckQueries(db, *model, hot, check_gen, &report);
  if (!args.trace) {
    for (int rep = kSetupRepeats; rep < 2 * kSetupRepeats; ++rep) set_up(rep);
    report.end_to_end["setup_s"] = SetupSeconds(setup_s);
  }
  return report;
}

}  // namespace perfbench
