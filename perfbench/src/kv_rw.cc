// kv_rw: the uncached storage path on the deterministic simulator.
//
// 4 StorageNodes (default NodeConfig), 64 partitions, rf 3, default
// NetworkConfig, one Router with the default 8 MiB CacheDirectory attached.
// 250k keys x 100 B values are bulk loaded through Router::MultiWrite. An
// open loop offers Poisson arrivals at a fixed rate: 80% Router::Get and
// 20% Router::Put at AckMode::kQuorum over uniform keys. Latency is
// simulated time from an op's due time to its callback.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_counter.h"
#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "harness.h"
#include "kv_model.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "trace.h"

namespace perfbench {
namespace {

using scads::AckMode;
using scads::CacheConfig;
using scads::CacheDirectory;
using scads::ClusterState;
using scads::Duration;
using scads::EventLoop;
using scads::kMillisecond;
using scads::kSecond;
using scads::NodeConfig;
using scads::NodeId;
using scads::Record;
using scads::RequestOptions;
using scads::Result;
using scads::Router;
using scads::RouterConfig;
using scads::SimNetwork;
using scads::Status;
using scads::StorageNode;
using scads::Time;

constexpr int kNodes = 4;
constexpr int kPartitions = 64;
constexpr int kReplication = 3;
constexpr int64_t kKeys = 250000;
constexpr NodeId kClientId = 100;
constexpr double kReadShare = 0.8;
// Offered rate of the measured phase: about 60% of the rate the SLO search
// finds (the fleet saturates near 27k ops/s on this mix).
constexpr double kRate = 16000;
constexpr Duration kStaleness = 10 * kSecond;
constexpr size_t kLoadBatch = 250;
constexpr int kLoadWindow = 2;
constexpr Duration kWarmup = 1 * kSecond;
// SLO search: p99 limit, probe length, and the bisection range and depth.
constexpr int64_t kSloLimitUs = 10 * kMillisecond;
constexpr Duration kProbe = 1 * kSecond;
constexpr double kSloLow = 8000;
constexpr double kSloHigh = 48000;
constexpr int kSloSteps = 6;
constexpr int64_t kEngineProbes = 20000;

struct Deployment {
  Deployment(uint64_t seed, bool traced)
      : network(&loop, seed * 31 + 7, scads::NetworkConfig{}) {
    scads::Executor* exec = &loop;
    scads::MessageFabric* fabric = &network;
    if (traced) {
      texec = std::make_unique<TracingExecutor>(&loop);
      tfabric = std::make_unique<TracingFabric>(&network, kClientId);
      exec = texec.get();
      fabric = tfabric.get();
    }
    std::vector<NodeId> ids;
    for (int i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<StorageNode>(i, exec, fabric, &cluster, NodeConfig{},
                                                seed * 131 + static_cast<uint64_t>(i));
      if (!cluster.AddNode(i, node.get()).ok()) std::abort();
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = scads::PartitionMap::CreateUniform(kPartitions, ids, kReplication);
    if (!map.ok()) std::abort();
    cluster.set_partitions(std::move(map).value());
    CacheConfig cache_config;
    cache_config.enabled = true;
    cache = std::make_unique<CacheDirectory>(cache_config, kStaleness, &metrics);
    router = std::make_unique<Router>(kClientId, exec, fabric, &cluster, RouterConfig{},
                                      seed * 17 + 3);
    router->set_cache(cache.get());
  }

  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  scads::MetricRegistry metrics;
  std::unique_ptr<TracingExecutor> texec;
  std::unique_ptr<TracingFabric> tfabric;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<CacheDirectory> cache;
  std::unique_ptr<Router> router;
};

// What the generator wrote, per key.
struct Model {
  std::vector<int32_t> issued = std::vector<int32_t>(kKeys, 0);  // writes issued (0 = load)
  std::vector<int32_t> acked = std::vector<int32_t>(kKeys, 0);   // highest acked seq
  std::vector<uint8_t> inflight = std::vector<uint8_t>(kKeys, 0);
  std::unordered_map<int64_t, std::vector<int32_t>> failed;  // seqs whose write failed
};

struct Phase {
  std::vector<int64_t> read_us, write_us;
  int64_t attempted = 0, failed = 0, writes = 0;
  Time start = 0, end = 0;
  Duration backlog_mid = 0, backlog_end = 0;
};

Duration MaxBacklog(Deployment& d) {
  Duration worst = 0;
  for (auto& node : d.nodes) worst = std::max(worst, node->queue_delay());
  return worst;
}

// Runs the loop until `done` holds, in 10 ms steps of simulated time.
void RunUntilDone(Deployment& d, const std::function<bool()>& done) {
  while (!done()) d.loop.RunUntil(d.loop.Now() + 10 * kMillisecond);
}

// Offers `ops` operations at Poisson arrivals of `rate` per simulated
// second, one arrival scheduled at a time, and waits for every reply.
// `segments`, when given, is sampled at every tenth of the arrivals.
Phase RunOpenLoop(Deployment& d, Model& m, Gen& gen, double rate, int64_t ops, int64_t op_base,
                  Report* report, Segments* segments = nullptr) {
  Phase p;
  p.read_us.reserve(static_cast<size_t>(ops));
  p.write_us.reserve(static_cast<size_t>(ops / 3));
  int64_t issued = 0, outstanding = 0;
  int64_t segment = std::max<int64_t>(1, ops / Segments::kSegments);
  double mean_gap = 1e6 / rate;
  Time due = d.loop.Now() + gen.ExpGap(mean_gap);
  p.start = due;

  auto issue = [&](Time due_at) {
    bool read = gen.NextDouble() < kReadShare;
    auto id = static_cast<int64_t>(gen.Uniform(kKeys));
    Tracer::SetOp(op_base + issued);
    ++p.attempted;
    ++outstanding;
    if (read) {
      ScopedSpan span(SpanKind::kRouterCall);
      d.router->Get(KeyFor(id), RequestOptions{}, [&, id, due_at](Result<Record> result) {
        --outstanding;
        int64_t latency = d.loop.Now() - due_at;
        if (result.ok()) {
          int64_t seq = SeqOf(id, result->value);
          if (seq < 0 || seq > m.issued[static_cast<size_t>(id)]) {
            report->Mismatch("kv_rw: read of key " + std::to_string(id) +
                             " returned a value the generator never wrote");
          }
        } else if (scads::IsNotFound(result.status())) {
          report->Mismatch("kv_rw: loaded key " + std::to_string(id) + " not found");
        } else {
          ++p.failed;
          latency = INT64_MAX / 4;  // a failed op misses every latency limit
        }
        p.read_us.push_back(latency);
      });
    } else {
      ++p.writes;
      while (m.inflight[static_cast<size_t>(id)] != 0) id = (id + 1) % kKeys;
      int32_t seq = ++m.issued[static_cast<size_t>(id)];
      m.inflight[static_cast<size_t>(id)] = 1;
      ScopedSpan span(SpanKind::kRouterCall);
      d.router->Put(KeyFor(id), ValueFor(id, seq), AckMode::kQuorum, RequestOptions{},
                    [&, id, seq, due_at](Status status) {
                      --outstanding;
                      int64_t latency = d.loop.Now() - due_at;
                      auto slot = static_cast<size_t>(id);
                      m.inflight[slot] = 0;
                      if (status.ok()) {
                        m.acked[slot] = std::max(m.acked[slot], seq);
                      } else {
                        ++p.failed;
                        m.failed[id].push_back(seq);
                        latency = INT64_MAX / 4;
                      }
                      p.write_us.push_back(latency);
                    });
    }
    Tracer::SetOp(-1);
  };

  std::function<void()> arrive = [&] {
    issue(due);
    ++issued;
    if (segments != nullptr && issued == ops) {
      segments->Finish(issued);
    } else if (segments != nullptr && issued % segment == 0) {
      segments->Boundary(issued);
    }
    if (issued == ops / 2) p.backlog_mid = MaxBacklog(d);
    if (issued < ops) {
      due += gen.ExpGap(mean_gap);
      d.loop.ScheduleAt(due, arrive);
    } else {
      p.backlog_end = MaxBacklog(d);
    }
  };
  d.loop.ScheduleAt(due, arrive);
  RunUntilDone(d, [&] { return issued == ops && outstanding == 0; });
  p.end = d.loop.Now();
  return p;
}

// Bulk load through the public batched write path, every replica acked.
void Load(Deployment& d) {
  int64_t next = 0, outstanding = 0;
  bool failed = false;
  std::function<void()> send = [&] {
    while (outstanding < kLoadWindow && next < kKeys) {
      std::vector<Router::WriteOp> ops;
      for (size_t i = 0; i < kLoadBatch && next < kKeys; ++i, ++next) {
        ops.push_back({Router::WriteOp::Kind::kPut, KeyFor(next), ValueFor(next, 0)});
      }
      ++outstanding;
      d.router->MultiWrite(std::move(ops), AckMode::kAll, RequestOptions{},
                           [&](std::vector<Status> statuses) {
                             --outstanding;
                             for (const Status& s : statuses) failed = failed || !s.ok();
                             send();
                           });
    }
  };
  send();
  RunUntilDone(d, [&] { return next == kKeys && outstanding == 0; });
  if (failed) {
    std::fprintf(stderr, "kv_rw: bulk load failed\n");
    std::exit(3);
  }
}

// Primary-only read-back of every key: it must hold the last acked write
// (or a later write whose outcome was reported as a failure).
void ReadBack(Deployment& d, const Model& m, Report* report) {
  int64_t next = 0, outstanding = 0;
  std::function<void()> send = [&] {
    while (outstanding < kLoadWindow && next < kKeys) {
      std::vector<std::string> keys;
      int64_t first = next;
      for (size_t i = 0; i < kLoadBatch && next < kKeys; ++i, ++next) keys.push_back(KeyFor(next));
      ++outstanding;
      d.router->MultiGet(keys, RequestOptions::PrimaryOnly(),
                         [&, first](std::vector<Result<Record>> results) {
                           --outstanding;
                           for (size_t i = 0; i < results.size(); ++i) {
                             int64_t id = first + static_cast<int64_t>(i);
                             auto slot = static_cast<size_t>(id);
                             int64_t seq = results[i].ok() ? SeqOf(id, results[i]->value) : -2;
                             bool ok = seq == m.acked[slot];
                             if (!ok && seq > m.acked[slot]) {
                               auto it = m.failed.find(id);
                               ok = it != m.failed.end() &&
                                    std::find(it->second.begin(), it->second.end(), seq) !=
                                        it->second.end();
                             }
                             if (!ok) {
                               report->Mismatch("kv_rw: read-back of key " + std::to_string(id) +
                                                " does not hold its last acked write");
                             }
                           }
                           send();
                         });
    }
  };
  send();
  RunUntilDone(d, [&] { return next == kKeys && outstanding == 0; });
}

bool ProbePasses(Phase& p) {
  double read_p99 = Percentile(&p.read_us, 0.99);
  double write_p99 = Percentile(&p.write_us, 0.99);
  double failed_frac = static_cast<double>(p.failed) / static_cast<double>(p.attempted);
  bool backlog_grows = p.backlog_end > std::max<Duration>(p.backlog_mid, kMillisecond);
  return read_p99 >= 0 && write_p99 >= 0 && read_p99 <= kSloLimitUs &&
         write_p99 <= kSloLimitUs && failed_frac <= 0.001 && !backlog_grows;
}

// Waits until every node's queue has drained, so probes start alike.
void Settle(Deployment& d) {
  RunUntilDone(d, [&] { return MaxBacklog(d) == 0; });
  d.loop.RunUntil(d.loop.Now() + 100 * kMillisecond);
}

struct NodeTotals {
  int64_t shed = 0, busy = 0, replicated = 0, retransmits = 0, puts = 0;
  size_t memory = 0, payload = 0;
};

NodeTotals Totals(Deployment& d) {
  NodeTotals t;
  for (auto& node : d.nodes) {
    const scads::NodeStats& s = node->stats();
    t.shed += s.ops_shed;
    t.busy += s.busy_micros;
    t.replicated += s.records_replicated_out;
    t.retransmits += s.retransmits;
    t.puts += node->engine()->metrics().CounterValue("puts");
    t.memory += node->engine()->memory_usage();
    if (auto* engine = dynamic_cast<scads::StorageEngine*>(node->engine())) {
      t.payload += engine->payload_bytes();
    }
  }
  return t;
}

// Quantile of the node sojourn samples recorded between two snapshots of
// the merged histograms (bucket resolution).
double SojournQuantile(const scads::LogHistogram& before, const scads::LogHistogram& after,
                       double q) {
  auto at_or_below = [](const scads::LogHistogram& h, int64_t v) {
    return static_cast<int64_t>(std::llround(h.FractionAtOrBelow(v) *
                                             static_cast<double>(h.count())));
  };
  int64_t total = after.count() - before.count();
  if (total <= 0) return 0;
  auto want = static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  int64_t lo = 0, hi = std::max<int64_t>(after.max(), 1);
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (at_or_below(after, mid) - at_or_below(before, mid) >= want) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<double>(lo);
}

scads::LogHistogram MergedSojourn(Deployment& d) {
  scads::LogHistogram h;
  for (auto& node : d.nodes) h.Merge(node->sojourn_histogram());
  return h;
}

}  // namespace

Report RunKvRw(const Args& args) {
  Report report;
  Gen gen(args.seed * 0x9e3779b97f4a7c15ull + 1);
  Model model;
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  int64_t op_base = 0;
  auto set_up = [&](int rep) {
    d.reset();  // tearing down the previous deployment is not set-up time
    model = Model{};
    Gen warm(args.seed * 7 + static_cast<uint64_t>(rep));
    int64_t t0 = WallNanos();
    d = std::make_unique<Deployment>(args.seed, args.trace);
    Load(*d);
    auto warm_ops = static_cast<int64_t>(kRate * static_cast<double>(kWarmup) / kSecond);
    RunOpenLoop(*d, model, warm, kRate, warm_ops, op_base, &report);
    op_base += warm_ops;
    setup_s.push_back(static_cast<double>(WallNanos() - t0) * 1e-9);
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up(rep);

  // Measured phase: --seconds of simulated time. A traced run traces every
  // other tenth of it; counts cover the whole phase.
  auto ops = static_cast<int64_t>(kRate * args.seconds);
  Deployment& dep = *d;
  NodeTotals n0 = Totals(dep);
  double user_bytes = 0;
  for (int64_t id = 0; id < kKeys; ++id) {
    user_bytes += static_cast<double>(KeyFor(id).size() +
                                      ValueFor(id, model.acked[static_cast<size_t>(id)]).size());
  }
  report.end_to_end["bytes_per_user_byte"] = static_cast<double>(n0.memory) / user_bytes;
  scads::LogHistogram soj0 = MergedSojourn(dep);
  int64_t sends0 = dep.tfabric ? dep.tfabric->sends() : 0;
  int64_t events0 = dep.loop.executed_count();
  int64_t bytes0 = dep.network.bytes_sent();
  int64_t hits0 = dep.metrics.CounterValue("cache.point.hits");
  int64_t misses0 = dep.metrics.CounterValue("cache.point.misses");
  int64_t evict0 = dep.metrics.CounterValue("cache.point.evictions");
  dep.router->TakeWindow();
  Segments segments(args.trace);
  Phase main = RunOpenLoop(dep, model, gen, kRate, ops, op_base, &report, &segments);
  op_base += ops;
  report.attempted = main.attempted;
  report.failed = main.failed;
  auto per_op = [&](double v) { return v / static_cast<double>(main.attempted); };
  report.workload["process.allocs_per_op"] = segments.allocs_per_op();
  report.workload["failed_frac"] = per_op(static_cast<double>(main.failed));
  report.end_to_end["peak_rss_mb"] = PeakRssMb();  // before the SLO probes

  if (!args.trace) {
    report.end_to_end["read_p50_us"] = Percentile(&main.read_us, 0.50);
    report.end_to_end["read_p99_us"] = Percentile(&main.read_us, 0.99);
    report.end_to_end["write_p50_us"] = Percentile(&main.write_us, 0.50);
    report.end_to_end["write_p99_us"] = Percentile(&main.write_us, 0.99);
    report.workload["cpu_us_per_op"] = segments.cpu_us_per_op();

    // Highest passing rate by bisection; every probe starts from a drained fleet.
    double lo = kSloLow, hi = kSloHigh, best = 0;
    for (int step = 0; step <= kSloSteps; ++step) {
      double rate = step == 0 ? lo : 0.5 * (lo + hi);
      Settle(dep);
      auto probe_ops = static_cast<int64_t>(rate * static_cast<double>(kProbe) / kSecond);
      Phase probe = RunOpenLoop(dep, model, gen, rate, probe_ops, op_base, &report);
      op_base += probe_ops;
      bool pass = ProbePasses(probe);
      if (step == 0) {
        if (!pass) break;  // even the floor fails: report 0
        best = lo;
        continue;
      }
      if (pass) {
        lo = rate;
        best = rate;
      } else {
        hi = rate;
      }
    }
    report.workload["slo_rate_ops_s"] = best;
  } else {
    scads::RouterWindow window = dep.router->TakeWindow();
    NodeTotals n1 = Totals(dep);
    scads::LogHistogram soj1 = MergedSojourn(dep);
    int64_t events = dep.loop.executed_count() - events0;
    int64_t hits = dep.metrics.CounterValue("cache.point.hits") - hits0;
    int64_t misses = dep.metrics.CounterValue("cache.point.misses") - misses0;
    auto& L = report.layers;
    L["router.msgs_per_op"] = per_op(static_cast<double>(dep.tfabric->sends() - sends0));
    L["router.retry_frac"] = per_op(static_cast<double>(
        window.reads_failed + window.breaker_skips + window.deadline_exceeded));
    L["router.steer_frac"] = Ratio(static_cast<double>(window.replica_steers),
                                   static_cast<double>(window.replica_picks));
    L["cache.point_hit_rate"] =
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    L["cache.evictions_per_op"] = per_op(static_cast<double>(
        dep.metrics.CounterValue("cache.point.evictions") - evict0));
    L["sim.events_per_op"] = per_op(static_cast<double>(events));
    L["sim.event_ns"] = segments.cpu_us_per_op() * 1e3 / L["sim.events_per_op"];
    L["sim.bytes_per_op"] = per_op(static_cast<double>(dep.network.bytes_sent() - bytes0));
    L["node.sojourn_p50_us"] = SojournQuantile(soj0, soj1, 0.50);
    L["node.sojourn_p99_us"] = SojournQuantile(soj0, soj1, 0.99);
    L["node.busy_frac"] = static_cast<double>(n1.busy - n0.busy) /
                          (static_cast<double>(main.end - main.start) * kNodes);
    L["node.shed_frac"] = per_op(static_cast<double>(n1.shed - n0.shed));
    L["node.replicated_per_write"] = Ratio(static_cast<double>(n1.replicated - n0.replicated),
                                           static_cast<double>(main.writes));
    L["node.retransmits"] = static_cast<double>(n1.retransmits - n0.retransmits);
    L["storage.writes_per_op"] = per_op(static_cast<double>(n1.puts - n0.puts));
    L["process.allocs_per_op"] = segments.allocs_per_op();
    L["trace.overhead_frac"] = segments.traced_cpu_us_per_op() / segments.cpu_us_per_op() - 1.0;

    // Direct engine probes on node 0 and cache probes, with the workload's keys.
    Gen probe_gen(args.seed + 99);
    scads::EngineInterface* engine = dep.nodes[0]->engine();
    Tracer::Get().set_enabled(true);
    int64_t found = 0;
    for (int64_t i = 0; i < kEngineProbes; ++i) {
      std::string key = KeyFor(static_cast<int64_t>(probe_gen.Uniform(kKeys)));
      {
        ScopedSpan span(SpanKind::kEngineGet);
        found += engine->Get(key).ok() ? 1 : 0;
      }
      Record cached;
      ScopedSpan span(SpanKind::kCacheProbe);
      dep.cache->LookupPoint(key, dep.loop.Now(), &cached);
    }
    Tracer::Get().set_enabled(false);
    if (found == 0) report.Mismatch("kv_rw: engine probes found no loaded key");
    SpanLayers(&L);  // before the runtime probe adds spans of its own
    RuntimeProbe(args.seed, &report);
  }

  NodeTotals totals = Totals(dep);
  report.layers["storage.bytes_per_live_byte"] =
      Ratio(static_cast<double>(totals.memory), static_cast<double>(totals.payload));
  Settle(dep);
  ReadBack(dep, model, &report);
  if (!args.trace) {
    for (int rep = kSetupRepeats; rep < 2 * kSetupRepeats; ++rep) set_up(rep);
    report.end_to_end["setup_s"] = SetupSeconds(setup_s);
  }
  return report;
}

}  // namespace perfbench
