// threaded_point: our own code on real threads.
//
// ThreadedRuntime with 2 workers and no modeled delay: every NodeConfig
// service time is 0, replication flush and heartbeats are off, the cache
// hit service time is 0 and no coalescer is attached, so no request waits
// on a wall-clock timer. 4 StorageNodes, 64 partitions, rf 1, 100k keys x
// 100 B. One Router and one shared CacheDirectory (default 8 MiB, which
// holds the hot set) serve 2 closed-loop client threads, each a copy of
// one ScadsClient: 90% Get (Zipf theta 0.99 over all keys) and 10% Put at
// AckMode::kPrimary (Zipf over the thread's own key stripe). Each op is an
// async ScadsClient call followed by a wait on the thread's own latch, the
// rendezvous GetSync/PutSync perform, so the entry call can be timed on
// its own. Latency is wall time from the call to the wake-up.
//
// RuntimeProbe runs a short traced phase of the same deployment for the
// kv_rw traced run, which is where the runtime.* per-layer metrics of the
// gated workloads come from.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "core/scads_client.h"
#include "harness.h"
#include "kv_model.h"
#include "runtime/threaded_runtime.h"
#include "storage/engine.h"
#include "trace.h"

namespace perfbench {
namespace {

using scads::AckMode;
using scads::NodeId;
using scads::Record;
using scads::RequestOptions;
using scads::Result;
using scads::Status;

constexpr int kNodes = 4;
constexpr int kPartitions = 64;
constexpr int kWorkers = 2;
constexpr int kClients = 2;  // workers + clients = 4 = the host's cores
constexpr int64_t kKeys = 100000;
constexpr NodeId kClientId = 100;
constexpr double kZipfTheta = 0.99;
constexpr double kReadShare = 0.9;
constexpr scads::Duration kStaleness = 10 * scads::kSecond;
constexpr size_t kLoadBatch = 500;
constexpr int64_t kWarmupOpsPerClient = 20000;
constexpr int64_t kOpsPerClientSecond = 40000;
constexpr int64_t kCacheProbes = 20000;
constexpr uint64_t kHotSetSeed = 20090104;
// The runtime probe of a traced kv_rw run: ops of the first client.
constexpr int64_t kProbeOps = 20000;

struct Deployment {
  Deployment(uint64_t seed, bool traced) : runtime(scads::ThreadedRuntime::Options{kWorkers}) {
    scads::Executor* exec = &runtime;
    scads::MessageFabric* fabric = &runtime;
    if (traced) {
      texec = std::make_unique<TracingExecutor>(&runtime);
      tfabric = std::make_unique<TracingFabric>(&runtime, kClientId);
      exec = texec.get();
      fabric = tfabric.get();
    }
    scads::NodeConfig config;
    config.get_service_time = 0;
    config.put_service_time = 0;
    config.scan_service_base = 0;
    config.scan_service_per_row = 0;
    config.replicate_service_per_record = 0;
    config.multiget_service_per_key = 0;
    config.multiwrite_service_per_record = 0;
    config.replication_flush_interval = 0;
    config.watermark_heartbeat = 0;
    std::vector<NodeId> ids;
    for (int i = 0; i < kNodes; ++i) {
      runtime.RegisterDestination(i);
      auto node = std::make_unique<scads::StorageNode>(i, exec, fabric, &cluster, config,
                                                       seed * 131 + static_cast<uint64_t>(i));
      if (!cluster.AddNode(i, node.get()).ok()) std::abort();
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = scads::PartitionMap::CreateUniform(kPartitions, ids, 1);
    if (!map.ok()) std::abort();
    cluster.set_partitions(std::move(map).value());
    scads::CacheConfig cache_config;
    cache_config.enabled = true;
    cache_config.hit_service_time = 0;
    cache = std::make_unique<scads::CacheDirectory>(cache_config, kStaleness, &metrics);
    router = std::make_unique<scads::Router>(kClientId, exec, fabric, &cluster,
                                             scads::RouterConfig{}, seed * 17 + 3);
    router->set_cache(cache.get());
  }
  ~Deployment() { runtime.Shutdown(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  scads::ThreadedRuntime runtime;
  scads::ClusterState cluster;
  scads::MetricRegistry metrics;
  std::unique_ptr<TracingExecutor> texec;
  std::unique_ptr<TracingFabric> tfabric;
  std::vector<std::unique_ptr<scads::StorageNode>> nodes;
  std::unique_ptr<scads::CacheDirectory> cache;
  std::unique_ptr<scads::Router> router;
};

// What the generator wrote. Key `id` belongs to client `id % kClients`,
// the only thread that writes it; any thread may read it.
struct Model {
  std::vector<std::atomic<int32_t>> issued = std::vector<std::atomic<int32_t>>(kKeys);
  std::vector<int32_t> acked = std::vector<int32_t>(kKeys, 0);
};

// One thread's wait for its in-flight op's callback.
template <typename T>
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<T> value;

  void Set(T v) {
    std::lock_guard<std::mutex> lock(mu);
    value.emplace(std::move(v));
    done = true;
    cv.notify_one();
  }
  T Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    done = false;
    T out = std::move(*value);
    value.reset();
    return out;
  }
};

// One client's share of a phase. Latency samples go into a buffer sized and
// touched before the phase, so the resident set does not depend on how
// many ops a run measures.
struct alignas(64) ClientResult {
  std::vector<uint32_t> latency_ns;  // saturates at ~4.3 s
  std::vector<uint8_t> is_write;
  size_t count = 0;
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> mismatches;

  void Reserve(size_t n) {
    latency_ns.assign(n, 0);
    is_write.assign(n, 0);
  }
  void Record(int64_t ns, bool write) {
    if (count == latency_ns.size()) std::abort();  // Reserve() leaves 2x headroom
    latency_ns[count] = static_cast<uint32_t>(std::min<int64_t>(ns, UINT32_MAX));
    is_write[count] = write ? 1 : 0;
    ++count;
  }
};

// Which keys are hot is part of the fixed data set (it decides how the hot
// set falls on nodes and workers); --seed varies the op sequence.
struct Inputs {
  Inputs() : all(kKeys, kZipfTheta), stripe(kKeys / kClients, kZipfTheta) {
    Gen gen(kHotSetSeed);
    hot = Permutation(kKeys, gen);
    stripe_hot = Permutation(kKeys / kClients, gen);
  }
  Zipf all, stripe;
  std::vector<int64_t> hot;         // read rank -> key id
  std::vector<int64_t> stripe_hot;  // write rank -> index within a stripe
};

// What the clients of one phase share. Client 0 runs the phase's ops and
// then stops the others; when `segments` is set it samples it every tenth
// of its ops.
struct PhaseState {
  std::vector<ClientResult> clients = std::vector<ClientResult>(kClients);
  std::atomic<int64_t> done{0};  // ops completed, all clients
  std::atomic<bool> stop{false};
  int64_t ops = 0;
  bool record = false;
  Segments* segments = nullptr;
};

void ClientLoop(Deployment& d, Model& m, const Inputs& in, int t, Gen& gen, int64_t op_base,
                PhaseState* state) {
  ClientResult* out = &state->clients[static_cast<size_t>(t)];
  scads::ScadsClient client(d.router.get());
  Latch<Result<Record>> read_latch;
  Latch<Status> write_latch;
  int64_t segment = std::max<int64_t>(1, state->ops / Segments::kSegments);
  for (int64_t i = 0; t == 0 ? i < state->ops : !state->stop.load(std::memory_order_relaxed);
       ++i) {
    Tracer::SetOp(op_base + i * kClients + t);
    bool read = gen.NextDouble() < kReadShare;
    int64_t start = WallNanos();
    ++out->attempted;
    if (read) {
      int64_t id = in.hot[static_cast<size_t>(in.all.Sample(gen))];
      {
        ScopedSpan span(SpanKind::kRouterCall);
        client.Get(KeyFor(id), [&read_latch](Result<Record> r) { read_latch.Set(std::move(r)); });
      }
      Result<Record> result = read_latch.Wait();
      int64_t latency = WallNanos() - start;
      if (result.ok()) {
        int64_t seq = SeqOf(id, result->value);
        if (seq < 0 || seq > m.issued[static_cast<size_t>(id)].load(std::memory_order_acquire)) {
          out->mismatches.push_back("threaded_point: read of key " + std::to_string(id) +
                                    " returned a value the generator never wrote");
        }
      } else {
        ++out->failed;
        latency = INT64_MAX / 4;  // a failed op misses every latency limit
      }
      if (state->record) out->Record(latency, false);
    } else {
      int64_t id = in.stripe_hot[static_cast<size_t>(in.stripe.Sample(gen))] * kClients + t;
      auto slot = static_cast<size_t>(id);
      int32_t seq = m.issued[slot].fetch_add(1, std::memory_order_acq_rel) + 1;
      {
        ScopedSpan span(SpanKind::kRouterCall);
        client.Put(KeyFor(id), ValueFor(id, seq), AckMode::kPrimary,
                   [&write_latch](Status s) { write_latch.Set(std::move(s)); });
      }
      Status status = write_latch.Wait();
      int64_t latency = WallNanos() - start;
      if (status.ok()) {
        m.acked[slot] = seq;
      } else {
        ++out->failed;
        latency = INT64_MAX / 4;
      }
      if (state->record) out->Record(latency, true);
    }
    int64_t done = state->done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (t == 0 && state->segments != nullptr) {
      if (i + 1 == state->ops) {
        state->segments->Finish(done);
      } else if ((i + 1) % segment == 0) {
        state->segments->Boundary(done);
      }
    }
  }
  if (t == 0) state->stop.store(true, std::memory_order_relaxed);
  Tracer::SetOp(-1);
}

struct Phase {
  std::vector<int64_t> read_ns, write_ns;  // both clients
  int64_t attempted = 0, failed = 0;
  double seconds = 0;  // wall time of the phase
};

// Runs the clients until the first has issued `ops` ops; records
// latencies when `record`.
Phase RunClients(Deployment& d, Model& m, const Inputs& in, std::vector<Gen>& gens, int64_t ops,
                 bool record, int64_t op_base, Report* report, Segments* segments = nullptr) {
  PhaseState state;
  state.ops = ops;
  state.record = record;
  state.segments = segments;
  if (record) {
    for (auto& c : state.clients) c.Reserve(static_cast<size_t>(ops * 2));
  }
  int64_t start = WallNanos();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientLoop(d, m, in, t, gens[static_cast<size_t>(t)], op_base, &state);
    });
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.seconds = static_cast<double>(WallNanos() - start) * 1e-9;
  for (auto& c : state.clients) {
    for (size_t k = 0; k < c.count; ++k) {
      auto& dest = c.is_write[k] != 0 ? p.write_ns : p.read_ns;
      dest.push_back(c.latency_ns[k] == UINT32_MAX ? INT64_MAX / 4 : c.latency_ns[k]);
    }
    p.attempted += c.attempted;
    p.failed += c.failed;
    for (const std::string& e : c.mismatches) report->Mismatch(e);
  }
  return p;
}

std::vector<Gen> ClientGens(uint64_t seed) {
  std::vector<Gen> gens;
  for (int t = 0; t < kClients; ++t) gens.emplace_back(seed * 1000 + 17 * t + 1);
  return gens;
}

void Load(Deployment& d) {
  scads::ScadsClient client(d.router.get());
  for (int64_t next = 0; next < kKeys;) {
    std::vector<scads::Router::WriteOp> ops;
    for (size_t i = 0; i < kLoadBatch && next < kKeys; ++i, ++next) {
      ops.push_back({scads::Router::WriteOp::Kind::kPut, KeyFor(next), ValueFor(next, 0)});
    }
    Latch<std::vector<Status>> latch;
    d.router->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                         [&latch](std::vector<Status> s) { latch.Set(std::move(s)); });
    for (const Status& s : latch.Wait()) {
      if (!s.ok()) {
        std::fprintf(stderr, "threaded_point: bulk load failed: %s\n", s.ToString().c_str());
        std::exit(3);
      }
    }
  }
}

struct EngineBytes {
  size_t memory = 0, payload = 0;
};

EngineBytes CountEngineBytes(Deployment& d) {
  EngineBytes b;
  for (auto& node : d.nodes) {
    b.memory += node->engine()->memory_usage();
    if (auto* engine = dynamic_cast<scads::StorageEngine*>(node->engine())) {
      b.payload += engine->payload_bytes();
    }
  }
  return b;
}

// Primary-only read-back of every key against the last acked write.
void ReadBack(Deployment& d, const Model& m, Report* report) {
  for (int64_t first = 0; first < kKeys; first += static_cast<int64_t>(kLoadBatch)) {
    std::vector<std::string> keys;
    for (int64_t id = first; id < std::min<int64_t>(kKeys, first + kLoadBatch); ++id) {
      keys.push_back(KeyFor(id));
    }
    Latch<std::vector<Result<Record>>> latch;
    d.router->MultiGet(keys, RequestOptions::PrimaryOnly(),
                       [&latch](std::vector<Result<Record>> r) { latch.Set(std::move(r)); });
    std::vector<Result<Record>> results = latch.Wait();
    for (size_t i = 0; i < results.size(); ++i) {
      int64_t id = first + static_cast<int64_t>(i);
      int64_t seq = results[i].ok() ? SeqOf(id, results[i]->value) : -2;
      if (seq != m.acked[static_cast<size_t>(id)]) {
        report->Mismatch("threaded_point: read-back of key " + std::to_string(id) +
                         " does not hold its last acked write");
      }
    }
  }
}

}  // namespace

Report RunThreadedPoint(const Args& args) {
  Report report;
  Inputs inputs;
  auto model = std::make_unique<Model>();
  std::unique_ptr<Deployment> d;
  std::vector<Gen> gens;
  std::vector<double> setup_s;
  int64_t op_base = 0;
  auto set_up = [&] {
    d.reset();  // tearing down the previous deployment is not set-up time
    model = std::make_unique<Model>();
    gens = ClientGens(args.seed);
    int64_t t0 = WallNanos();
    d = std::make_unique<Deployment>(args.seed, args.trace);
    Load(*d);
    RunClients(*d, *model, inputs, gens, kWarmupOpsPerClient, false, op_base, &report);
    op_base += kWarmupOpsPerClient * kClients;
    setup_s.push_back(static_cast<double>(WallNanos() - t0) * 1e-9);
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();
  Deployment& dep = *d;
  // The warm-up's clients have joined and no timer is armed, so the
  // workers are idle and every engine write happened before those joins.
  double user_bytes = 0;
  for (int64_t id = 0; id < kKeys; ++id) {
    user_bytes += static_cast<double>(KeyFor(id).size() + kValueBytes);
  }
  report.end_to_end["bytes_per_user_byte"] =
      static_cast<double>(CountEngineBytes(dep).memory) / user_bytes;

  // Measured phase: kOpsPerClientSecond * --seconds ops of the first client
  // (about --seconds of wall time on a 4-core x86 host). A traced run
  // traces every other tenth of it; counts cover the whole phase.
  int64_t sends0 = dep.tfabric ? dep.tfabric->sends() : 0;
  int64_t timers0 = dep.texec ? dep.texec->timers() : 0;
  int64_t cancels0 = dep.texec ? dep.texec->cancels() : 0;
  int64_t tasks0 = dep.runtime.tasks_executed();
  int64_t hits0 = dep.metrics.CounterValue("cache.point.hits");
  int64_t misses0 = dep.metrics.CounterValue("cache.point.misses");
  int64_t shed0 = 0;
  for (auto& node : dep.nodes) shed0 += node->stats().ops_shed;
  Segments segments(args.trace);
  Phase main = RunClients(dep, *model, inputs, gens, kOpsPerClientSecond * args.seconds, true,
                          op_base, &report, &segments);
  report.attempted = main.attempted;
  report.failed = main.failed;
  auto per_op = [&](double v) { return v / static_cast<double>(main.attempted); };
  report.workload["process.allocs_per_op"] = segments.allocs_per_op();

  if (!args.trace) {
    report.end_to_end["read_p50_us"] = Percentile(&main.read_ns, 0.50) * 1e-3;
    report.end_to_end["read_p99_us"] = Percentile(&main.read_ns, 0.99) * 1e-3;
    report.end_to_end["write_p50_us"] = Percentile(&main.write_ns, 0.50) * 1e-3;
    report.end_to_end["write_p99_us"] = Percentile(&main.write_ns, 0.99) * 1e-3;
    report.workload["cpu_us_per_op"] = segments.cpu_us_per_op();
    report.workload["ops_per_s"] = static_cast<double>(main.attempted) / main.seconds;
  } else {
    auto& L = report.layers;
    int64_t hits = dep.metrics.CounterValue("cache.point.hits") - hits0;
    int64_t misses = dep.metrics.CounterValue("cache.point.misses") - misses0;
    int64_t shed = -shed0;
    for (auto& node : dep.nodes) shed += node->stats().ops_shed;
    L["router.msgs_per_op"] = per_op(static_cast<double>(dep.tfabric->sends() - sends0));
    L["cache.point_hit_rate"] = Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    L["runtime.tasks_per_op"] = per_op(static_cast<double>(dep.runtime.tasks_executed() - tasks0));
    L["runtime.timers_per_op"] = per_op(static_cast<double>(dep.texec->timers() - timers0));
    L["runtime.cancels_per_op"] = per_op(static_cast<double>(dep.texec->cancels() - cancels0));
    L["node.shed_frac"] = per_op(static_cast<double>(shed));
    L["process.allocs_per_op"] = segments.allocs_per_op();
    L["trace.overhead_frac"] = segments.traced_cpu_us_per_op() / segments.cpu_us_per_op() - 1.0;

    // Direct cache probes with the workload's read keys, on this thread.
    Gen probe_gen(args.seed + 99);
    int64_t now = dep.runtime.Now();
    Tracer::Get().set_enabled(true);
    for (int64_t i = 0; i < kCacheProbes; ++i) {
      std::string key = KeyFor(inputs.hot[static_cast<size_t>(inputs.all.Sample(probe_gen))]);
      Record out;
      ScopedSpan span(SpanKind::kCacheProbe);
      dep.cache->LookupPoint(key, now, &out);
    }
    Tracer::Get().set_enabled(false);
  }

  report.end_to_end["peak_rss_mb"] = PeakRssMb();
  ReadBack(dep, *model, &report);
  dep.runtime.Shutdown();  // spans, hand-offs and engines are read only after this
  if (args.trace) {
    EngineBytes bytes = CountEngineBytes(dep);
    std::vector<int64_t> handoffs = Tracer::Get().Handoffs();
    report.layers["runtime.handoff_us"] = Percentile(&handoffs, 0.50) * 1e-3;
    report.layers["storage.bytes_per_live_byte"] =
        Ratio(static_cast<double>(bytes.memory), static_cast<double>(bytes.payload));
    SpanLayers(&report.layers);
  }
  report.workload["failed_frac"] = per_op(static_cast<double>(main.failed));
  if (!args.trace) {
    for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();
    report.end_to_end["setup_s"] = SetupSeconds(setup_s);
  }
  return report;
}

void RuntimeProbe(uint64_t seed, Report* report) {
  Inputs inputs;
  auto model = std::make_unique<Model>();
  Deployment d(seed, /*traced=*/true);
  Load(d);
  std::vector<Gen> gens = ClientGens(seed);
  RunClients(d, *model, inputs, gens, kWarmupOpsPerClient, false, 0, report);
  int64_t tasks0 = d.runtime.tasks_executed();
  int64_t timers0 = d.texec->timers(), cancels0 = d.texec->cancels();
  Tracer::Get().ClearHandoffs();
  Tracer::Get().set_enabled(true);
  Phase p = RunClients(d, *model, inputs, gens, kProbeOps, false, 0, report);
  Tracer::Get().set_enabled(false);
  ReadBack(d, *model, report);
  d.runtime.Shutdown();  // hand-offs are read only after this
  auto per_op = [&](int64_t v) { return static_cast<double>(v) / static_cast<double>(p.attempted); };
  auto& L = report->layers;
  L["runtime.tasks_per_op"] = per_op(d.runtime.tasks_executed() - tasks0);
  L["runtime.timers_per_op"] = per_op(d.texec->timers() - timers0);
  L["runtime.cancels_per_op"] = per_op(d.texec->cancels() - cancels0);
  std::vector<int64_t> handoffs = Tracer::Get().Handoffs();
  L["runtime.handoff_us"] = Percentile(&handoffs, 0.50) * 1e-3;
  if (p.failed != 0) report->Mismatch("kv_rw: runtime probe ops failed");
}

}  // namespace perfbench
