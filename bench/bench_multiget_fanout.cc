// MULTIGET FAN-OUT: the batched scatter-gather pipeline vs a per-key loop
// for the hydration stage of a two-hop query (paper §3.1: every accepted
// query compiles to a bounded op-set — this bench measures what shipping
// that op-set as one message per storage node buys).
//
// Same cluster, same key sequences, two modes:
//   loop   — N sequential Router::Get round trips (the pre-batching
//            ExecuteTwoHop shape)
//   batch  — one Router::MultiGet for the whole fan-out
//
// Reported per fan-out (10/50/200 keys): messages on the wire, bytes on the
// wire, p50/p99 query latency, queries/sec. Result sets are fingerprinted
// and must be identical across modes.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/benchjson.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sim/event_loop.h"
#include "sim/network.h"

using namespace scads;  // NOLINT: benchmark brevity

namespace {

constexpr int kNodes = 4;
constexpr int kPartitions = 16;
constexpr int kReplication = 2;
constexpr int64_t kRows = 4000;
constexpr int kQueriesPerFanout = 100;
constexpr NodeId kClient = 1000;
const std::vector<int> kFanouts = {10, 50, 200};

// Spread keys over the 2-byte prefix space CreateUniform partitions on: the
// spread value's two raw bytes lead the key, so every partition holds keys.
std::string UserKey(int64_t id) {
  uint32_t spread = static_cast<uint32_t>(id * 2654435761u) & 0xffff;
  std::string key = {static_cast<char>(spread >> 8), static_cast<char>(spread & 0xff)};
  return key + StrFormat(":user%05lld", static_cast<long long>(id));
}

struct Deployment {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  Deployment() : network(&loop, /*seed=*/7) {
    NodeConfig node_config;
    node_config.watermark_heartbeat = 0;  // keep message counts write-driven
    std::vector<NodeId> ids;
    for (int i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, node_config,
                                                1000 + static_cast<uint64_t>(i));
      if (!cluster.AddNode(i, node.get()).ok()) std::exit(1);
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::CreateUniform(kPartitions, ids, kReplication);
    if (!map.ok()) std::exit(1);
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, RouterConfig{}, 99);
  }

  void Await(const bool& done) {
    for (int i = 0; i < 50000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    if (!done) {
      std::fprintf(stderr, "request never completed\n");
      std::exit(1);
    }
  }

  void Load() {
    for (int64_t id = 0; id < kRows; ++id) {
      bool done = false;
      router->Put(UserKey(id), "profile-of-user-" + std::to_string(id), AckMode::kPrimary, RequestOptions{},
                  [&done](Status status) {
                    if (!status.ok()) std::exit(1);
                    done = true;
                  });
      Await(done);
    }
    loop.RunFor(2 * kSecond);  // replication settles; streams go idle
  }
};

struct ModeResult {
  LogHistogram latency;
  int64_t messages = 0;
  int64_t bytes = 0;
  double qps = 0;
  uint64_t fingerprint = 0;
};

uint64_t MixResult(uint64_t h, size_t index, const Result<Record>& result) {
  h = h * 1099511628211ULL + index;
  if (result.ok()) {
    for (char c : result->value) h = h * 1099511628211ULL + static_cast<unsigned char>(c);
  } else {
    h = h * 1099511628211ULL + static_cast<uint64_t>(result.status().code());
  }
  return h;
}

/// The same query key-sets for every mode: kQueriesPerFanout sets of
/// `fanout` keys drawn from a fixed-seed generator.
std::vector<std::vector<std::string>> QueryKeySets(int fanout) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(fanout));
  std::vector<std::vector<std::string>> sets;
  sets.reserve(kQueriesPerFanout);
  for (int q = 0; q < kQueriesPerFanout; ++q) {
    std::vector<std::string> keys;
    keys.reserve(fanout);
    for (int i = 0; i < fanout; ++i) {
      keys.push_back(UserKey(static_cast<int64_t>(rng.Uniform(kRows))));
    }
    sets.push_back(std::move(keys));
  }
  return sets;
}

ModeResult RunMode(bool batched, int fanout) {
  Deployment deployment;
  deployment.Load();
  std::vector<std::vector<std::string>> queries = QueryKeySets(fanout);

  ModeResult out;
  int64_t messages_before = deployment.network.sent_count();
  int64_t bytes_before = deployment.network.bytes_sent();
  Time started = deployment.loop.Now();

  for (const std::vector<std::string>& keys : queries) {
    Time issued = deployment.loop.Now();
    bool done = false;
    if (batched) {
      deployment.router->MultiGet(
          keys, RequestOptions{},
          [&out, &done, issued, &deployment](std::vector<Result<Record>> results) {
            for (size_t i = 0; i < results.size(); ++i) {
              out.fingerprint = MixResult(out.fingerprint, i, results[i]);
            }
            out.latency.Record(deployment.loop.Now() - issued);
            done = true;
          });
    } else {
      // Per-key loop: the pre-batching shape — one round trip at a time.
      auto fetch = std::make_shared<std::function<void(size_t)>>();
      *fetch = [&out, &done, issued, &deployment, &keys, fetch](size_t i) {
        if (i >= keys.size()) {
          out.latency.Record(deployment.loop.Now() - issued);
          done = true;
          return;
        }
        deployment.router->Get(keys[i], RequestOptions{},
                               [&out, i, fetch](Result<Record> result) {
                                 out.fingerprint = MixResult(out.fingerprint, i, result);
                                 (*fetch)(i + 1);
                               });
      };
      (*fetch)(0);
    }
    deployment.Await(done);
  }

  out.messages = deployment.network.sent_count() - messages_before;
  out.bytes = deployment.network.bytes_sent() - bytes_before;
  Duration elapsed = deployment.loop.Now() - started;
  out.qps = elapsed > 0 ? static_cast<double>(kQueriesPerFanout) /
                              (static_cast<double>(elapsed) / kSecond)
                        : 0;
  return out;
}

}  // namespace

int main() {
  std::printf("=== MULTIGET FAN-OUT: per-key loop vs batched scatter-gather ===\n\n");
  std::printf("%d nodes, %d partitions, rf=%d, %lld rows, %d queries per fan-out\n\n",
              kNodes, kPartitions, kReplication, static_cast<long long>(kRows),
              kQueriesPerFanout);
  std::printf("%7s %-6s %10s %12s %10s %10s %9s %8s\n", "fanout", "mode", "messages",
              "bytes", "p50", "p99", "qps", "msg/qry");

  BenchJson json("multiget_fanout");
  bool shape_holds = true;
  for (int fanout : kFanouts) {
    ModeResult loop_mode = RunMode(/*batched=*/false, fanout);
    ModeResult batch_mode = RunMode(/*batched=*/true, fanout);
    for (const auto& [label, r] :
         {std::pair<const char*, const ModeResult&>{"loop", loop_mode},
          std::pair<const char*, const ModeResult&>{"batch", batch_mode}}) {
      std::printf("%7d %-6s %10lld %12lld %10s %10s %9.1f %8.1f\n", fanout, label,
                  static_cast<long long>(r.messages), static_cast<long long>(r.bytes),
                  FormatDuration(r.latency.ValueAtQuantile(0.5)).c_str(),
                  FormatDuration(r.latency.ValueAtQuantile(0.99)).c_str(), r.qps,
                  static_cast<double>(r.messages) / kQueriesPerFanout);
      json.BeginRow(StrFormat("%s_f%d", label, fanout));
      json.Add("fanout", fanout);
      json.Add("mode", std::string(label));
      json.Add("queries", kQueriesPerFanout);
      json.Add("messages", r.messages);
      json.Add("bytes", r.bytes);
      json.Add("p50_us", r.latency.ValueAtQuantile(0.5));
      json.Add("p99_us", r.latency.ValueAtQuantile(0.99));
      json.Add("qps", r.qps);
    }
    bool identical = loop_mode.fingerprint == batch_mode.fingerprint;
    if (!identical) {
      std::printf("  fan-out %d: RESULT SETS DIFFER between modes\n", fanout);
      shape_holds = false;
    }
    if (fanout == 50) {
      double message_ratio = static_cast<double>(loop_mode.messages) /
                             static_cast<double>(batch_mode.messages);
      double p50_ratio = static_cast<double>(loop_mode.latency.ValueAtQuantile(0.5)) /
                         static_cast<double>(batch_mode.latency.ValueAtQuantile(0.5));
      std::printf("\n50-key fan-out: %.1fx fewer messages (need >=5), %.1fx lower p50 "
                  "(need >=3), result sets %s\n",
                  message_ratio, p50_ratio, identical ? "identical" : "DIFFER");
      if (message_ratio < 5.0 || p50_ratio < 3.0) shape_holds = false;
    }
  }

  std::printf("\npaper claim: scale-independent queries compile to a bounded op-set;\n"
              "shipping that op-set as one message per storage node (instead of one\n"
              "round trip per op) is what keeps the bound cheap at high fan-out.\n");
  if (!json.Write().ok()) {
    std::fprintf(stderr, "failed to write BENCH_multiget_fanout.json\n");
    shape_holds = false;
  }
  std::printf("shape check: %s\n", shape_holds ? "PASS" : "FAIL");
  return shape_holds ? 0 : 1;
}
