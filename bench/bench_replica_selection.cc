// REPLICA-SELECTION: power-of-two-choices replica steering and cross-router
// read coalescing vs the uniform-random baseline.
//
// Two phases, run identically under three configs (uniform / p2c /
// p2c+coalescing):
//
//  * Hot-replica stream: one node of a four-node, rf=3 fleet runs at 90%
//    background utilization (the skew a viral hot range produces between
//    Director rebalances). A stream of point reads crosses every
//    partition. Uniform selection keeps sending ~1/3 of each partition's
//    reads into the hot replica, whose queue is past saturation — every
//    such read eats a second-scale sojourn, and the stream's p99 IS that
//    queue. P2c samples two replicas and serves from the less-pressured
//    one, so the hot node simply stops receiving steerable reads.
//
//  * Same-key read storm: 64 clients (64 Routers) issue the same key
//    simultaneously, round after round — the memcached "multiget hole"
//    shape. Uncoalesced, that is 64 node messages per round; with the
//    cross-router coalescer, one leader fetches and 63 followers are
//    served from its reply (their own staleness/version/deadline bounds
//    still checked), so each round is ONE node message.
//
// Shape claims (self-checked): p2c cuts stream p99 by >= 1.3x vs uniform;
// coalescing cuts storm node messages by >= 4x vs uncoalesced without
// raising the stream's p50 by more than 5% (the stream's reads rarely
// share a node within a hold window, so the coalescer must not hold
// them); and all three configs return byte-identical result sets in
// issue order.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/coalescer.h"
#include "cluster/node.h"
#include "cluster/replica_selector.h"
#include "cluster/router.h"
#include "common/benchjson.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "sim/network.h"

using namespace scads;  // NOLINT: benchmark brevity

namespace {

constexpr int kNodes = 4;
constexpr int kReplicationFactor = 3;
constexpr int kPartitions = 32;
constexpr int kKeySpace = 20000;
constexpr int kStreamReads = 8000;
constexpr Duration kStreamInterval = 250;  // us -> 4000 reads/s
constexpr double kHotUtilization = 0.90;
constexpr NodeId kHot = 1;
constexpr int kStormClients = 64;
constexpr int kStormRounds = 50;
constexpr Duration kStormInterval = 2 * kMillisecond;

// Spread keys over the 2-byte prefix space CreateUniform partitions on.
std::string KeyOf(uint64_t i) {
  uint32_t spread = static_cast<uint32_t>(i * 2654435761u) & 0xffff;
  std::string key;
  key.push_back(static_cast<char>((spread >> 8) & 0xff));
  key.push_back(static_cast<char>(spread & 0xff));
  key += ":k";
  key += std::to_string(i);
  return key;
}

struct Outcome {
  Duration p50 = 0;
  Duration p99 = 0;
  int64_t reads_ok = 0;
  int64_t reads_failed = 0;
  int64_t replica_steers = 0;
  int64_t hot_node_picks = 0;
  int64_t storm_node_messages = 0;
  int64_t followers_served = 0;
  std::string digest;  // every result value, in issue order
};

Outcome RunScenario(SelectorKind kind, bool coalesce) {
  EventLoop loop;
  SimNetwork network(&loop, 31);
  ClusterState cluster;

  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;  // engines seeded directly; no streams
  // This scenario studies queueing and message fan-in, not shedding: let
  // the hot node's queue grow instead of turning readers away (a shed
  // would also fork the three configs' result sets).
  node_config.max_queue_delay = 60 * kSecond;
  std::map<NodeId, std::unique_ptr<StorageNode>> nodes;
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= kNodes; ++id) {
    nodes[id] = std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                              100 + static_cast<uint64_t>(id));
    (void)cluster.AddNode(id, nodes[id].get());
    ids.push_back(id);
  }
  cluster.set_partitions(
      std::move(PartitionMap::CreateUniform(kPartitions, ids, kReplicationFactor)).value());

  // Seed every key into each of its replicas (setup, not traffic), so any
  // replica choice serves the same bytes.
  auto seed = [&](const std::string& key, const std::string& value) {
    for (NodeId id : cluster.partitions()->ForKey(key).replicas) {
      (void)cluster.GetNode(id)->engine()->Put(key, value, Version{1, 0});
    }
  };
  for (int i = 0; i < kKeySpace; ++i) {
    seed(KeyOf(static_cast<uint64_t>(i)), "v" + std::to_string(i));
  }
  const std::string storm_key = "storm:hot";
  seed(storm_key, "storm-value");

  CoalescerConfig coalescer_config;
  coalescer_config.enabled = coalesce;
  ReadCoalescer coalescer(&loop, &network, &cluster, coalescer_config);

  RouterConfig router_config;
  router_config.request_timeout = 30 * kSecond;  // queueing study, not failover
  router_config.selector.kind = kind;
  auto make_router = [&](NodeId client_id, uint64_t seed_value) {
    auto router = std::make_unique<Router>(client_id, &loop, &network, &cluster, router_config,
                                           seed_value);
    router->set_coalescer(&coalescer);
    return router;
  };
  auto stream_router = make_router(1 << 20, 7);
  std::vector<std::unique_ptr<Router>> storm_routers;
  for (int c = 0; c < kStormClients; ++c) {
    storm_routers.push_back(make_router((1 << 20) + 1 + c, 200 + static_cast<uint64_t>(c)));
  }

  // The skew: one node saturated by unsampled background traffic.
  nodes[kHot]->SetBackgroundLoad(kHotUtilization, 0);

  Outcome outcome;

  // --- phase A: hot-replica point-read stream ----------------------------
  // Identical key sequences across configs (same seed, same draw order);
  // results land in issue-order slots so the digest is schedule-invariant.
  std::vector<std::string> stream_results(kStreamReads);
  Rng key_rng(23);
  for (int i = 0; i < kStreamReads; ++i) {
    Time at = static_cast<Time>(i) * kStreamInterval;
    std::string key = KeyOf(key_rng.Uniform(kKeySpace));
    loop.ScheduleAt(at, [&stream_router, &stream_results, i, key = std::move(key)] {
      stream_router->Get(key, RequestOptions{}, [&stream_results, i](Result<Record> r) {
        stream_results[static_cast<size_t>(i)] =
            r.ok() ? r->value : ("ERR:" + std::to_string(static_cast<int>(r.status().code())));
      });
    });
  }
  loop.RunFor(static_cast<Duration>(kStreamReads) * kStreamInterval + 60 * kSecond);

  RouterWindow stream_window = stream_router->TakeWindow();
  outcome.p50 = stream_window.read_latency.ValueAtQuantile(0.50);
  outcome.p99 = stream_window.read_latency.ValueAtQuantile(0.99);
  outcome.reads_ok = stream_window.reads_ok;
  outcome.reads_failed = stream_window.reads_failed;
  outcome.replica_steers = stream_window.replica_steers;
  auto hot_picks = stream_window.picks_by_node.find(kHot);
  outcome.hot_node_picks = hot_picks == stream_window.picks_by_node.end() ? 0 : hot_picks->second;

  // --- phase B: 64-client same-key read storm ----------------------------
  int64_t node_messages_before = 0;
  for (NodeId id : ids) node_messages_before += network.sent_to(id);
  std::vector<std::string> storm_results(
      static_cast<size_t>(kStormRounds) * kStormClients);
  Time storm_start = loop.Now();
  for (int round = 0; round < kStormRounds; ++round) {
    Time at = storm_start + static_cast<Time>(round) * kStormInterval;
    for (int c = 0; c < kStormClients; ++c) {
      size_t slot = static_cast<size_t>(round) * kStormClients + static_cast<size_t>(c);
      loop.ScheduleAt(at, [&storm_routers, &storm_results, &storm_key, c, slot] {
        storm_routers[static_cast<size_t>(c)]->Get(
            storm_key, RequestOptions{}, [&storm_results, slot](Result<Record> r) {
              storm_results[slot] =
                  r.ok() ? r->value
                         : ("ERR:" + std::to_string(static_cast<int>(r.status().code())));
            });
      });
    }
  }
  loop.RunFor(static_cast<Duration>(kStormRounds) * kStormInterval + 60 * kSecond);
  int64_t node_messages_after = 0;
  for (NodeId id : ids) node_messages_after += network.sent_to(id);
  outcome.storm_node_messages = node_messages_after - node_messages_before;
  outcome.followers_served = coalescer.stats().followers_served;
  for (const auto& router : storm_routers) {
    RouterWindow window = router->TakeWindow();
    outcome.reads_ok += window.reads_ok;
    outcome.reads_failed += window.reads_failed;
  }

  outcome.digest.reserve((stream_results.size() + storm_results.size()) * 8);
  for (const std::string& v : stream_results) {
    outcome.digest += v;
    outcome.digest += ';';
  }
  for (const std::string& v : storm_results) {
    outcome.digest += v;
    outcome.digest += ';';
  }
  return outcome;
}

void PrintRow(const char* label, const Outcome& o) {
  std::printf("%-14s %9s %9s %9lld %7lld %8lld %10lld %10lld\n", label,
              FormatDuration(o.p50).c_str(), FormatDuration(o.p99).c_str(),
              static_cast<long long>(o.reads_ok), static_cast<long long>(o.reads_failed),
              static_cast<long long>(o.replica_steers),
              static_cast<long long>(o.hot_node_picks),
              static_cast<long long>(o.storm_node_messages));
}

}  // namespace

int main() {
  std::printf("=== REPLICA-SELECTION: p2c steering + cross-router coalescing ===\n\n");
  std::printf("fleet: %d nodes, rf=%d, node %d at %.0f%% background utilization;\n", kNodes,
              kReplicationFactor, kHot, 100.0 * kHotUtilization);
  std::printf("stream: %d point reads, one per %s; storm: %d rounds x %d clients, same key.\n\n",
              kStreamReads, FormatDuration(kStreamInterval).c_str(), kStormRounds,
              kStormClients);

  Outcome uniform = RunScenario(SelectorKind::kUniform, /*coalesce=*/false);
  Outcome p2c = RunScenario(SelectorKind::kPowerOfTwo, /*coalesce=*/false);
  Outcome p2c_coalesce = RunScenario(SelectorKind::kPowerOfTwo, /*coalesce=*/true);

  std::printf("%-14s %9s %9s %9s %7s %8s %10s %10s\n", "mode", "p50", "p99", "reads_ok",
              "failed", "steers", "hot_picks", "storm_msgs");
  PrintRow("uniform", uniform);
  PrintRow("p2c", p2c);
  PrintRow("p2c+coalesce", p2c_coalesce);

  double p99_speedup =
      p2c.p99 > 0 ? static_cast<double>(uniform.p99) / static_cast<double>(p2c.p99) : 0.0;
  double storm_ratio = p2c_coalesce.storm_node_messages > 0
                           ? static_cast<double>(p2c.storm_node_messages) /
                                 static_cast<double>(p2c_coalesce.storm_node_messages)
                           : 0.0;
  bool identical =
      uniform.digest == p2c.digest && p2c.digest == p2c_coalesce.digest;
  bool coalesce_p50_held =
      static_cast<double>(p2c_coalesce.p50) <= 1.05 * static_cast<double>(p2c.p50);

  std::printf("\nuniform keeps feeding the saturated replica ~1/3 of steerable reads;\n"
              "p2c's second sample steers them to an idle replica, and the coalescer\n"
              "turns each 64-client same-key round into one node message.\n");
  std::printf("stream p99 %s -> %s (%.1fx); storm node messages %lld -> %lld (%.1fx);\n"
              "stream p50 %s uncoalesced, %s coalesced;\n"
              "followers served from shared replies: %lld; identical results: %s\n",
              FormatDuration(uniform.p99).c_str(), FormatDuration(p2c.p99).c_str(), p99_speedup,
              static_cast<long long>(p2c.storm_node_messages),
              static_cast<long long>(p2c_coalesce.storm_node_messages), storm_ratio,
              FormatDuration(p2c.p50).c_str(), FormatDuration(p2c_coalesce.p50).c_str(),
              static_cast<long long>(p2c_coalesce.followers_served), identical ? "yes" : "NO");

  bool shape_holds = p99_speedup >= 1.3 && storm_ratio >= 4.0 && coalesce_p50_held &&
                     identical && uniform.reads_failed == 0 && p2c.reads_failed == 0 &&
                     p2c_coalesce.reads_failed == 0;
  std::printf("shape check (p2c p99 >= 1.3x better, >= 4x fewer storm messages,\n"
              "coalesced stream p50 <= 1.05x uncoalesced, equal results, no failures): %s\n",
              shape_holds ? "PASS" : "FAIL");

  BenchJson json("replica_selection");
  for (const auto& [label, o] : {std::pair<const char*, const Outcome&>{"uniform", uniform},
                                 {"p2c", p2c},
                                 {"p2c_coalesce", p2c_coalesce}}) {
    json.BeginRow(label);
    json.Add("p50_us", o.p50);
    json.Add("p99_us", o.p99);
    json.Add("reads_ok", o.reads_ok);
    json.Add("reads_failed", o.reads_failed);
    json.Add("replica_steers", o.replica_steers);
    json.Add("hot_node_picks", o.hot_node_picks);
    json.Add("storm_node_messages", o.storm_node_messages);
    json.Add("followers_served", o.followers_served);
  }
  json.BeginRow("summary");
  json.Add("p99_speedup", p99_speedup);
  json.Add("storm_message_ratio", storm_ratio);
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
