// FIG-1: reproduces paper Figure 1 — "Animoto's viral growth caused them to
// go from tens of servers to 3400+ in only three days."
//
// A logistic viral-growth traffic curve runs for 72 simulated hours against
// a Director-managed fleet starting at 50 nodes. The output is the
// figure's content as a time series: offered rate, fleet size, and SLA
// compliance. The reproduction claim is the *shape*: tens of servers ->
// thousands within three days, SLA held throughout the ramp.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "cluster/cluster_state.h"
#include "common/benchjson.h"
#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "director/director.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/driver.h"
#include "workload/traffic.h"

using namespace scads;  // NOLINT: benchmark brevity

int main() {
  std::printf("=== FIG-1: Animoto viral growth, 72 simulated hours ===\n\n");

  EventLoop loop;
  SimNetwork network(&loop, 1);
  CloudConfig cloud_config;
  cloud_config.boot_delay_mean = 90 * kSecond;
  cloud_config.boot_delay_jitter = 30 * kSecond;
  SimCloud cloud(&loop, 2, cloud_config);
  ClusterState cluster;
  Router router(1 << 20, &loop, &network, &cluster, RouterConfig{}, 3);
  Rebalancer rebalancer(&loop, &cluster);

  std::map<NodeId, std::unique_ptr<StorageNode>> nodes;
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;  // rf=1 fleet: no replication streams
  node_config.get_service_time = 1000;  // 2008-era node: ~1k req/s capacity
  node_config.put_service_time = 1200;
  auto factory = [&](NodeId id) -> StorageNode* {
    auto node = std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                              1000 + static_cast<uint64_t>(id));
    StorageNode* raw = node.get();
    nodes[id] = std::move(node);
    return raw;
  };

  DirectorConfig director_config;
  director_config.min_nodes = 50;  // "tens of servers"
  director_config.control_interval = kMinute;
  director_config.forecast_lead = 5 * kMinute;
  director_config.default_rate_per_node = 1000;
  director_config.target_utilization = 0.65;
  director_config.scale_down_patience = 10;
  director_config.max_step_up = 600;
  Director director(&loop, &cloud, &cluster, &rebalancer, {&router}, director_config, factory);

  // Viral growth: ~40k req/s (about 50 busy servers) to 3.3M req/s
  // (about 3400 servers at ~1k req/s each).
  TrafficPattern traffic = ViralGrowthTraffic(40'000, 3'300'000, 36 * kHour, 7 * kHour);
  DriverConfig driver_config;
  driver_config.tick = 30 * kSecond;
  driver_config.sample_rate = 5;  // latency probes
  driver_config.mean_service_per_request = 1000;
  WorkloadDriver driver(&loop, &cluster, traffic, driver_config, 7);
  driver.AddOp(WorkloadOp{"get", 1.0, [&](Rng* rng) {
                            std::string key = "k" + std::to_string(rng->Uniform(1000000));
                            router.Get(key, RequestOptions{}, [](Result<Record>) {});
                          }});
  director.set_offered_rate_probe([&] { return traffic(loop.Now()); });

  director.Start();
  loop.RunFor(3 * kMinute);  // initial fleet boots
  {
    std::vector<NodeId> ids = cluster.AliveNodes();
    auto map = PartitionMap::CreateUniform(256, ids, 1);
    cluster.set_partitions(std::move(map).value());
  }
  driver.Start();

  std::printf("%5s %14s %7s %8s %9s %5s\n", "hour", "rate(req/s)", "fleet", "booting",
              "p99(ms)", "sla");
  int violation_windows = 0, total_windows = 0;
  size_t history_cursor = 0;
  for (int hour = 0; hour <= 72; hour += 2) {
    if (hour > 0) loop.RunFor(2 * kHour);
    const auto& history = director.history();
    for (; history_cursor < history.size(); ++history_cursor) {
      ++total_windows;
      if (!history[history_cursor].sla_ok) ++violation_windows;
    }
    if (history.empty()) continue;
    const DirectorSnapshot& snap = history.back();
    std::printf("%5d %14.0f %7d %8d %9.1f %5s\n", hour, snap.observed_rate, snap.running,
                snap.booting, static_cast<double>(snap.latency_at_quantile) / kMillisecond,
                snap.sla_ok ? "ok" : "VIOL");
  }
  driver.Stop();
  director.Stop();

  int peak = 0;
  for (const auto& snap : director.history()) peak = std::max(peak, snap.running);
  std::printf("\npaper:    ~50 -> 3400+ servers in 3 days (RightScale/Animoto)\n");
  std::printf("measured: 50 -> %d servers (peak) in 72 simulated hours\n", peak);
  std::printf("SLA violation windows: %d / %d (%.2f%%)\n", violation_windows, total_windows,
              total_windows == 0 ? 0.0 : 100.0 * violation_windows / total_windows);
  std::printf("scale-up actions: %lld, machine-hours billed: %lld, bill: %s\n",
              static_cast<long long>(director.scale_ups()),
              static_cast<long long>(cloud.TotalBilledPeriods(loop.Now())),
              FormatMoneyMicros(cloud.TotalCostMicros(loop.Now())).c_str());
  bool shape_holds = peak >= 3000;
  std::printf("shape check (peak >= 3000 nodes): %s\n", shape_holds ? "PASS" : "FAIL");
  BenchJson json("fig1_animoto");
  json.BeginRow("summary");
  json.Add("peak_fleet", peak);
  json.Add("sla_violation_windows", violation_windows);
  json.Add("total_windows", total_windows);
  json.Add("scale_ups", director.scale_ups());
  json.Add("machine_hours_billed", cloud.TotalBilledPeriods(loop.Now()));
  json.Add("bill_micros", cloud.TotalCostMicros(loop.Now()));
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
