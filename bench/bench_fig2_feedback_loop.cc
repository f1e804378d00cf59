// FIG-2: reproduces paper Figure 2 — the SCADS architecture's provisioning
// feedback loop — by tracing every stage of the loop through a load surge,
// and quantifying why the ML stage matters: the same surge is run with the
// forecasting models enabled and disabled (reactive policy), and the SLA
// violation time is compared. Forecasting should provision *before* the
// surge arrives; the reactive loop eats a violation window roughly equal to
// the instance boot delay.

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

namespace {

struct RunResult {
  int violation_windows = 0;
  int total_windows = 0;
  int peak_fleet = 0;
  std::vector<DirectorSnapshot> trace;
};

RunResult RunSurge(bool use_forecasting, bool print_trace) {
  EventLoop loop;
  SimNetwork network(&loop, 11);
  CloudConfig cloud_config;
  cloud_config.boot_delay_mean = 150 * kSecond;
  cloud_config.boot_delay_jitter = 20 * kSecond;
  SimCloud cloud(&loop, 12, cloud_config);
  ClusterState cluster;
  Router router(1 << 20, &loop, &network, &cluster, RouterConfig{}, 13);
  Rebalancer rebalancer(&loop, &cluster);
  std::map<NodeId, std::unique_ptr<StorageNode>> nodes;
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;
  node_config.get_service_time = 1000;
  node_config.put_service_time = 1200;
  auto factory = [&](NodeId id) -> StorageNode* {
    auto node = std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                              500 + static_cast<uint64_t>(id));
    StorageNode* raw = node.get();
    nodes[id] = std::move(node);
    return raw;
  };
  DirectorConfig config;
  config.min_nodes = 4;
  config.control_interval = 15 * kSecond;
  config.forecast_lead = 4 * kMinute;
  config.default_rate_per_node = 1000;
  config.use_forecasting = use_forecasting;
  Director director(&loop, &cloud, &cluster, &rebalancer, {&router}, config, factory);

  // Load climbs explosively from 4k to 60k req/s around minute 25 — the
  // doubling time (~100s) is shorter than the 150s instance boot delay, so
  // only a policy that provisions ahead can stay inside the SLA.
  TrafficPattern traffic = ViralGrowthTraffic(4000, 60000, 25 * kMinute, 100 * kSecond);
  DriverConfig driver_config;
  driver_config.sample_rate = 30;
  driver_config.mean_service_per_request = 1000;
  WorkloadDriver driver(&loop, &cluster, traffic, driver_config, 14);
  driver.AddOp(WorkloadOp{"get", 1.0, [&](Rng* rng) {
                            std::string key = "k" + std::to_string(rng->Uniform(10000));
                            router.Get(key, RequestOptions{}, [](Result<Record>) {});
                          }});
  director.set_offered_rate_probe([&] { return traffic(loop.Now()); });

  director.Start();
  loop.RunFor(3 * kMinute);
  {
    std::vector<NodeId> ids = cluster.AliveNodes();
    auto map = PartitionMap::CreateUniform(64, ids, 1);
    cluster.set_partitions(std::move(map).value());
  }
  driver.Start();
  loop.RunFor(60 * kMinute);
  driver.Stop();
  director.Stop();

  RunResult result;
  result.trace = director.history();
  for (const auto& snap : result.trace) {
    if (snap.at < 10 * kMinute) continue;  // exclude cold-start windows
    ++result.total_windows;
    if (!snap.sla_ok) ++result.violation_windows;
    result.peak_fleet = std::max(result.peak_fleet, snap.running);
  }
  if (print_trace) {
    std::printf("  (loop stages per control interval: observe -> model -> policy -> act)\n");
    std::printf("  %6s %12s %13s %8s %7s %8s %8s %5s\n", "min", "observed", "forecast+lead",
                "desired", "fleet", "booting", "p99(ms)", "sla");
    for (size_t i = 0; i < result.trace.size(); i += 4) {
      const DirectorSnapshot& s = result.trace[i];
      std::printf("  %6lld %12.0f %13.0f %8d %7d %8d %8.1f %5s\n",
                  static_cast<long long>(s.at / kMinute), s.observed_rate, s.forecast_rate,
                  s.desired_nodes, s.running, s.booting,
                  static_cast<double>(s.latency_at_quantile) / kMillisecond,
                  s.sla_ok ? "ok" : "VIOL");
    }
  }
  return result;
}

}  // namespace

int main() {
  std::printf("=== FIG-2: the provisioning feedback loop, traced ===\n\n");
  std::printf("run A: full loop with ML forecasting (the paper's design)\n");
  RunResult with_ml = RunSurge(/*use_forecasting=*/true, /*print_trace=*/true);
  std::printf("\nrun B: ablation — reactive policy, no forecasting stage\n");
  RunResult reactive = RunSurge(/*use_forecasting=*/false, /*print_trace=*/false);

  std::printf("\n%-28s %14s %14s\n", "", "with ML (A)", "reactive (B)");
  std::printf("%-28s %14d %14d\n", "SLA violation windows", with_ml.violation_windows,
              reactive.violation_windows);
  std::printf("%-28s %14d %14d\n", "total windows", with_ml.total_windows,
              reactive.total_windows);
  std::printf("%-28s %14d %14d\n", "peak fleet", with_ml.peak_fleet, reactive.peak_fleet);
  std::printf("\npaper claim: models of past performance let the system provision\n"
              "ahead of need; measured: forecasting cut violation windows %d -> %d\n",
              reactive.violation_windows, with_ml.violation_windows);
  bool shape_holds = with_ml.violation_windows <= reactive.violation_windows;
  std::printf("shape check (ML <= reactive violations): %s\n", shape_holds ? "PASS" : "FAIL");
  BenchJson json("fig2_feedback_loop");
  for (const auto& [label, run] :
       {std::pair<const char*, const RunResult&>{"with_ml", with_ml}, {"reactive", reactive}}) {
    json.BeginRow(label);
    json.Add("violation_windows", run.violation_windows);
    json.Add("total_windows", run.total_windows);
    json.Add("peak_fleet", run.peak_fleet);
  }
  json.BeginRow("summary");
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
