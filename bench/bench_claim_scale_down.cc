// CLAIM-UPDOWN: paper §2.1 — "rapid scale-down is a new goal for massive
// storage systems, as there is now an economic benefit to doing so."
//
// A 48-hour diurnal workload runs twice at equal SLA settings: once with
// the Director free to scale both ways, once with a statically
// peak-provisioned fleet. Output: machine-hours, dollar cost, and SLA
// violation windows. Expected shape: the elastic fleet costs several times
// less at comparable compliance.

#include <cstdio>
#include <map>
#include <memory>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "director/director.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/driver.h"
#include "workload/traffic.h"
#include "common/benchjson.h"

using namespace scads;  // NOLINT: benchmark brevity

namespace {

struct RunOutcome {
  int64_t machine_hours = 0;
  int64_t cost_micros = 0;
  int violations = 0;
  int windows = 0;
  int peak_fleet = 0;
  int trough_fleet = 1 << 30;
};

RunOutcome RunDiurnal(bool elastic, int static_fleet_size) {
  EventLoop loop;
  SimNetwork network(&loop, 31);
  SimCloud cloud(&loop, 32);
  ClusterState cluster;
  Router router(1 << 20, &loop, &network, &cluster, RouterConfig{}, 33);
  Rebalancer rebalancer(&loop, &cluster);
  std::map<NodeId, std::unique_ptr<StorageNode>> nodes;
  NodeConfig node_config;
  node_config.watermark_heartbeat = 0;
  node_config.get_service_time = 1000;
  node_config.put_service_time = 1200;
  auto factory = [&](NodeId id) -> StorageNode* {
    auto node = std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                              700 + static_cast<uint64_t>(id));
    StorageNode* raw = node.get();
    nodes[id] = std::move(node);
    return raw;
  };

  DirectorConfig config;
  config.control_interval = 30 * kSecond;
  config.default_rate_per_node = 1000;
  config.scale_down_patience = 6;
  config.max_step_down = 6;
  if (elastic) {
    config.min_nodes = 4;
  } else {
    // Static: pin the fleet at peak size by forbidding scale-down and
    // starting at the peak.
    config.min_nodes = static_fleet_size;
    config.max_nodes = static_fleet_size;
  }
  Director director(&loop, &cloud, &cluster, &rebalancer, {&router}, config, factory);

  // Diurnal: 4k trough, peak ~36k at mid-day (~36 busy nodes).
  TrafficPattern traffic = DiurnalTraffic(20000, 16000);
  DriverConfig driver_config;
  driver_config.tick = 5 * kSecond;
  driver_config.sample_rate = 10;
  driver_config.mean_service_per_request = 1000;
  WorkloadDriver driver(&loop, &cluster, traffic, driver_config, 34);
  driver.AddOp(WorkloadOp{"get", 1.0, [&](Rng* rng) {
                            std::string key = "k" + std::to_string(rng->Uniform(100000));
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
  loop.RunFor(48 * kHour);
  driver.Stop();
  director.Stop();

  RunOutcome outcome;
  outcome.machine_hours = cloud.TotalBilledPeriods(loop.Now());
  outcome.cost_micros = cloud.TotalCostMicros(loop.Now());
  for (const auto& snap : director.history()) {
    ++outcome.windows;
    if (!snap.sla_ok) ++outcome.violations;
    outcome.peak_fleet = std::max(outcome.peak_fleet, snap.running);
    if (snap.running > 0) outcome.trough_fleet = std::min(outcome.trough_fleet, snap.running);
  }
  return outcome;
}

}  // namespace

int main() {
  BenchJson json("claim_scale_down");
  std::printf("=== CLAIM-UPDOWN: the economics of scaling down (48h diurnal) ===\n\n");
  std::printf("run A: elastic fleet (Director scales both directions)\n");
  RunOutcome elastic = RunDiurnal(/*elastic=*/true, 0);
  std::printf("  fleet range %d..%d, machine-hours %lld, bill %s, "
              "SLA violations %d/%d\n",
              elastic.trough_fleet, elastic.peak_fleet,
              static_cast<long long>(elastic.machine_hours),
              FormatMoneyMicros(elastic.cost_micros).c_str(), elastic.violations,
              elastic.windows);

  int static_size = elastic.peak_fleet;  // fair comparison: hold the peak
  std::printf("\nrun B: static fleet pinned at the elastic peak (%d nodes)\n", static_size);
  RunOutcome fixed = RunDiurnal(/*elastic=*/false, static_size);
  std::printf("  fleet range %d..%d, machine-hours %lld, bill %s, "
              "SLA violations %d/%d\n",
              fixed.trough_fleet, fixed.peak_fleet, static_cast<long long>(fixed.machine_hours),
              FormatMoneyMicros(fixed.cost_micros).c_str(), fixed.violations, fixed.windows);

  double savings = fixed.cost_micros == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(fixed.cost_micros - elastic.cost_micros) /
                             static_cast<double>(fixed.cost_micros);
  std::printf("\npaper claim: fine-grained billing makes scale-down worth it.\n");
  std::printf("measured: elastic saves %.0f%% of the static bill (%s vs %s)\n", savings,
              FormatMoneyMicros(elastic.cost_micros).c_str(),
              FormatMoneyMicros(fixed.cost_micros).c_str());
  bool shape_holds = elastic.cost_micros < fixed.cost_micros * 7 / 10 &&
                     elastic.violations <= fixed.violations + elastic.windows / 20;
  std::printf("shape check (>=30%% saved at comparable SLA): %s\n",
              shape_holds ? "PASS" : "FAIL");

  for (const auto& [label, outcome] : {std::pair<const char*, const RunOutcome&>{"elastic", elastic},
                                       {"static_peak", fixed}}) {
    json.BeginRow(label);
    json.Add("trough_fleet", outcome.trough_fleet);
    json.Add("peak_fleet", outcome.peak_fleet);
    json.Add("machine_hours", outcome.machine_hours);
    json.Add("cost_micros", outcome.cost_micros);
    json.Add("sla_violations", outcome.violations);
    json.Add("sla_windows", outcome.windows);
  }
  json.BeginRow("summary");
  json.Add("savings_pct", savings);
  json.Add("shape_check", shape_holds ? "PASS" : "FAIL");
  (void)json.Write();
  return shape_holds ? 0 : 1;
}
