// Tests for src/director: the provisioning feedback loop end to end on the
// simulated cloud.

#include <algorithm>
#include <memory>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "director/director.h"
#include "gtest/gtest.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/driver.h"
#include "workload/traffic.h"

namespace scads {
namespace {

constexpr NodeId kClient = 1 << 20;

// Full autoscaling harness: cloud + cluster + rebalancer + driver + director.
struct AutoscaleHarness {
  EventLoop loop;
  SimNetwork network;
  SimCloud cloud;
  ClusterState cluster;
  std::map<NodeId, std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;
  std::unique_ptr<Rebalancer> rebalancer;
  std::unique_ptr<Director> director;
  std::unique_ptr<WorkloadDriver> driver;

  explicit AutoscaleHarness(DirectorConfig config, TrafficPattern pattern,
                            double driver_sample_rate = 25)
      : network(&loop, 21), cloud(&loop, 22, FastCloud()) {
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, RouterConfig{}, 23);
    rebalancer = std::make_unique<Rebalancer>(&loop, &cluster);
    director = std::make_unique<Director>(
        &loop, &cloud, &cluster, rebalancer.get(), std::vector<Router*>{router.get()}, config,
        [this](NodeId id) { return MakeNode(id); });

    DriverConfig driver_config;
    driver_config.sample_rate = driver_sample_rate;
    driver_config.mean_service_per_request = 1000;  // match the node model
    driver = std::make_unique<WorkloadDriver>(&loop, &cluster, pattern, driver_config, 24);
    driver->AddOp(WorkloadOp{"get", 1.0, [this](Rng* rng) {
                               std::string key = "k" + std::to_string(rng->Uniform(1000));
                               router->Get(key, RequestOptions{}, [](Result<Record>) {});
                             }});
    director->set_offered_rate_probe([this] { return driver->RateAt(loop.Now()); });
  }

  static CloudConfig FastCloud() {
    CloudConfig config;
    config.boot_delay_mean = 60 * kSecond;
    config.boot_delay_jitter = 10 * kSecond;
    return config;
  }

  StorageNode* MakeNode(NodeId id) {
    // Heavier, 2008-era nodes: ~1k requests/second capacity each, so a few
    // tens of thousands of req/s need a few tens of nodes.
    NodeConfig node_config;
    node_config.get_service_time = 1000;
    node_config.put_service_time = 1200;
    auto node = std::make_unique<StorageNode>(id, &loop, &network, &cluster, node_config,
                                              90 + static_cast<uint64_t>(id));
    StorageNode* raw = node.get();
    nodes[id] = std::move(node);
    return raw;
  }

  // Bootstraps: director Start + first nodes ready + initial partition map.
  void Bootstrap(int partitions, int rf) {
    director->Start();
    loop.RunFor(2 * kMinute);  // boot the min fleet
    std::vector<NodeId> ids = cluster.AliveNodes();
    ASSERT_FALSE(ids.empty());
    auto map = PartitionMap::CreateUniform(partitions, ids, rf);
    ASSERT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    driver->Start();
  }
};

TEST(DirectorTest, BringsFleetToMinimum) {
  DirectorConfig config;
  config.min_nodes = 4;
  AutoscaleHarness h(config, ConstantTraffic(100));
  h.director->Start();
  EXPECT_EQ(h.cloud.booting_count(), 4);
  h.loop.RunFor(3 * kMinute);
  EXPECT_EQ(h.cloud.running_count(), 4);
  EXPECT_EQ(h.cluster.AliveNodes().size(), 4u);
}

TEST(DirectorTest, ScalesUpUnderLoadGrowth) {
  DirectorConfig config;
  config.min_nodes = 2;
  config.default_rate_per_node = 1000;
  config.control_interval = 15 * kSecond;
  // Rate ramps from 1k to 40k over 30 minutes.
  AutoscaleHarness h(config, ViralGrowthTraffic(1000, 40000, 15 * kMinute, 4 * kMinute));
  h.Bootstrap(32, 1);
  h.loop.RunFor(40 * kMinute);
  // 40k at ~1k/node capacity -> tens of nodes expected.
  EXPECT_GT(h.cloud.running_count(), 15);
  EXPECT_GT(h.director->scale_ups(), 0);
  // The director history must show fleet growth tracking the rate curve.
  const auto& history = h.director->history();
  ASSERT_GT(history.size(), 10u);
  EXPECT_GT(history.back().running, history.front().running);
}

TEST(DirectorTest, ScalesDownAfterLoadDrops) {
  DirectorConfig config;
  config.min_nodes = 2;
  config.default_rate_per_node = 1000;
  config.control_interval = 10 * kSecond;
  config.scale_down_patience = 3;
  config.max_step_down = 8;
  // High load for 10 minutes, then nearly idle.
  AutoscaleHarness h(config, SpikeTraffic(ConstantTraffic(500), 0, 10 * kMinute, 40.0,
                                          kMinute));
  h.Bootstrap(32, 1);
  h.loop.RunFor(12 * kMinute);
  // Peak from the control-loop history: drains onto live least-loaded
  // targets complete within a tick or two of the spike ending, so the
  // fleet may already be shrinking by the time the spike window closes.
  int peak = 0;
  for (const DirectorSnapshot& s : h.director->history()) peak = std::max(peak, s.running);
  EXPECT_GT(peak, 6);
  h.loop.RunFor(30 * kMinute);
  int settled = h.cloud.running_count();
  EXPECT_LT(settled, peak / 2);
  EXPECT_GE(settled, config.min_nodes);
  EXPECT_GT(h.director->scale_downs(), 0);
  // Terminated nodes must no longer be in the cluster.
  EXPECT_EQ(h.cluster.AliveNodes().size(), static_cast<size_t>(settled));
}

TEST(DirectorTest, DrainedNodesKeepDataReachable) {
  DirectorConfig config;
  config.min_nodes = 2;
  config.default_rate_per_node = 1000;
  config.control_interval = 10 * kSecond;
  config.scale_down_patience = 2;
  config.max_step_down = 8;
  AutoscaleHarness h(config, SpikeTraffic(ConstantTraffic(200), 0, 5 * kMinute, 60.0, kMinute));
  h.Bootstrap(16, 2);
  h.loop.RunFor(6 * kMinute);
  // Write data while the fleet is large.
  int stored_ok = 0;
  for (int i = 0; i < 50; ++i) {
    bool done = false;
    Status status = InternalError("pending");
    h.router->Put("durable" + std::to_string(i), "v", AckMode::kQuorum, RequestOptions{}, [&](Status s) {
      status = std::move(s);
      done = true;
    });
    h.loop.RunFor(kSecond);
    ASSERT_TRUE(done);
    stored_ok += status.ok() ? 1 : 0;
  }
  ASSERT_GT(stored_ok, 40);
  // Let the director shrink the fleet.
  h.loop.RunFor(40 * kMinute);
  EXPECT_GT(h.director->scale_downs(), 0);
  // All previously written keys still resolve.
  int readable = 0;
  for (int i = 0; i < 50; ++i) {
    bool done = false;
    bool ok = false;
    h.router->Get("durable" + std::to_string(i), RequestOptions{}, [&](Result<Record> r) {
      ok = r.ok();
      done = true;
    });
    h.loop.RunFor(kSecond);
    if (done && ok) ++readable;
  }
  EXPECT_GE(readable, stored_ok - 2);
}

TEST(DirectorTest, ForecastingProvisionsAheadOfReactive) {
  // Identical viral load; compare when capacity becomes available.
  auto run = [](bool use_forecasting) {
    DirectorConfig config;
    config.min_nodes = 2;
    config.default_rate_per_node = 1000;
    config.control_interval = 15 * kSecond;
    config.use_forecasting = use_forecasting;
    config.forecast_lead = 3 * kMinute;
    AutoscaleHarness h(config, ViralGrowthTraffic(1000, 30000, 20 * kMinute, 3 * kMinute));
    h.Bootstrap(32, 1);
    h.loop.RunFor(20 * kMinute);  // up to the growth midpoint
    return h.cloud.running_count() + h.cloud.booting_count();
  };
  int with_forecast = run(true);
  int reactive = run(false);
  // At the steep part of the curve the forecaster must already hold more
  // capacity (it provisioned for t+lead).
  EXPECT_GT(with_forecast, reactive);
}

TEST(DirectorTest, EventsLogLifecycle) {
  DirectorConfig config;
  config.min_nodes = 2;
  AutoscaleHarness h(config, ConstantTraffic(100));
  h.director->Start();
  h.loop.RunFor(3 * kMinute);
  bool saw_scale_up = false, saw_node_ready = false;
  for (const DirectorEvent& event : h.director->events()) {
    saw_scale_up |= event.kind == "scale_up";
    saw_node_ready |= event.kind == "node_ready";
  }
  EXPECT_TRUE(saw_scale_up);
  EXPECT_TRUE(saw_node_ready);
}

TEST(DirectorTest, SnapshotsExposePriorityShedsAndBacklog) {
  DirectorConfig config;
  config.min_nodes = 2;
  config.control_interval = kSecond;  // sample before the backlog drains
  AutoscaleHarness h(config, ConstantTraffic(50));
  h.Bootstrap(8, 1);

  // One node backlogged past the kLow threshold: kLow requests shed there,
  // and the Director's next window must see both the sheds (by class) and
  // the backlog.
  std::vector<NodeId> alive = h.cluster.AliveNodes();
  ASSERT_FALSE(alive.empty());
  StorageNode* hot = h.cluster.GetNode(alive.front());
  hot->InjectBackgroundLoad(3 * kSecond);  // clamped near the 2s queue cap
  for (int i = 0; i < 5; ++i) {
    hot->HandleGet("k", RequestPriority::kLow, [](Result<Record>) {});
  }
  size_t history_before = h.director->history().size();
  h.loop.RunFor(2 * config.control_interval);

  const auto& history = h.director->history();
  ASSERT_GT(history.size(), history_before);
  int64_t sheds_low = 0;
  Duration max_backlog = 0;
  for (size_t i = history_before; i < history.size(); ++i) {
    sheds_low += history[i].sheds_low;
    max_backlog = std::max(max_backlog, history[i].max_node_queue_delay);
  }
  EXPECT_EQ(sheds_low, 5);
  EXPECT_GT(max_backlog, kSecond);
}

}  // namespace
}  // namespace scads
