// Unit tests for src/sim: event loop, network, cloud, failure injection.

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "gtest/gtest.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"
#include "sim/failure.h"
#include "sim/network.h"

namespace scads {
namespace {

// -------------------------------------------------------------- EventLoop --

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(300, [&] { order.push_back(3); });
  loop.ScheduleAt(100, [&] { order.push_back(1); });
  loop.ScheduleAt(200, [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 300);
}

TEST(EventLoopTest, TiesRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(100, [] {});
  loop.RunAll();
  bool ran = false;
  loop.ScheduleAt(5, [&] { ran = true; });  // 5 < Now()=100
  loop.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.Now(), 100);
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired_at = -1;
  loop.ScheduleAt(100, [&] { loop.ScheduleAfter(50, [&] { fired_at = loop.Now(); }); });
  loop.RunAll();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoopTest, RunUntilAdvancesClockEvenWhenIdle) {
  EventLoop loop;
  loop.RunUntil(1000);
  EXPECT_EQ(loop.Now(), 1000);
}

TEST(EventLoopTest, RunUntilLeavesLaterEventsPending) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(10, [&] { ++ran; });
  loop.ScheduleAt(20, [&] { ++ran; });
  loop.RunUntil(15);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now(), 15);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.RunUntil(25);
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunAll();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, PeriodicFiresRepeatedly) {
  EventLoop loop;
  int fires = 0;
  loop.SchedulePeriodic(10, [&] { ++fires; });
  loop.RunUntil(55);
  EXPECT_EQ(fires, 5);  // t=10,20,30,40,50
}

TEST(EventLoopTest, PeriodicCancelStopsChain) {
  EventLoop loop;
  int fires = 0;
  auto id = loop.SchedulePeriodic(10, [&] { ++fires; });
  loop.RunUntil(25);
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunUntil(200);
  EXPECT_EQ(fires, 2);
}

TEST(EventLoopTest, PeriodicCanCancelItselfFromCallback) {
  EventLoop loop;
  int fires = 0;
  EventLoop::EventId id = EventLoop::kInvalidEvent;
  id = loop.SchedulePeriodic(10, [&] {
    if (++fires == 3) loop.Cancel(id);
  });
  loop.RunUntil(500);
  EXPECT_EQ(fires, 3);
}

TEST(EventLoopTest, NestedSchedulingDuringDispatch) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] {
    order.push_back(1);
    loop.ScheduleAt(10, [&] { order.push_back(2); });  // same time, runs after
  });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, ExecutedCountCounts) {
  EventLoop loop;
  loop.ScheduleAt(1, [] {});
  loop.ScheduleAt(2, [] {});
  loop.RunAll();
  EXPECT_EQ(loop.executed_count(), 2);
}

// Counts its copies; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&& other) noexcept : copies(other.copies) {}
  int* copies;
};

TEST(EventLoopTest, EventsRunWithoutCopyingTheirClosures) {
  EventLoop loop;
  int copies = 0;
  int ran = 0;
  // Several events, so pushes and pops reorder the heap around each entry.
  for (Time t : {50, 10, 40, 20, 30}) {
    loop.ScheduleAt(t, [counter = CopyCounter(&copies), &ran] {
      (void)counter;
      ++ran;
    });
  }
  EXPECT_EQ(copies, 0);
  loop.RunAll();
  EXPECT_EQ(ran, 5);
  // A closure's captures (a replication batch, a MultiGet reply) are moved
  // out of the queue, never deep-copied to run.
  EXPECT_EQ(copies, 0);
}

// ---------------------------------------------------------------- Network --

TEST(NetworkTest, DeliversWithLatency) {
  EventLoop loop;
  NetworkConfig cfg;
  cfg.base_latency = 200;
  cfg.jitter_mean = 0;
  SimNetwork net(&loop, 1, cfg);
  Time delivered_at = -1;
  net.Send(0, 1, [&] { delivered_at = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(delivered_at, 200);
  EXPECT_EQ(net.delivered_count(), 1);
}

TEST(NetworkTest, LoopbackIsFast) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  Time delivered_at = -1;
  net.Send(3, 3, [&] { delivered_at = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(delivered_at, 10);
}

TEST(NetworkTest, PartitionDropsAtSend) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  net.SetPartitionGroup(1, 1);
  bool delivered = false;
  net.Send(0, 1, [&] { delivered = true; });
  loop.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped_count(), 1);
}

TEST(NetworkTest, PartitionDropsInFlight) {
  EventLoop loop;
  NetworkConfig cfg;
  cfg.base_latency = 1000;
  cfg.jitter_mean = 0;
  SimNetwork net(&loop, 1, cfg);
  bool delivered = false;
  net.Send(0, 1, [&] { delivered = true; });
  // Partition forms while the message is in flight.
  loop.ScheduleAt(500, [&] { net.SetPartitionGroup(1, 7); });
  loop.RunAll();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, HealRestoresConnectivity) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  net.SetPartitionGroup(1, 1);
  EXPECT_FALSE(net.Connected(0, 1));
  net.Heal();
  EXPECT_TRUE(net.Connected(0, 1));
  bool delivered = false;
  net.Send(0, 1, [&] { delivered = true; });
  loop.RunAll();
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, SelfAlwaysConnectedEvenWhenPartitioned) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  net.SetPartitionGroup(4, 9);
  EXPECT_TRUE(net.Connected(4, 4));
}

TEST(NetworkTest, LossDropsRoughlyAtConfiguredRate) {
  EventLoop loop;
  NetworkConfig cfg;
  cfg.loss_probability = 0.3;
  SimNetwork net(&loop, 99, cfg);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    net.Send(0, 1, [&] { ++delivered; });
  }
  loop.RunAll();
  EXPECT_NEAR(delivered / 2000.0, 0.7, 0.05);
}

TEST(NetworkTest, LatencySamplesAreJittered) {
  EventLoop loop;
  SimNetwork net(&loop, 7);
  Duration a = net.SampleLatency(0, 1);
  bool varies = false;
  for (int i = 0; i < 20; ++i) varies |= (net.SampleLatency(0, 1) != a);
  EXPECT_TRUE(varies);
  EXPECT_GE(a, net.mutable_config()->base_latency);
}

// ------------------------------------------------------------------ Cloud --

CloudConfig FastBootConfig() {
  CloudConfig cfg;
  cfg.boot_delay_mean = 60 * kSecond;
  cfg.boot_delay_jitter = 0;
  return cfg;
}

TEST(CloudTest, InstanceBootsAfterDelay) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  std::vector<NodeId> ready;
  cloud.set_instance_ready_callback([&](NodeId id) { ready.push_back(id); });
  Result<NodeId> id = cloud.RequestInstance();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cloud.booting_count(), 1);
  EXPECT_EQ(cloud.running_count(), 0);
  loop.RunUntil(59 * kSecond);
  EXPECT_TRUE(ready.empty());
  loop.RunUntil(61 * kSecond);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], *id);
  EXPECT_EQ(cloud.running_count(), 1);
  EXPECT_EQ(cloud.Get(*id)->state, InstanceState::kRunning);
  EXPECT_EQ(cloud.Get(*id)->running_at, 60 * kSecond);
}

TEST(CloudTest, TerminateWhileBootingIsFreeAndNeverReady) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  int ready = 0;
  cloud.set_instance_ready_callback([&](NodeId) { ++ready; });
  NodeId id = *cloud.RequestInstance();
  ASSERT_TRUE(cloud.TerminateInstance(id).ok());
  loop.RunUntil(10 * kMinute);
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(cloud.TotalCostMicros(loop.Now()), 0);
  EXPECT_EQ(cloud.active_count(), 0);
}

TEST(CloudTest, BillingRoundsUpToWholePeriods) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  NodeId id = *cloud.RequestInstance();
  loop.RunUntil(60 * kSecond);  // running now
  loop.RunUntil(60 * kSecond + 90 * kMinute);
  ASSERT_TRUE(cloud.TerminateInstance(id).ok());
  // 90 minutes used -> 2 billed hours.
  EXPECT_EQ(cloud.TotalBilledPeriods(loop.Now()), 2);
  EXPECT_EQ(cloud.TotalCostMicros(loop.Now()), 200000);
}

TEST(CloudTest, RunningInstanceBilledThroughNow) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  (void)*cloud.RequestInstance();
  loop.RunUntil(60 * kSecond);
  EXPECT_EQ(cloud.TotalBilledPeriods(loop.Now()), 1);  // just started -> 1 period
  loop.RunUntil(60 * kSecond + 3 * kHour + kMinute);
  EXPECT_EQ(cloud.TotalBilledPeriods(loop.Now()), 4);
}

TEST(CloudTest, QuotaEnforced) {
  EventLoop loop;
  CloudConfig cfg = FastBootConfig();
  cfg.max_instances = 2;
  SimCloud cloud(&loop, 1, cfg);
  EXPECT_TRUE(cloud.RequestInstance().ok());
  EXPECT_TRUE(cloud.RequestInstance().ok());
  Result<NodeId> third = cloud.RequestInstance();
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Terminating frees quota.
  ASSERT_TRUE(cloud.TerminateInstance(0).ok());
  EXPECT_TRUE(cloud.RequestInstance().ok());
}

TEST(CloudTest, DoubleTerminateFails) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  NodeId id = *cloud.RequestInstance();
  loop.RunUntil(2 * kMinute);
  EXPECT_TRUE(cloud.TerminateInstance(id).ok());
  EXPECT_EQ(cloud.TerminateInstance(id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cloud.TerminateInstance(999).code(), StatusCode::kNotFound);
}

TEST(CloudTest, RequestInstancesBatch) {
  EventLoop loop;
  SimCloud cloud(&loop, 1, FastBootConfig());
  auto ids = cloud.RequestInstances(5);
  EXPECT_EQ(ids.size(), 5u);
  loop.RunUntil(2 * kMinute);
  EXPECT_EQ(cloud.running_count(), 5);
  EXPECT_EQ(cloud.RunningInstances().size(), 5u);
}

TEST(CloudTest, BootJitterVariesBootTimes) {
  EventLoop loop;
  CloudConfig cfg;
  cfg.boot_delay_mean = 90 * kSecond;
  cfg.boot_delay_jitter = 30 * kSecond;
  SimCloud cloud(&loop, 42, cfg);
  std::vector<Time> ready_times;
  cloud.set_instance_ready_callback([&](NodeId) { ready_times.push_back(loop.Now()); });
  cloud.RequestInstances(10);
  loop.RunUntil(5 * kMinute);
  ASSERT_EQ(ready_times.size(), 10u);
  bool varies = false;
  for (Time t : ready_times) {
    EXPECT_GE(t, 60 * kSecond);
    EXPECT_LE(t, 120 * kSecond);
    varies |= (t != ready_times[0]);
  }
  EXPECT_TRUE(varies);
}

// ---------------------------------------------------------------- Failure --

TEST(FailureTest, NodeOutageFiresCallbacksAndPartitions) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  FailureInjector failures(&loop, &net, 2);
  std::vector<NodeId> down, up;
  failures.set_node_down_callback([&](NodeId n) { down.push_back(n); });
  failures.set_node_up_callback([&](NodeId n) { up.push_back(n); });
  failures.ScheduleNodeOutage(5, 100, 50);
  loop.RunUntil(120);
  EXPECT_EQ(down, (std::vector<NodeId>{5}));
  EXPECT_TRUE(up.empty());
  EXPECT_FALSE(net.Connected(0, 5));
  loop.RunUntil(200);
  EXPECT_EQ(up, (std::vector<NodeId>{5}));
  EXPECT_TRUE(net.Connected(0, 5));
}

TEST(FailureTest, TwoDownNodesCannotTalkToEachOther) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  FailureInjector failures(&loop, &net, 2);
  failures.ScheduleNodeOutage(1, 10, 100);
  failures.ScheduleNodeOutage(2, 10, 100);
  loop.RunUntil(20);
  EXPECT_FALSE(net.Connected(1, 2));
}

TEST(FailureTest, PartitionSplitsAndHeals) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  FailureInjector failures(&loop, &net, 2);
  failures.SchedulePartition({0, 1}, {2, 3}, 100, 200);
  loop.RunUntil(150);
  EXPECT_TRUE(net.Connected(0, 1));
  EXPECT_TRUE(net.Connected(2, 3));
  EXPECT_FALSE(net.Connected(0, 2));
  loop.RunUntil(400);
  EXPECT_TRUE(net.Connected(0, 2));
  EXPECT_EQ(failures.partitions_injected(), 1);
}

TEST(FailureTest, PartitionFormingMidFlightDropsInFlightMessages) {
  // A message already on the wire when the partition forms must be lost —
  // connectivity is checked at delivery time, not just at send time.
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = 10 * kMillisecond;
  SimNetwork net(&loop, 1, config);
  bool delivered = false;
  net.Send(1, 2, 10, [&] { delivered = true; });
  int64_t dropped_before = net.dropped_count();
  net.SetPartitionGroup(2, 5);  // forms while the message is in flight
  loop.RunFor(kSecond);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped_count(), dropped_before + 1);

  // Heal and resend: the same edge delivers again.
  net.Heal();
  net.Send(1, 2, 10, [&] { delivered = true; });
  loop.RunFor(kSecond);
  EXPECT_TRUE(delivered);
}

TEST(FailureTest, GrayNodeDelaysAndDropsWithoutDisconnecting) {
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = kMillisecond;
  config.jitter_mean = 0;  // deterministic latency so the multiplier shows
  SimNetwork net(&loop, 1, config);
  FailureInjector failures(&loop, &net, 2);
  failures.ScheduleGrayNode(2, /*start=*/0, /*length=*/kMinute,
                            /*delay_multiplier=*/10.0, /*loss=*/0.0);
  loop.RunFor(kMillisecond);  // gray window armed
  EXPECT_TRUE(net.Connected(1, 2)) << "gray is fail-slow, not fail-stop";
  Time sent_at = loop.Now();
  Time got_at = 0;
  net.Send(1, 2, 10, [&] { got_at = loop.Now(); });
  loop.RunFor(kSecond);
  ASSERT_GT(got_at, 0);
  EXPECT_GE(got_at - sent_at, 10 * kMillisecond) << "delay multiplier not applied";
  EXPECT_EQ(failures.gray_failures_injected(), 1);

  // Total loss on a directed link: forward drops, reverse still delivers.
  failures.ScheduleLossyLink(3, 4, loop.Now(), kMinute, /*loss=*/1.0);
  loop.RunFor(kMillisecond);
  bool forward = false, reverse = false;
  net.Send(3, 4, 10, [&] { forward = true; });
  net.Send(4, 3, 10, [&] { reverse = true; });
  loop.RunFor(kSecond);
  EXPECT_FALSE(forward);
  EXPECT_TRUE(reverse) << "link loss must be directed, not symmetric";
}

TEST(FailureTest, RandomOutageEmpiricalMeansMatchConfiguredDistribution) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  FailureInjector failures(&loop, &net, 11);
  std::vector<Time> downs, ups;
  failures.set_node_down_callback([&](NodeId) { downs.push_back(loop.Now()); });
  failures.set_node_up_callback([&](NodeId) { ups.push_back(loop.Now()); });
  const Duration mtbf = kMinute;
  const Duration mttr = 5 * kSecond;
  failures.EnableRandomOutages(0, mtbf, mttr);
  loop.RunUntil(12 * kHour);  // several hundred failure/repair cycles

  size_t cycles = std::min(downs.size(), ups.size());
  ASSERT_GE(cycles, 100u);
  double mean_repair = 0;
  for (size_t i = 0; i < cycles; ++i) {
    mean_repair += static_cast<double>(ups[i] - downs[i]);
  }
  mean_repair /= static_cast<double>(cycles);
  double mean_tbf = 0;
  size_t gaps = 0;
  for (size_t i = 0; i + 1 < cycles; ++i) {
    mean_tbf += static_cast<double>(downs[i + 1] - ups[i]);
    ++gaps;
  }
  mean_tbf /= static_cast<double>(gaps);
  // Sample means of an exponential with n >= 100: 25% tolerance is ~3
  // standard errors, loose enough to be seed-robust, tight enough to catch
  // a mixed-up parameter or a non-exponential draw.
  EXPECT_NEAR(mean_repair, static_cast<double>(mttr), 0.25 * static_cast<double>(mttr));
  EXPECT_NEAR(mean_tbf, static_cast<double>(mtbf), 0.25 * static_cast<double>(mtbf));
}

TEST(FailureTest, RandomOutagesRecurUntilDisabled) {
  EventLoop loop;
  SimNetwork net(&loop, 1);
  FailureInjector failures(&loop, &net, 7);
  int down_count = 0;
  failures.set_node_down_callback([&](NodeId) { ++down_count; });
  failures.EnableRandomOutages(0, kMinute, kSecond);
  loop.RunUntil(30 * kMinute);
  // ~30 expected; loose bounds to stay robust across rng details.
  EXPECT_GT(down_count, 5);
  int at_disable = down_count;
  failures.DisableRandomOutages(0);
  loop.RunUntil(60 * kMinute);
  EXPECT_LE(down_count, at_disable + 1);  // at most one armed event fires
}

}  // namespace
}  // namespace scads
