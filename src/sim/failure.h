// Failure injection for experiments: node outages (crash + restart) and
// timed network partitions. The injector acts through callbacks so it stays
// decoupled from the cluster layer; it also drives the durability SLA's
// failure model (paper §3.3.1).

#ifndef SCADS_SIM_FAILURE_H_
#define SCADS_SIM_FAILURE_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {

/// Schedules failures over simulated time.
class FailureInjector {
 public:
  FailureInjector(EventLoop* loop, SimNetwork* network, uint64_t seed);

  /// Invoked when a node crashes / recovers.
  void set_node_down_callback(std::function<void(NodeId)> cb) { node_down_ = std::move(cb); }
  void set_node_up_callback(std::function<void(NodeId)> cb) { node_up_ = std::move(cb); }

  /// Takes `node` down at `start` and back up `down_for` later. A node that
  /// is down is also disconnected (moved to a throwaway partition group).
  void ScheduleNodeOutage(NodeId node, Time start, Duration down_for);

  /// THE down/up path: every crash (scheduled, random, or test-driven) goes
  /// through these, so network disconnection and the cluster callback can
  /// never diverge. TakeDown isolates the node in its own partition group
  /// and fires node_down; BringUp reconnects it and fires node_up.
  void TakeDown(NodeId node);
  void BringUp(NodeId node);

  /// Gray node: from `start` for `length`, messages to/from `node` take
  /// `delay_multiplier` times the normal latency and are dropped with
  /// probability `loss`. The node never goes down — this is the fail-slow
  /// mode that oracle liveness cannot see.
  void ScheduleGrayNode(NodeId node, Time start, Duration length, double delay_multiplier,
                        double loss);

  /// Lossy directed link: from `start` for `length`, messages `from`->`to`
  /// are dropped with probability `loss` (the reverse direction is
  /// untouched — asymmetric gray links are the nastier case).
  void ScheduleLossyLink(NodeId from, NodeId to, Time start, Duration length, double loss);

  /// Splits the network into {side_a} vs {side_b} from `start` for `length`;
  /// heals afterwards (restores all listed nodes to group 0).
  void SchedulePartition(std::vector<NodeId> side_a, std::vector<NodeId> side_b, Time start,
                         Duration length);

  /// Draws i.i.d. exponential outages for `node`: mean time between failures
  /// `mtbf`, mean time to recovery `mttr`, forever. Used for availability
  /// experiments and to validate the durability model.
  void EnableRandomOutages(NodeId node, Duration mtbf, Duration mttr);

  /// Stops scheduling new random outages for `node` (an outage already under
  /// way still recovers).
  void DisableRandomOutages(NodeId node);

  int64_t partitions_injected() const { return partitions_; }
  int64_t gray_failures_injected() const { return gray_; }

 private:
  void ArmNextRandomOutage(NodeId node);

  EventLoop* loop_;
  SimNetwork* network_;
  Rng rng_;
  std::function<void(NodeId)> node_down_;
  std::function<void(NodeId)> node_up_;
  // Nodes with random outages enabled; value holds the distribution params.
  struct OutageParams {
    Duration mtbf;
    Duration mttr;
    bool enabled;
  };
  std::unordered_map<NodeId, OutageParams> random_outages_;
  int64_t partitions_ = 0;
  int64_t gray_ = 0;
  // Partition group ids for "down" nodes are unique negatives so two downed
  // nodes can never talk to each other either.
  int next_down_group_ = -2;
};

}  // namespace scads

#endif  // SCADS_SIM_FAILURE_H_
