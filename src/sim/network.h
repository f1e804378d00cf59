// Simulated datacenter network.
//
// Delivers closures between nodes with sampled latency, optional loss, and
// partition support. The cluster layer builds request/response RPC (with
// timeouts) on top; this layer decides only *whether* and *when* a message
// arrives.

#ifndef SCADS_SIM_NETWORK_H_
#define SCADS_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/execution_backend.h"
#include "sim/event_loop.h"

namespace scads {

/// Tunables for the latency/loss model.
struct NetworkConfig {
  /// Fixed one-way propagation+switching floor.
  Duration base_latency = 200;  // 200us, same-datacenter RTT ~0.4-1ms
  /// Mean of the exponential jitter added on top.
  Duration jitter_mean = 150;
  /// Probability an individual message is silently dropped.
  double loss_probability = 0.0;
};

/// Message-passing fabric between NodeIds over simulated time.
class SimNetwork : public MessageFabric {
 public:
  /// Fixed per-message framing overhead charged to the byte counters on top
  /// of the declared payload (transport + RPC headers). Batching N requests
  /// into one message saves (N-1) of these.
  static constexpr int64_t kMessageOverheadBytes = MessageFabric::kMessageOverheadBytes;

  SimNetwork(EventLoop* loop, uint64_t seed, NetworkConfig config = {});

  /// Schedules `deliver` to run after a sampled latency, unless the message
  /// is lost or `from`/`to` are in different partition groups at send time.
  /// Partition state is also re-checked at delivery time, so messages in
  /// flight when a partition forms are lost too (matching real TCP resets).
  /// `payload_bytes` is the application payload size; the byte counters
  /// charge it plus kMessageOverheadBytes per message, so batching wins show
  /// up in bytes as well as message counts.
  void Send(NodeId from, NodeId to, int64_t payload_bytes,
            std::function<void()> deliver) override;

  /// Payload-size-agnostic send (control messages; counts overhead only).
  using MessageFabric::Send;

  /// Puts each node into a numbered partition group; nodes in different
  /// groups cannot exchange messages. Unlisted nodes stay in group 0.
  void SetPartitionGroup(NodeId node, int group);

  /// Removes all partitions (every node back in group 0).
  void Heal();

  // --- Gray-failure primitives -------------------------------------------
  //
  // Fail-slow and fail-partial modes: the node/link still works, just
  // badly. These compose with partitions and global loss; a suspicion
  // detector or circuit breaker has to earn its keep against these, not
  // just against clean crashes.

  /// Messages to or from `node` take `multiplier` times the sampled latency
  /// (the larger endpoint multiplier wins; loopback is unaffected).
  /// 1.0 (the default) restores normal speed.
  void SetDelayMultiplier(NodeId node, double multiplier);

  /// Messages to or from `node` are additionally dropped with this
  /// probability. 0 restores normal delivery.
  void SetNodeLoss(NodeId node, double probability);

  /// Messages on the directed link `from` -> `to` are additionally dropped
  /// with this probability. 0 restores the link.
  void SetLinkLoss(NodeId from, NodeId to, double probability);

  /// Clears every gray-failure override (multipliers and loss rates).
  void ClearGrayFailures();

  /// True when a->b messages can currently flow.
  bool Connected(NodeId a, NodeId b) const;

  /// Samples one message latency from the model (exposed for tests and for
  /// co-simulating client latencies).
  Duration SampleLatency(NodeId from, NodeId to);

  NetworkConfig* mutable_config() { return &config_; }

  int64_t sent_count() const { return sent_; }
  int64_t delivered_count() const { return delivered_; }
  int64_t dropped_count() const { return dropped_; }
  /// Messages handed to the fabric addressed to `to` (including later-lost
  /// ones). Batch-sizing diagnostics: differences of this show how many
  /// sub-batches a node was sent.
  int64_t sent_to(NodeId to) const;
  /// Bytes handed to the fabric (payload + per-message overhead), including
  /// messages later lost; mirrors what a NIC's tx counter would show.
  int64_t bytes_sent() const { return bytes_sent_; }
  int64_t bytes_delivered() const { return bytes_delivered_; }

 private:
  int GroupOf(NodeId node) const;
  /// The strongest gray drop probability applying to this message (node
  /// overrides on either endpoint, plus the directed link's).
  double GrayLoss(NodeId from, NodeId to) const;

  EventLoop* loop_;
  Rng rng_;
  NetworkConfig config_;
  std::unordered_map<NodeId, int> partition_group_;
  std::unordered_map<NodeId, double> delay_multiplier_;
  std::unordered_map<NodeId, double> node_loss_;
  std::unordered_map<int64_t, double> link_loss_;  // (from<<32)|to -> probability
  std::unordered_map<NodeId, int64_t> sent_to_;
  int64_t sent_ = 0;
  int64_t delivered_ = 0;
  int64_t dropped_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bytes_delivered_ = 0;
};

}  // namespace scads

#endif  // SCADS_SIM_NETWORK_H_
