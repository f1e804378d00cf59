// Per-node circuit breaker for the read path.
//
// The Router's failover discipline is sound but slow against a dead node:
// every read (and every MultiGet sub-batch) pays the full attempt timeout
// before moving to the next replica. The breaker turns repeated evidence
// of death — consecutive attempt timeouts, or the failure detector's
// suspicion crossing its trip level — into an *open* state that candidate
// selection skips in O(1), so only the first few requests after a crash
// pay the timeout and the rest fail over instantly.
//
// States, per node:
//
//   closed    — healthy. Every request passes; consecutive timeouts are
//               counted, `failure_threshold` of them (or tripped
//               suspicion) opens the breaker.
//   open      — requests are refused without a network attempt until the
//               backoff expires. Backoff doubles per consecutive open
//               (exponential) with multiplicative jitter so a fleet of
//               routers doesn't probe a recovering node in lockstep.
//   half-open — the backoff expired; exactly ONE request is let through
//               as a probe. Its success closes the breaker; its failure
//               reopens it with doubled backoff.
//
// Two entry points with deliberately different contracts:
//
//   Healthy()    — side-effect-light ordering signal for ReplicaSelector:
//                  "would a request to this node be refused right now?"
//                  It may flip closed->open on fresh suspicion (detection
//                  must not wait for a timeout to burn), but never
//                  consumes the half-open probe token.
//   TryAcquire() — the send-time gate. Consumes the probe token when the
//                  breaker is due one, so concurrent requests cannot all
//                  pile onto a node that just became probe-eligible.
//
// Only transport-level failures feed RecordFailure — attempt timeouts and
// unreachable targets. A node that *answers* with an error (shed, not
// found) is alive by definition; kResourceExhausted must shift load, not
// amputate a replica.

#ifndef SCADS_CLUSTER_CIRCUIT_BREAKER_H_
#define SCADS_CLUSTER_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <map>

#include "cluster/cluster_state.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/types.h"

namespace scads {

/// Breaker tunables. Defaults keep a healthy fleet byte-identical: with no
/// timeouts and no suspicion every node stays closed and ordering is
/// untouched.
struct CircuitBreakerConfig {
  bool enabled = true;
  /// Consecutive transport failures that open the breaker.
  int failure_threshold = 2;
  /// First open period; doubles per consecutive reopen.
  Duration open_backoff = 200 * kMillisecond;
  /// Multiplicative jitter on each open period, +/- this fraction.
  double jitter = 0.2;
};

/// Cumulative breaker statistics (Router telemetry).
struct CircuitBreakerStats {
  int64_t opens = 0;             ///< closed -> open transitions (any cause).
  int64_t suspicion_opens = 0;   ///< ...of which the failure detector tripped.
  int64_t reopens = 0;           ///< failed half-open probes.
  int64_t probes = 0;            ///< half-open probe requests admitted.
  int64_t closes = 0;            ///< successful probes (recovery observed).
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(const ClusterState* cluster, const Clock* clock, CircuitBreakerConfig config,
                 uint64_t seed)
      : cluster_(cluster), clock_(clock), config_(config), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Ordering signal: false when a request to `id` would be refused right
  /// now. Never consumes the probe token.
  bool Healthy(NodeId id);

  /// Send-time gate: true admits the request (and consumes the half-open
  /// probe token when due); false means skip this candidate without an
  /// attempt.
  bool TryAcquire(NodeId id);

  /// The node answered (any reply, even an error reply — it is alive).
  void RecordSuccess(NodeId id);
  /// Transport failure: attempt timeout or unreachable.
  void RecordFailure(NodeId id);

  State StateOf(NodeId id) const;
  const CircuitBreakerStats& stats() const { return stats_; }
  const CircuitBreakerConfig& config() const { return config_; }

 private:
  struct NodeState {
    State state = State::kClosed;
    int consecutive_failures = 0;
    Duration backoff = 0;
    Time retry_at = 0;
    bool probe_inflight = false;
  };

  /// Opens (or reopens) `node`, doubling its backoff.
  void Open(NodeState* node, bool from_suspicion);
  /// Closed breakers trip on detector suspicion; shared by Healthy and
  /// TryAcquire so the two views cannot disagree.
  void MaybeTripOnSuspicion(NodeId id, NodeState* node);

  const ClusterState* cluster_;
  const Clock* clock_;
  CircuitBreakerConfig config_;
  Rng rng_;
  CircuitBreakerStats stats_;
  std::map<NodeId, NodeState> nodes_;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_CIRCUIT_BREAKER_H_
