#include "cluster/circuit_breaker.h"

#include <algorithm>

namespace scads {

namespace {
// Cap on the doubling open period.
constexpr Duration kMaxBackoff = 5 * kSecond;
}  // namespace

void CircuitBreaker::Open(NodeState* node, bool from_suspicion) {
  Duration base = node->backoff == 0 ? config_.open_backoff
                                     : std::min(kMaxBackoff, node->backoff * 2);
  node->backoff = base;
  // Jitter each open period so independent routers don't probe a
  // recovering node in lockstep.
  double factor = 1.0 + config_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  Duration jittered = std::max<Duration>(1, static_cast<Duration>(
                                                static_cast<double>(base) * factor));
  node->state = State::kOpen;
  node->retry_at = clock_->Now() + jittered;
  node->probe_inflight = false;
  ++stats_.opens;
  if (from_suspicion) ++stats_.suspicion_opens;
}

void CircuitBreaker::MaybeTripOnSuspicion(NodeId id, NodeState* node) {
  if (node->state != State::kClosed) return;
  if (cluster_ == nullptr) return;
  // The detector's declared-dead level opens the breaker without waiting
  // for a timeout.
  if (cluster_->Suspicion(id) >= ClusterState::kDeclaredDead) {
    Open(node, /*from_suspicion=*/true);
  }
}

bool CircuitBreaker::Healthy(NodeId id) {
  if (!config_.enabled) return true;
  NodeState& node = nodes_[id];
  MaybeTripOnSuspicion(id, &node);
  switch (node.state) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      // The probe is already out; more traffic would defeat its purpose.
      return false;
    case State::kOpen:
      // Probe-eligible reads as healthy for ordering, so the due probe
      // actually gets sent (TryAcquire arbitrates who carries it).
      return clock_->Now() >= node.retry_at;
  }
  return true;
}

bool CircuitBreaker::TryAcquire(NodeId id) {
  if (!config_.enabled) return true;
  NodeState& node = nodes_[id];
  MaybeTripOnSuspicion(id, &node);
  switch (node.state) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      return false;  // one probe at a time
    case State::kOpen:
      if (clock_->Now() < node.retry_at) return false;
      node.state = State::kHalfOpen;
      node.probe_inflight = true;
      ++stats_.probes;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(NodeId id) {
  if (!config_.enabled) return;
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  NodeState& node = it->second;
  if (node.state != State::kClosed) ++stats_.closes;
  node.state = State::kClosed;
  node.consecutive_failures = 0;
  node.backoff = 0;
  node.probe_inflight = false;
}

void CircuitBreaker::RecordFailure(NodeId id) {
  if (!config_.enabled) return;
  NodeState& node = nodes_[id];
  switch (node.state) {
    case State::kHalfOpen:
      // The probe failed: back to open with doubled backoff.
      ++stats_.reopens;
      Open(&node, /*from_suspicion=*/false);
      break;
    case State::kClosed:
      if (++node.consecutive_failures >= config_.failure_threshold) {
        Open(&node, /*from_suspicion=*/false);
      }
      break;
    case State::kOpen:
      // A straggler attempt (sent before the open) timed out; nothing new.
      break;
  }
}

CircuitBreaker::State CircuitBreaker::StateOf(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? State::kClosed : it->second.state;
}

}  // namespace scads
