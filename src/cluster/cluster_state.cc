#include "cluster/cluster_state.h"

#include <algorithm>
#include <mutex>

#include "cluster/node.h"
#include "common/strings.h"

namespace scads {

namespace {
// EWMA smoothing for the heartbeat inter-arrival estimate.
constexpr double kIntervalEwmaAlpha = 0.2;
}  // namespace

Status ClusterState::AddNode(NodeId id, StorageNode* node) {
  std::unique_lock lock(mu_);
  auto [it, inserted] = nodes_.emplace(id, NodeEntry{node, true});
  if (!inserted) return AlreadyExistsError(StrFormat("node %d", id));
  return Status::Ok();
}

Status ClusterState::RemoveNode(NodeId id) {
  std::unique_lock lock(mu_);
  if (nodes_.erase(id) == 0) return NotFoundError(StrFormat("node %d", id));
  return Status::Ok();
}

void ClusterState::SetNodeAlive(NodeId id, bool alive) {
  StorageNode* node = nullptr;
  {
    std::unique_lock lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return;
    const bool was_alive = it->second.alive;
    it->second.alive = alive;
    if (alive && !was_alive) {
      // Fresh grace period: the downtime gap must not count as silence (or
      // pollute the inter-arrival estimate) once the node is back.
      it->second.last_heartbeat = 0;
      it->second.ewma_interval = 0;
      it->second.heard = 0;
    }
    node = it->second.node;
  }
  // The one down/up path (no split-brain with the node object's own
  // switch). set_alive(true) on a previously-dead node also kicks its
  // delta-sync catch-up. Called outside `mu_`: the node may take its own
  // steps (scheduling catch-up) without nesting under the registry lock.
  if (node != nullptr) node->set_alive(alive);
}

bool ClusterState::IsAlive(NodeId id) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.alive && SuspicionLocked(it->second) < kDeclaredDead;
}

StorageNode* ClusterState::GetNode(NodeId id) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.node;
}

void ClusterState::EnableFailureDetection(const Clock* clock, SuspicionConfig config) {
  std::unique_lock lock(mu_);
  clock_ = clock;
  suspicion_ = config;
  if (suspicion_.min_interval <= 0) suspicion_.min_interval = 1;
  if (suspicion_.timeout_multiple <= 0) suspicion_.timeout_multiple = 1.0;
}

void ClusterState::RecordHeartbeat(NodeId id, Time now) {
  std::unique_lock lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  NodeEntry& entry = it->second;
  if (entry.heard > 0) {
    Duration gap = std::max<Duration>(0, now - entry.last_heartbeat);
    // Cap what one gap can teach the EWMA: a long silence that resolves
    // (slow heal, late beacon) must not inflate the expected interval so
    // far that the next real failure goes undetected.
    Duration expected = std::max(entry.ewma_interval, suspicion_.min_interval);
    gap = std::min(gap, 4 * expected);
    entry.ewma_interval = static_cast<Duration>(kIntervalEwmaAlpha * gap +
                                                (1.0 - kIntervalEwmaAlpha) * entry.ewma_interval);
  }
  entry.last_heartbeat = now;
  ++entry.heard;
}

double ClusterState::SuspicionLocked(const NodeEntry& entry) const {
  if (clock_ == nullptr) return 0.0;
  if (entry.heard == 0) return 0.0;  // never heard: presumed alive
  Duration expected = std::max(entry.ewma_interval, suspicion_.min_interval);
  Duration silence = clock_->Now() - entry.last_heartbeat;
  if (silence <= 0) return 0.0;
  return static_cast<double>(silence) /
         (suspicion_.timeout_multiple * static_cast<double>(expected));
}

double ClusterState::Suspicion(NodeId id) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return 0.0;
  return SuspicionLocked(it->second);
}

int ClusterState::SuspectedCount() const {
  std::shared_lock lock(mu_);
  int count = 0;
  for (const auto& [id, entry] : nodes_) {
    if (SuspicionLocked(entry) >= kDeclaredDead) ++count;
  }
  return count;
}

NodeLoadSignal ClusterState::NodeLoad(NodeId id) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.alive || it->second.node == nullptr) {
    return NodeLoadSignal{};
  }
  NodeLoadSignal signal = it->second.node->load_signal();
  signal.suspicion = SuspicionLocked(it->second);
  return signal;
}

std::vector<NodeId> ClusterState::AliveNodes() const {
  std::shared_lock lock(mu_);
  std::vector<NodeId> out;
  for (const auto& [id, entry] : nodes_) {
    if (entry.alive && SuspicionLocked(entry) < kDeclaredDead) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> ClusterState::AllNodes() const {
  std::shared_lock lock(mu_);
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& entry : nodes_) out.push_back(entry.first);
  return out;
}

}  // namespace scads
