#include "sim/network.h"

#include <algorithm>
#include <utility>

namespace scads {

namespace {
// Latency when a node talks to itself (loopback).
constexpr Duration kLoopbackLatency = 10;
}  // namespace

SimNetwork::SimNetwork(EventLoop* loop, uint64_t seed, NetworkConfig config)
    : loop_(loop), rng_(seed), config_(config) {}

int SimNetwork::GroupOf(NodeId node) const {
  auto it = partition_group_.find(node);
  return it == partition_group_.end() ? 0 : it->second;
}

bool SimNetwork::Connected(NodeId a, NodeId b) const {
  return a == b || GroupOf(a) == GroupOf(b);
}

Duration SimNetwork::SampleLatency(NodeId from, NodeId to) {
  if (from == to) return kLoopbackLatency;
  Duration jitter = config_.jitter_mean > 0
                        ? static_cast<Duration>(
                              rng_.Exponential(static_cast<double>(config_.jitter_mean)))
                        : 0;
  Duration latency = config_.base_latency + jitter;
  if (!delay_multiplier_.empty()) {
    double multiplier = 1.0;
    auto it = delay_multiplier_.find(from);
    if (it != delay_multiplier_.end()) multiplier = std::max(multiplier, it->second);
    it = delay_multiplier_.find(to);
    if (it != delay_multiplier_.end()) multiplier = std::max(multiplier, it->second);
    if (multiplier != 1.0) {
      latency = std::max<Duration>(
          1, static_cast<Duration>(static_cast<double>(latency) * multiplier));
    }
  }
  return latency;
}

double SimNetwork::GrayLoss(NodeId from, NodeId to) const {
  double loss = 0.0;
  if (!node_loss_.empty()) {
    auto it = node_loss_.find(from);
    if (it != node_loss_.end()) loss = std::max(loss, it->second);
    it = node_loss_.find(to);
    if (it != node_loss_.end()) loss = std::max(loss, it->second);
  }
  if (!link_loss_.empty()) {
    auto it = link_loss_.find((static_cast<int64_t>(from) << 32) |
                              static_cast<int64_t>(static_cast<uint32_t>(to)));
    if (it != link_loss_.end()) loss = std::max(loss, it->second);
  }
  return loss;
}

void SimNetwork::SetDelayMultiplier(NodeId node, double multiplier) {
  if (multiplier == 1.0) {
    delay_multiplier_.erase(node);
  } else {
    delay_multiplier_[node] = multiplier;
  }
}

void SimNetwork::SetNodeLoss(NodeId node, double probability) {
  if (probability <= 0) {
    node_loss_.erase(node);
  } else {
    node_loss_[node] = probability;
  }
}

void SimNetwork::SetLinkLoss(NodeId from, NodeId to, double probability) {
  int64_t key = (static_cast<int64_t>(from) << 32) |
                static_cast<int64_t>(static_cast<uint32_t>(to));
  if (probability <= 0) {
    link_loss_.erase(key);
  } else {
    link_loss_[key] = probability;
  }
}

void SimNetwork::ClearGrayFailures() {
  delay_multiplier_.clear();
  node_loss_.clear();
  link_loss_.clear();
}

int64_t SimNetwork::sent_to(NodeId to) const {
  auto it = sent_to_.find(to);
  return it == sent_to_.end() ? 0 : it->second;
}

void SimNetwork::Send(NodeId from, NodeId to, int64_t payload_bytes,
                      std::function<void()> deliver) {
  ++sent_;
  ++sent_to_[to];
  int64_t wire_bytes = payload_bytes + kMessageOverheadBytes;
  bytes_sent_ += wire_bytes;
  if (!Connected(from, to)) {
    ++dropped_;
    return;
  }
  if (from != to && config_.loss_probability > 0 && rng_.Bernoulli(config_.loss_probability)) {
    ++dropped_;
    return;
  }
  if (from != to) {
    double gray = GrayLoss(from, to);
    if (gray > 0 && rng_.Bernoulli(gray)) {
      ++dropped_;
      return;
    }
  }
  Duration latency = SampleLatency(from, to);
  loop_->ScheduleAfter(latency, [this, from, to, wire_bytes, fn = std::move(deliver)] {
    if (!Connected(from, to)) {
      ++dropped_;
      return;
    }
    ++delivered_;
    bytes_delivered_ += wire_bytes;
    fn();
  });
}

void SimNetwork::SetPartitionGroup(NodeId node, int group) { partition_group_[node] = group; }

void SimNetwork::Heal() { partition_group_.clear(); }

}  // namespace scads
