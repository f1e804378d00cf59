#include "sim/failure.h"

#include <utility>

namespace scads {

FailureInjector::FailureInjector(EventLoop* loop, SimNetwork* network, uint64_t seed)
    : loop_(loop), network_(network), rng_(seed) {}

void FailureInjector::TakeDown(NodeId node) {
  network_->SetPartitionGroup(node, next_down_group_--);
  if (node_down_) node_down_(node);
}

void FailureInjector::BringUp(NodeId node) {
  network_->SetPartitionGroup(node, 0);
  if (node_up_) node_up_(node);
}

void FailureInjector::ScheduleNodeOutage(NodeId node, Time start, Duration down_for) {
  loop_->ScheduleAt(start, [this, node, down_for] {
    TakeDown(node);
    loop_->ScheduleAfter(down_for, [this, node] { BringUp(node); });
  });
}

void FailureInjector::ScheduleGrayNode(NodeId node, Time start, Duration length,
                                       double delay_multiplier, double loss) {
  loop_->ScheduleAt(start, [this, node, length, delay_multiplier, loss] {
    ++gray_;
    network_->SetDelayMultiplier(node, delay_multiplier);
    network_->SetNodeLoss(node, loss);
    loop_->ScheduleAfter(length, [this, node] {
      network_->SetDelayMultiplier(node, 1.0);
      network_->SetNodeLoss(node, 0.0);
    });
  });
}

void FailureInjector::ScheduleLossyLink(NodeId from, NodeId to, Time start, Duration length,
                                        double loss) {
  loop_->ScheduleAt(start, [this, from, to, length, loss] {
    ++gray_;
    network_->SetLinkLoss(from, to, loss);
    loop_->ScheduleAfter(length, [this, from, to] { network_->SetLinkLoss(from, to, 0.0); });
  });
}

void FailureInjector::SchedulePartition(std::vector<NodeId> side_a, std::vector<NodeId> side_b,
                                        Time start, Duration length) {
  loop_->ScheduleAt(start, [this, a = std::move(side_a), b = std::move(side_b), length] {
    ++partitions_;
    for (NodeId n : a) network_->SetPartitionGroup(n, 0);
    for (NodeId n : b) network_->SetPartitionGroup(n, 1);
    loop_->ScheduleAfter(length, [this, a, b] {
      for (NodeId n : a) network_->SetPartitionGroup(n, 0);
      for (NodeId n : b) network_->SetPartitionGroup(n, 0);
    });
  });
}

void FailureInjector::EnableRandomOutages(NodeId node, Duration mtbf, Duration mttr) {
  random_outages_[node] = OutageParams{mtbf, mttr, true};
  ArmNextRandomOutage(node);
}

void FailureInjector::DisableRandomOutages(NodeId node) {
  auto it = random_outages_.find(node);
  if (it != random_outages_.end()) it->second.enabled = false;
}

void FailureInjector::ArmNextRandomOutage(NodeId node) {
  auto it = random_outages_.find(node);
  if (it == random_outages_.end() || !it->second.enabled) return;
  Duration until_failure =
      static_cast<Duration>(rng_.Exponential(static_cast<double>(it->second.mtbf)));
  Duration down_for =
      std::max<Duration>(1, static_cast<Duration>(
                                rng_.Exponential(static_cast<double>(it->second.mttr))));
  loop_->ScheduleAfter(until_failure, [this, node, down_for] {
    auto entry = random_outages_.find(node);
    if (entry == random_outages_.end() || !entry->second.enabled) return;
    TakeDown(node);
    loop_->ScheduleAfter(down_for, [this, node] {
      BringUp(node);
      ArmNextRandomOutage(node);
    });
  });
}

}  // namespace scads
