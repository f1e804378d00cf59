#include "sim/cloud.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace scads {

namespace {
constexpr Duration kBillingPeriod = kHour;
}  // namespace

SimCloud::SimCloud(EventLoop* loop, uint64_t seed, CloudConfig config)
    : loop_(loop), rng_(seed), config_(config) {}

Result<NodeId> SimCloud::RequestInstance() {
  if (active_count() >= config_.max_instances) {
    return ResourceExhaustedError(
        StrFormat("instance quota reached (%d)", config_.max_instances));
  }
  NodeId id = next_id_++;
  Instance inst;
  inst.id = id;
  inst.state = InstanceState::kBooting;
  inst.requested_at = loop_->Now();
  instances_[id] = inst;
  ++booting_;

  Duration jitter = config_.boot_delay_jitter > 0
                        ? rng_.UniformInt(-config_.boot_delay_jitter, config_.boot_delay_jitter)
                        : 0;
  Duration boot = std::max<Duration>(0, config_.boot_delay_mean + jitter);
  EventLoop::EventId ev = loop_->ScheduleAfter(boot, [this, id] {
    pending_boot_.erase(id);
    auto it = instances_.find(id);
    if (it == instances_.end() || it->second.state != InstanceState::kBooting) return;
    it->second.state = InstanceState::kRunning;
    it->second.running_at = loop_->Now();
    --booting_;
    ++running_;
    if (instance_ready_) instance_ready_(id);
  });
  pending_boot_[id] = ev;
  return id;
}

std::vector<NodeId> SimCloud::RequestInstances(int n) {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Result<NodeId> r = RequestInstance();
    if (!r.ok()) {
      SCADS_LOG(Warning) << "RequestInstances truncated at " << i << ": " << r.status();
      break;
    }
    ids.push_back(*r);
  }
  return ids;
}

Status SimCloud::TerminateInstance(NodeId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return NotFoundError(StrFormat("instance %d", id));
  Instance& inst = it->second;
  switch (inst.state) {
    case InstanceState::kTerminated:
      return FailedPreconditionError(StrFormat("instance %d already terminated", id));
    case InstanceState::kBooting: {
      auto pending = pending_boot_.find(id);
      if (pending != pending_boot_.end()) {
        loop_->Cancel(pending->second);
        pending_boot_.erase(pending);
      }
      --booting_;
      break;
    }
    case InstanceState::kRunning:
      --running_;
      break;
  }
  inst.state = InstanceState::kTerminated;
  inst.terminated_at = loop_->Now();
  return Status::Ok();
}

const Instance* SimCloud::Get(NodeId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

std::vector<NodeId> SimCloud::RunningInstances() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(running_));
  for (const auto& [id, inst] : instances_) {
    if (inst.state == InstanceState::kRunning) out.push_back(id);
  }
  return out;
}

int64_t SimCloud::BilledPeriods(const Instance& inst, Time now) const {
  // Billing starts when the machine becomes useful (running) and rounds up
  // to whole periods, like 2009 EC2 hours. Instances terminated while still
  // booting are free (the provider never delivered them).
  if (inst.running_at < 0) return 0;  // never ran: booting or cancelled boot
  Time start = inst.running_at;
  Time end = inst.state == InstanceState::kTerminated ? inst.terminated_at : now;
  if (end <= start) return 1;  // a started period bills in full
  Duration used = end - start;
  return (used + kBillingPeriod - 1) / kBillingPeriod;
}

int64_t SimCloud::TotalBilledPeriods(Time now) const {
  int64_t periods = 0;
  for (const auto& [id, inst] : instances_) periods += BilledPeriods(inst, now);
  return periods;
}

int64_t SimCloud::TotalCostMicros(Time now) const {
  return TotalBilledPeriods(now) * kPricePerPeriodMicros;
}

}  // namespace scads
