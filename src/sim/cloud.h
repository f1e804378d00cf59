// Simulated utility-computing provider (the paper's EC2 substitution).
//
// Captures the two economic properties SCADS depends on (paper §1, §2.1):
//   1. capacity is not instant — instances take ~minutes to boot, so the
//      Director must provision *ahead* of demand;
//   2. billing is per machine-hour, so idle capacity costs real money and
//      scale-*down* is worth engineering for.

#ifndef SCADS_SIM_CLOUD_H_
#define SCADS_SIM_CLOUD_H_

#include <functional>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/event_loop.h"

namespace scads {

/// Provider tunables. Defaults approximate 2008-era EC2 m1.small.
struct CloudConfig {
  /// Mean instance boot time (request -> running).
  Duration boot_delay_mean = 90 * kSecond;
  /// Uniform +/- jitter applied to the boot time.
  Duration boot_delay_jitter = 30 * kSecond;
  /// Hard instance cap (provider quota).
  int max_instances = 1 << 20;
};

/// Lifecycle of one rented machine.
enum class InstanceState { kBooting, kRunning, kTerminated };

/// Rental record for one instance.
struct Instance {
  NodeId id = kInvalidNode;
  InstanceState state = InstanceState::kBooting;
  Time requested_at = 0;
  Time running_at = -1;     ///< -1 until the instance reaches kRunning.
  Time terminated_at = -1;  ///< -1 until the instance is terminated.
};

/// The simulated provider. Instance ids are NodeIds (dense, never reused) so
/// the cluster can use them directly.
class SimCloud {
 public:
  /// Price per billing period, in micro-dollars ($0.10/hour). Billing
  /// rounds *up* to whole hours, as EC2 did.
  static constexpr int64_t kPricePerPeriodMicros = 100000;

  SimCloud(EventLoop* loop, uint64_t seed, CloudConfig config = {});

  /// Called when an instance finishes booting.
  void set_instance_ready_callback(std::function<void(NodeId)> cb) {
    instance_ready_ = std::move(cb);
  }

  /// Asks for one new instance. The id is assigned immediately; the ready
  /// callback fires after the boot delay. Fails when the quota is exhausted.
  Result<NodeId> RequestInstance();

  /// Convenience: requests `n` instances, returns their ids.
  std::vector<NodeId> RequestInstances(int n);

  /// Stops billing and (if still booting) cancels the pending boot.
  Status TerminateInstance(NodeId id);

  const Instance* Get(NodeId id) const;

  int running_count() const { return running_; }
  int booting_count() const { return booting_; }
  /// Instances that are booting or running (i.e. being billed or about to
  /// be).
  int active_count() const { return running_ + booting_; }

  std::vector<NodeId> RunningInstances() const;

  /// Total bill in micro-dollars as of `now`, charging every started
  /// billing period for running and terminated instances.
  int64_t TotalCostMicros(Time now) const;

  /// Total billed machine-hours.
  int64_t TotalBilledPeriods(Time now) const;

  const CloudConfig& config() const { return config_; }

 private:
  int64_t BilledPeriods(const Instance& inst, Time now) const;

  EventLoop* loop_;
  Rng rng_;
  CloudConfig config_;
  std::function<void(NodeId)> instance_ready_;
  std::map<NodeId, Instance> instances_;
  std::map<NodeId, EventLoop::EventId> pending_boot_;
  NodeId next_id_ = 0;
  int running_ = 0;
  int booting_ = 0;
};

}  // namespace scads

#endif  // SCADS_SIM_CLOUD_H_
