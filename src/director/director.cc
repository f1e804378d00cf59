#include "director/director.h"

#include <algorithm>
#include <cmath>

#include "cache/cache_directory.h"
#include "common/logging.h"
#include "common/strings.h"

namespace scads {

Director::Director(EventLoop* loop, SimCloud* cloud, ClusterState* cluster,
                   Rebalancer* rebalancer, std::vector<Router*> routers, DirectorConfig config,
                   NodeFactory factory)
    : loop_(loop),
      cloud_(cloud),
      cluster_(cluster),
      rebalancer_(rebalancer),
      routers_(std::move(routers)),
      config_(config),
      factory_(std::move(factory)),
      sla_monitor_(config.sla) {}

void Director::LogEvent(const std::string& kind, const std::string& detail) {
  events_.push_back(DirectorEvent{loop_->Now(), kind, detail});
}

void Director::Start() {
  cloud_->set_instance_ready_callback([this](NodeId id) { OnInstanceReady(id); });
  int deficit = config_.min_nodes - cloud_->active_count();
  if (deficit > 0) ScaleUp(deficit);
  control_event_ =
      loop_->SchedulePeriodic(config_.control_interval, [this] { ControlTick(); });
}

void Director::Stop() {
  if (control_event_ != EventLoop::kInvalidEvent) {
    loop_->Cancel(control_event_);
    control_event_ = EventLoop::kInvalidEvent;
  }
}

void Director::OnInstanceReady(NodeId id) {
  StorageNode* node = factory_(id);
  if (node == nullptr) {
    LogEvent("factory_failed", StrFormat("node %d", id));
    return;
  }
  Status added = cluster_->AddNode(id, node);
  if (!added.ok()) {
    LogEvent("add_failed", added.ToString());
    return;
  }
  node->Start();
  LogEvent("node_ready", StrFormat("node %d joined", id));
  RebalanceOnto(id);
}

void Director::RebalanceOnto(NodeId new_node) {
  // Move partition replicas from the most-loaded nodes until the newcomer
  // holds roughly the per-node average.
  const PartitionMap& map = *cluster_->partitions();
  size_t total_slots = 0;
  for (const PartitionInfo& p : map.partitions()) total_slots += p.replicas.size();
  size_t node_count = cluster_->AliveNodes().size();
  if (node_count == 0) return;
  size_t target = std::max<size_t>(1, total_slots / node_count);

  // Build per-node replica counts.
  std::map<NodeId, size_t> counts;
  for (const PartitionInfo& p : map.partitions()) {
    for (NodeId replica : p.replicas) counts[replica]++;
  }
  size_t have = counts[new_node];
  int moves = 0;
  // Iterate donors from most-loaded.
  while (have < target && moves < 64) {
    NodeId donor = kInvalidNode;
    size_t donor_count = target;  // only take from nodes above the average
    for (const auto& [node, count] : counts) {
      if (node == new_node || draining_.count(node) > 0) continue;
      if (count > donor_count) {
        donor_count = count;
        donor = node;
      }
    }
    if (donor == kInvalidNode) break;
    // Pick one movable partition on the donor.
    PartitionId pick = -1;
    for (const PartitionInfo& p : map.partitions()) {
      if (rebalancer_->IsMoving(p.id)) continue;
      if (std::find(p.replicas.begin(), p.replicas.end(), donor) == p.replicas.end()) continue;
      if (std::find(p.replicas.begin(), p.replicas.end(), new_node) != p.replicas.end()) {
        continue;
      }
      pick = p.id;
      break;
    }
    if (pick < 0) break;
    rebalancer_->MoveReplica(pick, donor, new_node, [this, pick](Status status) {
      if (!status.ok()) {
        LogEvent("move_failed", StrFormat("partition %d: %s", pick, status.ToString().c_str()));
      }
    });
    counts[donor]--;
    counts[new_node]++;
    have++;
    ++moves;
  }
  if (moves > 0) {
    LogEvent("rebalance", StrFormat("moved %d partitions onto node %d", moves, new_node));
  }
}

void Director::ScaleUp(int count) {
  count = std::min(count, config_.max_step_up);
  if (count <= 0) return;
  int before = cloud_->active_count();
  int room = config_.max_nodes - before;
  count = std::min(count, room);
  if (count <= 0) return;
  cloud_->RequestInstances(count);
  ++scale_ups_;
  LogEvent("scale_up", StrFormat("+%d instances (active %d -> %d)", count, before,
                                 before + count));
}

void Director::ScaleDown(int count) {
  count = std::min(count, config_.max_step_down);
  if (count <= 0) return;
  // Candidates: alive nodes, newest first (highest id), not draining.
  std::vector<NodeId> alive = cluster_->AliveNodes();
  std::sort(alive.begin(), alive.end(), std::greater<>());
  int removed = 0;
  for (NodeId victim : alive) {
    if (removed >= count) break;
    if (draining_.count(victim) > 0) continue;
    if (static_cast<int>(alive.size()) - static_cast<int>(draining_.size()) - removed <=
        config_.min_nodes) {
      break;
    }
    // Drain targets: every other alive, non-draining node.
    std::vector<NodeId> targets;
    for (NodeId node : alive) {
      if (node != victim && draining_.count(node) == 0) targets.push_back(node);
    }
    if (targets.empty()) break;
    draining_.insert(victim);
    LogEvent("drain", StrFormat("draining node %d", victim));
    rebalancer_->DrainNode(victim, targets, [this, victim](Status status) {
      draining_.erase(victim);
      if (!status.ok()) {
        LogEvent("drain_failed", StrFormat("node %d: %s", victim, status.ToString().c_str()));
        return;
      }
      StorageNode* node = cluster_->GetNode(victim);
      if (node != nullptr) node->Stop();
      (void)cluster_->RemoveNode(victim);
      Status terminated = cloud_->TerminateInstance(victim);
      LogEvent("terminate", StrFormat("node %d released (%s)", victim,
                                      terminated.ok() ? "ok" : terminated.ToString().c_str()));
    });
    ++removed;
  }
  if (removed > 0) ++scale_downs_;
}

double Director::EstimateOfferedRate() {
  if (offered_rate_probe_) return offered_rate_probe_();
  // Fall back to busy-time deltas: rate ~ busy_us / (interval * service_us).
  int64_t busy_total = 0;
  for (NodeId id : cluster_->AliveNodes()) {
    StorageNode* node = cluster_->GetNode(id);
    if (node != nullptr) busy_total += node->stats().busy_micros;
  }
  Time now = loop_->Now();
  double rate = 0;
  if (last_tick_at_ > 0 && now > last_tick_at_) {
    double busy_delta = static_cast<double>(busy_total - last_busy_total_);
    double interval_s = static_cast<double>(now - last_tick_at_) / kSecond;
    // 140us default mean service (kept in sync with DriverConfig default).
    rate = busy_delta / 140.0 / interval_s;
  }
  last_busy_total_ = busy_total;
  last_tick_at_ = now;
  return rate;
}

void Director::ControlTick() {
  Time now = loop_->Now();
  // 1. Observe.
  RouterWindow window;
  for (Router* router : routers_) window.MergeFrom(router->TakeWindow());
  SlaReport report = sla_monitor_.Evaluate(window, now);
  double observed_rate = EstimateOfferedRate();

  // 2. Learn.
  forecaster_.Observe(observed_rate);
  size_t alive = cluster_->AliveNodes().size();
  if (alive > 0 && report.reads >= 20) {
    latency_model_.Observe(observed_rate / static_cast<double>(alive),
                           report.read_latency_at_quantile, config_.sla.read_latency_bound);
  }

  // 3. Decide.
  double lead_steps = static_cast<double>(config_.forecast_lead) /
                      static_cast<double>(config_.control_interval);
  double planning_rate = config_.use_forecasting
                             ? std::max(observed_rate, forecaster_.Forecast(lead_steps))
                             : observed_rate;
  // Sustainable per-node rate: the model's inverted latency curve (with
  // utilization headroom) once it has enough samples, floored by hard
  // evidence — a rate the fleet has already served inside the bound is a
  // safe operating point as-is (no second headroom division, which would
  // otherwise feed back into unbounded growth).
  double usable_per_node = config_.default_rate_per_node * config_.target_utilization;
  if (latency_model_.sample_count() >= 10) {
    double inverted = latency_model_.MaxRateWithinBound(config_.sla.read_latency_bound);
    if (inverted > 1e-9) usable_per_node = inverted * config_.target_utilization;
  }
  usable_per_node = std::max(usable_per_node, latency_model_.max_compliant_rate());
  int desired = std::max(
      config_.min_nodes,
      static_cast<int>(std::ceil(planning_rate / std::max(1e-9, usable_per_node))));
  // Emergency boost: the SLA is being violated right now — grow faster than
  // the model suggests.
  if (!report.ok() && desired <= static_cast<int>(alive)) {
    desired = static_cast<int>(alive) + std::max(1, static_cast<int>(alive / 4));
  }
  // Index-queue pressure: drain risk means more capacity.
  if (update_queue_ != nullptr && update_queue_->depth() > 0) {
    Time earliest = update_queue_->earliest_deadline();
    if (earliest != std::numeric_limits<Time>::max() && earliest < now + config_.control_interval) {
      desired = std::max(desired, static_cast<int>(alive) + 1);
    }
  }
  desired = std::min(desired, config_.max_nodes);

  // 4. Act.
  int active = cloud_->active_count() - static_cast<int>(draining_.size());
  if (desired > active) {
    surplus_windows_ = 0;
    ScaleUp(desired - active);
  } else if (desired < active) {
    ++surplus_windows_;
    if (surplus_windows_ >= config_.scale_down_patience) {
      ScaleDown(active - desired);
      surplus_windows_ = 0;
    }
  } else {
    surplus_windows_ = 0;
  }

  MaybeRepairReplicas();

  DirectorSnapshot snapshot;
  snapshot.at = now;
  snapshot.observed_rate = observed_rate;
  snapshot.forecast_rate = planning_rate;
  snapshot.desired_nodes = desired;
  snapshot.running = cloud_->running_count();
  snapshot.booting = cloud_->booting_count();
  snapshot.latency_at_quantile = report.read_latency_at_quantile;
  snapshot.availability = report.availability;
  snapshot.sla_ok = report.ok();
  snapshot.replica_picks = window.replica_picks;
  snapshot.replica_steers = window.replica_steers;
  snapshot.suspected_nodes = cluster_->SuspectedCount();
  snapshot.under_replicated_partitions = CountUnderReplicated();
  snapshot.repairs_completed = repairs_completed_;
  snapshot.last_restore_time = last_restore_time_;
  // Cache rollup: windowed deltas of the shared directory's atomic
  // counters. Many routers may feed one directory, so this total — not any
  // single router's view — is the "reads that never reached storage" rate.
  if (cache_ != nullptr) {
    int64_t hits = cache_->point_hit_total();
    int64_t misses = cache_->point_miss_total();
    snapshot.cache_point_hits = hits - last_cache_hits_;
    snapshot.cache_point_misses = misses - last_cache_misses_;
    last_cache_hits_ = hits;
    last_cache_misses_ = misses;
  }

  // Node-side overload: per-priority admission sheds this window and the
  // worst queue backlog right now. Deltas are tracked per node so fleet
  // churn (a node dying, then rejoining with its lifetime counters) never
  // shows up as a spurious one-window shed spike.
  int64_t window_sheds[3] = {0, 0, 0};
  for (NodeId id : cluster_->AliveNodes()) {
    StorageNode* node = cluster_->GetNode(id);
    if (node == nullptr) continue;
    std::array<int64_t, 3>& last = last_node_sheds_[id];
    for (int p = 0; p < 3; ++p) {
      int64_t total = node->stats().shed_by_priority[p];
      // A counter below the baseline means a fresh node reused the id.
      window_sheds[p] += std::max<int64_t>(0, total - last[p]);
      last[p] = total;
    }
    snapshot.max_node_queue_delay =
        std::max(snapshot.max_node_queue_delay, node->queue_delay());
    // Paged-storage health: resident bytes are a gauge (sampled), fault and
    // write-back counters are windowed deltas with the same churn guard.
    snapshot.engine_resident_bytes += node->engine()->bytes_resident();
    std::array<int64_t, 2>& paging = last_node_paging_[id];
    int64_t faults = node->engine()->metrics().CounterValue("page_faults");
    int64_t written = node->engine()->metrics().CounterValue("pages_written_back");
    snapshot.page_faults += std::max<int64_t>(0, faults - paging[0]);
    snapshot.pages_written_back += std::max<int64_t>(0, written - paging[1]);
    paging[0] = faults;
    paging[1] = written;
  }
  // Drop baselines only for instances gone from the registry entirely; a
  // dead-but-registered node keeps its baseline for when it rejoins.
  for (auto it = last_node_sheds_.begin(); it != last_node_sheds_.end();) {
    it = cluster_->GetNode(it->first) == nullptr ? last_node_sheds_.erase(it) : std::next(it);
  }
  for (auto it = last_node_paging_.begin(); it != last_node_paging_.end();) {
    it = cluster_->GetNode(it->first) == nullptr ? last_node_paging_.erase(it) : std::next(it);
  }
  snapshot.sheds_low = window_sheds[0];
  snapshot.sheds_normal = window_sheds[1];
  snapshot.sheds_high = window_sheds[2];
  if (snapshot.sheds_normal + snapshot.sheds_high > 0) {
    // Priority admission ran out of kLow work to drop — the overload has
    // reached interactive traffic.
    LogEvent("overload_shed",
             StrFormat("window sheds by priority: low=%lld normal=%lld high=%lld",
                       static_cast<long long>(snapshot.sheds_low),
                       static_cast<long long>(snapshot.sheds_normal),
                       static_cast<long long>(snapshot.sheds_high)));
  }
  history_.push_back(snapshot);
}

int Director::CountUnderReplicated() const {
  int under = 0;
  for (const PartitionInfo& partition : cluster_->partitions()->partitions()) {
    for (NodeId replica : partition.replicas) {
      if (!cluster_->IsAlive(replica)) {
        ++under;
        break;
      }
    }
  }
  return under;
}

void Director::MaybeRepairReplicas() {
  if (config_.re_replication_time <= 0) return;
  Time now = loop_->Now();
  // Track how long each registered node has been continuously dead —
  // administratively down or declared dead by the failure detector. A node
  // that comes back (reboot + delta-sync) clears its clock; only sustained
  // absence triggers re-replication.
  for (NodeId id : cluster_->AllNodes()) {
    if (cluster_->IsAlive(id)) {
      down_since_.erase(id);
    } else {
      down_since_.emplace(id, now);
    }
  }
  for (auto it = down_since_.begin(); it != down_since_.end();) {
    it = cluster_->GetNode(it->first) == nullptr ? down_since_.erase(it) : std::next(it);
  }
  const Duration declare_lost = static_cast<Duration>(
      config_.repair_after_fraction * static_cast<double>(config_.re_replication_time));
  for (const auto& [dead, since] : down_since_) {
    if (now - since < declare_lost) continue;
    // Re-replicate every partition that still counts the lost node as a
    // replica. Iteration is over the stable partition vector; repairs only
    // mutate the inner replica sets.
    for (const PartitionInfo& partition : cluster_->partitions()->partitions()) {
      PartitionId pid = partition.id;
      const auto& replicas = partition.replicas;
      if (std::find(replicas.begin(), replicas.end(), dead) == replicas.end()) continue;
      if (repairing_.count(pid) > 0 || rebalancer_->IsMoving(pid)) continue;
      if (replicas.size() <= 1) {
        // Nothing to copy from — the data is gone unless the node returns.
        LogEvent("repair_blocked",
                 StrFormat("partition %d lost its only replica (node %d)", pid,
                           static_cast<int>(dead)));
        continue;
      }
      // Drop the lost replica first: when it led the partition, the
      // longest-streaming secondary is promoted and becomes the copy source.
      Status removed = rebalancer_->RemoveReplica(pid, dead);
      if (!removed.ok()) continue;
      const PartitionInfo* current = cluster_->partitions()->Get(pid);
      if (current == nullptr) continue;
      NodeId source = kInvalidNode;
      for (NodeId candidate : current->replicas) {
        if (cluster_->IsAlive(candidate)) {
          source = candidate;
          break;
        }
      }
      if (source == kInvalidNode) {
        LogEvent("repair_blocked",
                 StrFormat("partition %d has no live replica to copy from", pid));
        continue;
      }
      // Restore target: the least-loaded live node that is not already a
      // replica and not being drained — the same pressure vocabulary the
      // drain path uses, so repair never piles onto a node in trouble.
      NodeId target = kInvalidNode;
      double best_pressure = 0;
      for (NodeId candidate : cluster_->AliveNodes()) {
        if (draining_.count(candidate) > 0) continue;
        if (std::find(current->replicas.begin(), current->replicas.end(), candidate) !=
            current->replicas.end()) {
          continue;
        }
        double pressure = cluster_->NodeLoad(candidate).Pressure();
        if (target == kInvalidNode || pressure < best_pressure) {
          target = candidate;
          best_pressure = pressure;
        }
      }
      if (target == kInvalidNode) {
        LogEvent("repair_blocked",
                 StrFormat("partition %d: no eligible node to restore onto", pid));
        continue;
      }
      repairing_.insert(pid);
      Time failed_at = since;
      LogEvent("repair",
               StrFormat("partition %d: node %d lost, copying %d -> %d", pid,
                         static_cast<int>(dead), static_cast<int>(source),
                         static_cast<int>(target)));
      rebalancer_->CopyReplica(
          pid, source, target, [this, pid, failed_at, target](Status status) {
            repairing_.erase(pid);
            if (status.ok()) {
              ++repairs_completed_;
              last_restore_time_ = loop_->Now() - failed_at;
              LogEvent("repair_done",
                       StrFormat("partition %d restored onto node %d in %lld us", pid,
                                 static_cast<int>(target),
                                 static_cast<long long>(last_restore_time_)));
            } else {
              LogEvent("repair_failed", StrFormat("partition %d: ", pid) +
                                            std::string(status.message()));
            }
          });
    }
  }
}

}  // namespace scads
