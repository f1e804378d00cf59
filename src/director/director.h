// The Director: SCADS's provisioning feedback loop (paper Figure 2).
//
// Every control interval it:
//   1. samples the routers' latency/availability windows and the nodes'
//      load counters ("workload" and "SLA violations" inputs of Figure 2);
//   2. trains the ML models — a Holt forecaster over the offered rate and a
//      latency-vs-load regression ("performance models");
//   3. decides the fleet size that keeps the *forecast* load inside the SLA
//      with headroom ("policy"); forecasting is what buys back the cloud's
//      boot latency — a reactive policy (ablation switch) only reacts after
//      the violation has begun;
//   4. acts on the cloud: request instances, or drain-and-terminate them
//      when sustained headroom says the money is being wasted (§2.1's
//      scale-*down* economics).
//
// New instances join the cluster through a NodeFactory and receive partition
// replicas from the most-loaded nodes via the Rebalancer — scale-up without
// downtime.

#ifndef SCADS_DIRECTOR_DIRECTOR_H_
#define SCADS_DIRECTOR_DIRECTOR_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "consistency/sla.h"
#include "index/update_queue.h"
#include "ml/forecaster.h"
#include "ml/latency_model.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"

namespace scads {

class CacheDirectory;

/// Director tunables.
struct DirectorConfig {
  Duration control_interval = 15 * kSecond;
  int min_nodes = 2;
  int max_nodes = 1 << 20;
  /// Provision for the rate forecast this far ahead (covers boot delay).
  Duration forecast_lead = 3 * kMinute;
  /// Assumed per-node sustainable rate before the model has learned one.
  double default_rate_per_node = 2000;
  /// Provision such that predicted load uses at most this fraction of
  /// capacity.
  double target_utilization = 0.65;
  /// Consecutive surplus windows required before scaling down.
  int scale_down_patience = 8;
  int max_step_up = 512;
  int max_step_down = 4;
  /// Ablation switch: false = reactive policy (no forecasting).
  bool use_forecasting = true;
  /// Self-healing: when a replica's node stays dead (administratively or by
  /// the failure detector) past repair_after_fraction of
  /// re_replication_time, the Director drops it from the replica set
  /// (promoting a live secondary when the primary died) and copies the
  /// partition from a surviving replica onto the least-loaded live node.
  /// re_replication_time is the durability model's assumed restore window
  /// (PlanDurability input) — the repair must land inside it for the
  /// modelled data-loss probability to hold. Zero disables repair.
  Duration re_replication_time = 0;
  /// Fraction of re_replication_time to wait before declaring the replica
  /// lost (the rest is budget for the copy itself). Waiting distinguishes a
  /// reboot — which catches up by delta-sync on its own — from a loss.
  double repair_after_fraction = 0.25;
  PerformanceSla sla;
};

/// One loop iteration's record (drives the Figure-2 trace output).
struct DirectorSnapshot {
  Time at = 0;
  double observed_rate = 0;
  double forecast_rate = 0;
  int desired_nodes = 0;
  int running = 0;
  int booting = 0;
  int64_t latency_at_quantile = 0;
  double availability = 1.0;
  bool sla_ok = true;
  /// Admission sheds observed fleet-wide this control window, by priority
  /// class — the node-side overload signal. A window shedding kNormal or
  /// kHigh work means priority admission has run out of kLow to drop.
  int64_t sheds_low = 0;
  int64_t sheds_normal = 0;
  int64_t sheds_high = 0;
  /// Worst per-node explicit queue backlog sampled at the tick (us).
  Duration max_node_queue_delay = 0;
  /// Read-routing policy activity this window (merged RouterWindow
  /// counters): how many load-spreading replica picks the selectors made,
  /// and how many of those load steered away from the first sample. A
  /// rising steer fraction is the routers-side signal that some replica is
  /// hot — corroborating the node-side shed/backlog signals above, but
  /// visible *before* sheds start.
  int64_t replica_picks = 0;
  int64_t replica_steers = 0;
  /// Paged-storage health, fleet-wide: bytes resident in engine memory
  /// (memtables + buffer pools, sampled at the tick) and this window's page
  /// faults and completed write-backs (per-node counter deltas, churn-safe
  /// like the shed deltas). All zero for RAM-only fleets. A fault rate that
  /// climbs while resident bytes sit at the pool cap is the working-set-
  /// exceeds-memory signal — capacity pressure scaling CPU metrics miss.
  int64_t engine_resident_bytes = 0;
  int64_t page_faults = 0;
  int64_t pages_written_back = 0;
  /// Self-healing telemetry: registered nodes the failure detector currently
  /// suspects, partitions with at least one dead replica at the tick,
  /// cumulative completed re-replications, and the wall time from the last
  /// repaired node's failure to its replacement replica being fully
  /// restored (0 until a repair completes). The restore time is the
  /// *measured* counterpart of the durability model's assumed
  /// re_replication_time.
  int suspected_nodes = 0;
  int under_replicated_partitions = 0;
  int64_t repairs_completed = 0;
  Duration last_restore_time = 0;
  /// Read-cache activity this window (deltas of the attached
  /// CacheDirectory's atomic counters, which aggregate across every router
  /// sharing the directory). The hit fraction is the "reads that never
  /// touched a storage node" signal the scale model wants alongside
  /// observed_rate; both zero when no cache is attached.
  int64_t cache_point_hits = 0;
  int64_t cache_point_misses = 0;
};

/// Free-form action log entry ("scale_up 12", "drain node 40", ...).
struct DirectorEvent {
  Time at = 0;
  std::string kind;
  std::string detail;
};

/// The control loop.
class Director {
 public:
  /// Creates (and owns elsewhere) the StorageNode for a fresh instance id;
  /// the Director registers and starts it.
  using NodeFactory = std::function<StorageNode*(NodeId)>;

  Director(EventLoop* loop, SimCloud* cloud, ClusterState* cluster, Rebalancer* rebalancer,
           std::vector<Router*> routers, DirectorConfig config, NodeFactory factory);

  /// Optional: exact offered rate (requests/s) as seen by the application
  /// front-ends. Without it the Director estimates rate from node busy
  /// time.
  void set_offered_rate_probe(std::function<double()> probe) {
    offered_rate_probe_ = std::move(probe);
  }

  /// Optional: index update queue to watch for deadline pressure.
  void set_update_queue(UpdateQueue* queue) { update_queue_ = queue; }

  /// Optional: read cache whose point hit/miss totals roll into each
  /// snapshot (cache_point_hits / cache_point_misses).
  void set_cache(CacheDirectory* cache) { cache_ = cache; }

  /// Arms the control loop and wires the cloud-ready callback. Also brings
  /// the fleet up to min_nodes.
  void Start();
  void Stop();

  const std::vector<DirectorSnapshot>& history() const { return history_; }
  const std::vector<DirectorEvent>& events() const { return events_; }
  SlaMonitor* sla_monitor() { return &sla_monitor_; }
  HoltForecaster* forecaster() { return &forecaster_; }
  LatencyModel* latency_model() { return &latency_model_; }

  int64_t scale_ups() const { return scale_ups_; }
  int64_t scale_downs() const { return scale_downs_; }
  int64_t repairs_started() const { return repairs_started_; }
  int64_t repairs_completed() const { return repairs_completed_; }
  Duration last_restore_time() const { return last_restore_time_; }

 private:
  void ControlTick();
  void MaybeRepairReplicas();
  int CountUnderReplicated() const;
  void OnInstanceReady(NodeId id);
  void RebalanceOnto(NodeId new_node);
  void ScaleUp(int count);
  void ScaleDown(int count);
  double EstimateOfferedRate();
  void LogEvent(const std::string& kind, const std::string& detail);

  EventLoop* loop_;
  SimCloud* cloud_;
  ClusterState* cluster_;
  Rebalancer* rebalancer_;
  std::vector<Router*> routers_;
  DirectorConfig config_;
  NodeFactory factory_;
  std::function<double()> offered_rate_probe_;
  UpdateQueue* update_queue_ = nullptr;
  CacheDirectory* cache_ = nullptr;

  SlaMonitor sla_monitor_;
  HoltForecaster forecaster_;
  LatencyModel latency_model_;

  EventLoop::EventId control_event_ = EventLoop::kInvalidEvent;
  std::vector<DirectorSnapshot> history_;
  std::vector<DirectorEvent> events_;
  std::set<NodeId> draining_;
  int surplus_windows_ = 0;
  int64_t scale_ups_ = 0;
  int64_t scale_downs_ = 0;
  // Rate estimation from node counters.
  int64_t last_busy_total_ = 0;
  Time last_tick_at_ = 0;
  // Per-node per-priority shed totals at the last tick. Kept per node (not
  // as a fleet-wide sum) so a dead node rejoining doesn't replay its
  // lifetime sheds as one window's spurious overload spike.
  std::map<NodeId, std::array<int64_t, 3>> last_node_sheds_;
  // Per-node (page_faults, pages_written_back) totals at the last tick,
  // churn-protected the same way.
  std::map<NodeId, std::array<int64_t, 2>> last_node_paging_;
  // Cache counter totals at the last tick (the directory's counters are
  // cumulative and shared by every router attached to it).
  int64_t last_cache_hits_ = 0;
  int64_t last_cache_misses_ = 0;
  // Self-healing state: when each currently-dead node was first seen dead
  // (erased the tick it comes back — a bounce restarts the clock), and the
  // partitions with a repair copy in flight (so one loss isn't repaired
  // twice across ticks while its stream runs).
  std::map<NodeId, Time> down_since_;
  std::set<PartitionId> repairing_;
  int64_t repairs_started_ = 0;
  int64_t repairs_completed_ = 0;
  Duration last_restore_time_ = 0;
};

}  // namespace scads

#endif  // SCADS_DIRECTOR_DIRECTOR_H_
