// scads::Scads — the public facade of the system.
//
// Assembles the full SCADS stack on a deterministic simulation: cloud
// provider, network, storage nodes, partitioned+replicated routing,
// declarative consistency enforcement, the restricted query language with
// asynchronous index maintenance, and the ML-driven Director.
//
// Typical use (see examples/quickstart.cc):
//
//   ScadsOptions options;
//   options.consistency_spec = "staleness: 10s\nwrites: last_write_wins\n";
//   auto scads = Scads::Create(options);
//   (*scads)->DefineEntity(...);
//   (*scads)->RegisterQuery("friends", "SELECT p.* FROM ... WITH DEADLINE 50ms");
//   (*scads)->Start();
//   (*scads)->PutRowSync("profiles", row, RequestOptions{});
//   RequestOptions fresh;                       // per-request dial
//   fresh.max_staleness = 500 * kMillisecond;   // tighter than the spec
//   fresh.deadline = 10 * kMillisecond;         // total latency budget
//   auto rows = (*scads)->QuerySync("friends", {{"user_id", Value(7)}}, fresh);

#ifndef SCADS_CORE_SCADS_H_
#define SCADS_CORE_SCADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_directory.h"
#include "cache/read_cache.h"
#include "cluster/cluster_state.h"
#include "cluster/coalescer.h"
#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "consistency/durability.h"
#include "consistency/session.h"
#include "consistency/sla.h"
#include "consistency/spec.h"
#include "consistency/staleness.h"
#include "consistency/write_policy.h"
#include "core/scads_client.h"
#include "director/director.h"
#include "index/executor.h"
#include "index/maintenance.h"
#include "index/update_queue.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/schema.h"
#include "sim/cloud.h"
#include "sim/event_loop.h"
#include "sim/failure.h"
#include "sim/network.h"

namespace scads {

/// Construction-time options for a SCADS deployment.
struct ScadsOptions {
  uint64_t seed = 42;
  /// Fleet size at Start() (the Director may grow/shrink it afterwards).
  int initial_nodes = 3;
  /// Initial partition count (ranges split uniformly over the key space).
  int partitions = 16;
  /// Declarative consistency spec (textual form of consistency/spec.h).
  /// Empty = defaults.
  std::string consistency_spec;
  /// Developer merge function (required when the spec says `writes: merge`).
  MergeFunction merge_function;
  /// Failure model used to size replication for the durability SLA.
  FailureModel failure_model;
  /// Autoscaling on/off.
  bool enable_director = false;
  /// Index update queue policy (kFifo is the ablation baseline).
  QueuePolicy queue_policy = QueuePolicy::kDeadline;
  /// Staleness-aware read cache (off by default; when enabled, point reads
  /// and bounded scans are served from cache while within the spec's
  /// staleness bound).
  CacheConfig cache_config;
  /// Cross-request read coalescing (off by default; when enabled, concurrent
  /// same-key point reads share one node round trip and same-node reads
  /// merge into one message within the hold window — each request's own
  /// staleness/min_version/deadline bounds still hold). staleness_bound is
  /// filled from the consistency spec unless set explicitly.
  CoalescerConfig coalescer_config;
  /// Measured liveness (on by default): the heartbeat failure detector is
  /// armed at Start(), so a silent node is treated as dead even when no
  /// oracle flipped its flag. Disable for experiments that want purely
  /// administrative liveness.
  bool enable_failure_detection = true;
  /// Larger-than-memory storage (off by default; when enabled every node
  /// runs the paged engine — skiplist memtable over a buffer-pooled page
  /// tier — instead of the RAM-only engine). Copied into
  /// node_config.paged_storage at Create().
  PagedStorageConfig paged_storage_config;

  NodeConfig node_config;
  NetworkConfig network_config;
  CloudConfig cloud_config;
  RouterConfig router_config;
  DirectorConfig director_config;
};

/// A SCADS deployment (simulation-backed).
class Scads {
 public:
  /// Validates options and builds the substrate (no nodes yet).
  static Result<std::unique_ptr<Scads>> Create(ScadsOptions options);

  ~Scads();
  Scads(const Scads&) = delete;
  Scads& operator=(const Scads&) = delete;

  // --- DDL (before Start) ------------------------------------------------

  /// Declares an entity (with fan-out caps; see query/schema.h).
  Status DefineEntity(EntityDef entity);

  /// Parses, analyzes, and compiles a query template. Rejection statuses
  /// carry the scale-independence reason (the paper's §3.2 behaviour).
  Result<QueryBounds> RegisterQuery(const std::string& name, const std::string& sql);

  // --- lifecycle -----------------------------------------------------------

  /// Boots the initial fleet (simulated boot delay elapses inside), builds
  /// the partition map with the durability-planned replication factor, and
  /// starts the Director when enabled.
  Status Start();

  /// Advances simulated time.
  void RunFor(Duration duration);
  /// Advances until the index-update queue is idle (bounded by `max_wait`).
  void DrainIndexQueue(Duration max_wait = 5 * kMinute);

  // --- data plane ----------------------------------------------------------
  //
  // Every operation takes a RequestOptions context: staleness override,
  // read mode, deadline budget, session version floor, priority (see
  // common/request_options.h) — pass RequestOptions{} for the defaults.
  // The async methods are the core; each *Sync form is the same call
  // through one generic wrapper that pumps the simulation until the
  // callback fires.

  /// Upserts a row (write policy per the consistency spec) and triggers
  /// index maintenance from the record the write replaced and the image it
  /// stored, both reported by the write itself. A last-write-wins write
  /// makes one client->node exchange; the CAS modes (serializable, merge)
  /// make two, since their CAS read is the old image. A write the primary
  /// dropped as superseded (its version was not newer than the stored
  /// one) triggers no maintenance. The deadline budget spans every
  /// exchange.
  void PutRow(const std::string& entity, const Row& row, RequestOptions options,
              std::function<void(Status)> callback);
  Status PutRowSync(const std::string& entity, const Row& row, RequestOptions options);

  /// Deletes a row by its key fields in one exchange; the tombstone's
  /// reply carries the row it replaced, which index maintenance removes. A
  /// superseded delete triggers no maintenance.
  void DeleteRow(const std::string& entity, const Row& row, RequestOptions options,
                 std::function<void(Status)> callback);
  Status DeleteRowSync(const std::string& entity, const Row& row, RequestOptions options);

  /// Point-reads a row by key under the request's effective staleness
  /// bound (the per-request override when present, the spec bound
  /// otherwise).
  void GetRow(const std::string& entity, const Row& key_row, RequestOptions options,
              std::function<void(Result<Row>)> callback);
  Result<Row> GetRowSync(const std::string& entity, const Row& key_row, RequestOptions options);

  /// Executes a registered query. Per-template bounds from the WITH clause
  /// are the defaults; explicit `options` fields override them. Outcomes
  /// are accounted per template in template_sla().
  void Query(const std::string& name, const ParamMap& params, RequestOptions options,
             std::function<void(Result<std::vector<Row>>)> callback);
  Result<std::vector<Row>> QuerySync(const std::string& name, const ParamMap& params,
                                     RequestOptions options);

  /// New client session honouring the spec's session guarantees.
  std::unique_ptr<SessionClient> NewSession();

  /// Cheap copyable data-plane handle over this deployment's router —
  /// thread-safe to copy and use from any thread on a threaded backend
  /// (the facade itself, like the sim, is single-threaded control plane).
  ScadsClient NewClient();

  // --- introspection ---------------------------------------------------

  EventLoop* loop() { return &loop_; }
  SimNetwork* network() { return &network_; }
  SimCloud* cloud() { return &cloud_; }
  FailureInjector* failures() { return &failures_; }
  ClusterState* cluster() { return &cluster_; }
  Router* router() { return router_.get(); }
  Rebalancer* rebalancer() { return rebalancer_.get(); }
  UpdateQueue* update_queue() { return &update_queue_; }
  IndexMaintainer* maintainer() { return maintainer_.get(); }
  QueryExecutor* executor() { return executor_.get(); }
  Director* director() { return director_.get(); }
  WritePolicy* write_policy() { return write_policy_.get(); }
  StalenessController* staleness() { return staleness_.get(); }
  /// Per-query-template SLA ledger (issued / ok / deadline_exceeded per
  /// registered template, with its WITH-clause bounds).
  TemplateSlaAccountant* template_sla() { return &template_sla_; }
  CacheDirectory* cache() { return cache_.get(); }
  ReadCoalescer* coalescer() { return coalescer_.get(); }
  /// Deployment-wide registry (cache.point.* / cache.scan.* counters live
  /// here; per-engine counters stay on the nodes).
  MetricRegistry* metrics() { return &metrics_; }
  const Catalog& catalog() const { return catalog_; }
  const ConsistencySpec& spec() const { return spec_; }
  const DurabilityPlan& durability_plan() const { return durability_plan_; }
  const std::map<std::string, QueryPlan>& queries() const { return queries_; }

  /// The Figure-3 maintenance table for everything registered.
  std::string RenderMaintenanceTable() const;

 private:
  explicit Scads(ScadsOptions options);

  /// Tighten-only enforcement: an options staleness override looser than
  /// the deployment spec is clamped to the spec bound.
  void ClampStaleness(RequestOptions* options) const;

  StorageNode* MakeNode(NodeId id);
  template <typename T>
  T AwaitSync(std::function<void(std::function<void(T)>)> start, Duration max_wait);

  ScadsOptions options_;
  EventLoop loop_;
  SimNetwork network_;
  SimCloud cloud_;
  FailureInjector failures_;
  ClusterState cluster_;
  Catalog catalog_;
  ConsistencySpec spec_;
  DurabilityPlan durability_plan_;
  UpdateQueue update_queue_;
  MetricRegistry metrics_;
  TemplateSlaAccountant template_sla_;

  std::unique_ptr<CacheDirectory> cache_;
  std::unique_ptr<ReadCoalescer> coalescer_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Rebalancer> rebalancer_;
  std::unique_ptr<WritePolicy> write_policy_;
  std::unique_ptr<StalenessController> staleness_;
  std::unique_ptr<IndexMaintainer> maintainer_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<Director> director_;

  std::map<NodeId, std::unique_ptr<StorageNode>> nodes_;
  std::map<std::string, QueryPlan> queries_;
  bool started_ = false;
};

}  // namespace scads

#endif  // SCADS_CORE_SCADS_H_
