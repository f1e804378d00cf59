#include "core/scads.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace scads {

namespace {
constexpr NodeId kRouterClientId = 1 << 20;  // outside the instance id range

/// The live row `record` holds: empty for no record, a tombstone, or an
/// image that does not decode.
std::optional<Row> LiveRow(const EntityDef& entity, const std::optional<Record>& record) {
  if (!record.has_value() || record->tombstone) return std::nullopt;
  Result<Row> row = DecodeRow(entity, record->value);
  if (!row.ok()) return std::nullopt;
  return std::move(row).value();
}

/// The engine applies a write only when its version is strictly newer than
/// the stored one, so a replaced record at or past the write's stamp means
/// the primary dropped the write as superseded: it changed nothing.
bool Superseded(const std::optional<Record>& replaced, Version stamp) {
  return replaced.has_value() && !(stamp > replaced->version);
}
}  // namespace

void Scads::ClampStaleness(RequestOptions* options) const {
  // Tighten-only: an ad-hoc override looser than the deployment spec would
  // bypass the guarantee RegisterQuery's WITH-clause validation protects.
  if (spec_.max_staleness > 0 && options->max_staleness.has_value() &&
      *options->max_staleness > spec_.max_staleness) {
    options->max_staleness = spec_.max_staleness;
  }
}

Scads::Scads(ScadsOptions options)
    : options_(options),
      loop_(),
      network_(&loop_, options.seed ^ 0x6e65740aULL, options.network_config),
      cloud_(&loop_, options.seed ^ 0x636c6f75ULL, options.cloud_config),
      failures_(&loop_, &network_, options.seed ^ 0x6661696cULL),
      update_queue_(&loop_) {}

Scads::~Scads() {
  if (director_ != nullptr) director_->Stop();
  for (auto& [id, node] : nodes_) node->Stop();
}

Result<std::unique_ptr<Scads>> Scads::Create(ScadsOptions options) {
  if (options.initial_nodes < 1) return InvalidArgumentError("initial_nodes < 1");
  if (options.partitions < 1) return InvalidArgumentError("partitions < 1");
  ConsistencySpec spec;
  if (!options.consistency_spec.empty()) {
    Result<ConsistencySpec> parsed = ParseConsistencySpec(options.consistency_spec);
    if (!parsed.ok()) return parsed.status();
    spec = *parsed;
  }
  if (spec.writes == WriteConsistency::kMergeFunction && options.merge_function == nullptr) {
    return InvalidArgumentError("spec requires a merge function; set options.merge_function");
  }
  auto scads = std::unique_ptr<Scads>(new Scads(options));
  scads->spec_ = spec;

  // Durability SLA -> replication plan (Figure 4's "Durability SLA" axis).
  Result<DurabilityPlan> plan =
      PlanDurability(spec.durability_probability, options.failure_model);
  if (!plan.ok()) return plan.status();
  scads->durability_plan_ = *plan;

  scads->cache_ = std::make_unique<CacheDirectory>(options.cache_config, spec.max_staleness,
                                                   &scads->metrics_);
  // The coalescer's follower freshness checks run against the deployment
  // spec's staleness bound unless the options name a tighter one.
  CoalescerConfig coalescer_config = options.coalescer_config;
  if (coalescer_config.staleness_bound == 0) {
    coalescer_config.staleness_bound = spec.max_staleness;
  }
  scads->coalescer_ = std::make_unique<ReadCoalescer>(&scads->loop_, &scads->network_,
                                                      &scads->cluster_, coalescer_config);
  scads->router_ = std::make_unique<Router>(kRouterClientId, &scads->loop_, &scads->network_,
                                            &scads->cluster_, options.router_config,
                                            options.seed ^ 0x726f7574ULL);
  scads->router_->set_cache(scads->cache_.get());
  scads->router_->set_coalescer(scads->coalescer_.get());
  scads->rebalancer_ = std::make_unique<Rebalancer>(&scads->loop_, &scads->cluster_);
  scads->write_policy_ = std::make_unique<WritePolicy>(scads->router_.get(), spec.writes,
                                                       options.merge_function);
  scads->staleness_ = std::make_unique<StalenessController>(&scads->loop_, scads->router_.get(),
                                                            &scads->cluster_, spec);
  scads->staleness_->set_cache(scads->cache_.get());
  scads->maintainer_ = std::make_unique<IndexMaintainer>(
      &scads->loop_, scads->router_.get(), &scads->cluster_, &scads->catalog_,
      &scads->update_queue_);
  scads->executor_ = std::make_unique<QueryExecutor>(scads->router_.get(), &scads->cluster_,
                                                     &scads->catalog_);
  scads->executor_->set_cache(scads->cache_.get(), &scads->loop_);
  return scads;
}

Status Scads::DefineEntity(EntityDef entity) {
  if (started_) return FailedPreconditionError("DefineEntity must precede Start()");
  return catalog_.AddEntity(std::move(entity));
}

Result<QueryBounds> Scads::RegisterQuery(const std::string& name, const std::string& sql) {
  if (queries_.count(name) > 0) return AlreadyExistsError(name);
  Result<QueryTemplate> ast = ParseQueryTemplate(sql);
  if (!ast.ok()) return ast.status();
  // Per-template bounds are validated against the deployment spec at
  // registration — the PIQL discipline: a template cannot promise its
  // callers less staleness enforcement than the deployment guarantees, so a
  // WITH STALENESS looser than the spec's bound is a registration error.
  if (ast->staleness_bound.has_value() && spec_.max_staleness > 0 &&
      *ast->staleness_bound > spec_.max_staleness) {
    return InvalidArgumentError(StrFormat(
        "WITH STALENESS %s exceeds the deployment spec bound %s",
        FormatDuration(*ast->staleness_bound).c_str(),
        FormatDuration(spec_.max_staleness).c_str()));
  }
  Result<QueryBounds> bounds = AnalyzeTemplate(catalog_, *ast);
  if (!bounds.ok()) return bounds.status();
  Result<QueryPlan> plan = PlanQuery(catalog_, name, *ast, *bounds);
  if (!plan.ok()) return plan.status();
  for (const IndexPlan& index_plan : plan->plans) {
    // Index freshness targets the tighter of the template's own staleness
    // bound and the deployment spec, so a WITH STALENESS 1s template gets
    // its index maintained to 1s, not the deployment-wide default.
    Duration freshness = spec_.max_staleness > 0 ? spec_.max_staleness : kMinute;
    if (ast->staleness_bound.has_value() && *ast->staleness_bound < freshness) {
      freshness = *ast->staleness_bound;
    }
    SCADS_RETURN_IF_ERROR(maintainer_->RegisterPlan(index_plan, freshness));
  }
  template_sla_.RegisterTemplate(name, ast->deadline.value_or(0),
                                 ast->staleness_bound.value_or(0));
  QueryBounds out = *bounds;
  queries_.emplace(name, std::move(plan).value());
  return out;
}

StorageNode* Scads::MakeNode(NodeId id) {
  auto node = std::make_unique<StorageNode>(id, &loop_, &network_, &cluster_,
                                            options_.node_config,
                                            options_.seed ^ static_cast<uint64_t>(id) * 0x9e37ULL);
  StorageNode* raw = node.get();
  nodes_[id] = std::move(node);
  return raw;
}

Status Scads::Start() {
  if (started_) return FailedPreconditionError("already started");
  started_ = true;

  // Boot the initial fleet and wait for it (simulated boot delay elapses).
  std::vector<NodeId> ids = cloud_.RequestInstances(options_.initial_nodes);
  if (static_cast<int>(ids.size()) != options_.initial_nodes) {
    return ResourceExhaustedError("cloud quota below initial_nodes");
  }
  Duration boot_budget =
      options_.cloud_config.boot_delay_mean + options_.cloud_config.boot_delay_jitter + kSecond;
  loop_.RunFor(boot_budget);
  for (NodeId id : ids) {
    StorageNode* node = MakeNode(id);
    SCADS_RETURN_IF_ERROR(cluster_.AddNode(id, node));
    node->Start();
  }

  // Partition map sized by the durability plan.
  Result<PartitionMap> map = PartitionMap::CreateUniform(options_.partitions, ids,
                                                         durability_plan_.replication_factor);
  if (!map.ok()) return map.status();
  cluster_.set_partitions(std::move(map).value());

  // Failure wiring: SetNodeAlive is the ONE down/up path — it flips the
  // node object's own message-processing switch and (on revive) kicks the
  // delta-sync catch-up, so the registry and the node can never diverge.
  failures_.set_node_down_callback([this](NodeId id) { cluster_.SetNodeAlive(id, false); });
  failures_.set_node_up_callback([this](NodeId id) { cluster_.SetNodeAlive(id, true); });

  // Measured liveness: arm the heartbeat failure detector, floored at the
  // watermark-heartbeat period the nodes actually beacon at.
  if (options_.enable_failure_detection) {
    SuspicionConfig suspicion;
    suspicion.min_interval =
        std::max(suspicion.min_interval, options_.node_config.watermark_heartbeat);
    cluster_.EnableFailureDetection(loop_.clock(), suspicion);
  }

  if (options_.enable_director) {
    DirectorConfig config = options_.director_config;
    config.min_nodes = std::max(config.min_nodes, durability_plan_.replication_factor);
    config.sla = spec_.performance;
    // Self-healing: repair must land inside the window the durability SLA
    // was planned around, so the model's loss probability stays honest.
    if (config.re_replication_time == 0) {
      config.re_replication_time = options_.failure_model.re_replication_time;
    }
    director_ = std::make_unique<Director>(&loop_, &cloud_, &cluster_, rebalancer_.get(),
                                           std::vector<Router*>{router_.get()}, config,
                                           [this](NodeId id) { return MakeNode(id); });
    director_->set_update_queue(&update_queue_);
    director_->set_cache(cache_.get());
    director_->Start();
  }
  return Status::Ok();
}

void Scads::RunFor(Duration duration) { loop_.RunFor(duration); }

void Scads::DrainIndexQueue(Duration max_wait) {
  Time give_up = loop_.Now() + max_wait;
  while (!update_queue_.idle() && loop_.Now() < give_up) {
    loop_.RunFor(50 * kMillisecond);
  }
  loop_.RunFor(100 * kMillisecond);
}

void Scads::PutRow(const std::string& entity_name, const Row& row, RequestOptions options,
                   std::function<void(Status)> callback) {
  const EntityDef* entity = catalog_.Get(entity_name);
  if (entity == nullptr) {
    callback(NotFoundError("entity " + entity_name));
    return;
  }
  Result<std::string> key = EncodePrimaryKey(*entity, row);
  if (!key.ok()) {
    callback(key.status());
    return;
  }
  options.Arm(loop_.Now());
  // The write policy reports the record the write replaced, so index
  // maintenance needs no read of its own.
  write_policy_->Put(*key, EncodeRow(*entity, row), durability_plan_.ack_mode,
                     std::move(options),
                     [this, entity, callback = std::move(callback)](Result<PutOutcome> outcome) {
    if (!outcome.ok()) {
      callback(outcome.status());
      return;
    }
    if (!Superseded(outcome->replaced, outcome->stored.version)) {
      // Maintain from the image the primary stored: under merge it is
      // merge(stored, row), not the caller's row.
      Result<Row> stored = DecodeRow(*entity, outcome->stored.value);
      if (stored.ok()) {
        maintainer_->OnBaseWrite(entity->name, LiveRow(*entity, outcome->replaced),
                                 std::move(stored).value());
      }
    }
    callback(Status::Ok());
  });
}

void Scads::DeleteRow(const std::string& entity_name, const Row& row, RequestOptions options,
                      std::function<void(Status)> callback) {
  const EntityDef* entity = catalog_.Get(entity_name);
  if (entity == nullptr) {
    callback(NotFoundError("entity " + entity_name));
    return;
  }
  Result<std::string> key = EncodePrimaryKey(*entity, row);
  if (!key.ok()) {
    callback(key.status());
    return;
  }
  options.Arm(loop_.Now());
  router_->Write({Router::WriteOp::Kind::kDelete, *key, {}, /*return_prior=*/true},
                 durability_plan_.ack_mode, std::move(options),
                 [this, entity, callback = std::move(callback)](Result<Router::WriteAck> written) {
    if (!written.ok()) {
      callback(written.status());
      return;
    }
    std::optional<Row> old_row = LiveRow(*entity, written->prior);
    if (old_row.has_value() && !Superseded(written->prior, written->version)) {
      maintainer_->OnBaseWrite(entity->name, std::move(old_row), std::nullopt);
    }
    callback(Status::Ok());
  });
}

void Scads::GetRow(const std::string& entity_name, const Row& key_row, RequestOptions options,
                   std::function<void(Result<Row>)> callback) {
  const EntityDef* entity = catalog_.Get(entity_name);
  if (entity == nullptr) {
    callback(NotFoundError("entity " + entity_name));
    return;
  }
  Result<std::string> key = EncodePrimaryKey(*entity, key_row);
  if (!key.ok()) {
    callback(key.status());
    return;
  }
  options.Arm(loop_.Now());
  ClampStaleness(&options);
  staleness_->Get(*key, std::move(options),
                  [entity, callback = std::move(callback)](Result<Record> record) {
    if (!record.ok()) {
      callback(record.status());
      return;
    }
    callback(DecodeRow(*entity, record->value));
  });
}

void Scads::Query(const std::string& name, const ParamMap& params, RequestOptions options,
                  std::function<void(Result<std::vector<Row>>)> callback) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    callback(NotFoundError("query " + name));
    return;
  }
  // The template's WITH-clause bounds are the defaults; explicit caller
  // options win. Arm after merging so the template deadline becomes a real
  // budget from this call's entry.
  const QueryTemplate& ast = it->second.ast;
  if (!options.max_staleness.has_value() && ast.staleness_bound.has_value()) {
    options.max_staleness = ast.staleness_bound;
  }
  if (options.deadline == 0 && options.deadline_at == 0 && ast.deadline.has_value()) {
    options.deadline = *ast.deadline;
  }
  options.Arm(loop_.Now());
  ClampStaleness(&options);
  // Every execution lands in the per-template SLA ledger — notably the
  // kDeadlineExceeded sheds the deadline budget produces.
  auto accounted = [this, name, callback = std::move(callback)](
                       Result<std::vector<Row>> rows) mutable {
    template_sla_.Record(name, rows.ok() ? Status::Ok() : rows.status());
    callback(std::move(rows));
  };
  executor_->Execute(it->second, params, std::move(options), std::move(accounted));
}

std::unique_ptr<SessionClient> Scads::NewSession() {
  return std::make_unique<SessionClient>(NewClient(), spec_.session, spec_.max_staleness);
}

ScadsClient Scads::NewClient() { return ScadsClient(router_.get()); }

std::string Scads::RenderMaintenanceTable() const {
  return scads::RenderMaintenanceTable(maintainer_->MaintenanceTable());
}

template <typename T>
T Scads::AwaitSync(std::function<void(std::function<void(T)>)> start, Duration max_wait) {
  struct Box {
    std::optional<T> value;
  };
  auto box = std::make_shared<Box>();
  start([box](T result) { box->value = std::move(result); });
  Time give_up = loop_.Now() + max_wait;
  while (!box->value.has_value() && loop_.Now() < give_up) {
    loop_.RunFor(kMillisecond);
  }
  if (!box->value.has_value()) {
    if constexpr (std::is_same_v<T, Status>) {
      return DeadlineExceededError("sync call did not complete");
    } else {
      return T(DeadlineExceededError("sync call did not complete"));
    }
  }
  return std::move(*box->value);
}

Status Scads::PutRowSync(const std::string& entity, const Row& row, RequestOptions options) {
  return AwaitSync<Status>(
      [&](std::function<void(Status)> done) {
        PutRow(entity, row, std::move(options), std::move(done));
      },
      kMinute);
}

Status Scads::DeleteRowSync(const std::string& entity, const Row& row, RequestOptions options) {
  return AwaitSync<Status>(
      [&](std::function<void(Status)> done) {
        DeleteRow(entity, row, std::move(options), std::move(done));
      },
      kMinute);
}

Result<Row> Scads::GetRowSync(const std::string& entity, const Row& key_row,
                              RequestOptions options) {
  return AwaitSync<Result<Row>>(
      [&](std::function<void(Result<Row>)> done) {
        GetRow(entity, key_row, std::move(options), std::move(done));
      },
      kMinute);
}

Result<std::vector<Row>> Scads::QuerySync(const std::string& name, const ParamMap& params,
                                          RequestOptions options) {
  return AwaitSync<Result<std::vector<Row>>>(
      [&](std::function<void(Result<std::vector<Row>>)> done) {
        Query(name, params, std::move(options), std::move(done));
      },
      kMinute);
}

}  // namespace scads
