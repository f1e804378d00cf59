#include "index/executor.h"

#include <memory>
#include <utility>

#include "cache/cache_directory.h"
#include "common/strings.h"
#include "graph/adjacency_codec.h"
#include "index/keys.h"
#include "index/scan.h"

namespace scads {

void QueryExecutor::ScanPrefix(const std::string& prefix, size_t limit,
                               const RequestOptions& options,
                               std::function<void(Result<std::vector<Record>>)> callback) {
  if (cache_ != nullptr && loop_ != nullptr && cache_->enabled() &&
      options.read_mode != ReadMode::kAnyReplica &&
      options.read_mode != ReadMode::kPrimaryOnly) {
    auto cached = std::make_shared<std::vector<Record>>();
    if (cache_->LookupScan(prefix, limit, loop_->Now(), options, cached.get())) {
      loop_->ScheduleAfter(cache_->hit_service_time(),
                           [cached, callback = std::move(callback)]() mutable {
                             callback(std::move(*cached));
                           });
      return;
    }
    // The result's freshness lease starts when the scan is issued: by
    // completion the rows are already (completion - issued) old. The scan
    // lease keeps a result from being cached when a covered write acked
    // mid-scan (it would be the predecessor of an acknowledged write).
    Time issued = loop_->Now();
    uint64_t lease = cache_->BeginScan(prefix);
    MultiScanPrefix(router_, cluster_, prefix, limit, options,
                    [this, prefix, limit, issued, lease,
                     callback = std::move(callback)](Result<std::vector<Record>> entries) mutable {
                      bool clean = cache_->EndScan(lease);
                      if (entries.ok() && clean) {
                        cache_->StoreScan(prefix, limit, *entries, issued);
                      }
                      callback(std::move(entries));
                    });
    return;
  }
  MultiScanPrefix(router_, cluster_, prefix, limit, options, std::move(callback));
}

Result<Value> QueryExecutor::BindParam(const ParamMap& params, const std::string& name) const {
  auto it = params.find(name);
  if (it == params.end()) {
    return InvalidArgumentError("missing query parameter <" + name + ">");
  }
  return it->second;
}

void QueryExecutor::Execute(const QueryPlan& plan, const ParamMap& params,
                            RequestOptions options,
                            std::function<void(Result<std::vector<Row>>)> callback) {
  ++executions_;
  if (loop_ != nullptr) options.Arm(loop_->Now());
  auto counted = [this, callback = std::move(callback)](Result<std::vector<Row>> rows) {
    if (rows.ok()) rows_returned_ += static_cast<int64_t>(rows->size());
    callback(std::move(rows));
  };
  const IndexPlan& main = plan.main();
  switch (main.shape) {
    case QueryShape::kPointLookup:
      ExecutePointLookup(main, params, options, std::move(counted));
      return;
    case QueryShape::kSelection:
    case QueryShape::kJoin:
      ExecuteIndexScan(main, params, options, std::move(counted));
      return;
    case QueryShape::kTwoHop:
      ExecuteTwoHop(main, params, options, std::move(counted));
      return;
    case QueryShape::kAdjacency:
      break;  // a helper index of id lists, never a query's main plan
  }
  counted(InternalError("unhandled query shape"));
}

void QueryExecutor::ExecutePointLookup(const IndexPlan& plan, const ParamMap& params,
                                       const RequestOptions& options,
                                       std::function<void(Result<std::vector<Row>>)> callback) {
  const EntityDef* entity = catalog_->Get(plan.target_entity);
  Row key_row;
  for (size_t i = 0; i < plan.eq_fields.size(); ++i) {
    Result<Value> value = BindParam(params, plan.eq_params[i]);
    if (!value.ok()) {
      callback(value.status());
      return;
    }
    key_row.Set(plan.eq_fields[i], *value);
  }
  Result<std::string> key = EncodePrimaryKey(*entity, key_row);
  if (!key.ok()) {
    callback(key.status());
    return;
  }
  router_->Get(*key, options,
               [entity, callback = std::move(callback)](Result<Record> record) {
                 if (!record.ok()) {
                   if (IsNotFound(record.status())) {
                     callback(std::vector<Row>{});
                     return;
                   }
                   callback(record.status());
                   return;
                 }
                 Result<Row> row = DecodeRow(*entity, record->value);
                 if (!row.ok()) {
                   callback(row.status());
                   return;
                 }
                 callback(std::vector<Row>{std::move(row).value()});
               });
}

void QueryExecutor::ExecuteIndexScan(const IndexPlan& plan, const ParamMap& params,
                                     const RequestOptions& options,
                                     std::function<void(Result<std::vector<Row>>)> callback) {
  const EntityDef* entity = catalog_->Get(plan.target_entity);
  std::string prefix = plan.KeyPrefix();
  if (plan.shape == QueryShape::kSelection) {
    for (size_t i = 0; i < plan.eq_fields.size(); ++i) {
      Result<Value> value = BindParam(params, plan.eq_params[i]);
      if (!value.ok()) {
        callback(value.status());
        return;
      }
      AppendKeyPiece(&prefix, EncodeKeyValue(*value));
    }
  } else {
    Result<Value> anchor = BindParam(params, plan.edge_param_name);
    if (!anchor.ok()) {
      callback(anchor.status());
      return;
    }
    AppendKeyPiece(&prefix, EncodeKeyValue(*anchor));
  }
  size_t limit = plan.limit.has_value() ? static_cast<size_t>(*plan.limit) : 0;
  ScanPrefix(prefix, limit, options,
             [entity, callback = std::move(callback)](Result<std::vector<Record>> entries) {
               if (!entries.ok()) {
                 callback(entries.status());
                 return;
               }
               std::vector<Row> rows;
               rows.reserve(entries->size());
               for (const Record& entry : *entries) {
                 Result<Row> row = DecodeRow(*entity, entry.value);
                 if (!row.ok()) {
                   callback(row.status());
                   return;
                 }
                 rows.push_back(std::move(row).value());
               }
               callback(std::move(rows));
             });
}

void QueryExecutor::ExecuteTwoHop(const IndexPlan& plan, const ParamMap& params,
                                  const RequestOptions& options,
                                  std::function<void(Result<std::vector<Row>>)> callback) {
  const EntityDef* target = catalog_->Get(plan.target_entity);
  Result<Value> anchor = BindParam(params, plan.edge_param_name);
  if (!anchor.ok()) {
    callback(anchor.status());
    return;
  }
  // The user's friends-of-friends are one record, a list in id order that
  // leaves out the user: one scan (so it shares the scan cache, not the
  // point cache) and a decode.
  std::string prefix = AnchorScanPrefix(plan, EncodeKeyValue(*anchor));
  size_t limit = plan.limit.has_value() ? static_cast<size_t>(*plan.limit) : 0;
  ScanPrefix(
      prefix, /*limit=*/1, options,
      [this, target, limit, options,
       callback = std::move(callback)](Result<std::vector<Record>> entries) mutable {
        if (!entries.ok()) {
          callback(entries.status());
          return;
        }
        std::vector<uint64_t> ids;
        if (!entries->empty() && !AdjacencyCodec::Decode(entries->front().value, &ids)) {
          callback(InternalError("undecodable two-hop list"));
          return;
        }
        if (limit != 0 && ids.size() > limit) ids.resize(limit);
        std::vector<std::string> base_keys;
        for (uint64_t id : ids) {
          base_keys.push_back(BaseRowKeyFromPiece(*target, OrderedEncodeInt64(IdOfListId(id))));
        }
        // Hydrate the bounded base-row set with ONE batched read: the keys
        // go out as one message per storage node instead of a sequential
        // round trip each, and results come back in index order. The
        // hydration inherits whatever deadline budget the scan left over.
        router_->MultiGet(
            base_keys, options,
            [target, callback = std::move(callback)](std::vector<Result<Record>> records) {
              std::vector<Row> rows;
              rows.reserve(records.size());
              for (Result<Record>& record : records) {
                if (!record.ok()) {
                  // A dangling index entry (base row deleted) is expected;
                  // any other failure must surface, not silently shrink the
                  // result set.
                  if (IsNotFound(record.status())) continue;
                  callback(record.status());
                  return;
                }
                Result<Row> row = DecodeRow(*target, record->value);
                if (!row.ok()) {
                  callback(row.status());
                  return;
                }
                rows.push_back(std::move(row).value());
              }
              callback(std::move(rows));
            });
      });
}

}  // namespace scads
