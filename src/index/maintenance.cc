#include "index/maintenance.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "graph/adjacency_codec.h"
#include "index/keys.h"

namespace scads {

namespace {

/// Encoded piece of one edge endpoint field.
std::string EndpointPiece(const Row& edge, const std::string& field) {
  const Value* v = edge.Get(field);
  return v == nullptr ? std::string() : EncodeKeyValue(*v);
}

/// The write that leaves `list` as `key`'s record: a put of its encoding,
/// or a delete once it is empty.
Router::WriteOp ListWrite(std::string key, const std::vector<uint64_t>& list) {
  if (list.empty()) return {Router::WriteOp::Kind::kDelete, std::move(key), {}};
  return {Router::WriteOp::Kind::kPut, std::move(key), AdjacencyCodec::Encode(list)};
}

void SortUnique(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

/// Whether two sorted id lists share an id.
bool Meet(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  auto i = a.begin(), j = b.begin();
  while (i != a.end() && j != b.end() && *i != *j) *i < *j ? ++i : ++j;
  return i != a.end() && j != b.end();
}

}  // namespace

Status IndexMaintainer::RegisterPlan(const IndexPlan& plan, Duration staleness_bound) {
  if (catalog_->Get(plan.target_entity) == nullptr) {
    return InvalidArgumentError("plan target entity not in catalog: " + plan.target_entity);
  }
  Duration bound = staleness_bound > 0 ? staleness_bound : kMinute;
  auto [it, added] = plans_.try_emplace(plan.name, Registered{plan, bound});
  if (!added) it->second.staleness_bound = std::min(it->second.staleness_bound, bound);
  return Status::Ok();
}

const IndexPlan* IndexMaintainer::GetPlan(const std::string& name) const {
  auto it = plans_.find(name);
  return it == plans_.end() ? nullptr : &it->second.plan;
}

std::vector<MaintenanceEntry> IndexMaintainer::MaintenanceTable() const {
  std::vector<MaintenanceEntry> table;
  for (const auto& [name, reg] : plans_) {
    for (const MaintenanceEntry& entry : reg.plan.maintenance) table.push_back(entry);
  }
  return table;
}

void IndexMaintainer::FlushEntryOps(std::vector<Router::WriteOp> ops,
                                    std::function<void(Status)> done) {
  for (const Router::WriteOp& op : ops) {
    if (op.kind == Router::WriteOp::Kind::kPut) {
      ++stats_.entries_written;
    } else {
      ++stats_.entries_deleted;
    }
  }
  router_->MultiWrite(std::move(ops), AckMode::kPrimary, RequestOptions{},
                      [done = std::move(done)](std::vector<Status> statuses) {
                        for (Status& status : statuses) {
                          if (!status.ok()) {
                            done(std::move(status));
                            return;
                          }
                        }
                        done(Status::Ok());
                      });
}

void IndexMaintainer::OnBaseWrite(const std::string& entity, std::optional<Row> old_row,
                                  std::optional<Row> new_row) {
  using Body = void (IndexMaintainer::*)(const Registered&, std::optional<Row>,
                                         std::optional<Row>, std::function<void(Status)>);
  for (auto& [name, reg] : plans_) {
    const IndexPlan& plan = reg.plan;
    const Registered* registered = &reg;
    auto enqueue = [&](const char* kind, Body body) {
      ++stats_.tasks_enqueued;
      queue_->Enqueue(loop_->Now() + reg.staleness_bound, kind + plan.name,
                      [this, registered, old_row, new_row, body](std::function<void(Status)> done) {
                        (this->*body)(*registered, old_row, new_row, std::move(done));
                      });
    };
    switch (plan.shape) {
      case QueryShape::kPointLookup:
        break;  // no derived structure
      case QueryShape::kSelection:
        if (plan.target_entity == entity) enqueue("sel:", &IndexMaintainer::RunSelectionUpdate);
        break;
      case QueryShape::kAdjacency:
        if (plan.edge_entity == entity) enqueue("adj:", &IndexMaintainer::RunAdjacencyUpdate);
        break;
      case QueryShape::kJoin:
        if (plan.edge_entity == entity) {
          enqueue("join-edge:", &IndexMaintainer::RunJoinEdgeUpdate);
        }
        if (plan.target_entity == entity) {
          enqueue("join-target:", &IndexMaintainer::RunJoinTargetUpdate);
        }
        break;
      case QueryShape::kTwoHop:
        // Cascaded from the adjacency index (Figure 3): fires on the same
        // edge change, after the adjacency task (strict queue order).
        if (plan.edge_entity == entity) enqueue("twohop:", &IndexMaintainer::RunTwoHopUpdate);
        break;
    }
  }
}

void IndexMaintainer::RunSelectionUpdate(const Registered& reg, std::optional<Row> old_row,
                                         std::optional<Row> new_row,
                                         std::function<void(Status)> done) {
  const IndexPlan& plan = reg.plan;
  const EntityDef* target = catalog_->Get(plan.target_entity);
  std::optional<std::string> old_key;
  if (old_row.has_value()) {
    Result<std::string> key = SelectionEntryKey(plan, *target, *old_row);
    if (key.ok()) old_key = *key;
  }
  std::optional<std::string> new_key;
  std::string new_value;
  if (new_row.has_value()) {
    Result<std::string> key = SelectionEntryKey(plan, *target, *new_row);
    if (!key.ok()) {
      done(key.status());
      return;
    }
    new_key = *key;
    new_value = EncodeRow(*target, *new_row);
  }
  std::vector<Router::WriteOp> ops;
  if (new_key.has_value()) {
    ops.push_back({Router::WriteOp::Kind::kPut, *new_key, std::move(new_value)});
  }
  if (old_key.has_value() && old_key != new_key) {
    // The entry moved keys: delete first, put only if the delete committed.
    // Shipping them concurrently could commit the put while the delete
    // fails, leaving TWO live entries for one base row — a state the
    // sequential path could never produce. (Same message count either way:
    // distinct keys rarely share a primary.)
    FlushEntryOps({{Router::WriteOp::Kind::kDelete, *old_key, {}}},
                  [this, ops = std::move(ops), done = std::move(done)](Status status) mutable {
                    if (!status.ok() || ops.empty()) {
                      done(std::move(status));
                      return;
                    }
                    FlushEntryOps(std::move(ops), std::move(done));
                  });
    return;
  }
  FlushEntryOps(std::move(ops), std::move(done));
}

void IndexMaintainer::ReadLists(const IndexPlan& plan, std::vector<uint64_t> ids, int hops,
                                std::shared_ptr<Lists> lists, std::function<void(Status)> done,
                                Next next) {
  SortUnique(&ids);
  std::vector<uint64_t> missing;
  std::vector<std::string> keys;
  for (uint64_t id : ids) {
    if (lists->count(id) > 0) continue;
    missing.push_back(id);
    keys.push_back(ListKey(plan, id));
  }
  stats_.lookups += static_cast<int64_t>(keys.size());
  RequestOptions pinned;  // lists are read-modify-write on the primary
  pinned.read_mode = ReadMode::kPrimaryOnly;
  router_->MultiGet(keys, pinned,
                    [this, &plan, ids = std::move(ids), hops, missing = std::move(missing), lists,
                     done = std::move(done),
                     next = std::move(next)](std::vector<Result<Record>> records) mutable {
    for (size_t i = 0; i < records.size(); ++i) {
      std::vector<uint64_t>& list = (*lists)[missing[i]];  // absent: empty
      if (records[i].ok() ? !AdjacencyCodec::Decode(records[i]->value, &list)
                          : !IsNotFound(records[i].status())) {
        done(records[i].ok() ? InternalError("undecodable index list") : records[i].status());
        return;
      }
    }
    if (hops == 1) {
      next(std::move(done));
      return;
    }
    std::vector<uint64_t> neighbors;
    for (uint64_t id : ids) {
      neighbors.insert(neighbors.end(), (*lists)[id].begin(), (*lists)[id].end());
    }
    ReadLists(plan, std::move(neighbors), hops - 1, lists, std::move(done), std::move(next));
  });
}

void IndexMaintainer::RunAdjacencyUpdate(const Registered& reg, std::optional<Row> old_edge,
                                         std::optional<Row> new_edge,
                                         std::function<void(Status)> done) {
  const IndexPlan& plan = reg.plan;
  // The endpoints of the old edge, then of the new one. Each old endpoint
  // leaves the other's list, then each new one joins it. Removing an absent
  // id or adding a present one changes nothing, so a task redone writes the
  // same lists.
  std::vector<uint64_t> ends;
  for (const std::optional<Row>* edge : {&old_edge, &new_edge}) {
    if (!edge->has_value()) continue;
    ends.push_back(ListId((*edge)->GetInt(plan.edge_param_field)));
    ends.push_back(ListId((*edge)->GetInt(plan.edge_other_field)));
  }
  auto lists = std::make_shared<Lists>();
  ReadLists(plan, ends, 1, lists, std::move(done),
            [this, &plan, ends, lists, removed = old_edge.has_value()](auto done) {
              for (size_t i = 0; i < ends.size(); ++i) {
                std::vector<uint64_t>& list = (*lists)[ends[i]];
                uint64_t other = ends[i ^ 1];  // the other endpoint of its edge
                if (removed && i < 2) {
                  std::erase(list, other);
                } else {
                  list.push_back(other);
                  SortUnique(&list);
                }
              }
              std::vector<Router::WriteOp> ops;
              for (const auto& [id, list] : *lists) {
                ops.push_back(ListWrite(ListKey(plan, id), list));
              }
              // List-write failures are tolerated here, as in the other paths.
              FlushEntryOps(std::move(ops),
                            [done = std::move(done)](Status) { done(Status::Ok()); });
            });
}

void IndexMaintainer::RunJoinEdgeUpdate(const Registered& reg, std::optional<Row> old_edge,
                                        std::optional<Row> new_edge,
                                        std::function<void(Status)> done) {
  const IndexPlan& plan = reg.plan;
  const EntityDef* target = catalog_->Get(plan.target_entity);
  // Work items: {anchor_piece, target_pk_piece, insert?}. Symmetric plans
  // index both directions.
  struct Item {
    std::string anchor;
    std::string target_pk;
    bool insert;
  };
  auto items = std::make_shared<std::vector<Item>>();
  auto add_edge_items = [&](const Row& edge, bool insert) {
    std::string a = EndpointPiece(edge, plan.edge_param_field);
    std::string b = EndpointPiece(edge, plan.edge_other_field);
    items->push_back(Item{a, b, insert});
    if (plan.symmetric) items->push_back(Item{b, a, insert});
  };
  if (old_edge.has_value()) add_edge_items(*old_edge, false);
  if (new_edge.has_value()) add_edge_items(*new_edge, true);

  // One batched (primary-pinned) read hydrates every item's target row —
  // the order value and entry payload — then all entry mutations flush as
  // one batched write.
  std::vector<std::string> row_keys;
  row_keys.reserve(items->size());
  for (const Item& item : *items) {
    row_keys.push_back(BaseRowKeyFromPiece(*target, item.target_pk));
  }
  stats_.lookups += static_cast<int64_t>(row_keys.size());
  RequestOptions pinned;  // index maintenance reads the authoritative copy
  pinned.read_mode = ReadMode::kPrimaryOnly;
  router_->MultiGet(
      row_keys, pinned,
      [this, items, target, &reg, done = std::move(done)](std::vector<Result<Record>> records) {
        const IndexPlan& plan = reg.plan;
        std::vector<Router::WriteOp> ops;
        for (size_t i = 0; i < items->size(); ++i) {
          const Item& item = (*items)[i];
          // Target row absent: nothing to index (a later target write will
          // backfill via RunJoinTargetUpdate). Decode failures skip the
          // item, as the sequential path did.
          if (!records[i].ok()) continue;
          Result<Row> row = DecodeRow(*target, records[i]->value);
          if (!row.ok()) continue;
          std::string order_piece = OrderPieceForRow(plan, *row);
          std::string key = JoinEntryKey(plan, item.anchor, order_piece, item.target_pk);
          if (item.insert) {
            ops.push_back({Router::WriteOp::Kind::kPut, std::move(key), EncodeRow(*target, *row)});
          } else {
            ops.push_back({Router::WriteOp::Kind::kDelete, std::move(key), {}});
          }
        }
        FlushEntryOps(std::move(ops), [done = std::move(done)](Status) { done(Status::Ok()); });
      });
}

void IndexMaintainer::RunJoinTargetUpdate(const Registered& reg, std::optional<Row> old_row,
                                          std::optional<Row> new_row,
                                          std::function<void(Status)> done) {
  const IndexPlan& plan = reg.plan;
  const EntityDef* target = catalog_->Get(plan.target_entity);
  const Row& pk_source = new_row.has_value() ? *new_row : *old_row;
  const Value* pk = pk_source.Get(target->key_fields[0]);
  const int64_t* id = pk == nullptr ? nullptr : std::get_if<int64_t>(pk);
  if (id == nullptr) {
    done(InvalidArgumentError("target row missing int64 key"));
    return;
  }
  std::string pk_piece = EncodeKeyValue(*pk);
  const IndexPlan* adjacency = GetPlan(plan.adjacency_index);
  if (adjacency == nullptr) {
    done(FailedPreconditionError("adjacency index not registered: " + plan.adjacency_index));
    return;
  }
  // Neighbors = the adjacency list of this row's key.
  uint64_t list_id = ListId(*id);
  auto lists = std::make_shared<Lists>();
  ReadLists(
      *adjacency, {list_id}, 1, lists, std::move(done),
      [this, &reg, target, pk_piece, old_row, new_row, list_id, lists](auto done) {
        const IndexPlan& plan = reg.plan;
        std::string old_order =
            old_row.has_value() ? OrderPieceForRow(plan, *old_row) : std::string();
        std::string new_order =
            new_row.has_value() ? OrderPieceForRow(plan, *new_row) : std::string();
        std::string new_value =
            new_row.has_value() ? EncodeRow(*target, *new_row) : std::string();
        // Per-neighbor entry mutations, flushed as one batched write. When
        // the order value is unchanged, the delete and put share a key and
        // coalesce to the put — the sequential path's final state.
        std::vector<Router::WriteOp> ops;
        for (uint64_t neighbor : (*lists)[list_id]) {
          std::string neighbor_piece = OrderedEncodeInt64(IdOfListId(neighbor));
          if (old_row.has_value()) {
            ops.push_back({Router::WriteOp::Kind::kDelete,
                           JoinEntryKey(plan, neighbor_piece, old_order, pk_piece), {}});
          }
          if (new_row.has_value()) {
            ops.push_back({Router::WriteOp::Kind::kPut,
                           JoinEntryKey(plan, neighbor_piece, new_order, pk_piece), new_value});
          }
        }
        if (ops.size() > static_cast<size_t>(plan.update_cost)) ++stats_.budget_overruns;
        FlushEntryOps(std::move(ops), [done = std::move(done)](Status) { done(Status::Ok()); });
      });
}

void IndexMaintainer::RunTwoHopUpdate(const Registered& reg, std::optional<Row> old_edge,
                                      std::optional<Row> new_edge,
                                      std::function<void(Status)> done) {
  const IndexPlan& plan = reg.plan;
  const IndexPlan* adjacency = GetPlan(plan.adjacency_index);
  if (adjacency == nullptr) {
    done(FailedPreconditionError("adjacency index not registered: " + plan.adjacency_index));
    return;
  }
  auto ends = [&plan](const Row& edge) {
    return std::pair{ListId(edge.GetInt(plan.edge_param_field)),
                     ListId(edge.GetInt(plan.edge_other_field))};
  };
  // The removed edge's prune, then the added edge's union. An edge
  // rewritten with the same endpoints leaves the graph as it was, so only
  // its union runs (a no-op on a current index).
  if (new_edge.has_value()) {
    done = [this, &reg, adjacency, edge = ends(*new_edge),
            done = std::move(done)](Status status) mutable {
      if (!status.ok()) {
        done(std::move(status));
        return;
      }
      EditTwoHop(reg, *adjacency, edge.first, edge.second, true, std::move(done));
    };
  }
  if (old_edge.has_value() && (!new_edge.has_value() || ends(*old_edge) != ends(*new_edge))) {
    auto [x, y] = ends(*old_edge);
    EditTwoHop(reg, *adjacency, x, y, false, std::move(done));
    return;
  }
  done(Status::Ok());
}

void IndexMaintainer::EditTwoHop(const Registered& reg, const IndexPlan& adjacency, uint64_t x,
                                 uint64_t y, bool added, std::function<void(Status)> done) {
  // The adjacency lists of x and y, and for a removed edge those of their
  // friends too.
  auto adj = std::make_shared<Lists>();
  ReadLists(adjacency, {x, y}, added ? 1 : 2, adj, std::move(done),
            [this, &reg, x, y, added, adj](auto done) {
              // The paths over the edge: u-x-y for u in N(x), and x-y-w for
              // w in N(y). Each runs both ways, so u and y gain or lose each
              // other, as do x and w; a pair that still shares a friend
              // keeps another path.
              auto edits = std::make_shared<Lists>();
              for (auto [self, other] : {std::pair{x, y}, std::pair{y, x}}) {
                for (uint64_t id : (*adj)[self]) {
                  if (id == other || (!added && Meet((*adj)[id], (*adj)[other]))) continue;
                  (*edits)[other].push_back(id);
                  (*edits)[id].push_back(other);
                }
              }
              WriteTwoHop(reg, edits, added, std::move(done));
            });
}

void IndexMaintainer::WriteTwoHop(const Registered& reg, std::shared_ptr<Lists> edits, bool add,
                                  std::function<void(Status)> done) {
  std::vector<uint64_t> users;
  for (const auto& [user, ids] : *edits) users.push_back(user);
  auto lists = std::make_shared<Lists>();
  ReadLists(reg.plan, users, 1, lists, std::move(done), [this, &reg, edits, add, lists](auto done) {
    std::vector<Router::WriteOp> ops;
    for (auto& [user, ids] : *edits) {
      SortUnique(&ids);
      const std::vector<uint64_t>& list = (*lists)[user];
      std::vector<uint64_t> edited;
      edited.reserve(list.size() + (add ? ids.size() : 0));
      if (add) {
        std::set_union(list.begin(), list.end(), ids.begin(), ids.end(),
                       std::back_inserter(edited));
      } else {
        std::set_difference(list.begin(), list.end(), ids.begin(), ids.end(),
                            std::back_inserter(edited));
      }
      if (edited.size() != list.size()) ops.push_back(ListWrite(ListKey(reg.plan, user), edited));
    }
    if (ops.size() > static_cast<size_t>(reg.plan.update_cost)) ++stats_.budget_overruns;
    FlushEntryOps(std::move(ops), [done = std::move(done)](Status) { done(Status::Ok()); });
  });
}

}  // namespace scads
