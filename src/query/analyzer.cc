#include "query/analyzer.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace scads {

namespace {

/// Max rows one query execution may touch: the O(K) read budget a
/// deployment grants each registered query.
constexpr int64_t kMaxReadRows = 100000;

/// Rows of `entity` that can match when `field` is fixed to one value:
/// full-key equality -> 1; capped field -> cap; otherwise unbounded
/// (nullopt).
std::optional<int64_t> RowsForEquality(const EntityDef& entity, const std::string& field) {
  if (entity.key_fields.size() == 1 && entity.key_fields[0] == field) return 1;
  std::optional<int64_t> cap = entity.FanoutCap(field);
  return cap;
}

}  // namespace

Result<QueryBounds> AnalyzeTemplate(const Catalog& catalog, const QueryTemplate& query) {
  // --- resolve and validate every table and field -----------------------
  std::map<std::string, const EntityDef*> aliases;
  auto bind = [&](const TableRef& ref) -> Status {
    const EntityDef* entity = catalog.Get(ref.table);
    if (entity == nullptr) {
      return InvalidArgumentError(StrFormat("unknown table '%s'", ref.table.c_str()));
    }
    if (aliases.count(ref.alias) > 0) {
      return InvalidArgumentError(StrFormat("duplicate alias '%s'", ref.alias.c_str()));
    }
    aliases[ref.alias] = entity;
    return Status::Ok();
  };
  SCADS_RETURN_IF_ERROR(bind(query.from));
  for (const JoinClause& join : query.joins) SCADS_RETURN_IF_ERROR(bind(join.table));

  auto check_field = [&](const FieldRef& ref) -> Status {
    auto it = aliases.find(ref.alias);
    if (it == aliases.end()) {
      return InvalidArgumentError(StrFormat("unknown alias '%s'", ref.alias.c_str()));
    }
    if (it->second->FindField(ref.field) == nullptr) {
      return InvalidArgumentError(StrFormat("table '%s' has no field '%s'",
                                            it->second->name.c_str(), ref.field.c_str()));
    }
    return Status::Ok();
  };
  for (const JoinClause& join : query.joins) {
    SCADS_RETURN_IF_ERROR(check_field(join.left));
    SCADS_RETURN_IF_ERROR(check_field(join.right));
  }
  for (const OrGroup& group : query.where) {
    for (const Predicate& pred : group.alternatives) {
      SCADS_RETURN_IF_ERROR(check_field(pred.lhs));
      if (!pred.rhs_is_param) SCADS_RETURN_IF_ERROR(check_field(pred.rhs_field));
    }
  }
  if (query.order_by.has_value()) SCADS_RETURN_IF_ERROR(check_field(*query.order_by));
  if (aliases.count(query.select_alias) == 0) {
    return InvalidArgumentError(
        StrFormat("SELECT alias '%s' not bound", query.select_alias.c_str()));
  }

  // --- anchoring: the FROM table needs a parameter equality -------------
  const EntityDef* from_entity = aliases[query.from.alias];
  // Bound on FROM rows matched per parameter binding. OR groups sum their
  // alternatives.
  std::optional<int64_t> from_bound;
  bool anchored = false;
  for (const OrGroup& group : query.where) {
    int64_t group_bound = 0;
    bool group_on_from = true;
    bool group_bounded = true;
    for (const Predicate& pred : group.alternatives) {
      if (pred.lhs.alias != query.from.alias || !pred.rhs_is_param ||
          pred.op != CompareOp::kEq) {
        group_on_from = false;
        break;
      }
      std::optional<int64_t> rows = RowsForEquality(*from_entity, pred.lhs.field);
      if (!rows.has_value()) {
        group_bounded = false;
        break;
      }
      group_bound += *rows;
    }
    if (!group_on_from) continue;
    anchored = true;
    if (group_bounded) {
      from_bound = from_bound.has_value() ? std::min(*from_bound, group_bound) : group_bound;
    }
  }
  if (!anchored) {
    return FailedPreconditionError(StrFormat(
        "query on '%s' has no parameter-equality anchor on the FROM table; "
        "it cannot map to a contiguous index range",
        from_entity->name.c_str()));
  }
  // Without a fan-out bound, a LIMIT still bounds the rows *read*.
  bool bounded_by_limit = false;
  if (!from_bound.has_value()) {
    if (query.limit.has_value()) {
      from_bound = *query.limit;
      bounded_by_limit = true;
    } else {
      return FailedPreconditionError(StrFormat(
          "equality on '%s' is not bounded: no fan-out cap declared and no LIMIT; "
          "this is the unbounded-follower case the paper rejects",
          from_entity->name.c_str()));
    }
  } else if (query.limit.has_value()) {
    from_bound = std::min(*from_bound, *query.limit);
  }

  // --- joins multiply by their fan-out ----------------------------------
  int64_t total = *from_bound;
  for (const JoinClause& join : query.joins) {
    // Normalize: the join's "new" side is join.table; find which FieldRef
    // belongs to it.
    const FieldRef& new_side = join.right.alias == join.table.alias ? join.right : join.left;
    if (new_side.alias != join.table.alias) {
      return InvalidArgumentError(
          StrFormat("join ON clause does not reference joined table '%s'",
                    join.table.alias.c_str()));
    }
    const EntityDef* joined = aliases[join.table.alias];
    std::optional<int64_t> fanout = RowsForEquality(*joined, new_side.field);
    if (!fanout.has_value()) {
      return FailedPreconditionError(StrFormat(
          "join into '%s.%s' is unbounded: declare a fan-out cap or join on the key",
          joined->name.c_str(), new_side.field.c_str()));
    }
    if (total > kMaxReadRows / std::max<int64_t>(1, *fanout)) {
      return FailedPreconditionError(
          StrFormat("worst-case read size exceeds budget %lld after join into '%s'",
                    static_cast<long long>(kMaxReadRows), joined->name.c_str()));
    }
    total *= *fanout;
  }
  if (query.limit.has_value()) total = std::min(total, *query.limit);
  if (total > kMaxReadRows) {
    return FailedPreconditionError(
        StrFormat("worst-case read of %lld rows exceeds budget %lld",
                  static_cast<long long>(total), static_cast<long long>(kMaxReadRows)));
  }

  QueryBounds bounds;
  bounds.read_rows = total;
  bounds.bounded_by_limit = bounded_by_limit;
  return bounds;
}

}  // namespace scads
