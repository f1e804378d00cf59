#include "query/planner.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace scads {

std::string_view QueryShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kPointLookup: return "point_lookup";
    case QueryShape::kSelection: return "selection";
    case QueryShape::kJoin: return "join";
    case QueryShape::kTwoHop: return "two_hop";
    case QueryShape::kAdjacency: return "adjacency";
  }
  return "?";
}

namespace {

/// All equality-parameter predicates anchored on `alias`, flattening OR
/// groups. Returns {field, param} pairs; OR alternatives come back as
/// separate pairs with or_group=true.
struct Anchor {
  std::string field;
  std::string param;
};

std::vector<Anchor> AnchorsOn(const QueryTemplate& query, const std::string& alias,
                              bool* has_or) {
  std::vector<Anchor> anchors;
  for (const OrGroup& group : query.where) {
    bool on_alias = !group.alternatives.empty();
    for (const Predicate& pred : group.alternatives) {
      if (pred.lhs.alias != alias || !pred.rhs_is_param || pred.op != CompareOp::kEq) {
        on_alias = false;
        break;
      }
    }
    if (!on_alias) continue;
    if (group.alternatives.size() > 1 && has_or != nullptr) *has_or = true;
    for (const Predicate& pred : group.alternatives) {
      anchors.push_back(Anchor{pred.lhs.field, pred.param.name});
    }
  }
  return anchors;
}

std::string AdjacencyIndexName(const std::string& edge_entity) { return "adj_" + edge_entity; }

IndexPlan MakeAdjacencyPlan(const EntityDef& edge, const std::string& field_a,
                            const std::string& field_b) {
  IndexPlan plan;
  plan.name = AdjacencyIndexName(edge.name);
  plan.shape = QueryShape::kAdjacency;
  plan.target_entity = edge.name;
  plan.edge_entity = edge.name;
  plan.edge_param_field = field_a;
  plan.edge_other_field = field_b;
  plan.symmetric = true;  // adjacency stores both directions
  plan.update_cost = 4;   // the endpoints' lists, of the old edge and the new
  plan.maintenance.push_back(MaintenanceEntry{plan.name, edge.name, "*"});
  return plan;
}

/// Adjacency and two-hop indexes store an edge's endpoints as lists of
/// int64 ids (index/keys.h).
bool IdEndpoints(const EntityDef& edge, const IndexPlan& plan) {
  const FieldDef* a = edge.FindField(plan.edge_param_field);
  const FieldDef* b = edge.FindField(plan.edge_other_field);
  return a != nullptr && b != nullptr && a->type == FieldType::kInt64 &&
         b->type == FieldType::kInt64;
}

}  // namespace

Result<QueryPlan> PlanQuery(const Catalog& catalog, const std::string& query_name,
                            const QueryTemplate& query, const QueryBounds& bounds,
                            const PlannerConfig& config) {
  QueryPlan out;
  out.query_name = query_name;
  out.ast = query;
  out.bounds = bounds;

  const EntityDef* from_entity = catalog.Get(query.from.table);
  const std::string index_name = "idx_" + query_name;

  // ---------------------------------------------------------- no joins --
  if (query.joins.empty()) {
    if (query.select_alias != query.from.alias) {
      return InvalidArgumentError("SELECT alias must match FROM when there are no joins");
    }
    bool has_or = false;
    std::vector<Anchor> anchors = AnchorsOn(query, query.from.alias, &has_or);
    if (has_or) {
      return UnimplementedError("OR on a non-edge selection is not supported");
    }
    IndexPlan plan;
    plan.query_name = query_name;
    plan.target_entity = from_entity->name;
    for (const Anchor& anchor : anchors) {
      plan.eq_fields.push_back(anchor.field);
      plan.eq_params.push_back(anchor.param);
    }
    plan.order_field =
        query.order_by.has_value() ? std::optional<std::string>(query.order_by->field)
                                   : std::nullopt;
    plan.descending = query.descending;
    plan.limit = query.limit;
    plan.bounds = bounds;

    // Full-key equality without ordering: the base table answers directly.
    bool covers_key =
        !query.order_by.has_value() &&
        plan.eq_fields.size() == from_entity->key_fields.size() &&
        std::equal(plan.eq_fields.begin(), plan.eq_fields.end(),
                   from_entity->key_fields.begin());
    if (covers_key) {
      plan.name = index_name;
      plan.shape = QueryShape::kPointLookup;
      plan.update_cost = 0;  // no derived structure
      out.plans.push_back(std::move(plan));
      return out;
    }
    plan.name = index_name;
    plan.shape = QueryShape::kSelection;
    plan.update_cost = 2;  // delete old entry + insert new entry
    plan.maintenance.push_back(MaintenanceEntry{plan.name, from_entity->name, "*"});
    out.plans.push_back(std::move(plan));
    return out;
  }

  // ------------------------------------------------------------- joins --
  // Classify: single join edge->target, or edge->edge(->target) two-hop.
  bool has_or = false;
  std::vector<Anchor> anchors = AnchorsOn(query, query.from.alias, &has_or);
  if (anchors.empty()) {
    return UnimplementedError("joins must anchor on the FROM (edge) table");
  }

  const EntityDef* edge = from_entity;
  // Edge endpoint fields: the anchored field(s) and the join-out field.
  auto other_endpoint = [&](const std::string& anchored) -> std::string {
    // Find the join whose left side references from-alias: its field is the
    // out field.
    for (const JoinClause& join : query.joins) {
      const FieldRef& outward = join.left.alias == query.from.alias ? join.left : join.right;
      if (outward.alias == query.from.alias && outward.field != anchored) {
        return outward.field;
      }
    }
    return "";
  };

  if (query.joins.size() == 1 && query.joins[0].table.alias == query.select_alias) {
    // --- kJoin: edge anchored on param, joined into target by key --------
    const JoinClause& join = query.joins[0];
    const EntityDef* target = catalog.Get(join.table.table);
    const FieldRef& target_side = join.left.alias == join.table.alias ? join.left : join.right;
    const FieldRef& edge_side = join.left.alias == join.table.alias ? join.right : join.left;
    if (target->key_fields.size() != 1 || target_side.field != target->key_fields[0]) {
      return UnimplementedError("join target must be joined on its single-field primary key");
    }
    IndexPlan plan;
    plan.name = index_name;
    plan.shape = QueryShape::kJoin;
    plan.query_name = query_name;
    plan.target_entity = target->name;
    plan.edge_entity = edge->name;
    plan.edge_param_field = anchors[0].field;
    plan.edge_param_name = anchors[0].param;
    plan.edge_other_field = edge_side.field;
    plan.symmetric = has_or;
    plan.order_field =
        query.order_by.has_value() ? std::optional<std::string>(query.order_by->field)
                                   : std::nullopt;
    plan.descending = query.descending;
    plan.limit = query.limit;
    plan.bounds = bounds;
    plan.adjacency_index = AdjacencyIndexName(edge->name);
    if (!IdEndpoints(*edge, plan)) return UnimplementedError("edge endpoints must be int64 ids");

    // Update cost: edge write -> lookup target + (delete+insert) per
    // direction; target write -> one entry per referring edge (capped).
    std::optional<int64_t> reverse_cap = edge->FanoutCap(plan.edge_other_field);
    std::optional<int64_t> forward_cap = edge->FanoutCap(plan.edge_param_field);
    if (!reverse_cap.has_value() || !forward_cap.has_value()) {
      return FailedPreconditionError(StrFormat(
          "edge '%s' needs fan-out caps on both '%s' and '%s' for bounded maintenance",
          edge->name.c_str(), plan.edge_param_field.c_str(), plan.edge_other_field.c_str()));
    }
    int64_t per_target_write = 2 * (*reverse_cap + (plan.symmetric ? *forward_cap : 0));
    plan.update_cost = std::max<int64_t>(4, per_target_write);
    if (plan.update_cost > config.max_update_cost) {
      return FailedPreconditionError(
          StrFormat("update cost %lld exceeds budget %lld",
                    static_cast<long long>(plan.update_cost),
                    static_cast<long long>(config.max_update_cost)));
    }
    // Figure 3 rows: the index updates when the target's order field (or
    // any field we materialize) changes, and on any edge change.
    plan.maintenance.push_back(
        MaintenanceEntry{plan.name, target->name,
                         plan.order_field.has_value() ? *plan.order_field : "*"});
    plan.maintenance.push_back(MaintenanceEntry{plan.name, edge->name, "*"});

    out.plans.push_back(plan);
    out.plans.push_back(MakeAdjacencyPlan(*edge, plan.edge_param_field, plan.edge_other_field));
    return out;
  }

  if (query.joins.size() >= 1 && query.joins[0].table.table == edge->name) {
    // --- kTwoHop: edge self-join (+ optional target join) ----------------
    const JoinClause& hop = query.joins[0];
    const EntityDef* target = edge;
    std::string target_join_field;
    if (query.joins.size() == 2) {
      target = catalog.Get(query.joins[1].table.table);
      const FieldRef& target_side = query.joins[1].left.alias == query.joins[1].table.alias
                                        ? query.joins[1].left
                                        : query.joins[1].right;
      if (target->key_fields.size() != 1 || target_side.field != target->key_fields[0]) {
        return UnimplementedError("two-hop target must be joined on its single-field key");
      }
      target_join_field = target_side.field;
    } else if (query.joins.size() > 2) {
      return UnimplementedError("at most two joins are supported");
    }
    // Edge endpoints: anchored field and the field chaining into hop 2.
    const FieldRef& mid_left = hop.left.alias == query.from.alias ? hop.left : hop.right;
    IndexPlan plan;
    plan.name = index_name;
    plan.shape = QueryShape::kTwoHop;
    plan.query_name = query_name;
    plan.target_entity = target->name;
    plan.edge_entity = edge->name;
    plan.edge_param_field = anchors[0].field;
    plan.edge_param_name = anchors[0].param;
    plan.edge_other_field = other_endpoint(anchors[0].field).empty()
                                ? mid_left.field
                                : other_endpoint(anchors[0].field);
    plan.symmetric = true;  // friend-of-friend treats edges as undirected
    plan.limit = query.limit;
    plan.bounds = bounds;
    plan.adjacency_index = AdjacencyIndexName(edge->name);
    if (!IdEndpoints(*edge, plan)) return UnimplementedError("edge endpoints must be int64 ids");

    std::optional<int64_t> cap_a = edge->FanoutCap(plan.edge_param_field);
    std::optional<int64_t> cap_b = edge->FanoutCap(plan.edge_other_field);
    if (!cap_a.has_value() || !cap_b.has_value()) {
      return FailedPreconditionError(StrFormat(
          "two-hop over '%s' needs fan-out caps on both endpoint fields", edge->name.c_str()));
    }
    int64_t cap = std::max(*cap_a, *cap_b);
    plan.update_cost = 2 * cap + 2;  // the lists of the endpoints and their friends
    if (plan.update_cost > config.max_update_cost) {
      return FailedPreconditionError(
          StrFormat("two-hop update cost %lld exceeds budget %lld",
                    static_cast<long long>(plan.update_cost),
                    static_cast<long long>(config.max_update_cost)));
    }
    // Figure 3's cascading row: this index is maintained from the adjacency
    // ("friend") index, not from the base table directly.
    plan.maintenance.push_back(
        MaintenanceEntry{plan.name, AdjacencyIndexName(edge->name), "*"});
    out.plans.push_back(plan);
    out.plans.push_back(MakeAdjacencyPlan(*edge, plan.edge_param_field, plan.edge_other_field));
    return out;
  }

  return UnimplementedError(
      StrFormat("query shape not supported: %zu joins from '%s'", query.joins.size(),
                query.from.table.c_str()));
}

std::string RenderMaintenanceTable(const std::vector<MaintenanceEntry>& entries) {
  size_t index_width = strlen("Index");
  size_t table_width = strlen("Table");
  for (const MaintenanceEntry& e : entries) {
    index_width = std::max(index_width, e.index.size());
    table_width = std::max(table_width, e.table.size());
  }
  std::string out = StrFormat("%-*s  %-*s  %s\n", static_cast<int>(index_width), "Index",
                              static_cast<int>(table_width), "Table", "Field");
  for (const MaintenanceEntry& e : entries) {
    out += StrFormat("%-*s  %-*s  %s\n", static_cast<int>(index_width), e.index.c_str(),
                     static_cast<int>(table_width), e.table.c_str(), e.field.c_str());
  }
  return out;
}

}  // namespace scads
