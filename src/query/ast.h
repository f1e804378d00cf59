// Abstract syntax for the restricted SQL template dialect (paper §3.2).
//
// The dialect deliberately supports only what compiles to bounded index
// lookups: equality predicates against named parameters, equi-joins,
// a symmetric OR (for undirected edges like friendship), ORDER BY one
// field, and LIMIT.

#ifndef SCADS_QUERY_AST_H_
#define SCADS_QUERY_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace scads {

/// "FROM friendships f" — table plus alias (alias defaults to the name).
struct TableRef {
  std::string table;
  std::string alias;
};

/// "f.f1" — alias-qualified field.
struct FieldRef {
  std::string alias;
  std::string field;

  friend bool operator==(const FieldRef& a, const FieldRef& b) {
    return a.alias == b.alias && a.field == b.field;
  }
  std::string ToString() const { return alias + "." + field; }
};

/// "<user_id>" — a named query parameter bound at execution time.
struct Param {
  std::string name;
};

enum class CompareOp { kEq, kLt, kGt, kLe, kGe };

/// One comparison: field vs. parameter, or field vs. field (join-style).
struct Predicate {
  FieldRef lhs;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_param = true;
  Param param;        ///< Valid when rhs_is_param.
  FieldRef rhs_field; ///< Valid when !rhs_is_param.
};

/// Disjunction of predicates ("f.f1 = <u> OR f.f2 = <u>"). Most groups hold
/// a single predicate.
struct OrGroup {
  std::vector<Predicate> alternatives;
};

/// "JOIN profiles p ON f.f2 = p.user_id".
struct JoinClause {
  TableRef table;
  FieldRef left;
  FieldRef right;
};

/// A full parsed query template.
struct QueryTemplate {
  /// Alias whose rows are projected ("SELECT p.*").
  std::string select_alias;
  TableRef from;
  std::vector<JoinClause> joins;
  std::vector<OrGroup> where;
  std::optional<FieldRef> order_by;
  bool descending = false;
  std::optional<int64_t> limit;
  /// Per-template bounds from the WITH clause ("WITH STALENESS 5s,
  /// DEADLINE 50ms"): every execution of this template runs under these
  /// RequestOptions defaults unless the caller overrides them. Validated
  /// against the deployment spec at registration.
  std::optional<Duration> staleness_bound;
  std::optional<Duration> deadline;
  /// Original text (diagnostics).
  std::string text;
};

}  // namespace scads

#endif  // SCADS_QUERY_AST_H_
