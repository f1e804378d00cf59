// Static analysis: is a query template scale-independent?
//
// Implements the paper's acceptance rule (§2.3, §3.2): a query may only be
// registered when (a) it anchors on equality parameters that map to a
// contiguous range of a precomputed index, (b) every join traverses a
// field with a declared fan-out cap (or a primary key), and (c) the
// resulting worst-case read and update costs stay under fixed constants.
// Queries like Twitter's unbounded follower fan-out fail (b) and are
// rejected up front — they never reach production.

#ifndef SCADS_QUERY_ANALYZER_H_
#define SCADS_QUERY_ANALYZER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "query/ast.h"
#include "query/schema.h"

namespace scads {

/// Outcome of a successful analysis.
struct QueryBounds {
  /// Worst-case rows examined by one execution.
  int64_t read_rows = 1;
  /// True when the bound came from a LIMIT clause rather than fan-out caps
  /// (the index may grow without bound, reads stay bounded).
  bool bounded_by_limit = false;
};

/// Validates the template against the catalog and proves the read bound.
/// Errors:
///  * kInvalidArgument — unknown table/field/alias, malformed query;
///  * kFailedPrecondition — query is not scale-independent (unbounded or
///    over the budget of 100,000 rows per execution); the message names the
///    offending field, e.g. the uncapped follower edge.
Result<QueryBounds> AnalyzeTemplate(const Catalog& catalog, const QueryTemplate& query);

}  // namespace scads

#endif  // SCADS_QUERY_ANALYZER_H_
