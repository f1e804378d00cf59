// Index entry key layouts.
//
// Every index lives in the same ordered keyspace as base tables, under the
// prefix "i/<index_name>/". Key components are length-prefixed pieces
// (common/strings.h) so composite keys cannot alias, and ints are encoded
// order-preserving. Layouts per shape:
//
//   selection:  i/<n>/ piece(eq_0)..piece(eq_k) piece(order) piece(pk...)
//   join:       i/<n>/ piece(anchor) piece(order) piece(target_pk)
//   adjacency:  i/<n>/ piece(endpoint)  -> the endpoint's neighbour ids
//   two_hop:    i/<n>/ piece(user)      -> the user's friend-of-friend ids
//
// An adjacency or two-hop record is one AdjacencyCodec list per user, keyed
// at its AnchorScanPrefix. An id is stored as the uint64 its key piece spells
// (the int64 with its sign bit flipped), so a list runs in key order.
//
// Descending ORDER BY inverts the order piece's bytes (valid for the
// fixed-width int encoding; the planner rejects DESC on strings).

#ifndef SCADS_INDEX_KEYS_H_
#define SCADS_INDEX_KEYS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "query/planner.h"
#include "query/schema.h"

namespace scads {

/// Encoded order-by piece for `row` under `plan` (empty piece when the plan
/// has no ORDER BY). Applies descending inversion.
std::string OrderPieceForRow(const IndexPlan& plan, const Row& row);

/// Selection-index key for a full row of the target entity.
Result<std::string> SelectionEntryKey(const IndexPlan& plan, const EntityDef& target,
                                      const Row& row);

/// Join-index key from raw encoded pieces.
std::string JoinEntryKey(const IndexPlan& plan, std::string_view anchor_piece,
                         std::string_view order_piece, std::string_view pk_piece);

/// Scan prefix for all entries anchored at `first_piece` (e.g. one user's
/// slice of a join index); the key of one user's adjacency or two-hop record.
std::string AnchorScanPrefix(const IndexPlan& plan, std::string_view first_piece);

/// The uint64 an adjacency or two-hop list stores for `id`, and back.
inline uint64_t ListId(int64_t id) { return static_cast<uint64_t>(id) ^ (uint64_t{1} << 63); }
inline int64_t IdOfListId(uint64_t id) { return static_cast<int64_t>(id ^ (uint64_t{1} << 63)); }

/// Key of the adjacency or two-hop record of the user a list stores as
/// `list_id`.
std::string ListKey(const IndexPlan& plan, uint64_t list_id);

/// Base-table key for the row of `entity` whose (single-field) primary key
/// has encoded bytes `pk_piece`.
std::string BaseRowKeyFromPiece(const EntityDef& entity, std::string_view pk_piece);

}  // namespace scads

#endif  // SCADS_INDEX_KEYS_H_
