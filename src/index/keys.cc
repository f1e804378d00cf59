#include "index/keys.h"

#include "common/strings.h"

namespace scads {

std::string OrderPieceForRow(const IndexPlan& plan, const Row& row) {
  if (!plan.order_field.has_value()) return "";
  const Value* v = row.Get(*plan.order_field);
  std::string encoded = v == nullptr ? "" : EncodeKeyValue(*v);
  return plan.descending ? InvertBytes(encoded) : encoded;
}

Result<std::string> SelectionEntryKey(const IndexPlan& plan, const EntityDef& target,
                                      const Row& row) {
  std::string key = plan.KeyPrefix();
  for (const std::string& field : plan.eq_fields) {
    const Value* v = row.Get(field);
    if (v == nullptr) {
      return InvalidArgumentError("row missing indexed field '" + field + "'");
    }
    AppendKeyPiece(&key, EncodeKeyValue(*v));
  }
  AppendKeyPiece(&key, OrderPieceForRow(plan, row));
  for (const std::string& field : target.key_fields) {
    const Value* v = row.Get(field);
    if (v == nullptr) {
      return InvalidArgumentError("row missing key field '" + field + "'");
    }
    AppendKeyPiece(&key, EncodeKeyValue(*v));
  }
  return key;
}

std::string JoinEntryKey(const IndexPlan& plan, std::string_view anchor_piece,
                         std::string_view order_piece, std::string_view pk_piece) {
  std::string key = plan.KeyPrefix();
  AppendKeyPiece(&key, anchor_piece);
  AppendKeyPiece(&key, order_piece);
  AppendKeyPiece(&key, pk_piece);
  return key;
}

std::string AnchorScanPrefix(const IndexPlan& plan, std::string_view first_piece) {
  std::string key = plan.KeyPrefix();
  AppendKeyPiece(&key, first_piece);
  return key;
}

std::string ListKey(const IndexPlan& plan, uint64_t list_id) {
  return AnchorScanPrefix(plan, OrderedEncodeInt64(IdOfListId(list_id)));
}

std::string BaseRowKeyFromPiece(const EntityDef& entity, std::string_view pk_piece) {
  std::string key = EntityKeyPrefix(entity.name);
  AppendKeyPiece(&key, pk_piece);
  return key;
}

}  // namespace scads
