// Schema catalog with cardinality constraints, plus the row/value model and
// key encoding.
//
// SCADS requires every query to be provably bounded (paper §2.3/§3.2). The
// information that makes those proofs possible lives here: each entity
// declares its key fields and, crucially, *fan-out caps* — upper bounds on
// how many rows may share one value of a field (e.g. friendships capped at
// 5 000 per user, the paper's Facebook example). A field without a cap is
// unbounded, and queries traversing it are rejected (the paper's Twitter
// example).

#ifndef SCADS_QUERY_SCHEMA_H_
#define SCADS_QUERY_SCHEMA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace scads {

/// Field types supported by the row model.
enum class FieldType { kInt64, kString };

/// One column of an entity.
struct FieldDef {
  std::string name;
  FieldType type = FieldType::kString;
};

/// One entity (table) declaration.
struct EntityDef {
  std::string name;
  std::vector<FieldDef> fields;
  /// Names of the primary-key fields, in key order.
  std::vector<std::string> key_fields;
  /// Fan-out caps: max rows that may share one value of this field.
  /// Key fields are implicitly unique (cap 1 for the full key).
  std::map<std::string, int64_t> fanout_caps;

  const FieldDef* FindField(std::string_view field) const;
  /// Cap for `field`, if declared.
  std::optional<int64_t> FanoutCap(std::string_view field) const;
};

/// A field value.
using Value = std::variant<int64_t, std::string>;

/// Renders a value for messages ("42", "'bob'").
std::string ValueToString(const Value& value);

/// One row: field name -> value. Sparse (absent fields read as defaults).
class Row {
 public:
  Row() = default;

  void Set(std::string_view field, Value value);
  void SetInt(std::string_view field, int64_t v) { Set(field, Value(v)); }
  void SetString(std::string_view field, std::string v) { Set(field, Value(std::move(v))); }

  bool Has(std::string_view field) const;
  /// The value, or nullptr when absent.
  const Value* Get(std::string_view field) const;
  /// Typed access with defaults (0 / "").
  int64_t GetInt(std::string_view field) const;
  std::string GetString(std::string_view field) const;

  const std::map<std::string, Value, std::less<>>& fields() const { return fields_; }

  friend bool operator==(const Row& a, const Row& b) { return a.fields_ == b.fields_; }

 private:
  std::map<std::string, Value, std::less<>> fields_;
};

/// Serializes `row` against `schema` (fields in schema order, presence
/// bytes, ordered-width ints, length-prefixed strings).
std::string EncodeRow(const EntityDef& schema, const Row& row);

/// Inverse of EncodeRow.
Result<Row> DecodeRow(const EntityDef& schema, std::string_view encoded);

/// Encodes a value for use inside an index/storage key such that the byte
/// order equals the value order (ints sign-flipped big-endian; strings raw).
std::string EncodeKeyValue(const Value& value);

/// Storage key of an entity row: "t/<entity>/" + key field pieces.
Result<std::string> EncodePrimaryKey(const EntityDef& schema, const Row& row);

/// Key prefix shared by all rows of an entity (for scans).
std::string EntityKeyPrefix(std::string_view entity_name);

/// The schema registry.
class Catalog {
 public:
  /// Registers an entity. Validates: non-empty name/key, key fields exist,
  /// caps reference existing fields, no duplicate entity.
  Status AddEntity(EntityDef entity);

  const EntityDef* Get(std::string_view name) const;

 private:
  std::map<std::string, EntityDef, std::less<>> entities_;
};

}  // namespace scads

#endif  // SCADS_QUERY_SCHEMA_H_
