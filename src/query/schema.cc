#include "query/schema.h"

#include "common/strings.h"
#include "storage/codec.h"

namespace scads {

const FieldDef* EntityDef::FindField(std::string_view field) const {
  for (const FieldDef& f : fields) {
    if (f.name == field) return &f;
  }
  return nullptr;
}

std::optional<int64_t> EntityDef::FanoutCap(std::string_view field) const {
  auto it = fanout_caps.find(std::string(field));
  if (it == fanout_caps.end()) return std::nullopt;
  return it->second;
}

std::string ValueToString(const Value& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return StrFormat("%lld", static_cast<long long>(std::get<int64_t>(value)));
  }
  return StrFormat("'%s'", std::get<std::string>(value).c_str());
}

void Row::Set(std::string_view field, Value value) {
  fields_.insert_or_assign(std::string(field), std::move(value));
}

bool Row::Has(std::string_view field) const { return fields_.find(field) != fields_.end(); }

const Value* Row::Get(std::string_view field) const {
  auto it = fields_.find(field);
  return it == fields_.end() ? nullptr : &it->second;
}

int64_t Row::GetInt(std::string_view field) const {
  const Value* v = Get(field);
  if (v == nullptr || !std::holds_alternative<int64_t>(*v)) return 0;
  return std::get<int64_t>(*v);
}

std::string Row::GetString(std::string_view field) const {
  const Value* v = Get(field);
  if (v == nullptr || !std::holds_alternative<std::string>(*v)) return "";
  return std::get<std::string>(*v);
}

std::string EncodeRow(const EntityDef& schema, const Row& row) {
  std::string out;
  for (const FieldDef& field : schema.fields) {
    const Value* v = row.Get(field.name);
    if (v == nullptr) {
      out.push_back(0);  // absent
      continue;
    }
    out.push_back(1);
    if (field.type == FieldType::kInt64) {
      int64_t i = std::holds_alternative<int64_t>(*v) ? std::get<int64_t>(*v) : 0;
      PutFixed64(&out, static_cast<uint64_t>(i));
    } else {
      std::string s = std::holds_alternative<std::string>(*v) ? std::get<std::string>(*v) : "";
      PutLengthPrefixed(&out, s);
    }
  }
  return out;
}

Result<Row> DecodeRow(const EntityDef& schema, std::string_view encoded) {
  Row row;
  for (const FieldDef& field : schema.fields) {
    if (encoded.empty()) return InvalidArgumentError("row truncated");
    uint8_t present = static_cast<uint8_t>(encoded[0]);
    encoded.remove_prefix(1);
    if (present == 0) continue;
    if (present != 1) return InvalidArgumentError("bad presence byte");
    if (field.type == FieldType::kInt64) {
      uint64_t raw = 0;
      if (!GetFixed64(&encoded, &raw)) return InvalidArgumentError("row int truncated");
      row.SetInt(field.name, static_cast<int64_t>(raw));
    } else {
      std::string_view s;
      if (!GetLengthPrefixed(&encoded, &s)) return InvalidArgumentError("row string truncated");
      row.SetString(field.name, std::string(s));
    }
  }
  return row;
}

std::string EncodeKeyValue(const Value& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return OrderedEncodeInt64(std::get<int64_t>(value));
  }
  return std::get<std::string>(value);
}

std::string EntityKeyPrefix(std::string_view entity_name) {
  std::string prefix = "t/";
  prefix.append(entity_name);
  prefix.push_back('/');
  return prefix;
}

Result<std::string> EncodePrimaryKey(const EntityDef& schema, const Row& row) {
  std::string key = EntityKeyPrefix(schema.name);
  for (const std::string& field : schema.key_fields) {
    const Value* v = row.Get(field);
    if (v == nullptr) {
      return InvalidArgumentError(StrFormat("row missing key field '%s'", field.c_str()));
    }
    AppendKeyPiece(&key, EncodeKeyValue(*v));
  }
  return key;
}

Status Catalog::AddEntity(EntityDef entity) {
  if (entity.name.empty()) return InvalidArgumentError("empty entity name");
  if (entity.fields.empty()) return InvalidArgumentError("entity has no fields");
  if (entity.key_fields.empty()) {
    return InvalidArgumentError(StrFormat("entity '%s' has no key fields", entity.name.c_str()));
  }
  for (const std::string& key_field : entity.key_fields) {
    if (entity.FindField(key_field) == nullptr) {
      return InvalidArgumentError(
          StrFormat("key field '%s' not declared in entity '%s'", key_field.c_str(),
                    entity.name.c_str()));
    }
  }
  for (const auto& [field, cap] : entity.fanout_caps) {
    if (entity.FindField(field) == nullptr) {
      return InvalidArgumentError(StrFormat("fan-out cap on unknown field '%s'", field.c_str()));
    }
    if (cap < 1) return InvalidArgumentError("fan-out cap must be >= 1");
  }
  std::string name = entity.name;
  auto [it, inserted] = entities_.emplace(std::move(name), std::move(entity));
  if (!inserted) return AlreadyExistsError(it->first);
  return Status::Ok();
}

const EntityDef* Catalog::Get(std::string_view name) const {
  auto it = entities_.find(name);
  return it == entities_.end() ? nullptr : &it->second;
}

}  // namespace scads
