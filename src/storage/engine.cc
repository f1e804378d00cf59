#include "storage/engine.h"

#include <algorithm>
#include <utility>

namespace scads {

EngineCounters::EngineCounters(MetricRegistry* registry)
    : puts(registry->GetCounter("puts")),
      puts_superseded(registry->GetCounter("puts_superseded")),
      deletes(registry->GetCounter("deletes")),
      deletes_superseded(registry->GetCounter("deletes_superseded")),
      gets(registry->GetCounter("gets")),
      get_misses(registry->GetCounter("get_misses")),
      multigets(registry->GetCounter("multigets")),
      scans(registry->GetCounter("scans")),
      scan_rows(registry->GetCounter("scan_rows")),
      wal_appends(registry->GetCounter("wal_appends")),
      wal_batch_syncs(registry->GetCounter("wal_batch_syncs")),
      bytes_resident(registry->GetCounter("bytes_resident")) {}

StorageEngine::StorageEngine(EngineOptions options)
    : options_(options), counters_(&metrics_) {}

Result<bool> StorageEngine::Write(std::string_view key, std::string_view value, Version version,
                                  bool tombstone) {
  if (key.empty()) return InvalidArgumentError("empty key");
  // WAL first: a mutation must be logged before it becomes visible.
  if (options_.wal != nullptr) {
    WalRecord record;
    record.type = tombstone ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
    record.key.assign(key);
    if (!tombstone) record.value.assign(value);
    record.version = version;
    WalWriter writer(options_.wal);
    SCADS_RETURN_IF_ERROR(writer.Append(record));
    counters_.wal_appends->Increment();
    if (options_.wal_sync_every_write) SCADS_RETURN_IF_ERROR(writer.Sync());
  }
  return ApplyToTable(key, value, version, tombstone);
}

Result<bool> StorageEngine::ApplyToTable(std::string_view key, std::string_view value,
                                         Version version, bool tombstone) {
  bool created = false;
  MemTable::Entry* entry = table_.FindOrCreate(key, &created);
  if (!created && !(version > entry->version())) {
    (tombstone ? counters_.deletes_superseded : counters_.puts_superseded)->Increment();
    return false;
  }
  bool was_live = !created && !entry->tombstone();
  table_.Assign(entry, tombstone ? std::string_view() : value, version, tombstone);
  if (tombstone) {
    if (was_live) --live_count_;
  } else if (!was_live) {
    ++live_count_;
  }
  (tombstone ? counters_.deletes : counters_.puts)->Increment();
  SyncResidentMetric();
  return true;
}

void StorageEngine::SyncResidentMetric() const {
  counters_.bytes_resident->Increment(bytes_resident() - counters_.bytes_resident->value());
}

Result<bool> StorageEngine::Put(std::string_view key, std::string_view value, Version version) {
  return Write(key, value, version, /*tombstone=*/false);
}

Result<bool> StorageEngine::Delete(std::string_view key, Version version) {
  return Write(key, "", version, /*tombstone=*/true);
}

Result<Record> StorageEngine::Get(std::string_view key) const {
  counters_.gets->Increment();
  const MemTable::Entry* entry = table_.Find(key);
  if (entry == nullptr || entry->tombstone()) {
    counters_.get_misses->Increment();
    return NotFoundError(std::string(key));
  }
  Record record;
  record.key.assign(key);
  record.value.assign(entry->value());
  record.version = entry->version();
  return record;
}

std::vector<Result<Record>> StorageEngine::MultiGet(const std::vector<std::string>& keys) const {
  counters_.multigets->Increment();
  if (keys.size() == 1) {
    // Every point read arrives as a one-key batch: no sort order to build.
    std::vector<Result<Record>> out;
    out.push_back(Get(keys.front()));
    return out;
  }
  counters_.gets->Increment(static_cast<int64_t>(keys.size()));
  // Probe in sorted order through one iterator so adjacent keys reuse the
  // traversal position; results land back in input slots (duplicates each
  // get a copy).
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  // Placeholders (every slot is overwritten below) that build no status.
  std::vector<Result<Record>> out(keys.size(), Result<Record>(Record{}));
  MemTable::Iterator it(&table_);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    size_t slot = order[rank];
    const std::string& key = keys[slot];
    if (rank > 0 && keys[order[rank - 1]] == key) {
      out[slot] = out[order[rank - 1]];
      // Duplicates share the probe but count as logical reads, so the
      // gets/get_misses ratio matches the equivalent Get sequence.
      if (!out[slot].ok()) counters_.get_misses->Increment();
      continue;
    }
    it.SeekForward(key);
    if (!it.Valid() || it.key() != key || it.entry().tombstone()) {
      counters_.get_misses->Increment();
      out[slot] = NotFoundError(key);
      continue;
    }
    Record record;
    record.key = key;
    record.value.assign(it.entry().value());
    record.version = it.entry().version();
    out[slot] = std::move(record);
  }
  return out;
}

std::optional<Record> StorageEngine::GetRaw(std::string_view key) const {
  const MemTable::Entry* entry = table_.Find(key);
  if (entry == nullptr) return std::nullopt;
  Record record;
  record.key.assign(key);
  record.value.assign(entry->value());
  record.version = entry->version();
  record.tombstone = entry->tombstone();
  return record;
}

Result<std::vector<Record>> StorageEngine::Scan(std::string_view start, std::string_view end,
                                                size_t limit) const {
  if (!end.empty() && start > end) return InvalidArgumentError("scan start > end");
  counters_.scans->Increment();
  std::vector<Record> out;
  MemTable::Iterator it(&table_);
  it.Seek(start);
  while (it.Valid()) {
    if (!end.empty() && it.key() >= end) break;
    const MemTable::Entry& entry = it.entry();
    if (!entry.tombstone()) {
      Record record;
      record.key.assign(it.key());
      record.value.assign(entry.value());
      record.version = entry.version();
      out.push_back(std::move(record));
      if (limit != 0 && out.size() >= limit) break;
    }
    it.Next();
  }
  counters_.scan_rows->Increment(static_cast<int64_t>(out.size()));
  return out;
}

std::vector<Record> StorageEngine::ScanRaw(std::string_view start, std::string_view end,
                                           size_t limit) const {
  std::vector<Record> out;
  MemTable::Iterator it(&table_);
  it.Seek(start);
  while (it.Valid()) {
    if (!end.empty() && it.key() >= end) break;
    const MemTable::Entry& entry = it.entry();
    Record record;
    record.key.assign(it.key());
    record.value.assign(entry.value());
    record.version = entry.version();
    record.tombstone = entry.tombstone();
    out.push_back(std::move(record));
    if (limit != 0 && out.size() >= limit) break;
    it.Next();
  }
  return out;
}

Status StorageEngine::Apply(const WalRecord& record) {
  Result<bool> applied =
      Write(record.key, record.value, record.version,
            record.type == WalRecord::Type::kDelete);
  return applied.ok() ? Status::Ok() : applied.status();
}

Status StorageEngine::ApplyBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::Ok();
  for (const WalRecord& record : records) {
    if (record.key.empty()) return InvalidArgumentError("empty key");
  }
  // Group commit: the whole batch is logged (and made durable) before any
  // of it becomes visible, with a single sync amortized over the batch.
  if (options_.wal != nullptr) {
    WalWriter writer(options_.wal);
    SCADS_RETURN_IF_ERROR(writer.AppendBatch(records));
    counters_.wal_appends->Increment(static_cast<int64_t>(records.size()));
    if (options_.wal_sync_every_write) {
      SCADS_RETURN_IF_ERROR(writer.Sync());
      counters_.wal_batch_syncs->Increment();
    }
  }
  for (const WalRecord& record : records) {
    Result<bool> applied = ApplyToTable(record.key, record.value, record.version,
                                        record.type == WalRecord::Type::kDelete);
    if (!applied.ok()) return applied.status();
  }
  return Status::Ok();
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Recover(
    EngineOptions options, const std::vector<WalRecord>& records) {
  // Replay must not re-log: recover into a WAL-less engine, then attach.
  WalSink* wal = options.wal;
  options.wal = nullptr;
  auto engine = std::make_unique<StorageEngine>(options);
  for (const WalRecord& record : records) {
    SCADS_RETURN_IF_ERROR(engine->Apply(record));
  }
  engine->options_.wal = wal;
  return engine;
}

size_t StorageEngine::PurgeTombstonesBefore(Time cutoff) {
  size_t purged = 0;
  MemTable::Iterator it(&table_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    const MemTable::Entry& entry = it.entry();
    // Already-purged ghosts carry Version{} (no real writer ever stamps
    // kInvalidNode); skip them so repeated purges don't recount.
    if (entry.tombstone() && entry.version().timestamp < cutoff &&
        !(entry.version() == Version{})) {
      // Reset the version floor so the slot behaves like an absent key.
      table_.Assign(table_.FindMutable(it.key()), "", Version{}, /*tombstone=*/true);
      ++purged;
    }
  }
  return purged;
}

}  // namespace scads
