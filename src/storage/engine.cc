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

EngineInterface::EngineInterface(EngineOptions options)
    : options_(options), counters_(&metrics_) {}

Record EngineInterface::RecordOf(const MemTable::Entry& entry) {
  Record record;
  record.key.assign(entry.key());
  record.value.assign(entry.value());
  record.version = entry.version();
  record.tombstone = entry.tombstone();
  return record;
}

Result<bool> EngineInterface::Write(std::string_view key, std::string_view value,
                                    Version version, bool tombstone) {
  if (key.empty()) return InvalidArgumentError("empty key");
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
  return ApplyCounted(key, value, version, tombstone);
}

bool EngineInterface::ApplyCounted(std::string_view key, std::string_view value,
                                   Version version, bool tombstone) {
  bool was_live = false;
  if (!ApplyToTable(key, value, version, tombstone, &was_live)) {
    (tombstone ? counters_.deletes_superseded : counters_.puts_superseded)->Increment();
    return false;
  }
  if (tombstone && was_live) --live_count_;
  if (!tombstone && !was_live) ++live_count_;
  (tombstone ? counters_.deletes : counters_.puts)->Increment();
  SyncResidentMetric();
  return true;
}

void EngineInterface::SyncResidentMetric() const {
  counters_.bytes_resident->Increment(bytes_resident() - counters_.bytes_resident->value());
}

Status EngineInterface::Apply(const WalRecord& record) {
  Result<bool> applied =
      Write(record.key, record.value, record.version,
            record.type == WalRecord::Type::kDelete);
  return applied.ok() ? Status::Ok() : applied.status();
}

Status EngineInterface::ApplyBatch(const std::vector<WalRecord>& records) {
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
    ApplyCounted(record.key, record.value, record.version,
                 record.type == WalRecord::Type::kDelete);
  }
  return Status::Ok();
}

Status EngineInterface::Replay(const std::vector<WalRecord>& records) {
  // Replay must not re-log: apply with the WAL detached, then attach it.
  WalSink* wal = std::exchange(options_.wal, nullptr);
  for (const WalRecord& record : records) SCADS_RETURN_IF_ERROR(Apply(record));
  options_.wal = wal;
  return Status::Ok();
}

Result<Record> EngineInterface::LiveRecord(std::string_view key,
                                           const MemTable::Entry* entry) const {
  if (entry != nullptr) {
    if (!entry->tombstone()) return RecordOf(*entry);
  } else if (const Record* below = FindBelow(key); below != nullptr && !below->tombstone) {
    return *below;
  }
  return NotFoundError(key);
}

Result<Record> EngineInterface::Get(std::string_view key) const {
  counters_.gets->Increment();
  Result<Record> result = LiveRecord(key, memtable().Find(key));
  if (!result.ok()) counters_.get_misses->Increment();
  return result;
}

std::vector<Result<Record>> EngineInterface::MultiGet(
    const std::vector<std::string>& keys) const {
  counters_.multigets->Increment();
  if (keys.size() == 1) {
    // Every point read arrives as a one-key batch: no sort order to build.
    std::vector<Result<Record>> out;
    out.push_back(Get(keys.front()));
    return out;
  }
  counters_.gets->Increment(static_cast<int64_t>(keys.size()));
  // Probe in sorted order through one iterator so adjacent keys reuse the
  // traversal position (and keys below the memtable fault their pages in
  // key order); results land back in input slots.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  // Placeholders (every slot is overwritten below) that build no status.
  std::vector<Result<Record>> out(keys.size(), Result<Record>(Record{}));
  MemTable::Iterator it(&memtable());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    size_t slot = order[rank];
    const std::string& key = keys[slot];
    if (rank > 0 && keys[order[rank - 1]] == key) {
      // Duplicates share the probe but count as logical reads, so the
      // gets/get_misses ratio matches the equivalent Get sequence.
      out[slot] = out[order[rank - 1]];
    } else {
      it.SeekForward(key);
      out[slot] = LiveRecord(key, it.Valid() && it.key() == key ? &it.entry() : nullptr);
    }
    if (!out[slot].ok()) counters_.get_misses->Increment();
  }
  return out;
}

std::optional<Record> EngineInterface::GetRaw(std::string_view key) const {
  if (const MemTable::Entry* entry = memtable().Find(key)) return RecordOf(*entry);
  if (const Record* below = FindBelow(key)) return *below;
  return std::nullopt;
}

Result<std::vector<Record>> EngineInterface::Scan(std::string_view start, std::string_view end,
                                                  size_t limit) const {
  if (!end.empty() && start > end) return InvalidArgumentError("scan start > end");
  counters_.scans->Increment();
  std::vector<Record> out = ScanTable(start, end, limit, /*include_tombstones=*/false);
  counters_.scan_rows->Increment(static_cast<int64_t>(out.size()));
  return out;
}

bool StorageEngine::ApplyToTable(std::string_view key, std::string_view value, Version version,
                                 bool tombstone, bool* was_live) {
  bool created = false;
  MemTable::Entry* entry = table_.FindOrCreate(key, &created);
  if (!created && !(version > entry->version())) return false;
  *was_live = !created && !entry->tombstone();
  table_.Assign(entry, tombstone ? std::string_view() : value, version, tombstone);
  return true;
}

std::vector<Record> StorageEngine::ScanTable(std::string_view start, std::string_view end,
                                             size_t limit, bool include_tombstones) const {
  std::vector<Record> out;
  MemTable::Iterator it(&table_);
  for (it.Seek(start); it.Valid() && (end.empty() || it.key() < end); it.Next()) {
    if (!include_tombstones && it.entry().tombstone()) continue;
    out.push_back(RecordOf(it.entry()));
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Recover(
    EngineOptions options, const std::vector<WalRecord>& records) {
  auto engine = std::make_unique<StorageEngine>(options);
  SCADS_RETURN_IF_ERROR(engine->Replay(records));
  return engine;
}

}  // namespace scads
