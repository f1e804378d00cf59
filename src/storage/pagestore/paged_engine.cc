#include "storage/pagestore/paged_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "storage/codec.h"

namespace scads {

namespace {
constexpr size_t kNpos = std::numeric_limits<size_t>::max();
}  // namespace

PagedEngine::PageCounters::PageCounters(MetricRegistry* registry)
    : page_faults(registry->GetCounter("page_faults")),
      pages_prefetched(registry->GetCounter("pages_prefetched")),
      prefetch_skips(registry->GetCounter("prefetch_skips")),
      pool_evictions(registry->GetCounter("pool_evictions")),
      budget_overruns(registry->GetCounter("budget_overruns")),
      forced_writebacks(registry->GetCounter("forced_writebacks")),
      pages_written_back(registry->GetCounter("pages_written_back")),
      spills(registry->GetCounter("spills")),
      page_splits(registry->GetCounter("page_splits")) {}

PagedEngine::PagedEngine(Executor* loop, PagedEngineOptions options)
    : loop_(loop),
      options_(options),
      owned_file_(options.file != nullptr ? nullptr : std::make_unique<PageFile>()),
      file_(options.file != nullptr ? options.file : owned_file_.get()),
      pool_(options.config.buffer_pool_bytes),
      mem_(std::make_unique<SkipList>(options.seed)),
      next_mem_seed_(options.seed + 0x9e3779b97f4a7c15ULL),
      counters_(&metrics_),
      page_counters_(&metrics_) {
  if (file_->page_count() == 0) {
    PageId root = file_->Allocate();
    page_index_[""] = root;
    page_bounds_[root] = "";
  } else {
    RebuildFromFile();
  }
  write_back_event_ = loop_->SchedulePeriodic(kWriteBackInterval, [this] { WriteBackTick(); });
}

PagedEngine::~PagedEngine() {
  if (write_back_event_ != Executor::kInvalidTask) loop_->Cancel(write_back_event_);
}

void PagedEngine::RebuildFromFile() {
  // Pass 1: reclaim the range partition from durable page headers. Pages
  // allocated but never written back have no header and stay unindexed.
  for (PageId id = 0; id < file_->page_count(); ++id) {
    const std::string& bytes = file_->Contents(id);
    if (bytes.empty()) continue;
    std::string_view input(bytes);
    std::string_view lower;
    if (!GetLengthPrefixed(&input, &lower)) continue;
    std::string lower_key(lower);
    if (page_index_.find(lower_key) != page_index_.end()) continue;
    page_index_[lower_key] = id;
    page_bounds_[id] = lower_key;
  }
  if (page_index_.find("") == page_index_.end()) {
    PageId root = file_->Allocate();
    page_index_[""] = root;
    page_bounds_[root] = "";
  }
  // Pass 2: rebuild key counts from the clamped durable runs (stale split
  // shadows outside a page's reclaimed range are dropped by DecodePage, so
  // each surviving key is counted exactly once).
  for (auto it = page_index_.begin(); it != page_index_.end(); ++it) {
    auto next = std::next(it);
    std::string_view upper =
        next == page_index_.end() ? std::string_view() : std::string_view(next->first);
    PageFrame temp;
    if (!DecodePage(file_->Contents(it->second), it->first, upper, &temp)) continue;
    for (const Record& record : temp.records) {
      ++total_count_;
      if (!record.tombstone) ++live_count_;
    }
  }
}

PagedEngine::PageSpan PagedEngine::SpanForKey(std::string_view key) const {
  auto it = page_index_.upper_bound(std::string(key));
  // The "" entry guarantees a predecessor for every key.
  auto owner = std::prev(it);
  PageSpan span;
  span.id = owner->second;
  span.upper = it == page_index_.end() ? std::string_view() : std::string_view(it->first);
  return span;
}

PageFrame* PagedEngine::Fault(const PageSpan& span) const {
  PageFrame* frame = pool_.Find(span.id);
  if (frame != nullptr) return frame;
  const std::string& bytes = file_->Contents(span.id);
  PageFrame decoded;
  if (!DecodePage(bytes, page_bounds_.at(span.id), span.upper, &decoded)) {
    // Corrupt images cannot arise in-sim; degrade to an empty run rather
    // than poison the read path.
    decoded.records.clear();
    decoded.bytes = 0;
  }
  EnsureBudget(decoded.bytes);
  frame = pool_.Insert(span.id);
  frame->lower_bound = std::move(decoded.lower_bound);
  frame->records = std::move(decoded.records);
  // Epochs must stay monotone across evict/refault cycles: a fresh frame
  // restarting at zero would make every future write-back of this page look
  // older than the durable image and be skipped, silently dropping data.
  auto durable = durable_epoch_.find(span.id);
  if (durable != durable_epoch_.end()) frame->dirty_epoch = durable->second;
  pool_.AdjustBytes(frame, static_cast<int64_t>(decoded.bytes));
  if (!bytes.empty()) {
    // Only a real durable image costs a disk read; faulting a page that was
    // never written back is pure bookkeeping.
    accrued_io_ += kPageReadLatency;
    page_counters_.page_faults->Increment();
  }
  return frame;
}

void PagedEngine::Prefetch(const PageSpan& span) const {
  // Peek, not Find: a speculative touch must not refresh the clock bit of
  // a page the application never actually read.
  if (pool_.Peek(span.id) != nullptr) return;
  const std::string& bytes = file_->Contents(span.id);
  // A page with no durable image faults for free anyway.
  if (bytes.empty()) return;
  PageFrame decoded;
  if (!DecodePage(bytes, page_bounds_.at(span.id), span.upper, &decoded)) return;
  if (!TryReserveClean(decoded.bytes)) {
    page_counters_.prefetch_skips->Increment();
    return;
  }
  PageFrame* frame = pool_.Insert(span.id);
  frame->lower_bound = std::move(decoded.lower_bound);
  frame->records = std::move(decoded.records);
  // Same epoch restoration as Fault — see the comment there.
  auto durable = durable_epoch_.find(span.id);
  if (durable != durable_epoch_.end()) frame->dirty_epoch = durable->second;
  pool_.AdjustBytes(frame, static_cast<int64_t>(decoded.bytes));
  page_counters_.pages_prefetched->Increment();
}

bool PagedEngine::TryReserveClean(size_t incoming) const {
  while (pool_.resident_bytes() + incoming > pool_.capacity()) {
    PageFrame* victim = pool_.PickVictim(/*allow_dirty=*/false);
    if (victim == nullptr) return false;
    pool_.Erase(victim->id);
    page_counters_.pool_evictions->Increment();
  }
  return true;
}

size_t PagedEngine::FindInFrame(const PageFrame* frame, std::string_view key) {
  auto it = std::lower_bound(
      frame->records.begin(), frame->records.end(), key,
      [](const Record& record, std::string_view target) { return record.key < target; });
  if (it == frame->records.end() || it->key != key) return kNpos;
  return static_cast<size_t>(it - frame->records.begin());
}

void PagedEngine::EnsureBudget(size_t incoming) const {
  while (pool_.resident_bytes() + incoming > pool_.capacity()) {
    PageFrame* victim = pool_.PickVictim(/*allow_dirty=*/false);
    if (victim == nullptr) victim = pool_.PickVictim(/*allow_dirty=*/true);
    if (victim == nullptr) {
      // Everything is pinned (a huge spill merge can do this transiently);
      // run over budget rather than deadlock, and record it.
      page_counters_.budget_overruns->Increment();
      break;
    }
    if (victim->dirty) WriteBackNow(victim);
    pool_.Erase(victim->id);
    page_counters_.pool_evictions->Increment();
  }
}

void PagedEngine::MarkDirty(PageFrame* frame) {
  ++frame->dirty_epoch;
  if (!frame->dirty) {
    frame->dirty = true;
    ++dirty_pages_;
  }
  if (!frame->queued) {
    frame->queued = true;
    dirty_queue_.push_back(frame->id);
  }
}

void PagedEngine::WriteBackNow(PageFrame* frame) const {
  SyncWalBeforePageWrite();
  uint64_t epoch = frame->dirty_epoch;
  auto it = durable_epoch_.find(frame->id);
  if (it == durable_epoch_.end() || epoch > it->second) {
    file_->Write(frame->id, EncodePage(*frame));
    durable_epoch_[frame->id] = epoch;
  }
  frame->dirty = false;
  --dirty_pages_;
  accrued_io_ += kPageWriteLatency;
  page_counters_.forced_writebacks->Increment();
  page_counters_.pages_written_back->Increment();
}

void PagedEngine::WriteBackTick() {
  size_t budget = options_.config.write_back_batch;
  Duration offset = 0;
  bool synced = false;
  while (budget > 0 && !dirty_queue_.empty()) {
    PageId id = dirty_queue_.front();
    dirty_queue_.pop_front();
    PageFrame* frame = pool_.Peek(id);
    // Stale entries: evicted frames (forced write-back already cleaned
    // them) or duplicate ids whose live entry was consumed.
    if (frame == nullptr || !frame->queued) continue;
    frame->queued = false;
    if (!frame->dirty) continue;
    // Log-before-data, amortized once per tick.
    if (!synced) {
      SyncWalBeforePageWrite();
      synced = true;
    }
    // Snapshot now; the write completes after simulated disk latency, and
    // the one-disk model serializes this tick's writes back-to-back.
    std::string bytes = EncodePage(*frame);
    uint64_t epoch = frame->dirty_epoch;
    offset += kPageWriteLatency;
    --budget;
    loop_->ScheduleAfter(offset, [this, id, epoch, bytes = std::move(bytes)]() mutable {
      CompleteWriteBack(id, epoch, std::move(bytes));
    });
  }
}

void PagedEngine::CompleteWriteBack(PageId id, uint64_t epoch, std::string bytes) {
  auto it = durable_epoch_.find(id);
  // A forced write-back may have raced ahead with a newer image; never
  // regress the durable epoch.
  if (it == durable_epoch_.end() || epoch > it->second) {
    file_->Write(id, std::move(bytes));
    durable_epoch_[id] = epoch;
  }
  page_counters_.pages_written_back->Increment();
  PageFrame* frame = pool_.Peek(id);
  if (frame == nullptr || !frame->dirty) return;
  if (frame->dirty_epoch == epoch) {
    frame->dirty = false;
    --dirty_pages_;
  } else if (!frame->queued) {
    // Re-dirtied while the snapshot was in flight: go around again.
    frame->queued = true;
    dirty_queue_.push_back(id);
  }
}

void PagedEngine::SyncWalBeforePageWrite() const {
  if (options_.wal == nullptr) return;
  WalWriter writer(options_.wal);
  writer.Sync();
}

Result<bool> PagedEngine::Put(std::string_view key, std::string_view value, Version version) {
  return WriteImpl(key, value, version, /*tombstone=*/false);
}

Result<bool> PagedEngine::Delete(std::string_view key, Version version) {
  return WriteImpl(key, "", version, /*tombstone=*/true);
}

Result<bool> PagedEngine::WriteImpl(std::string_view key, std::string_view value,
                                    Version version, bool tombstone) {
  if (key.empty()) return InvalidArgumentError("empty key");
  // WAL first, exactly like the RAM engine: even a mutation the version
  // check will supersede is logged before the check runs.
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
  return ApplyVersioned(key, value, version, tombstone);
}

Result<bool> PagedEngine::ApplyVersioned(std::string_view key, std::string_view value,
                                         Version version, bool tombstone) {
  // Authoritative current state: mem_ when present (its version is >= the
  // page tier's by invariant — no IO needed), else the covering page.
  SkipList::Payload* in_mem = mem_->FindMutable(key);
  bool exists = false;
  bool was_live = false;
  Version current;
  if (in_mem != nullptr) {
    exists = true;
    was_live = !in_mem->tombstone;
    current = in_mem->version;
  } else {
    PageFrame* frame = Fault(SpanForKey(key));
    size_t pos = FindInFrame(frame, key);
    if (pos != kNpos) {
      exists = true;
      was_live = !frame->records[pos].tombstone;
      current = frame->records[pos].version;
    }
  }
  if (exists && !(version > current)) {
    (tombstone ? counters_.deletes_superseded : counters_.puts_superseded)->Increment();
    return false;
  }
  SkipList::Payload* payload = in_mem;
  if (payload == nullptr) {
    bool created = false;
    payload = mem_->FindOrCreate(key, &created);
  }
  mem_->AssignValue(payload, tombstone ? std::string_view() : value);
  payload->version = version;
  payload->tombstone = tombstone;
  if (!exists) ++total_count_;
  if (tombstone) {
    if (was_live) --live_count_;
  } else if (!was_live) {
    ++live_count_;
  }
  (tombstone ? counters_.deletes : counters_.puts)->Increment();
  if (mem_->memory_usage() > options_.config.memtable_spill_bytes) SpillMemtable();
  SyncResidentMetric();
  return true;
}

Result<Record> PagedEngine::Lookup(std::string_view key) const {
  const SkipList::Payload* payload = mem_->Find(key);
  if (payload != nullptr) {
    if (payload->tombstone) return NotFoundError(std::string(key));
    Record record;
    record.key.assign(key);
    record.value.assign(payload->value_data, payload->value_size);
    record.version = payload->version;
    return record;
  }
  PageFrame* frame = Fault(SpanForKey(key));
  size_t pos = FindInFrame(frame, key);
  if (pos == kNpos || frame->records[pos].tombstone) return NotFoundError(std::string(key));
  Record record = frame->records[pos];
  record.tombstone = false;
  return record;
}

Result<Record> PagedEngine::Get(std::string_view key) const {
  counters_.gets->Increment();
  Result<Record> result = Lookup(key);
  if (!result.ok()) counters_.get_misses->Increment();
  return result;
}

std::vector<Result<Record>> PagedEngine::MultiGet(const std::vector<std::string>& keys) const {
  counters_.multigets->Increment();
  counters_.gets->Increment(static_cast<int64_t>(keys.size()));
  // Probe in sorted order so keys covered by the same page share one fault;
  // duplicates copy the previous slot but still count as logical reads
  // (gets/get_misses parity with the RAM engine).
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<Result<Record>> out(keys.size(), Result<Record>(NotFoundError("unprobed")));
  for (size_t rank = 0; rank < order.size(); ++rank) {
    size_t slot = order[rank];
    const std::string& key = keys[slot];
    if (rank > 0 && keys[order[rank - 1]] == key) {
      out[slot] = out[order[rank - 1]];
      if (!out[slot].ok()) counters_.get_misses->Increment();
      continue;
    }
    Result<Record> result = Lookup(key);
    if (!result.ok()) counters_.get_misses->Increment();
    out[slot] = std::move(result);
  }
  return out;
}

std::optional<Record> PagedEngine::GetRaw(std::string_view key) const {
  const SkipList::Payload* payload = mem_->Find(key);
  if (payload != nullptr) {
    Record record;
    record.key.assign(key);
    record.value.assign(payload->value_data, payload->value_size);
    record.version = payload->version;
    record.tombstone = payload->tombstone;
    return record;
  }
  PageFrame* frame = Fault(SpanForKey(key));
  size_t pos = FindInFrame(frame, key);
  if (pos == kNpos) return std::nullopt;
  return frame->records[pos];
}

std::vector<Record> PagedEngine::MergeScan(std::string_view start, std::string_view end,
                                           size_t limit, bool include_tombstones) const {
  std::vector<Record> out;
  bool done = false;
  auto emit_mem = [&](const SkipList::Iterator& mit) {
    const SkipList::Payload& payload = mit.payload();
    if (!include_tombstones && payload.tombstone) return;
    Record record;
    record.key.assign(mit.key());
    record.value.assign(payload.value_data, payload.value_size);
    record.version = payload.version;
    record.tombstone = payload.tombstone;
    out.push_back(std::move(record));
    if (limit != 0 && out.size() >= limit) done = true;
  };
  auto emit_page = [&](const Record& record) {
    if (!include_tombstones && record.tombstone) return;
    out.push_back(record);
    if (limit != 0 && out.size() >= limit) done = true;
  };
  SkipList::Iterator mit(mem_.get());
  mit.Seek(start);
  auto mem_in_range = [&]() { return mit.Valid() && (end.empty() || mit.key() < end); };

  auto idx = std::prev(page_index_.upper_bound(std::string(start)));
  for (; idx != page_index_.end() && !done; ++idx) {
    if (!end.empty() && idx->first >= end) break;
    auto next = std::next(idx);
    std::string_view upper =
        next == page_index_.end() ? std::string_view() : std::string_view(next->first);
    PageFrame* frame = Fault(PageSpan{idx->second, upper});
    pool_.Pin(frame);
    // Readahead: kick off the next page's load before merging this one, so
    // its disk time hides behind the merge instead of serializing with it.
    if (options_.config.scan_readahead && next != page_index_.end() &&
        (end.empty() || next->first < end)) {
      auto after = std::next(next);
      std::string_view next_upper =
          after == page_index_.end() ? std::string_view() : std::string_view(after->first);
      Prefetch(PageSpan{next->second, next_upper});
    }
    size_t pos = static_cast<size_t>(
        std::lower_bound(frame->records.begin(), frame->records.end(), start,
                         [](const Record& record, std::string_view target) {
                           return record.key < target;
                         }) -
        frame->records.begin());
    while (!done && pos < frame->records.size()) {
      const Record& record = frame->records[pos];
      if (!end.empty() && record.key >= end) break;
      while (!done && mem_in_range() && mit.key() < record.key) {
        emit_mem(mit);
        mit.Next();
      }
      if (done) break;
      if (mem_in_range() && mit.key() == record.key) {
        emit_mem(mit);  // mem_ shadows the page copy (newer by invariant)
        mit.Next();
      } else {
        emit_page(record);
      }
      ++pos;
    }
    // Memtable keys past this page's last record but inside its span.
    while (!done && mem_in_range() && (upper.empty() || mit.key() < upper)) {
      emit_mem(mit);
      mit.Next();
    }
    pool_.Unpin(frame);
    if (!end.empty() && !upper.empty() && upper >= end) break;
  }
  return out;
}

Result<std::vector<Record>> PagedEngine::Scan(std::string_view start, std::string_view end,
                                              size_t limit) const {
  if (!end.empty() && start > end) return InvalidArgumentError("scan start > end");
  counters_.scans->Increment();
  std::vector<Record> out = MergeScan(start, end, limit, /*include_tombstones=*/false);
  counters_.scan_rows->Increment(static_cast<int64_t>(out.size()));
  return out;
}

std::vector<Record> PagedEngine::ScanRaw(std::string_view start, std::string_view end,
                                         size_t limit) const {
  return MergeScan(start, end, limit, /*include_tombstones=*/true);
}

Status PagedEngine::Apply(const WalRecord& record) {
  Result<bool> applied = WriteImpl(record.key, record.value, record.version,
                                   record.type == WalRecord::Type::kDelete);
  return applied.ok() ? Status::Ok() : applied.status();
}

Status PagedEngine::ApplyBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::Ok();
  for (const WalRecord& record : records) {
    if (record.key.empty()) return InvalidArgumentError("empty key");
  }
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
    Result<bool> applied = ApplyVersioned(record.key, record.value, record.version,
                                          record.type == WalRecord::Type::kDelete);
    if (!applied.ok()) return applied.status();
  }
  return Status::Ok();
}

Result<std::unique_ptr<PagedEngine>> PagedEngine::Recover(
    Executor* loop, PagedEngineOptions options, const std::vector<WalRecord>& records) {
  // Replay must not re-log: recover WAL-less, then attach. Records already
  // written back before the crash replay as superseded no-ops (the page
  // tier holds an equal version), so replay is idempotent.
  WalSink* wal = options.wal;
  options.wal = nullptr;
  auto engine = std::make_unique<PagedEngine>(loop, options);
  for (const WalRecord& record : records) {
    SCADS_RETURN_IF_ERROR(engine->Apply(record));
  }
  engine->options_.wal = wal;
  return engine;
}

size_t PagedEngine::PurgeTombstonesBefore(Time cutoff) {
  size_t purged = 0;
  // Memtable sweep: identical ghosting to the RAM engine (entries stay,
  // version floor resets so the key behaves like an absent one).
  SkipList::Iterator it(mem_.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    const SkipList::Payload& payload = it.payload();
    if (payload.tombstone && payload.version.timestamp < cutoff &&
        !(payload.version == Version{})) {
      mem_->FindMutable(it.key())->version = Version{};
      ++purged;
    }
  }
  // Page sweep: unlike the memtable, pages can actually drop the record.
  // Keys shadowed by mem_ are removed but not counted (their ghost above
  // already was, or mem_ holds a newer live value).
  for (auto idx = page_index_.begin(); idx != page_index_.end(); ++idx) {
    auto next = std::next(idx);
    std::string_view upper =
        next == page_index_.end() ? std::string_view() : std::string_view(next->first);
    PageFrame* frame = Fault(PageSpan{idx->second, upper});
    pool_.Pin(frame);
    bool changed = false;
    for (size_t i = 0; i < frame->records.size();) {
      const Record& record = frame->records[i];
      if (record.tombstone && record.version.timestamp < cutoff &&
          !(record.version == Version{})) {
        bool shadowed = mem_->Find(record.key) != nullptr;
        pool_.AdjustBytes(frame, -static_cast<int64_t>(FrameRecordBytes(record)));
        frame->records.erase(frame->records.begin() + static_cast<ptrdiff_t>(i));
        changed = true;
        if (!shadowed) {
          ++purged;
          --total_count_;
        }
      } else {
        ++i;
      }
    }
    if (changed) MarkDirty(frame);
    pool_.Unpin(frame);
  }
  SyncResidentMetric();
  return purged;
}

void PagedEngine::SpillMemtable() {
  page_counters_.spills->Increment();
  SkipList::Iterator it(mem_.get());
  it.SeekToFirst();
  while (it.Valid()) {
    PageSpan span = SpanForKey(it.key());
    PageFrame* frame = Fault(span);
    pool_.Pin(frame);
    while (it.Valid() && (span.upper.empty() || it.key() < span.upper)) {
      const SkipList::Payload& payload = it.payload();
      if (payload.tombstone && payload.version == Version{}) {
        // Purged ghost: erase the key from the page tier entirely instead
        // of spilling it — a stale older page copy must not resurface once
        // the memtable (and its shadowing ghost) resets.
        size_t pos = FindInFrame(frame, it.key());
        if (pos != kNpos) {
          pool_.AdjustBytes(frame,
                            -static_cast<int64_t>(FrameRecordBytes(frame->records[pos])));
          frame->records.erase(frame->records.begin() + static_cast<ptrdiff_t>(pos));
          MarkDirty(frame);
        }
        --total_count_;
      } else {
        Record record;
        record.key.assign(it.key());
        record.value.assign(payload.value_data, payload.value_size);
        record.version = payload.version;
        record.tombstone = payload.tombstone;
        MergeIntoFrame(frame, std::move(record));
      }
      it.Next();
    }
    // Split while pinned so the budget pass cannot evict the page mid-merge.
    SplitIfOversized(span.id, frame);
    pool_.Unpin(frame);
  }
  mem_ = std::make_unique<SkipList>(next_mem_seed_++);
  EnsureBudget(0);
}

void PagedEngine::MergeIntoFrame(PageFrame* frame, Record record) {
  auto it = std::lower_bound(
      frame->records.begin(), frame->records.end(), std::string_view(record.key),
      [](const Record& r, std::string_view target) { return r.key < target; });
  size_t pos = static_cast<size_t>(it - frame->records.begin());
  if (pos < frame->records.size() && frame->records[pos].key == record.key) {
    if (!(record.version > frame->records[pos].version)) return;  // defensive
    int64_t delta = static_cast<int64_t>(FrameRecordBytes(record)) -
                    static_cast<int64_t>(FrameRecordBytes(frame->records[pos]));
    if (delta > 0) EnsureBudget(static_cast<size_t>(delta));
    frame->records[pos] = std::move(record);
    pool_.AdjustBytes(frame, delta);
  } else {
    size_t bytes = FrameRecordBytes(record);
    EnsureBudget(bytes);
    frame->records.insert(frame->records.begin() + static_cast<ptrdiff_t>(pos),
                          std::move(record));
    pool_.AdjustBytes(frame, static_cast<int64_t>(bytes));
  }
  MarkDirty(frame);
}

void PagedEngine::SplitIfOversized(PageId id, PageFrame* frame) {
  while (frame->bytes > options_.config.page_bytes && frame->records.size() >= 2) {
    size_t mid = frame->records.size() / 2;
    std::string split_key = frame->records[mid].key;
    PageId fresh_id = file_->Allocate();
    int64_t moved = 0;
    for (size_t i = mid; i < frame->records.size(); ++i) {
      moved += static_cast<int64_t>(FrameRecordBytes(frame->records[i]));
    }
    // Moving records between frames leaves total residency unchanged, so no
    // budget pass is needed for the new frame itself.
    PageFrame* fresh = pool_.Insert(fresh_id);
    pool_.Pin(fresh);
    fresh->lower_bound = split_key;
    fresh->records.assign(std::make_move_iterator(frame->records.begin() +
                                                  static_cast<ptrdiff_t>(mid)),
                          std::make_move_iterator(frame->records.end()));
    frame->records.erase(frame->records.begin() + static_cast<ptrdiff_t>(mid),
                         frame->records.end());
    pool_.AdjustBytes(frame, -moved);
    pool_.AdjustBytes(fresh, moved);
    page_index_[split_key] = fresh_id;
    page_bounds_[fresh_id] = split_key;
    MarkDirty(frame);
    MarkDirty(fresh);
    page_counters_.page_splits->Increment();
    SplitIfOversized(fresh_id, fresh);
    pool_.Unpin(fresh);
  }
}

Duration PagedEngine::TakeAccruedIo() {
  Duration io = accrued_io_;
  accrued_io_ = 0;
  return io;
}

Duration PagedEngine::io_backlog() const {
  return static_cast<Duration>(dirty_pages_) * kPageWriteLatency;
}

void PagedEngine::SyncResidentMetric() const {
  counters_.bytes_resident->Increment(bytes_resident() - counters_.bytes_resident->value());
}

}  // namespace scads
