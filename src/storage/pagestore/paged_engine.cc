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
    : EngineInterface(options),
      loop_(loop),
      config_(options.config),
      owned_file_(options.file != nullptr ? nullptr : std::make_unique<PageFile>()),
      file_(options.file != nullptr ? options.file : owned_file_.get()),
      pool_(options.config.buffer_pool_bytes),
      mem_(std::make_unique<MemTable>()),
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
  size_t budget = config_.write_back_batch;
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
  if (wal() == nullptr) return;
  WalWriter writer(wal());
  writer.Sync();
}

bool PagedEngine::ApplyToTable(std::string_view key, std::string_view value, Version version,
                               bool tombstone, bool* was_live) {
  // Authoritative current state: mem_ when present (its version is >= the
  // page tier's by invariant — no IO needed), else the covering page.
  MemTable::Entry* entry = mem_->FindMutable(key);
  if (entry != nullptr) {
    if (!(version > entry->version())) return false;
    *was_live = !entry->tombstone();
  } else {
    const Record* below = FindBelow(key);
    if (below != nullptr && !(version > below->version)) return false;
    *was_live = below != nullptr && !below->tombstone;
    if (below == nullptr) ++total_count_;
    bool created = false;
    entry = mem_->FindOrCreate(key, &created);
  }
  mem_->Assign(entry, tombstone ? std::string_view() : value, version, tombstone);
  if (mem_->memory_usage() > config_.memtable_spill_bytes) SpillMemtable();
  return true;
}

const Record* PagedEngine::FindBelow(std::string_view key) const {
  PageFrame* frame = Fault(SpanForKey(key));
  size_t pos = FindInFrame(frame, key);
  return pos == kNpos ? nullptr : &frame->records[pos];
}

std::vector<Record> PagedEngine::ScanTable(std::string_view start, std::string_view end,
                                           size_t limit, bool include_tombstones) const {
  std::vector<Record> out;
  bool done = false;
  auto emit_mem = [&](const MemTable::Iterator& mit) {
    if (!include_tombstones && mit.entry().tombstone()) return;
    out.push_back(RecordOf(mit.entry()));
    if (limit != 0 && out.size() >= limit) done = true;
  };
  auto emit_page = [&](const Record& record) {
    if (!include_tombstones && record.tombstone) return;
    out.push_back(record);
    if (limit != 0 && out.size() >= limit) done = true;
  };
  MemTable::Iterator mit(mem_.get());
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
    if (config_.scan_readahead && next != page_index_.end() &&
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

Result<std::unique_ptr<PagedEngine>> PagedEngine::Recover(
    Executor* loop, PagedEngineOptions options, const std::vector<WalRecord>& records) {
  // Records already written back before the crash replay as superseded
  // no-ops (the page tier holds an equal version).
  auto engine = std::make_unique<PagedEngine>(loop, options);
  SCADS_RETURN_IF_ERROR(engine->Replay(records));
  return engine;
}

size_t PagedEngine::PurgeTombstonesBefore(Time cutoff) {
  size_t purged = mem_->PurgeTombstonesBefore(cutoff);
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
  MemTable::Iterator it(mem_.get());
  it.SeekToFirst();
  while (it.Valid()) {
    PageSpan span = SpanForKey(it.key());
    PageFrame* frame = Fault(span);
    pool_.Pin(frame);
    while (it.Valid() && (span.upper.empty() || it.key() < span.upper)) {
      const MemTable::Entry& entry = it.entry();
      if (entry.tombstone() && entry.version() == Version{}) {
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
        MergeIntoFrame(frame, RecordOf(entry));
      }
      it.Next();
    }
    // Split while pinned so the budget pass cannot evict the page mid-merge.
    SplitIfOversized(frame);
    pool_.Unpin(frame);
  }
  mem_ = std::make_unique<MemTable>();
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

void PagedEngine::SplitIfOversized(PageFrame* frame) {
  while (frame->bytes > config_.page_bytes && frame->records.size() >= 2) {
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
    SplitIfOversized(fresh);
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

}  // namespace scads
