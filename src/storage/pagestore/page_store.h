// Paged storage substrate: fixed-size pages of encoded record runs, a
// durable in-simulation page file, and a byte-capacity buffer pool with pin
// counts and clock eviction. PagedEngine (paged_engine.h) composes these
// into a larger-than-memory engine; this header holds the passive pieces so
// NodeConfig can embed the config without pulling in the engine.
//
// Shape follows classic buffer-manager designs (ScaleStore's Buffermanager
// / AsyncWriteBuffer split): the PageFile is the "disk" — a passive byte
// store with no latency of its own — while the engine owns all simulated-IO
// accounting and the asynchronous write-back schedule on the EventLoop.

#ifndef SCADS_STORAGE_PAGESTORE_PAGE_STORE_H_
#define SCADS_STORAGE_PAGESTORE_PAGE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/engine.h"

namespace scads {

using PageId = uint32_t;

/// Paged-tier tunables (NodeConfig::paged_storage; enabled=false keeps the
/// RAM-only StorageEngine).
struct PagedStorageConfig {
  /// Off by default: the RAM engine stays the hot path for datasets that
  /// fit. Turning this on swaps StorageNode's engine for a PagedEngine.
  bool enabled = false;
  /// Split threshold for one page's decoded payload bytes.
  size_t page_bytes = 16 * 1024;
  /// Buffer pool byte budget over decoded resident frames.
  size_t buffer_pool_bytes = 1 << 20;
  /// Memtable (hot delta tier) payload bytes before a spill merges it into
  /// the page tier and resets it.
  size_t memtable_spill_bytes = 256 * 1024;
  /// Pages written back per background tick (PagedEngine::kWriteBackInterval).
  size_t write_back_batch = 8;
  /// Range scans speculatively load the next page while the current one is
  /// being decoded and merged. The prefetch rides the idle disk in parallel
  /// with in-progress work, so it charges no request IO (same rule as
  /// asynchronous write-backs); it only ever displaces clean unpinned
  /// frames, never forcing a write-back, and is skipped (counted in
  /// `prefetch_skips`) when the pool can't make clean room.
  bool scan_readahead = true;
};

/// The simulated disk image: one byte string per page. Passive and
/// latency-free by design — the engine schedules the latency — and owned
/// outside the engine when crash/recovery tests need the pages to survive
/// an engine teardown (a durable local disk, like MemoryWalSink for the
/// WAL).
class PageFile {
 public:
  PageFile() = default;
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Appends a fresh empty page and returns its id.
  PageId Allocate() {
    pages_.emplace_back();
    return static_cast<PageId>(pages_.size() - 1);
  }

  /// Durably overwrites one page.
  void Write(PageId id, std::string bytes) {
    pages_[id] = std::move(bytes);
    ++writes_;
    bytes_written_ += static_cast<int64_t>(pages_[id].size());
    write_log_.push_back(id);
  }

  const std::string& Contents(PageId id) const { return pages_[id]; }
  size_t page_count() const { return pages_.size(); }

  int64_t writes() const { return writes_; }
  int64_t bytes_written() const { return bytes_written_; }
  /// Every Write in order — write-back ordering tests read this.
  const std::vector<PageId>& write_log() const { return write_log_; }

 private:
  std::vector<std::string> pages_;
  int64_t writes_ = 0;
  int64_t bytes_written_ = 0;
  std::vector<PageId> write_log_;
};

/// One resident decoded page.
struct PageFrame {
  PageId id = 0;
  /// Smallest key this page may hold (its key range runs to the next
  /// page's lower bound); persisted in the page header.
  std::string lower_bound;
  /// Sorted by key; includes tombstones.
  std::vector<Record> records;
  /// Accounted decoded bytes (keys + values + per-record overhead).
  size_t bytes = 0;
  int pins = 0;
  bool dirty = false;
  /// True while an entry for this frame sits in the engine's write-back
  /// queue (dedupes enqueues; stale queue entries are skipped on pop).
  bool queued = false;
  /// Clock reference bit: set on access, cleared by the sweep.
  bool referenced = false;
  /// Bumped on every dirtying mutation; write-back snapshots it so a
  /// completion (or a racing forced write) can tell whether the frame — and
  /// the durable image — moved on since the snapshot was encoded.
  uint64_t dirty_epoch = 0;
};

/// Byte-capacity cache of decoded pages with pin counts and a clock sweep.
/// The pool tracks residency and picks victims; the *caller* (PagedEngine)
/// enforces the budget, because making room for a dirty victim requires a
/// write-back only the engine can perform.
class BufferPool {
 public:
  explicit BufferPool(size_t capacity_bytes) : capacity_(capacity_bytes) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Resident frame for `id` or nullptr; marks the clock reference bit.
  PageFrame* Find(PageId id);
  /// Like Find but leaves recency untouched (write-back bookkeeping must
  /// not look like application access).
  PageFrame* Peek(PageId id);
  /// Inserts an empty frame for `id` (caller fills it and calls SetBytes).
  PageFrame* Insert(PageId id);
  /// Evicts `id`; the frame must be unpinned (caller wrote it back first
  /// if dirty).
  void Erase(PageId id);

  /// Adjusts the frame's accounted bytes (and pool residency) by `delta`.
  void AdjustBytes(PageFrame* frame, int64_t delta);

  void Pin(PageFrame* frame) { ++frame->pins; }
  void Unpin(PageFrame* frame) { --frame->pins; }

  /// Clock sweep: next unpinned, unreferenced frame; reference bits are
  /// cleared along the way (second-chance). With allow_dirty=false only
  /// clean frames qualify — the two-pass caller prefers eviction without a
  /// forced write-back. Returns nullptr when nothing qualifies.
  PageFrame* PickVictim(bool allow_dirty);

  size_t capacity() const { return capacity_; }
  size_t resident_bytes() const { return resident_bytes_; }
  size_t resident_peak() const { return resident_peak_; }
  size_t frame_count() const { return frames_.size(); }
  int64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  size_t resident_bytes_ = 0;
  size_t resident_peak_ = 0;
  int64_t evictions_ = 0;
  // unique_ptr values keep PageFrame* stable across map churn.
  std::map<PageId, std::unique_ptr<PageFrame>> frames_;
  PageId hand_ = 0;
};

/// Encodes a frame's run as one durable page:
///   [lp lower_bound][u32 count] then per record
///   [lp key][lp value][u64 ts][u32 writer][u8 tombstone].
std::string EncodePage(const PageFrame& frame);

/// Decodes a durable page. Records outside [lower, upper) are dropped:
/// after a split, the lower page's durable image may still carry the upper
/// half until its next write-back, and those records are stale shadows of
/// what the upper page now owns. Empty `bytes` decodes to an empty run.
/// `upper` empty = unbounded. Returns false on corruption.
bool DecodePage(const std::string& bytes, std::string_view lower, std::string_view upper,
                PageFrame* out);

/// Accounted decoded footprint of one record in a frame.
inline size_t FrameRecordBytes(const Record& record) {
  // Keys/values plus vector-slot and version overhead, approximated flat.
  return record.key.size() + record.value.size() + 32;
}

}  // namespace scads

#endif  // SCADS_STORAGE_PAGESTORE_PAGE_STORE_H_
