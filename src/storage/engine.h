// The per-node storage engine: an ordered, versioned key-value store.
//
// Semantics (the contract the cluster layer builds on):
//  * Each key holds at most one live version; a Put/Delete whose Version is
//    not strictly newer than the stored one is a no-op ("superseded") — this
//    makes replica application idempotent and order-insensitive, the basis
//    of last-write-wins convergence (paper §3.3.1).
//  * Deletes write tombstones so replicas learn about removals; tombstones
//    hide keys from reads/scans and can be purged after a grace window.
//  * Scans are forward iterations over a contiguous key range — exactly the
//    "bounded contiguous range of an index" query SCADS allows (paper §3.1).

#ifndef SCADS_STORAGE_ENGINE_H_
#define SCADS_STORAGE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/memtable.h"
#include "storage/wal.h"

namespace scads {

/// Engine construction knobs.
struct EngineOptions {
  /// Optional write-ahead log; when set, every mutation is framed to the
  /// sink before the memtable is touched. The engine does not own the sink.
  WalSink* wal = nullptr;
  /// Sync the WAL on every mutation (once per ApplyBatch). Off by default:
  /// system experiments model group commit at the node layer instead.
  bool wal_sync_every_write = false;
};

/// A materialized row returned by reads and scans.
struct Record {
  std::string key;
  std::string value;
  Version version;
  bool tombstone = false;
};

/// Wire size of one record as shipped in read responses (byte accounting).
inline int64_t WireSize(const Record& record) {
  return static_cast<int64_t>(record.key.size() + record.value.size()) +
         kRecordWireOverheadBytes;
}

/// The counters every engine bumps, resolved once from the engine's registry
/// when it is built: a lookup by name takes the registry mutex and walks a
/// std::map, too much for every Get.
struct EngineCounters {
  explicit EngineCounters(MetricRegistry* registry);

  Counter* puts;
  Counter* puts_superseded;
  Counter* deletes;
  Counter* deletes_superseded;
  Counter* gets;
  Counter* get_misses;
  Counter* multigets;
  Counter* scans;
  Counter* scan_rows;
  Counter* wal_appends;
  Counter* wal_batch_syncs;
  Counter* bytes_resident;  ///< A gauge, kept by SyncResidentMetric.
};

/// The engine the cluster layer programs against, and the half that every
/// engine shares: the WAL-then-apply write, ApplyBatch's group commit, the
/// version rule's counters, Get's and MultiGet's probes of the memtable,
/// GetRaw, and Scan's counters. An engine supplies only its table: the
/// memtable in front, the version-rule apply, the raw record below the
/// memtable, one range scan, tombstone purge, its sizes and IO hooks.
///
/// Two engines exist: the RAM-only StorageEngine below (an arena B+-tree
/// memtable, the hot default) and the larger-than-memory PagedEngine
/// (storage/pagestore/), which spills cold record runs to a page file
/// behind a byte-capacity buffer pool. StorageNode picks one per
/// NodeConfig; everything above it sees only this class. Because the
/// counters are bumped here, both engines count the same op trace the same.
/// Not thread-safe (one simulated node == one logical thread).
class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  EngineInterface(const EngineInterface&) = delete;
  EngineInterface& operator=(const EngineInterface&) = delete;

  /// Applies `value` at `key` if `version` is strictly newer than what is
  /// stored. Returns true when applied, false when superseded.
  Result<bool> Put(std::string_view key, std::string_view value, Version version) {
    return Write(key, value, version, /*tombstone=*/false);
  }

  /// Tombstones `key` if `version` is strictly newer. Returns true when
  /// applied.
  Result<bool> Delete(std::string_view key, Version version) {
    return Write(key, "", version, /*tombstone=*/true);
  }

  /// Applies one WAL record as a Put or Delete, logging it first.
  Status Apply(const WalRecord& record);

  /// Applies a batch of mutations with WAL group commit: all records are
  /// logged in one sink write and (under wal_sync_every_write) one Sync,
  /// instead of a sync per record, then applied in order. The logged bytes
  /// are identical to per-record appends, so crash replay recovers batched
  /// and sequential histories identically.
  Status ApplyBatch(const std::vector<WalRecord>& records);

  /// Live value for `key`; kNotFound for absent or tombstoned keys.
  Result<Record> Get(std::string_view key) const;

  /// Batched point reads: one Result per input key, in input order
  /// (duplicates allowed). Probes run in sorted key order through a single
  /// memtable iterator, so keys that share a memtable leaf pay one descent
  /// between them, and keys below the memtable that share a page share its
  /// fault; a one-key batch is a plain Get.
  std::vector<Result<Record>> MultiGet(const std::vector<std::string>& keys) const;

  /// Raw entry including tombstones (replication/anti-entropy uses this).
  std::optional<Record> GetRaw(std::string_view key) const;

  /// Live records with start <= key < end (end empty = unbounded), at most
  /// `limit` (0 = unlimited). Tombstoned keys are skipped.
  Result<std::vector<Record>> Scan(std::string_view start, std::string_view end,
                                   size_t limit) const;

  /// All entries (including tombstones) in a range — replication streams and
  /// partition hand-off use this.
  std::vector<Record> ScanRaw(std::string_view start, std::string_view end,
                              size_t limit) const {
    return ScanTable(start, end, limit, /*include_tombstones=*/true);
  }

  /// Drops tombstones whose version timestamp is older than `cutoff`.
  /// Returns how many were purged.
  virtual size_t PurgeTombstonesBefore(Time cutoff) = 0;

  /// Number of live (non-tombstoned) keys.
  size_t live_count() const { return live_count_; }
  /// Number of keys including tombstones.
  virtual size_t total_count() const = 0;
  /// Memory reserved by in-memory structures.
  virtual size_t memory_usage() const = 0;
  /// Bytes currently resident in memory for data (memtable payload plus,
  /// for a paged engine, the buffer pool's decoded frames). Also mirrored
  /// into the metrics() counter "bytes_resident".
  virtual int64_t bytes_resident() const = 0;

  /// Engine counters: puts, puts_superseded, deletes, deletes_superseded,
  /// gets, get_misses, multigets, scans, scan_rows, wal_appends,
  /// wal_batch_syncs and the bytes_resident gauge. A paged engine adds the
  /// page tier's counters (paged_engine.h).
  const MetricRegistry& metrics() const { return metrics_; }

  /// Simulated-IO hooks, zero for RAM-only engines. TakeAccruedIo returns
  /// (and clears) the simulated disk latency the engine accrued since the
  /// last call — page-fault reads and forced write-backs — so StorageNode
  /// can charge it to busy time and delay the response. io_backlog is the
  /// pending asynchronous write-back debt, folded into
  /// NodeLoadSignal::Pressure so routers see paging pressure.
  virtual Duration TakeAccruedIo() { return 0; }
  virtual Duration io_backlog() const { return 0; }

 protected:
  explicit EngineInterface(EngineOptions options);

  /// The memtable in front of the table: every point read probes it first.
  virtual const MemTable& memtable() const = 0;

  /// The version rule on the table: stores `value` (a tombstone when
  /// `tombstone`) at `key` if `version` is strictly newer than the stored
  /// version. Returns false when superseded; otherwise sets `*was_live` to
  /// whether it replaced a live value.
  virtual bool ApplyToTable(std::string_view key, std::string_view value, Version version,
                            bool tombstone, bool* was_live) = 0;

  /// The raw record below the memtable for a key the memtable lacks, or
  /// nullptr. The pointer is good until the engine's next call. A RAM
  /// engine has nothing below its memtable.
  virtual const Record* FindBelow(std::string_view /*key*/) const { return nullptr; }

  /// Records with start <= key < end (end empty = unbounded) in key order,
  /// at most `limit` (0 = unlimited), tombstones only when
  /// `include_tombstones`.
  virtual std::vector<Record> ScanTable(std::string_view start, std::string_view end,
                                        size_t limit, bool include_tombstones) const = 0;

  /// Recovery: applies `records` without logging them again. The version
  /// rule makes replay idempotent.
  Status Replay(const std::vector<WalRecord>& records);

  /// Counters have no gauge type; the bytes_resident counter tracks the
  /// current footprint by incrementing by the delta since last sync.
  void SyncResidentMetric() const;

  WalSink* wal() const { return options_.wal; }

  /// A copy of a memtable entry, tombstone flag included.
  static Record RecordOf(const MemTable::Entry& entry);

  // Read paths (logically const) still count: counters are observability,
  // not state, so the registry is mutable rather than const_cast at use.
  mutable MetricRegistry metrics_;
  size_t live_count_ = 0;

 private:
  /// Logs the mutation (WAL first: it is logged before it becomes visible,
  /// even when the version rule then supersedes it), then applies it.
  Result<bool> Write(std::string_view key, std::string_view value, Version version,
                     bool tombstone);
  /// ApplyToTable plus its counters and the live count; no WAL.
  bool ApplyCounted(std::string_view key, std::string_view value, Version version,
                    bool tombstone);
  /// `key`'s live record from its memtable `entry`, or from below the
  /// memtable when `entry` is null; kNotFound for an absent or tombstoned
  /// key. Counts nothing.
  Result<Record> LiveRecord(std::string_view key, const MemTable::Entry* entry) const;

  EngineOptions options_;
  EngineCounters counters_;
};

/// Single-node RAM-only storage engine: the whole table is its memtable.
class StorageEngine : public EngineInterface {
 public:
  explicit StorageEngine(EngineOptions options = {}) : EngineInterface(options) {}

  /// Creates an engine and replays `records` into it.
  static Result<std::unique_ptr<StorageEngine>> Recover(EngineOptions options,
                                                        const std::vector<WalRecord>& records);

  /// Entries stay in the memtable as re-writable ghosts; space is reclaimed
  /// at the next memtable rotation — same trade-off as LevelDB.
  size_t PurgeTombstonesBefore(Time cutoff) override {
    return table_.PurgeTombstonesBefore(cutoff);
  }

  size_t total_count() const override { return table_.size(); }
  /// Arena bytes reserved by the memtable.
  size_t memory_usage() const override { return table_.memory_usage(); }
  /// Everything a RAM engine holds is resident: the memtable arena.
  int64_t bytes_resident() const override {
    return static_cast<int64_t>(table_.memory_usage());
  }
  /// Live key + current-value bytes (excludes entry overhead and stranded
  /// value copies) — the logical footprint.
  size_t payload_bytes() const { return table_.payload_bytes(); }

 private:
  const MemTable& memtable() const override { return table_; }
  /// One FindOrCreate: an absent key gets a fresh entry, which any version
  /// supersedes.
  bool ApplyToTable(std::string_view key, std::string_view value, Version version,
                    bool tombstone, bool* was_live) override;
  std::vector<Record> ScanTable(std::string_view start, std::string_view end, size_t limit,
                                bool include_tombstones) const override;

  MemTable table_;
};

}  // namespace scads

#endif  // SCADS_STORAGE_ENGINE_H_
