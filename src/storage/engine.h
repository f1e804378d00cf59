// StorageEngine: one node's ordered, versioned key-value store.
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
#include "storage/skiplist.h"
#include "storage/wal.h"

namespace scads {

/// Engine construction knobs.
struct EngineOptions {
  /// Seed for skiplist height draws.
  uint64_t seed = 1;
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

/// The engine contract the cluster layer programs against. Two
/// implementations exist: the RAM-only StorageEngine below (skiplist +
/// arena, the hot default) and the larger-than-memory PagedEngine
/// (storage/pagestore/), which spills cold record runs to a page file
/// behind a byte-capacity buffer pool. StorageNode picks one per
/// NodeConfig; everything above it sees only this interface.
class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  /// Applies `value` at `key` if `version` is strictly newer than what is
  /// stored. Returns true when applied, false when superseded.
  virtual Result<bool> Put(std::string_view key, std::string_view value, Version version) = 0;

  /// Tombstones `key` if `version` is strictly newer. Returns true when
  /// applied.
  virtual Result<bool> Delete(std::string_view key, Version version) = 0;

  /// Live value for `key`; kNotFound for absent or tombstoned keys.
  virtual Result<Record> Get(std::string_view key) const = 0;

  /// Batched point reads: one Result per input key, in input order
  /// (duplicates allowed).
  virtual std::vector<Result<Record>> MultiGet(const std::vector<std::string>& keys) const = 0;

  /// Raw entry including tombstones (replication/anti-entropy uses this).
  virtual std::optional<Record> GetRaw(std::string_view key) const = 0;

  /// Live records with start <= key < end (end empty = unbounded), at most
  /// `limit` (0 = unlimited). Tombstoned keys are skipped.
  virtual Result<std::vector<Record>> Scan(std::string_view start, std::string_view end,
                                           size_t limit) const = 0;

  /// All entries (including tombstones) in a range — replication streams and
  /// partition hand-off use this.
  virtual std::vector<Record> ScanRaw(std::string_view start, std::string_view end,
                                      size_t limit) const = 0;

  /// Replays a WAL record (recovery path). Applies the same newer-version
  /// rule, so replay is idempotent.
  virtual Status Apply(const WalRecord& record) = 0;

  /// Applies a batch of mutations with WAL group commit (one sink write,
  /// one sync for the whole batch).
  virtual Status ApplyBatch(const std::vector<WalRecord>& records) = 0;

  /// Drops tombstones whose version timestamp is older than `cutoff`.
  /// Returns how many were purged.
  virtual size_t PurgeTombstonesBefore(Time cutoff) = 0;

  /// Number of live (non-tombstoned) keys.
  virtual size_t live_count() const = 0;
  /// Number of keys including tombstones.
  virtual size_t total_count() const = 0;
  /// Memory reserved by in-memory structures.
  virtual size_t memory_usage() const = 0;
  /// Bytes currently resident in memory for data (memtable payload plus,
  /// for a paged engine, the buffer pool's decoded frames). Also mirrored
  /// into the metrics() counter "bytes_resident".
  virtual int64_t bytes_resident() const = 0;

  /// Engine counters (puts, gets, get_misses, ... — see each engine).
  virtual const MetricRegistry& metrics() const = 0;

  /// Simulated-IO hooks, zero for RAM-only engines. TakeAccruedIo returns
  /// (and clears) the simulated disk latency the engine accrued since the
  /// last call — page-fault reads and forced write-backs — so StorageNode
  /// can charge it to busy time and delay the response. io_backlog is the
  /// pending asynchronous write-back debt, folded into
  /// NodeLoadSignal::Pressure so routers see paging pressure.
  virtual Duration TakeAccruedIo() { return 0; }
  virtual Duration io_backlog() const { return 0; }
};

/// The counters both engines bump, resolved once from the engine's registry
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
  Counter* bytes_resident;  ///< A gauge, kept by each engine's SyncResidentMetric.
};

/// Single-node RAM-only storage engine. Not thread-safe (one simulated
/// node == one logical thread).
class StorageEngine : public EngineInterface {
 public:
  explicit StorageEngine(EngineOptions options = {});

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Applies `value` at `key` if `version` is strictly newer than what is
  /// stored. Returns true when applied, false when superseded.
  Result<bool> Put(std::string_view key, std::string_view value, Version version) override;

  /// Tombstones `key` if `version` is strictly newer. Returns true when
  /// applied.
  Result<bool> Delete(std::string_view key, Version version) override;

  /// Live value for `key`; kNotFound for absent or tombstoned keys.
  Result<Record> Get(std::string_view key) const override;

  /// Batched point reads: one Result per input key, in input order
  /// (duplicates allowed). Probes run through a single iterator over the
  /// sorted key set, so consecutive keys reuse the traversal position
  /// instead of paying a full descent each.
  std::vector<Result<Record>> MultiGet(const std::vector<std::string>& keys) const override;

  /// Raw entry including tombstones (replication/anti-entropy uses this).
  std::optional<Record> GetRaw(std::string_view key) const override;

  /// Live records with start <= key < end (end empty = unbounded), at most
  /// `limit` (0 = unlimited). Tombstoned keys are skipped.
  Result<std::vector<Record>> Scan(std::string_view start, std::string_view end,
                                   size_t limit) const override;

  /// All entries (including tombstones) in a range — replication streams and
  /// partition hand-off use this.
  std::vector<Record> ScanRaw(std::string_view start, std::string_view end,
                              size_t limit) const override;

  /// Replays a WAL record (recovery path). Applies the same newer-version
  /// rule, so replay is idempotent.
  Status Apply(const WalRecord& record) override;

  /// Applies a batch of mutations with WAL group commit: all records are
  /// logged in one sink write and (under wal_sync_every_write) one Sync,
  /// instead of a sync per record, then applied to the memtable in order.
  /// The logged bytes are identical to per-record appends, so crash replay
  /// recovers batched and sequential histories identically.
  Status ApplyBatch(const std::vector<WalRecord>& records) override;

  /// Creates an engine and replays `records` into it.
  static Result<std::unique_ptr<StorageEngine>> Recover(EngineOptions options,
                                                        const std::vector<WalRecord>& records);

  /// Number of live (non-tombstoned) keys.
  size_t live_count() const override { return live_count_; }
  /// Number of keys including tombstones.
  size_t total_count() const override { return table_.size(); }
  /// Arena bytes reserved by the memtable.
  size_t memory_usage() const override { return table_.memory_usage(); }
  /// Everything a RAM engine holds is resident: the memtable arena.
  int64_t bytes_resident() const override {
    return static_cast<int64_t>(table_.memory_usage());
  }
  /// Live key + current-value bytes (excludes node overhead and orphaned
  /// value copies) — the logical footprint.
  size_t payload_bytes() const { return table_.payload_bytes(); }

  /// Drops tombstones whose version timestamp is older than `cutoff`.
  /// Returns how many were purged. (Entries stay in the skiplist but become
  /// re-writable ghosts; space is reclaimed at the next memtable rotation —
  /// same trade-off as LevelDB.)
  size_t PurgeTombstonesBefore(Time cutoff) override;

  /// Engine counters: puts, puts_superseded, deletes, gets, get_misses,
  /// multigets, scans, scan_rows, wal_appends, wal_batch_syncs,
  /// bytes_resident.
  const MetricRegistry& metrics() const override { return metrics_; }

 private:
  Result<bool> Write(std::string_view key, std::string_view value, Version version,
                     bool tombstone);
  /// Memtable half of Write: version check + assignment, no WAL.
  Result<bool> ApplyToTable(std::string_view key, std::string_view value, Version version,
                            bool tombstone);
  /// Counters have no gauge type; the bytes_resident counter tracks the
  /// current footprint by incrementing by the delta since last sync.
  void SyncResidentMetric() const;

  EngineOptions options_;
  SkipList table_;
  // Read paths (logically const) still count: counters are observability,
  // not state, so the registry is mutable rather than const_cast at use.
  mutable MetricRegistry metrics_;
  EngineCounters counters_;
  size_t live_count_ = 0;
};

}  // namespace scads

#endif  // SCADS_STORAGE_ENGINE_H_
