// CacheDirectory: the consistency-spec-governed facade over ReadCache and
// ScanCache, and the single place the rest of the system talks to.
//
//  * Reads (Router point reads, StalenessController, QueryExecutor scans)
//    call LookupPoint/LookupScan; a hit is served only while the entry's age
//    is within the spec's staleness bound, so caching never weakens the
//    declared consistency — it only converts the slack the developer already
//    granted into saved storage-node round trips.
//  * Writes invalidate synchronously: the Router calls OnPut/OnDelete in the
//    same event that acknowledges the write, before the client callback
//    runs, so a client can never read its own write's predecessor from the
//    cache. Index-entry writes flow through the same Router chokepoint, so
//    scan results invalidate on index maintenance too.
//  * Counters surface through the deployment's MetricRegistry
//    (cache.point.* / cache.scan.*); the Director rolls the point hit and
//    miss totals into its snapshots.
//
// Thread safety: one CacheDirectory may be shared by every Router in a
// ThreadedRuntime deployment. The underlying caches carry their own shard
// locks (see read_cache.h), counters are atomic, and the scan-lease table
// here is guarded by its own mutex. All of these are
// leaf locks — no directory or cache method calls out while holding one —
// so the directory may be consulted before the router mutex (the lock-free
// hit path) and mutated under it (synchronous write invalidation) without
// ordering hazards.

#ifndef SCADS_CACHE_CACHE_DIRECTORY_H_
#define SCADS_CACHE_CACHE_DIRECTORY_H_

#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/read_cache.h"
#include "common/metrics.h"
#include "common/request_options.h"
#include "common/types.h"
#include "storage/engine.h"

namespace scads {

/// Policy layer over the point and scan caches. All methods no-op (or miss)
/// when the config disables the cache, so callers may hold a pointer
/// unconditionally.
class CacheDirectory {
 public:
  /// `staleness_bound` is the spec's max_staleness (0 = unbounded).
  /// `metrics` must outlive the directory.
  CacheDirectory(CacheConfig config, Duration staleness_bound, MetricRegistry* metrics);

  bool enabled() const { return config_.enabled; }
  Duration bound() const { return bound_; }
  Duration hit_service_time() const { return config_.hit_service_time; }
  const CacheConfig& config() const { return config_; }

  // --- read path ---------------------------------------------------------

  /// Fresh cache hit for `key`? On true, `out` holds the record (never a
  /// tombstone). Stale entries
  /// are rejected (counted under cache.point.stale_rejects) and dropped —
  /// but only when they are also past the deployment bound; an entry merely
  /// too old for a tighter per-request bound stays cached for laxer
  /// requests. `options` governs the effective staleness bound and the
  /// session version floor: a hit older than options.min_version is
  /// bypassed (cache.point.version_bypasses) so read-your-writes holds on
  /// cache hits too.
  bool LookupPoint(const std::string& key, Time now, const RequestOptions& options, Record* out);
  bool LookupPoint(const std::string& key, Time now, Record* out) {
    return LookupPoint(key, now, RequestOptions{}, out);
  }

  /// Populates the point cache from a successful storage read. `as_of` is
  /// the instant the value is provably no staler than (the serving
  /// replica's watermark).
  void StorePoint(const std::string& key, std::string_view value, const Version& version,
                  Time as_of);

  /// Fresh cached result for the bounded scan (prefix, limit)? `options`
  /// supplies the effective staleness bound, as in LookupPoint.
  bool LookupScan(const std::string& prefix, size_t limit, Time now,
                  const RequestOptions& options, std::vector<Record>* out);
  bool LookupScan(const std::string& prefix, size_t limit, Time now, std::vector<Record>* out) {
    return LookupScan(prefix, limit, now, RequestOptions{}, out);
  }

  /// Scan lease: call BeginScan before issuing the storage scan and
  /// EndScan when it completes. EndScan returns false when a write covered
  /// by `prefix` acked in between — the result is the predecessor of an
  /// acknowledged write and must not be cached. Tokens are single-use;
  /// 0 is returned (and accepted as a no-op) when the cache is off.
  uint64_t BeginScan(const std::string& prefix);
  bool EndScan(uint64_t token);

  void StoreScan(const std::string& prefix, size_t limit, const std::vector<Record>& records,
                 Time as_of);

  // --- write hooks (Router, synchronous with the write ack) --------------

  /// An acked Put of `key`: refresh the point entry (write-through) or
  /// replace it with an invalidation marker, and drop covering scan
  /// results. The marker carries the write's version so a read response
  /// that was already in flight cannot re-cache the predecessor value.
  void OnPut(const std::string& key, std::string_view value, const Version& version, Time now);

  /// An acked Delete of `key`: marker the point entry, drop covering scans.
  void OnDelete(const std::string& key, const Version& version, Time now);

  // --- introspection -----------------------------------------------------

  ReadCache* point_cache() { return &points_; }
  ScanCache* scan_cache() { return &scans_; }

  /// Cumulative counter totals for control-plane rollups (the Director
  /// snapshots deltas of these per control interval).
  int64_t point_hit_total() const { return point_hits_->value(); }
  int64_t point_miss_total() const { return point_misses_->value(); }

 private:
  /// Drops cached scans covering `key` and dirties in-flight scan leases.
  void InvalidateScansFor(const std::string& key);

  CacheConfig config_;
  Duration bound_;
  ReadCache points_;
  ScanCache scans_;

  // In-flight scan leases (bounded by concurrent scans). Guarded by
  // leases_mu_ (a leaf lock): a write dirtying leases and a scan
  // opening/closing one may race from different routers.
  struct PendingScan {
    uint64_t token = 0;
    std::string prefix;
    bool dirty = false;
  };
  mutable std::mutex leases_mu_;
  uint64_t next_scan_token_ = 1;
  std::vector<PendingScan> pending_scans_;

  /// Serving bound for `options` plus the retention bound entries are
  /// dropped past (never tighter than the deployment bound).
  Duration EffectiveBound(const RequestOptions& options) const;
  Duration RetainBound(Duration effective) const;

  Counter* point_hits_;
  Counter* point_misses_;
  Counter* point_stale_rejects_;
  Counter* point_version_bypasses_;
  Counter* point_invalidations_;
  Counter* point_refreshes_;
  Counter* scan_hits_;
  Counter* scan_misses_;
  Counter* scan_stale_rejects_;
  Counter* scan_invalidations_;
};

}  // namespace scads

#endif  // SCADS_CACHE_CACHE_DIRECTORY_H_
