#include "cache/cache_directory.h"

#include <algorithm>
#include <utility>

namespace scads {

namespace {
// Point-cache shards (each its own leaf lock) and the bounded-scan cache's
// byte budget. The scan cache is on whenever the directory is.
constexpr size_t kPointShards = 8;
constexpr size_t kScanCapacityBytes = 4u << 20;
}  // namespace

CacheDirectory::CacheDirectory(CacheConfig config, Duration staleness_bound,
                               MetricRegistry* metrics)
    : config_(config),
      bound_(staleness_bound),
      points_(config.capacity_bytes, kPointShards, metrics->GetCounter("cache.point.evictions")),
      scans_(kScanCapacityBytes, metrics->GetCounter("cache.scan.evictions")),
      point_hits_(metrics->GetCounter("cache.point.hits")),
      point_misses_(metrics->GetCounter("cache.point.misses")),
      point_stale_rejects_(metrics->GetCounter("cache.point.stale_rejects")),
      point_version_bypasses_(metrics->GetCounter("cache.point.version_bypasses")),
      point_invalidations_(metrics->GetCounter("cache.point.invalidations")),
      point_refreshes_(metrics->GetCounter("cache.point.refreshes")),
      scan_hits_(metrics->GetCounter("cache.scan.hits")),
      scan_misses_(metrics->GetCounter("cache.scan.misses")),
      scan_stale_rejects_(metrics->GetCounter("cache.scan.stale_rejects")),
      scan_invalidations_(metrics->GetCounter("cache.scan.invalidations")) {}

Duration CacheDirectory::EffectiveBound(const RequestOptions& options) const {
  return options.EffectiveStaleness(bound_);
}

Duration CacheDirectory::RetainBound(Duration effective) const {
  // 0 = unbounded on either side wins; otherwise entries survive up to the
  // laxer of the deployment bound and this request's bound.
  if (bound_ == 0 || effective == 0) return 0;
  return std::max(bound_, effective);
}

bool CacheDirectory::LookupPoint(const std::string& key, Time now, const RequestOptions& options,
                                 Record* out) {
  if (!config_.enabled) return false;
  Duration effective = EffectiveBound(options);
  CacheEntry entry;
  switch (points_.Lookup(key, now, effective, &entry, RetainBound(effective))) {
    case CacheLookup::kMiss:
      point_misses_->Increment();
      return false;
    case CacheLookup::kStale:
      point_stale_rejects_->Increment();
      return false;
    case CacheLookup::kHit:
      break;
  }
  // Session floor: a hit below the request's version token is not this
  // session's view of the key — fall through to storage (keep the entry:
  // it still serves unpinned requests).
  if (options.min_version.has_value() && entry.version < *options.min_version) {
    point_version_bypasses_->Increment();
    return false;
  }
  point_hits_->Increment();
  out->key = key;
  out->value = std::move(entry.value);
  out->version = entry.version;
  out->tombstone = false;
  return true;
}

void CacheDirectory::StorePoint(const std::string& key, std::string_view value,
                                const Version& version, Time as_of) {
  if (!config_.enabled) return;
  points_.Insert(key, value, version, as_of);
}

bool CacheDirectory::LookupScan(const std::string& prefix, size_t limit, Time now,
                                const RequestOptions& options, std::vector<Record>* out) {
  if (!config_.enabled) return false;
  // A session version floor cannot be checked per covered key against a
  // whole cached result set — bypass the scan cache conservatively so
  // read-your-writes holds on the scan path too.
  if (options.min_version.has_value()) {
    scan_misses_->Increment();
    return false;
  }
  Duration effective = EffectiveBound(options);
  switch (scans_.Lookup(prefix, limit, now, effective, out, RetainBound(effective))) {
    case CacheLookup::kMiss:
      scan_misses_->Increment();
      return false;
    case CacheLookup::kStale:
      scan_stale_rejects_->Increment();
      return false;
    case CacheLookup::kHit:
      scan_hits_->Increment();
      return true;
  }
  return false;
}

uint64_t CacheDirectory::BeginScan(const std::string& prefix) {
  if (!config_.enabled) return 0;
  std::lock_guard<std::mutex> lock(leases_mu_);
  uint64_t token = next_scan_token_++;
  pending_scans_.push_back(PendingScan{token, prefix, false});
  return token;
}

bool CacheDirectory::EndScan(uint64_t token) {
  if (token == 0) return true;
  std::lock_guard<std::mutex> lock(leases_mu_);
  for (auto it = pending_scans_.begin(); it != pending_scans_.end(); ++it) {
    if (it->token != token) continue;
    bool clean = !it->dirty;
    pending_scans_.erase(it);
    return clean;
  }
  return false;  // unknown token: never cache
}

void CacheDirectory::StoreScan(const std::string& prefix, size_t limit,
                               const std::vector<Record>& records, Time as_of) {
  if (!config_.enabled) return;
  scans_.Insert(prefix, limit, records, as_of);
}

void CacheDirectory::InvalidateScansFor(const std::string& key) {
  size_t dropped = scans_.InvalidateForKey(key);
  if (dropped > 0) scan_invalidations_->Increment(static_cast<int64_t>(dropped));
  std::lock_guard<std::mutex> lock(leases_mu_);
  for (PendingScan& pending : pending_scans_) {
    if (std::string_view(key).substr(0, pending.prefix.size()) == pending.prefix) {
      pending.dirty = true;
    }
  }
}

void CacheDirectory::OnPut(const std::string& key, std::string_view value,
                           const Version& version, Time now) {
  if (!config_.enabled) return;
  if (config_.write_mode == CacheWriteMode::kWriteThrough) {
    points_.Insert(key, value, version, now);
    point_refreshes_->Increment();
  } else if (points_.MarkInvalidated(key, version, now)) {
    point_invalidations_->Increment();
  }
  InvalidateScansFor(key);
}

void CacheDirectory::OnDelete(const std::string& key, const Version& version, Time now) {
  if (!config_.enabled) return;
  if (points_.MarkInvalidated(key, version, now)) point_invalidations_->Increment();
  InvalidateScansFor(key);
}

}  // namespace scads
