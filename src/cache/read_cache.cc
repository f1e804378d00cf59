#include "cache/read_cache.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

namespace scads {

namespace {
// Fixed bookkeeping charge per entry (slot, index entry, struct fields);
// keeps byte accounting honest for small values without sizing real heap
// internals.
constexpr size_t kPointEntryOverhead = 64;
constexpr size_t kScanEntryOverhead = 128;
constexpr size_t kScanRecordOverhead = 64;

// EvictOver sentinel: no slot is protected from the sweep.
constexpr size_t kNoProtect = std::numeric_limits<size_t>::max();

bool WithinBound(Time now, Time as_of, Duration bound) {
  return bound == 0 || now - as_of <= bound;
}
}  // namespace

// ---------------------------------------------------------------- ReadCache

ReadCache::ReadCache(size_t capacity_bytes, size_t shards, Counter* evictions)
    : per_shard_capacity_(capacity_bytes / std::max<size_t>(1, shards)),
      shards_(std::max<size_t>(1, shards)),
      evictions_(evictions) {}

ReadCache::Shard* ReadCache::ShardFor(size_t hash) { return &shards_[hash % shards_.size()]; }

namespace {
// A key's home cell in a shard's index. Fibonacci hashing takes the
// product's high bits, so the cell does not repeat the low bits that
// already picked the shard (which would cluster every key on a few cells).
size_t HomeCell(size_t hash, size_t cells) {
  return static_cast<size_t>((static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >>
                             (std::countl_zero(static_cast<uint64_t>(cells)) + 1));
}
}  // namespace

uint32_t ReadCache::FindSlot(const Shard& shard, const std::string& key, size_t hash) {
  size_t mask = shard.index.size() - 1;
  for (size_t cell = HomeCell(hash, shard.index.size());; cell = (cell + 1) & mask) {
    uint32_t slot = shard.index[cell];
    if (slot == kNoSlot) return kNoSlot;
    const Node& node = *shard.slots[slot];
    if (node.hash == hash && node.key == key) return slot;
  }
}

void ReadCache::PlaceInIndex(Shard* shard, size_t slot) {
  std::vector<uint32_t>& index = shard->index;
  size_t mask = index.size() - 1;
  size_t cell = HomeCell(shard->slots[slot]->hash, index.size());
  while (index[cell] != kNoSlot) cell = (cell + 1) & mask;
  index[cell] = static_cast<uint32_t>(slot);
}

void ReadCache::RemoveSlot(Shard* shard, size_t slot) {
  Node* node = shard->slots[slot].get();
  shard->bytes -= node->bytes;
  node->live = false;
  --shard->live;
  shard->free_slots.push_back(slot);
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home cell lies after the hole, so every lookup's
  // probe still reaches its key before an empty cell.
  std::vector<uint32_t>& index = shard->index;
  size_t mask = index.size() - 1;
  size_t hole = HomeCell(node->hash, mask + 1);
  while (index[hole] != slot) hole = (hole + 1) & mask;
  for (size_t cell = (hole + 1) & mask; index[cell] != kNoSlot; cell = (cell + 1) & mask) {
    size_t home = HomeCell(shard->slots[index[cell]]->hash, mask + 1);
    if (((cell - home) & mask) >= ((cell - hole) & mask)) {
      index[hole] = index[cell];
      hole = cell;
    }
  }
  index[hole] = kNoSlot;
}

size_t ReadCache::AddSlot(Shard* shard, const std::string& key, size_t hash,
                          std::string_view value, Version version, bool invalidated,
                          size_t bytes, Time as_of) {
  size_t slot;
  if (!shard->free_slots.empty()) {
    slot = shard->free_slots.back();
    shard->free_slots.pop_back();
  } else {
    slot = shard->slots.size();
    shard->slots.push_back(std::make_unique<Node>());
  }
  Node* node = shard->slots[slot].get();
  node->key.assign(key);
  node->value.assign(value.data(), value.size());
  node->version = version;
  node->hash = hash;
  node->live = true;
  node->invalidated = invalidated;
  node->bytes = bytes;
  node->as_of.store(as_of, std::memory_order_release);
  node->referenced.store(false, std::memory_order_relaxed);
  shard->bytes += bytes;
  // Keep the index at most half full: double it and re-place every live
  // slot from its stored hash.
  if (2 * ++shard->live > shard->index.size()) {
    shard->index.assign(2 * shard->index.size(), kNoSlot);
    for (size_t other = 0; other < shard->slots.size(); ++other) {
      if (shard->slots[other]->live) PlaceInIndex(shard, other);
    }
  } else {
    PlaceInIndex(shard, slot);
  }
  return slot;
}

CacheLookup ReadCache::Lookup(const std::string& key, Time now, Duration bound,
                              CacheEntry* out, std::optional<Duration> retain_bound) {
  size_t hash = std::hash<std::string>{}(key);
  Shard* shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard->mu);
  uint32_t slot = FindSlot(*shard, key, hash);
  if (slot == kNoSlot) return CacheLookup::kMiss;
  Node* node = shard->slots[slot].get();
  Time as_of = node->as_of.load(std::memory_order_acquire);
  if (!WithinBound(now, as_of, bound)) {
    bool was_marker = node->invalidated;
    // Drop only entries past the retain bound; an entry merely too old for
    // this request's tighter bound stays servable for laxer requests.
    if (!WithinBound(now, as_of, retain_bound.value_or(bound))) RemoveSlot(shard, slot);
    // An aged-out marker is bookkeeping, not a rejected value.
    return was_marker ? CacheLookup::kMiss : CacheLookup::kStale;
  }
  if (node->invalidated) return CacheLookup::kMiss;
  node->referenced.store(true, std::memory_order_relaxed);
  out->value = node->value;
  out->version = node->version;
  out->as_of = as_of;
  out->invalidated = false;
  return CacheLookup::kHit;
}

void ReadCache::Insert(const std::string& key, std::string_view value, Version version,
                       Time as_of) {
  size_t hash = std::hash<std::string>{}(key);
  Shard* shard = ShardFor(hash);
  size_t bytes = key.size() + value.size() + kPointEntryOverhead;
  std::lock_guard<std::mutex> lock(shard->mu);
  uint32_t existing = FindSlot(*shard, key, hash);
  if (existing != kNoSlot) {
    Node* node = shard->slots[existing].get();
    if (node->version > version) {
      // Newer cached state (a write-through refresh, or an invalidation
      // marker from an acked write) beats this lagged value; a live entry
      // may only have its freshness lease extended by a later as_of.
      if (!node->invalidated) {
        if (as_of > node->as_of.load(std::memory_order_relaxed)) {
          node->as_of.store(as_of, std::memory_order_release);
        }
        node->referenced.store(true, std::memory_order_relaxed);
      }
      return;
    }
    RemoveSlot(shard, existing);
  }
  if (bytes > per_shard_capacity_) return;  // would evict the whole shard
  size_t slot = AddSlot(shard, key, hash, value, version, /*invalidated=*/false, bytes, as_of);
  EvictOver(shard, slot);
}

void ReadCache::EvictOver(Shard* shard, size_t protect) {
  while (shard->bytes > per_shard_capacity_) {
    // The protected slot alone fits capacity (Insert checks), so when it is
    // the only occupant there is nothing left to victimize.
    if (shard->live <= (protect == kNoProtect ? 0u : 1u)) break;
    if (shard->hand >= shard->slots.size()) shard->hand = 0;
    Node* node = shard->slots[shard->hand].get();
    if (!node->live || shard->hand == protect) {
      ++shard->hand;
      continue;
    }
    if (node->referenced.exchange(false, std::memory_order_relaxed)) {
      ++shard->hand;  // second chance: spared once, evicted next lap
      continue;
    }
    RemoveSlot(shard, shard->hand);
    if (evictions_ != nullptr) evictions_->Increment();
  }
}

bool ReadCache::MarkInvalidated(const std::string& key, Version version, Time as_of) {
  size_t hash = std::hash<std::string>{}(key);
  Shard* shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard->mu);
  bool dropped_live = false;
  uint32_t existing = FindSlot(*shard, key, hash);
  if (existing != kNoSlot) {
    Node* node = shard->slots[existing].get();
    if (node->version > version) return false;  // newer state cached
    dropped_live = !node->invalidated;
    RemoveSlot(shard, existing);
  }
  size_t slot = AddSlot(shard, key, hash, /*value=*/{}, version, /*invalidated=*/true,
                        key.size() + kPointEntryOverhead, as_of);
  EvictOver(shard, slot);
  return dropped_live;
}

bool ReadCache::Erase(const std::string& key) {
  size_t hash = std::hash<std::string>{}(key);
  Shard* shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard->mu);
  uint32_t slot = FindSlot(*shard, key, hash);
  if (slot == kNoSlot) return false;
  RemoveSlot(shard, slot);
  return true;
}

void ReadCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots.clear();
    shard.free_slots.clear();
    shard.index.assign(kMinIndexCells, kNoSlot);
    shard.live = 0;
    shard.hand = 0;
    shard.bytes = 0;
  }
}

size_t ReadCache::entry_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.live;
  }
  return n;
}

size_t ReadCache::bytes_used() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

// ---------------------------------------------------------------- ScanCache

ScanCache::ScanCache(size_t capacity_bytes, Counter* evictions)
    : capacity_bytes_(capacity_bytes), evictions_(evictions) {}

std::string ScanCache::CacheKey(std::string_view prefix, size_t limit) {
  // Length-prefixed so a prefix whose bytes look like the separator cannot
  // collide with another (prefix, limit) pair.
  std::string key = std::to_string(prefix.size());
  key.push_back(':');
  key.append(prefix);
  key.push_back(':');
  key.append(std::to_string(limit));
  return key;
}

void ScanCache::RemoveSlot(size_t slot) {
  Node* node = slots_[slot].get();
  bytes_ -= node->bytes;
  index_.erase(node->cache_key);
  slots_[slot].reset();
  free_slots_.push_back(slot);
}

CacheLookup ScanCache::Lookup(const std::string& prefix, size_t limit, Time now, Duration bound,
                              std::vector<Record>* out,
                              std::optional<Duration> retain_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(CacheKey(prefix, limit));
  if (it == index_.end()) return CacheLookup::kMiss;
  Node* node = slots_[it->second].get();
  if (!WithinBound(now, node->as_of, bound)) {
    if (!WithinBound(now, node->as_of, retain_bound.value_or(bound))) {
      RemoveSlot(it->second);
    }
    return CacheLookup::kStale;
  }
  node->referenced.store(true, std::memory_order_relaxed);
  *out = node->records;
  return CacheLookup::kHit;
}

void ScanCache::Insert(const std::string& prefix, size_t limit,
                       const std::vector<Record>& records, Time as_of) {
  std::string cache_key = CacheKey(prefix, limit);
  size_t bytes = kScanEntryOverhead + cache_key.size();
  for (const Record& record : records) {
    bytes += record.key.size() + record.value.size() + kScanRecordOverhead;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(cache_key);
  if (it != index_.end()) RemoveSlot(it->second);
  if (bytes > capacity_bytes_) return;
  auto node = std::make_unique<Node>();
  node->cache_key = std::move(cache_key);
  node->prefix = prefix;
  node->records = records;
  node->as_of = as_of;
  node->bytes = bytes;
  bytes_ += bytes;
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(node);
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(node));
  }
  index_[slots_[slot]->cache_key] = slot;
  EvictOver(slot);
}

size_t ScanCache::InvalidateForKey(std::string_view written_key) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    Node* node = slots_[slot].get();
    if (node == nullptr) continue;
    if (written_key.substr(0, node->prefix.size()) == node->prefix) {
      RemoveSlot(slot);
      ++dropped;
    }
  }
  return dropped;
}

void ScanCache::EvictOver(size_t protect) {
  while (bytes_ > capacity_bytes_) {
    if (index_.size() <= (protect == kNoProtect ? 0u : 1u)) break;
    if (hand_ >= slots_.size()) hand_ = 0;
    Node* node = slots_[hand_].get();
    if (node == nullptr || hand_ == protect) {
      ++hand_;
      continue;
    }
    if (node->referenced.exchange(false, std::memory_order_relaxed)) {
      ++hand_;
      continue;
    }
    RemoveSlot(hand_);
    if (evictions_ != nullptr) evictions_->Increment();
  }
}

void ScanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  free_slots_.clear();
  index_.clear();
  hand_ = 0;
  bytes_ = 0;
}

size_t ScanCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t ScanCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace scads
