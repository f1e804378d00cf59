#include "consistency/session.h"

#include <utility>

namespace scads {

void SessionClient::Put(const std::string& key, const std::string& value, AckMode ack,
                        RequestOptions options, std::function<void(Status)> callback) {
  client_.router()->Write(
      {Router::WriteOp::Kind::kPut, key, value}, ack, std::move(options),
      [this, key, callback = std::move(callback)](Result<Router::WriteAck> result) {
        if (result.ok() && guarantees_.read_your_writes) {
          write_tokens_[key] = WriteToken{result->version, /*was_delete=*/false};
        }
        callback(result.ok() ? Status::Ok() : result.status());
      });
}

void SessionClient::Delete(const std::string& key, AckMode ack, RequestOptions options,
                           std::function<void(Status)> callback) {
  client_.router()->Write(
      {Router::WriteOp::Kind::kDelete, key, {}}, ack, std::move(options),
      [this, key, callback = std::move(callback)](Result<Router::WriteAck> result) {
        if (result.ok() && guarantees_.read_your_writes) {
          write_tokens_[key] = WriteToken{result->version, /*was_delete=*/true};
        }
        callback(result.ok() ? Status::Ok() : result.status());
      });
}

bool SessionClient::SatisfiesTokens(const std::string& key, const Result<Record>& result) const {
  bool found = result.ok();
  bool not_found = IsNotFound(result.status());
  if (!found && !not_found) return true;  // infrastructure error: nothing to check
  if (guarantees_.read_your_writes) {
    auto it = write_tokens_.find(key);
    if (it != write_tokens_.end()) {
      const WriteToken& token = it->second;
      if (token.was_delete) {
        // Must observe the deletion or anything newer.
        if (found && result.value().version < token.version) return false;
      } else {
        if (not_found) return false;
        if (found && result.value().version < token.version) return false;
      }
    }
  }
  if (guarantees_.monotonic_reads) {
    auto it = read_tokens_.find(key);
    if (it != read_tokens_.end()) {
      if (not_found) return false;  // once seen, it cannot vanish backwards
      if (result.value().version < it->second) return false;
    }
  }
  return true;
}

void SessionClient::RecordObservation(const std::string& key, const Result<Record>& result) {
  if (!guarantees_.monotonic_reads) return;
  if (result.ok()) {
    Version& token = read_tokens_[key];
    token = std::max(token, result.value().version);
  }
}

std::optional<Version> SessionClient::VersionFloor(const std::string& key) const {
  std::optional<Version> floor;
  if (guarantees_.read_your_writes) {
    auto it = write_tokens_.find(key);
    if (it != write_tokens_.end()) floor = it->second.version;
  }
  if (guarantees_.monotonic_reads) {
    auto it = read_tokens_.find(key);
    if (it != read_tokens_.end() && (!floor.has_value() || *floor < it->second)) {
      floor = it->second;
    }
  }
  return floor;
}

void SessionClient::Get(const std::string& key, RequestOptions options,
                        std::function<void(Result<Record>)> callback) {
  // Arm here so one budget spans the replica read AND the primary-pinned
  // fallback below — the fallback must not get a fresh full budget.
  options.Arm(client_.loop()->Now());
  // Tighten-only, as at the Scads facade: a looser override must not
  // weaken the deployment-wide staleness guarantee.
  if (spec_staleness_ > 0 && options.max_staleness.has_value() &&
      *options.max_staleness > spec_staleness_) {
    options.max_staleness = spec_staleness_;
  }
  // Pin the session token into the request: the cache bypasses entries (and
  // replicas re-verify via SatisfiesTokens) below this floor.
  std::optional<Version> floor = VersionFloor(key);
  if (floor.has_value() &&
      (!options.min_version.has_value() || *options.min_version < *floor)) {
    options.min_version = floor;
  }
  client_.router()->Get(key, options,
               [this, key, options, callback = std::move(callback)](
                   Result<Record> result) mutable {
                 if (SatisfiesTokens(key, result)) {
                   ++first_try_;
                   RecordObservation(key, result);
                   callback(std::move(result));
                   return;
                 }
                 // Stale replica: fall back to the primary, which serializes
                 // writes and therefore always satisfies both guarantees.
                 ++fallbacks_;
                 RequestOptions pinned = std::move(options);
                 pinned.read_mode = ReadMode::kPrimaryOnly;
                 client_.router()->Get(key, std::move(pinned),
                              [this, key, callback = std::move(callback)](
                                  Result<Record> fresh) mutable {
                                RecordObservation(key, fresh);
                                callback(std::move(fresh));
                              });
               });
}

}  // namespace scads
