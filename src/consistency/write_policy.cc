#include "consistency/write_policy.h"

#include <utility>

#include "common/logging.h"

namespace scads {

namespace {

// Lost races a serializable or merge write re-reads and retries.
constexpr int kCasRetries = 4;

/// One read-then-CAS attempt of ReadModifyWrite, after `conflicts` lost
/// races.
void CasAttempt(Router* router, const std::string& key, AckMode ack, RequestOptions options,
                int retries, CasMutation mutate, int conflicts,
                std::function<void(CasResult)> done) {
  // The read must see the freshest copy and be this request's own round
  // trip: a cached or replica-served read could hand back a version the
  // primary has already superseded, turning every CAS into a guaranteed
  // conflict. A primary-pinned read never coalesces.
  RequestOptions read_options = options;
  read_options.read_mode = ReadMode::kPrimaryOnly;
  router->Get(
      key, std::move(read_options),
      [router, key, ack, options = std::move(options), retries, mutate = std::move(mutate),
       conflicts, done = std::move(done)](Result<Record> read) mutable {
        CasResult result;
        result.conflicts = conflicts;
        if (read.ok()) {
          result.current = std::move(read).value();
        } else if (!IsNotFound(read.status())) {
          result.status = read.status();
          done(std::move(result));
          return;
        }
        Router::WriteOp op{Router::WriteOp::Kind::kPut, key,
                           result.current ? result.current->value : std::string()};
        if (!mutate(result.current, &op.value)) {
          done(std::move(result));
          return;
        }
        op.condition = WriteCondition{result.current ? std::optional(result.current->version)
                                                     : std::nullopt};
        router->Write(
            op, ack, options,
            [router, key, ack, options, retries, mutate = std::move(mutate),
             done = std::move(done), result = std::move(result),
             value = op.value](Result<Router::WriteAck> written) mutable {
              if (written.ok()) {
                // The CAS landed, so `result.current` was its predecessor.
                result.stored = Record{key, std::move(value), written->version};
                done(std::move(result));
                return;
              }
              if (IsAborted(written.status()) && retries != 0) {
                // Lost the race: re-read the winner's record and re-apply.
                CasAttempt(router, key, ack, std::move(options),
                           retries > 0 ? retries - 1 : retries, std::move(mutate),
                           result.conflicts + 1, std::move(done));
                return;
              }
              result.status = written.status();
              done(std::move(result));
            });
      });
}

}  // namespace

void ReadModifyWrite(Router* router, const std::string& key, AckMode ack,
                     RequestOptions options, int retries, CasMutation mutate,
                     std::function<void(CasResult)> done) {
  // Arm here so one budget spans the read, the CAS, and every retry — a
  // retry attempt must not re-arm a fresh budget.
  options.Arm(router->loop()->Now());
  CasAttempt(router, key, ack, std::move(options), retries, std::move(mutate), 0,
             std::move(done));
}

void WritePolicy::Put(const std::string& key, const std::string& value, AckMode ack,
                      RequestOptions options, std::function<void(Result<PutOutcome>)> callback) {
  ++stats_.writes_attempted;
  if (mode_ == WriteConsistency::kLastWriteWins) {
    router_->Write({Router::WriteOp::Kind::kPut, key, value, /*return_prior=*/true}, ack,
                   std::move(options),
                   [this, key, value,
                    callback = std::move(callback)](Result<Router::WriteAck> written) mutable {
      if (!written.ok()) {
        callback(written.status());
        return;
      }
      ++stats_.writes_committed;
      callback(PutOutcome{std::move(written->prior),
                          Record{std::move(key), std::move(value), written->version}});
    });
    return;
  }
  // Serializable and merge: CAS against the version this writer read. Merge
  // first folds `value` into the stored one, so under contention no update
  // is lost — a retry folds it into the newer state.
  SCADS_CHECK(mode_ != WriteConsistency::kMergeFunction || merge_ != nullptr);
  ReadModifyWrite(
      router_, key, ack, std::move(options), kCasRetries,
      [this, value](const std::optional<Record>& current, std::string* to_write) {
        if (current.has_value() && mode_ == WriteConsistency::kMergeFunction) {
          *to_write = merge_(current->value, value);
          ++stats_.merges_performed;
        } else {
          *to_write = value;
        }
        return true;
      },
      [this, callback = std::move(callback)](CasResult result) {
        stats_.conflicts_retried += result.conflicts;
        if (!result.status.ok()) {
          if (IsAborted(result.status)) ++stats_.conflicts_failed;
          callback(std::move(result.status));
          return;
        }
        ++stats_.writes_committed;
        callback(PutOutcome{std::move(result.current), std::move(*result.stored)});
      });
}

}  // namespace scads
