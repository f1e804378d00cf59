#include "consistency/write_policy.h"

#include <utility>

#include "common/logging.h"

namespace scads {

void WritePolicy::Put(const std::string& key, const std::string& value, AckMode ack,
                      RequestOptions options, std::function<void(Result<PutOutcome>)> callback) {
  ++stats_.writes_attempted;
  // Arm here so one budget spans the read, the CAS, and every retry — a
  // retry attempt must not re-arm a fresh budget.
  options.Arm(router_->loop()->Now());
  switch (mode_) {
    case WriteConsistency::kLastWriteWins:
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
    case WriteConsistency::kSerializable:
      CasAttempt(key, value, ack, std::move(options), max_retries_, std::move(callback));
      return;
    case WriteConsistency::kMergeFunction:
      SCADS_CHECK(merge_ != nullptr);
      CasAttempt(key, value, ack, std::move(options), max_retries_, std::move(callback));
      return;
  }
}

void WritePolicy::CasAttempt(const std::string& key, const std::string& value, AckMode ack,
                             RequestOptions options, int attempts_left,
                             std::function<void(Result<PutOutcome>)> callback) {
  // CAS against the version this writer saw: read from the primary, then
  // install conditioned on that version (merge mode first folds `value`
  // into the stored one). The options deadline budget spans the read, the
  // CAS, and every retry.
  RequestOptions read_options = options;
  read_options.read_mode = ReadMode::kPrimaryOnly;
  router_->Get(
      key, std::move(read_options),
      [this, key, value, ack, options = std::move(options), attempts_left,
       callback = std::move(callback)](Result<Record> current) mutable {
        std::optional<Record> replaced;
        if (current.ok()) {
          replaced = std::move(current).value();
        } else if (!IsNotFound(current.status())) {
          callback(current.status());
          return;
        }
        std::optional<Version> expected;
        std::string to_write = value;
        if (replaced.has_value()) {
          expected = replaced->version;
          if (mode_ == WriteConsistency::kMergeFunction) {
            to_write = merge_(replaced->value, value);
            ++stats_.merges_performed;
          }
        }
        router_->ConditionalPut(
            key, to_write, expected, ack, options,
            [this, key, value, to_write, ack, options, attempts_left,
             replaced = std::move(replaced),
             callback = std::move(callback)](Result<Version> written) mutable {
              if (written.ok()) {
                // The CAS landed, so `replaced` was the write's predecessor.
                ++stats_.writes_committed;
                callback(PutOutcome{std::move(replaced),
                                    Record{key, std::move(to_write), *written}});
                return;
              }
              if (IsAborted(written.status()) && attempts_left > 0) {
                // Someone raced us: re-read and retry. Under merge no update
                // is lost — the merge folds our value into the newer state.
                ++stats_.conflicts_retried;
                CasAttempt(key, value, ack, std::move(options), attempts_left - 1,
                           std::move(callback));
                return;
              }
              if (IsAborted(written.status())) ++stats_.conflicts_failed;
              callback(written.status());
            });
      });
}

}  // namespace scads
