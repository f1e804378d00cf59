// Write-consistency policies (Figure 4, "Write Consistency").
//
//  * last-write-wins — one routed write; replicas converge on the highest
//    (timestamp, writer) version.
//  * serializable — compare-and-set through the partition primary; a lost
//    race surfaces as kAborted after bounded retries.
//  * merge — optimistic read-merge-CAS loop with a developer-provided merge
//    function; conflicting writers converge without losing either update.
//
// Every mode reports the record a write replaced and the image it stored
// (index maintenance needs both). Last-write-wins has the primary return
// the replaced record in the write's own reply; the CAS modes already read
// it, and a CAS that lands proves that read was the predecessor.
//
// Both CAS modes run on ReadModifyWrite, the one compare-and-set retry loop
// (GraphClient's Follow/Unfollow/Post use it too).

#ifndef SCADS_CONSISTENCY_WRITE_POLICY_H_
#define SCADS_CONSISTENCY_WRITE_POLICY_H_

#include <functional>
#include <optional>
#include <string>

#include "cluster/router.h"
#include "consistency/spec.h"

namespace scads {

/// Computes the value a read-modify-write stores from the key's current
/// live record (`current`, empty when there is none). `*value` holds the
/// current value (empty when none) on entry and the value to store on
/// return. Returning false declines: nothing is written.
using CasMutation =
    std::function<bool(const std::optional<Record>& current, std::string* value)>;

/// What a read-modify-write did.
struct CasResult {
  /// OK when the write landed or the mutation declined; otherwise the read
  /// or write failure that ended the loop (kAborted once the retry budget
  /// ran out).
  Status status;
  /// Lost races that were retried: each re-read the key and re-ran the
  /// mutation.
  int conflicts = 0;
  /// The live record the last attempt read; when the write landed, the
  /// record it replaced.
  std::optional<Record> current;
  /// What the write stored, stamped with its version; empty unless the
  /// write landed.
  std::optional<Record> stored;
};

/// The compare-and-set retry loop: reads `key` pinned to the primary, lets
/// `mutate` compute the new value from the record read, and writes it with
/// a WriteCondition on the version read (no live record: expect none). A
/// lost race (kAborted) re-reads and retries while `retries` allows; a
/// negative budget retries until the options deadline sheds the read. One
/// deadline budget spans every read, write and retry.
void ReadModifyWrite(Router* router, const std::string& key, AckMode ack,
                     RequestOptions options, int retries, CasMutation mutate,
                     std::function<void(CasResult)> done);

/// Statistics for a write policy instance.
struct WritePolicyStats {
  int64_t writes_attempted = 0;
  int64_t writes_committed = 0;
  int64_t conflicts_retried = 0;  ///< CAS losses that were retried.
  int64_t conflicts_failed = 0;   ///< Writes aborted after retry budget.
  int64_t merges_performed = 0;
};

/// What a committed write did at the primary.
struct PutOutcome {
  /// The record the write replaced: tombstones included under
  /// last-write-wins, live records only under the CAS modes; empty when
  /// there was none.
  std::optional<Record> replaced;
  /// The image the primary stored, stamped with the write's version: the
  /// caller's value, or merge(stored, value) under kMergeFunction.
  Record stored;
};

/// Applies the configured WriteConsistency to every write.
class WritePolicy {
 public:
  /// `merge` is required when mode == kMergeFunction; ignored otherwise.
  WritePolicy(Router* router, WriteConsistency mode, MergeFunction merge = nullptr,
              int max_retries = 4)
      : router_(router), mode_(mode), merge_(std::move(merge)), max_retries_(max_retries) {}

  /// Writes `value` to `key` under the policy and reports the PutOutcome.
  /// Last-write-wins takes one exchange, the CAS modes two (a primary read,
  /// then the CAS). For kSerializable the write fails with kAborted when
  /// it loses the race `max_retries` times; for kMergeFunction the merge
  /// loop retries until the CAS lands (or budget exhausts). The options
  /// deadline budget spans the whole loop — read, CAS, and retries — so a
  /// bounded write cannot spiral under contention.
  void Put(const std::string& key, const std::string& value, AckMode ack,
           RequestOptions options, std::function<void(Result<PutOutcome>)> callback);

  const WritePolicyStats& stats() const { return stats_; }
  WriteConsistency mode() const { return mode_; }

 private:
  Router* router_;
  WriteConsistency mode_;
  MergeFunction merge_;
  int max_retries_;
  WritePolicyStats stats_;
};

}  // namespace scads

#endif  // SCADS_CONSISTENCY_WRITE_POLICY_H_
