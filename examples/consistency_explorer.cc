// Consistency explorer: walks the Figure-4 axes one by one on a live
// deployment — write-conflict policies, the durability planner's
// cost/replication trade-off, and what a network partition does under each
// priority ordering.
//
//   $ ./examples/consistency_explorer

#include <cstdio>

#include "consistency/durability.h"
#include "core/scads.h"

using namespace scads;  // NOLINT: example brevity

namespace {

void DemoWritePolicies() {
  std::printf("=== axis: write consistency ===\n");
  ScadsOptions options;
  options.initial_nodes = 3;
  options.merge_function = [](std::string_view stored, std::string_view incoming) {
    return std::string(stored) + "+" + std::string(incoming);
  };
  options.consistency_spec = "writes: merge\n";
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();

  // Two "devices" write the same shopping cart concurrently; the merge
  // function keeps both updates.
  WritePolicy& merge_policy = *db->write_policy();
  Status s1 = InternalError("pending"), s2 = InternalError("pending");
  merge_policy.Put("cart/42", "milk", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { s1 = r.status(); });
  merge_policy.Put("cart/42", "eggs", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { s2 = r.status(); });
  db->RunFor(2 * kSecond);
  Result<Record> cart(InternalError("pending"));
  db->router()->Get("cart/42", RequestOptions::PrimaryOnly(), [&](Result<Record> r) { cart = std::move(r); });
  db->RunFor(kSecond);
  std::printf("merge policy: two writers -> value '%s' (merges=%lld)\n",
              cart.ok() ? cart->value.c_str() : "?",
              static_cast<long long>(merge_policy.stats().merges_performed));

  // Serializable: a CAS race — one writer must retry.
  WritePolicy serializable(db->router(), WriteConsistency::kSerializable);
  Status a = InternalError("pending"), b = InternalError("pending");
  serializable.Put("doc/1", "draft-a", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { a = r.status(); });
  serializable.Put("doc/1", "draft-b", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { b = r.status(); });
  db->RunFor(2 * kSecond);
  std::printf("serializable: both committed (a=%s b=%s), conflicts retried=%lld\n",
              a.ToString().c_str(), b.ToString().c_str(),
              static_cast<long long>(serializable.stats().conflicts_retried));
}

void DemoDurabilityPlanning() {
  std::printf("\n=== axis: durability SLA (replication chosen per target) ===\n");
  FailureModel model;  // 30-day MTBF, 10-minute re-replication
  std::printf("%-12s %-4s %-9s %s\n", "target", "rf", "ack", "predicted survival/yr");
  for (double target : {0.9, 0.99, 0.999, 0.99999, 0.9999999}) {
    auto plan = PlanDurability(target, model);
    if (!plan.ok()) {
      std::printf("%-12.7f unreachable: %s\n", target, plan.status().ToString().c_str());
      continue;
    }
    std::printf("%-12.7f %-4d %-9s %.9f\n", target, plan->replication_factor,
                plan->ack_mode == AckMode::kPrimary ? "primary" : "quorum",
                plan->predicted_survival);
  }
  std::printf("(relaxing the SLA for low-value data saves replicas — the paper's\n"
              " 'old comments' cost lever)\n");
}

void DemoPartitionPriorities() {
  std::printf("\n=== axis: priority order under a network partition ===\n");
  for (bool availability_first : {true, false}) {
    ScadsOptions options;
    options.initial_nodes = 2;
    options.consistency_spec = availability_first
                                   ? "staleness: 1s\npriority: availability > staleness\n"
                                   : "staleness: 1s\npriority: staleness > availability\n";
    auto db = std::move(Scads::Create(options)).value();
    (void)db->Start();
    Status put = InternalError("pending");
    db->router()->Put("k", "v", AckMode::kAll, RequestOptions{}, [&](Status s) { put = s; });
    db->RunFor(2 * kSecond);
    // Cut off the primary of k's partition.
    const PartitionInfo& p = db->cluster()->partitions()->ForKey("k");
    db->network()->SetPartitionGroup(p.primary(), 99);
    db->RunFor(2 * kSecond);
    Result<Record> got(InternalError("pending"));
    bool done = false;
    db->staleness()->Get("k", RequestOptions{}, [&](Result<Record> r) {
      got = std::move(r);
      done = true;
    });
    db->RunFor(3 * kSecond);
    std::printf("%s: read during partition -> %s\n",
                availability_first ? "availability-first" : "consistency-first",
                !done                ? "(no answer)"
                : got.ok()           ? ("served '" + got->value + "' (possibly stale)").c_str()
                                     : got.status().ToString().c_str());
  }
}

}  // namespace

int main() {
  DemoWritePolicies();
  DemoDurabilityPlanning();
  DemoPartitionPriorities();
  return 0;
}
