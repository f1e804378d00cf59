// FIG-4: reproduces paper Figure 4 — "The Axes of Consistency SCADS
// supports" — by running one measurement per axis that demonstrates the
// example from the paper's table:
//
//   Performance       | 99.9% of requests succeed in <100ms
//   Write Consistency | serializable / merge / last-write-wins
//   Read Consistency  | stale data gone within the bound
//   Session Guarantees| I must read my own writes
//   Durability SLA    | data persists with target probability

#include <cstdio>
#include <string>

#include "cluster/node.h"
#include "common/benchjson.h"
#include "consistency/durability.h"
#include "consistency/session.h"
#include "consistency/spec.h"
#include "consistency/write_policy.h"
#include "core/scads.h"

using namespace scads;  // NOLINT: benchmark brevity

namespace {

bool AxisPerformance() {
  std::printf("--- axis: Performance (99.9%% of reads < 100ms) ---\n");
  ScadsOptions options;
  options.initial_nodes = 4;
  options.consistency_spec = "performance: p99.9 read < 100ms, availability 99.99%\n";
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();
  // Seed keys, then read under light load.
  for (int i = 0; i < 50; ++i) {
    Status status = InternalError("pending");
    db->router()->Put("k" + std::to_string(i), "v", AckMode::kPrimary, RequestOptions{},
                      [&](Status s) { status = s; });
    db->RunFor(50 * kMillisecond);
  }
  for (int i = 0; i < 3000; ++i) {
    db->router()->Get("k" + std::to_string(i % 50), RequestOptions{}, [](Result<Record>) {});
    db->RunFor(5 * kMillisecond);
  }
  db->RunFor(kSecond);
  RouterWindow window = db->router()->TakeWindow();
  SlaMonitor monitor(db->spec().performance);
  SlaReport report = monitor.Evaluate(window, db->loop()->Now());
  std::printf("  reads: %lld  p99.9 = %s  within-bound = %.4f  availability = %.4f -> %s\n",
              static_cast<long long>(report.reads),
              FormatDuration(report.read_latency_at_quantile).c_str(),
              report.fraction_within_bound, report.availability,
              report.ok() ? "SLA MET" : "SLA VIOLATED");
  return report.ok();
}

bool AxisWriteConsistency() {
  std::printf("\n--- axis: Write Consistency (serializable | merge | last write wins) ---\n");
  ScadsOptions options;
  options.initial_nodes = 3;
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();

  // Serializable: concurrent CAS writers serialize; conflicts retried.
  WritePolicy serializable(db->router(), WriteConsistency::kSerializable);
  Status a = InternalError("pending"), b = InternalError("pending");
  serializable.Put("doc", "writer-a", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { a = r.status(); });
  serializable.Put("doc", "writer-b", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { b = r.status(); });
  db->RunFor(3 * kSecond);
  bool serializable_ok = a.ok() && b.ok() && serializable.stats().conflicts_retried >= 1;
  std::printf("  serializable: both writers committed after %lld retried conflicts -> %s\n",
              static_cast<long long>(serializable.stats().conflicts_retried),
              serializable_ok ? "ok" : "FAIL");

  // Merge: conflicting carts union.
  WritePolicy merger(db->router(), WriteConsistency::kMergeFunction,
                     [](std::string_view stored, std::string_view incoming) {
                       return std::string(stored) + "," + std::string(incoming);
                     });
  Status m1 = InternalError("pending"), m2 = InternalError("pending");
  merger.Put("cart", "milk", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { m1 = r.status(); });
  merger.Put("cart", "eggs", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { m2 = r.status(); });
  db->RunFor(3 * kSecond);
  Result<Record> cart(InternalError("pending"));
  db->router()->Get("cart", RequestOptions::PrimaryOnly(), [&](Result<Record> r) { cart = std::move(r); });
  db->RunFor(kSecond);
  bool merge_ok = m1.ok() && m2.ok() && cart.ok() &&
                  cart->value.find("milk") != std::string::npos &&
                  cart->value.find("eggs") != std::string::npos;
  std::printf("  merge: concurrent writers -> '%s' -> %s\n",
              cart.ok() ? cart->value.c_str() : "?", merge_ok ? "ok" : "FAIL");

  // Last write wins: replicas converge on the newest version.
  WritePolicy lww(db->router(), WriteConsistency::kLastWriteWins);
  Status w = InternalError("pending");
  lww.Put("status", "old", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { w = r.status(); });
  db->RunFor(100 * kMillisecond);
  lww.Put("status", "new", AckMode::kPrimary, RequestOptions{}, [&](Result<PutOutcome> r) { w = r.status(); });
  db->RunFor(3 * kSecond);
  Result<Record> status_value(InternalError("pending"));
  db->router()->Get("status", RequestOptions::PrimaryOnly(), [&](Result<Record> r) { status_value = std::move(r); });
  db->RunFor(kSecond);
  bool lww_ok = status_value.ok() && status_value->value == "new";
  std::printf("  last-write-wins: final value '%s' -> %s\n",
              status_value.ok() ? status_value->value.c_str() : "?", lww_ok ? "ok" : "FAIL");
  return serializable_ok && merge_ok && lww_ok;
}

bool AxisReadConsistency() {
  std::printf("\n--- axis: Read Consistency (stale data gone within the bound) ---\n");
  ScadsOptions options;
  options.initial_nodes = 2;
  options.consistency_spec = "staleness: 2s\n";
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();
  Status put = InternalError("pending");
  db->router()->Put("item", "fresh-value", AckMode::kPrimary, RequestOptions{}, [&](Status s) { put = s; });
  db->RunFor(500 * kMillisecond);
  // Read via the staleness controller immediately: it must pick a replica
  // that can PROVE freshness within 2s (or go to the primary).
  Result<Record> got(InternalError("pending"));
  bool done = false;
  db->staleness()->Get("item", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  db->RunFor(2 * kSecond);
  const StalenessStats& stats = db->staleness()->stats();
  bool ok = done && got.ok() && got->value == "fresh-value" && stats.stale_served == 0;
  std::printf("  bound 2s: read returned '%s' (fresh reads=%lld, escalations=%lld, "
              "stale served=%lld) -> %s\n",
              got.ok() ? got->value.c_str() : "?",
              static_cast<long long>(stats.fresh_replica_reads),
              static_cast<long long>(stats.primary_escalations),
              static_cast<long long>(stats.stale_served), ok ? "ok" : "FAIL");
  return ok;
}

bool AxisSessionGuarantees() {
  std::printf("\n--- axis: Session Guarantees (read your own writes) ---\n");
  ScadsOptions options;
  options.initial_nodes = 2;
  options.node_config.replication_flush_interval = 5 * kSecond;  // force lag
  options.consistency_spec = "session: read_your_writes\n";
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();
  auto session = db->NewSession();
  Status posted = InternalError("pending");
  session->Put("wall/me", "my-post", AckMode::kPrimary, RequestOptions{}, [&](Status s) { posted = s; });
  db->RunFor(50 * kMillisecond);
  int stale_anomalies = 0;
  for (int i = 0; i < 20; ++i) {
    Result<Record> got(InternalError("pending"));
    bool done = false;
    session->Get("wall/me", RequestOptions{}, [&](Result<Record> r) {
      got = std::move(r);
      done = true;
    });
    db->RunFor(100 * kMillisecond);
    if (!done || !got.ok() || got->value != "my-post") ++stale_anomalies;
  }
  std::printf("  20 reads right after posting: %d failed to see the post "
              "(primary fallbacks used: %lld) -> %s\n",
              stale_anomalies, static_cast<long long>(session->guarantee_fallbacks()),
              stale_anomalies == 0 ? "ok" : "FAIL");
  return stale_anomalies == 0;
}

bool AxisDurability() {
  std::printf("\n--- axis: Durability SLA (probability-driven replication) ---\n");
  FailureModel model;
  std::printf("  %-12s %-4s %-9s %s\n", "target", "rf", "ack", "predicted survival");
  bool monotone = true;
  int last_rf = 0;
  for (double target : {0.9, 0.999, 0.99999, 0.9999999}) {
    auto plan = PlanDurability(target, model);
    if (!plan.ok()) return false;
    std::printf("  %-12.7f %-4d %-9s %.9f\n", target, plan->replication_factor,
                plan->ack_mode == AckMode::kPrimary ? "primary" : "quorum",
                plan->predicted_survival);
    monotone &= plan->replication_factor >= last_rf;
    last_rf = plan->replication_factor;
  }
  // Live check: with the rf for 99.999%, data survives a permanent node loss.
  ScadsOptions options;
  options.initial_nodes = 4;
  options.consistency_spec = "durability: 99.999%\n";
  auto db = std::move(Scads::Create(options)).value();
  (void)db->Start();
  Status put = InternalError("pending");
  db->router()->Put("precious", "data", db->durability_plan().ack_mode, RequestOptions{},
                    [&](Status s) { put = s; });
  db->RunFor(3 * kSecond);
  const PartitionInfo& p = db->cluster()->partitions()->ForKey("precious");
  NodeId victim = p.primary();
  db->cluster()->GetNode(victim)->set_alive(false);
  db->cluster()->SetNodeAlive(victim, false);
  db->network()->SetPartitionGroup(victim, 66);  // permanent loss
  db->RunFor(kSecond);
  Result<Record> got(InternalError("pending"));
  bool done = false;
  db->router()->Get("precious", RequestOptions{}, [&](Result<Record> r) {
    got = std::move(r);
    done = true;
  });
  db->RunFor(3 * kSecond);
  bool survived = done && got.ok() && got->value == "data";
  std::printf("  live: rf=%d write survived permanent primary loss -> %s\n",
              db->durability_plan().replication_factor, survived ? "ok" : "FAIL");
  return monotone && survived;
}

}  // namespace

int main() {
  std::printf("=== FIG-4: the axes of consistency, one measurement per axis ===\n\n");
  bool performance = AxisPerformance();
  bool writes = AxisWriteConsistency();
  bool reads = AxisReadConsistency();
  bool sessions = AxisSessionGuarantees();
  bool durability = AxisDurability();

  std::printf("\n%-20s %s\n", "axis", "verdict");
  std::printf("%-20s %s\n", "performance", performance ? "PASS" : "FAIL");
  std::printf("%-20s %s\n", "write consistency", writes ? "PASS" : "FAIL");
  std::printf("%-20s %s\n", "read consistency", reads ? "PASS" : "FAIL");
  std::printf("%-20s %s\n", "session guarantees", sessions ? "PASS" : "FAIL");
  std::printf("%-20s %s\n", "durability SLA", durability ? "PASS" : "FAIL");
  bool all = performance && writes && reads && sessions && durability;
  std::printf("\nshape check (every axis enforced): %s\n", all ? "PASS" : "FAIL");
  BenchJson json("fig4_consistency_axes");
  json.BeginRow("axes");
  json.Add("performance_check", performance ? "PASS" : "FAIL");
  json.Add("write_consistency_check", writes ? "PASS" : "FAIL");
  json.Add("read_consistency_check", reads ? "PASS" : "FAIL");
  json.Add("session_guarantees_check", sessions ? "PASS" : "FAIL");
  json.Add("durability_check", durability ? "PASS" : "FAIL");
  json.BeginRow("summary");
  json.Add("shape_check", all ? "PASS" : "FAIL");
  (void)json.Write();
  return all ? 0 : 1;
}
