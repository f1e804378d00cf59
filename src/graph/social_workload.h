// SocialWorkloadDriver: the social mix over a GraphClient.
//
// Emits the paper's workload shape against the graph subsystem: timeline
// (feed) reads dominated by a Zipf-skewed actor population — so celebrity
// neighborhoods become hot keys — with a trickle of follows/unfollows
// (adjacency appends/removes) and posts (post-run appends).
//
// Determinism across engine arms is the point of the design:
//
//  * the op tape (kind, actor, target per op) is derived up front from the
//    driver seed, so every arm replays the same ops;
//  * mutations run as ONE serial chain — op i+1 issues only after op i's
//    callback — so last-write-wins races can't make the final store state
//    depend on the arm's latency profile;
//  * post timestamps are logical (ts_base + op index), not simulated
//    wall-clock, so identical posts carry identical bytes everywhere.
//
// Feeds, by contrast, fire on a fixed schedule and overlap freely — they
// are read-only, so concurrency costs nothing in determinism and buys the
// cache/coalescer something to do. The bench digests feeds from a separate
// read-only pass (RunFeedPass) where the store is quiescent, making the
// digest byte-comparable across RAM and paged arms.

#ifndef SCADS_GRAPH_SOCIAL_WORKLOAD_H_
#define SCADS_GRAPH_SOCIAL_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "graph/graph_client.h"

namespace scads {

struct SocialWorkloadConfig {
  int64_t users = 10000;
  /// Ops in the mixed phase (Run).
  int64_t ops = 2000;
  /// Spacing between op start times in the mixed phase (Run).
  Duration op_interval = 500;  // 0.5ms
  /// Spacing between feed start times in RunFeedPass; 0 = op_interval.
  /// Lets a bench pace the mixed phase gently (so the serial mutation
  /// chain is never queue-starved into timeouts) while still firing the
  /// measured storm densely enough to stress the cache.
  Duration feed_pass_interval = 0;
  /// Mix fractions (normalized over their sum).
  double feed_fraction = 0.70;
  double follow_fraction = 0.15;
  double unfollow_fraction = 0.05;
  double post_fraction = 0.10;
  /// Zipf skew of follow/unfollow targets — celebrity in-edges churn most.
  double target_zipf_theta = 0.85;
  /// Logical timestamp base for posts; must exceed every seeded post ts.
  uint64_t post_ts_base = 1ull << 40;
};

/// Driver statistics. Feed fields cover the most recent phase (Run and
/// RunFeedPass each reset them on entry, so a warm-up pass can't pollute
/// the measured pass); mutation counters are cumulative.
struct SocialWorkloadStats {
  LogHistogram feed_latency;  ///< Per-feed wall latency (simulated us).
  int64_t feeds_ok = 0;
  int64_t feeds_failed = 0;
  int64_t feed_items = 0;
  int64_t mutations_ok = 0;
  int64_t mutations_failed = 0;
  /// Order-independent FNV digest over (op index, feed items) of the last
  /// pass — byte-identical results across arms iff digests match.
  uint64_t feed_digest = 0;
};

class SocialWorkloadDriver {
 public:
  /// `clients` must outlive the driver; feeds round-robin across them
  /// (several app servers sharing a coalescer), mutations all go through
  /// clients[0] (the serial chain needs one writer).
  SocialWorkloadDriver(std::vector<GraphClient*> clients, SocialWorkloadConfig config,
                       uint64_t seed);

  /// Phase 1 — the mixed workload: schedules the op tape and invokes
  /// `done` when every op (including the serial mutation chain) has
  /// completed. Caller drives the event loop.
  void Run(std::function<void()> done);

  /// Phase 2 — a read-only feed storm over `feeds` Zipf-drawn actors
  /// (fresh tape, deterministic per (seed, pass)); records latency and the
  /// cross-arm digest. Safe to call repeatedly (warm-up, then measure);
  /// each call resets feed_digest.
  void RunFeedPass(int64_t feeds, int pass, std::function<void()> done);

  const SocialWorkloadStats& stats() const { return stats_; }

 private:
  enum class OpKind { kFeed, kFollow, kUnfollow, kPost };
  struct Op {
    OpKind kind;
    int64_t actor;
    int64_t target;  ///< Follow/unfollow target; unused otherwise.
  };

  void ResetFeedStats();
  Op DrawOp(Rng& rng, bool feed_only) const;
  void IssueFeed(GraphClient* client, int64_t op_index, int64_t actor, bool digest,
                 std::function<void()> on_done);

  std::vector<GraphClient*> clients_;
  SocialWorkloadConfig config_;
  uint64_t seed_;
  SocialWorkloadStats stats_;
  std::vector<int64_t> next_seq_;  ///< Per-user post sequence numbers.
};

}  // namespace scads

#endif  // SCADS_GRAPH_SOCIAL_WORKLOAD_H_
