// ReadCoalescer: cross-router coalescing of concurrent point reads — the
// memcached "multiget hole" lever, one layer up from MultiGet batching.
//
// Two merges happen here, both across independent in-flight requests (and
// across Router instances sharing one coalescer — the "cross-router" in
// the name):
//
//   * Same-key: while a point read for key K is in flight, later reads of
//     K attach to it as *followers* instead of sending their own node
//     message. When the leader's reply arrives, each follower is served
//     from it only when its own RequestOptions still hold at that instant
//     — its effective staleness bound against the reply's serve-time
//     watermark (the same as_of discipline the read cache uses), its
//     session min_version floor against the reply's version, and its
//     deadline. A follower whose bounds the reply cannot prove *detaches*
//     and dispatches normally (where an expired deadline then sheds with
//     kDeadlineExceeded, exactly as an uncoalesced read would).
//   * Same-node: leaders targeting the same storage node ship as ONE
//     HandleMultiGet message instead of N one-key ones — N-1 message
//     overheads and per-request base service costs saved. A leader that
//     arrives within one hold window (~100us) of the previous leader for
//     its node is held for that window so later ones can join; a leader
//     to a node that has been quiet for a window ships as an immediate
//     event, carrying only the leaders submitted before that event runs,
//     since nothing the coalescer has seen suggests anyone else will join.
//     A leader submitted at the same time but after that event ran (a
//     later event at the same simulated instant) counts as "within a
//     window" and opens a hold.
//
// Error discipline: a leader error (timeout failover aside) propagates to
// every follower — each fails in its own router's window — and nothing a
// follower observes is ever written to any cache (only the leader's
// router stores the reply, once), so one request's outcome can never
// pollute another's cached state. One exception: when the node SHEDS a
// merged message that dispatched at a lower priority than its members now
// carry (a kHigh follower attached after dispatch), the message is
// re-admitted once at the max member priority before any error
// propagates — priority admission should judge the read by who is
// actually waiting on it.
//
// What never coalesces: kPrimaryOnly-pinned reads (session fallbacks,
// read-modify-write — their semantics demand their own serve) and targeted
// GetFromReplica reads.

#ifndef SCADS_CLUSTER_COALESCER_H_
#define SCADS_CLUSTER_COALESCER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "common/request_options.h"
#include "common/result.h"
#include "common/types.h"
#include "runtime/execution_backend.h"
#include "storage/engine.h"

namespace scads {

class Router;

/// Coalescer tunables.
struct CoalescerConfig {
  /// Off by default at the facade: same-key followers and held leaders
  /// pay off only for read mixes with duplicates or bursts per node.
  /// Benches and deployments opt in.
  bool enabled = false;
  /// Same-node hold window. A leader that arrives less than this long
  /// after the previous leader for its node opens a hold: the merged
  /// message ships this long after it, carrying every leader that targets
  /// the node meanwhile. Any other leader ships as an immediate event,
  /// joined only by leaders submitted before that event runs. 0 never
  /// holds.
  Duration window = 100;  // us
  /// Deployment staleness bound backing follower freshness checks when the
  /// request carries no override (0 = unbounded, as in the spec). Scads
  /// wires the consistency spec's max_staleness in here.
  Duration staleness_bound = 0;
};

/// Cumulative coalescing statistics.
struct CoalescerStats {
  int64_t leader_reads = 0;       ///< Reads that led their key.
  int64_t follower_joins = 0;     ///< Reads that attached to an in-flight key.
  int64_t followers_served = 0;   ///< Followers served from the leader's reply.
  int64_t followers_detached = 0; ///< Bounds unprovable at reply time; re-dispatched.
  int64_t leaders_expired = 0;    ///< Leader budget gone at reply time; shed on redispatch.
  int64_t follower_errors = 0;    ///< Leader errors propagated to followers.
  int64_t batches_sent = 0;       ///< Merged node messages shipped.
  int64_t batched_keys = 0;       ///< Leader keys those messages carried.
  int64_t batch_timeouts = 0;     ///< Merged messages that timed out (failover).
  /// Shed replies re-admitted at a higher priority: a kHigh follower had
  /// attached after the merged message already shipped at the leader's
  /// lower priority, so the shed is retried once at the max member
  /// priority instead of propagating kResourceExhausted to the kHigh read.
  int64_t priority_upgrades = 0;
};

/// Merges concurrent point reads across in-flight requests and routers.
/// One coalescer may serve any number of Routers on the same backend
/// (attach via Router::set_coalescer); every read keeps its own router's
/// window accounting and cache.
///
/// Thread safety: an internal mutex guards the hold-window state
/// (inflight_, held_, last_leader_, stats_). It is never held while
/// calling into a router or the fabric, and routers never call in while
/// holding theirs: they Submit after releasing it, and completion paths
/// collect members under this lock, release it, and only then call back
/// into routers — so a shared coalescer cannot deadlock two routers
/// against each other, and a member's callback may re-enter either.
class ReadCoalescer {
 public:
  /// One point read inside the coalescer. Routers build these in Get()
  /// after the cache miss; `candidates` is the selector's ordered retry
  /// list (front = the node a leader batches toward) and `options` is
  /// already armed.
  struct PendingRead {
    Router* router = nullptr;
    std::string key;
    std::vector<NodeId> candidates;
    RequestOptions options;
    Time start = 0;
    std::function<void(Result<Record>)> callback;
  };

  ReadCoalescer(Executor* loop, MessageFabric* network, ClusterState* cluster,
                CoalescerConfig config)
      : loop_(loop), network_(network), cluster_(cluster), config_(config) {}

  ReadCoalescer(const ReadCoalescer&) = delete;
  ReadCoalescer& operator=(const ReadCoalescer&) = delete;

  /// Submits a point read. Same-key reads join the in-flight leader as
  /// followers; a fresh key leads and is batched with other leaders
  /// targeting the same node (held for a window only when the node saw a
  /// leader less than a window ago).
  void Submit(PendingRead read);

  bool enabled() const { return config_.enabled; }
  /// Mutate config before traffic starts; request-path reads are unguarded.
  CoalescerConfig* mutable_config() { return &config_; }
  /// Read after quiescing (stats mutate under the internal lock; this view
  /// takes none).
  const CoalescerStats& stats() const { return stats_; }

 private:
  struct KeyEntry {
    PendingRead leader;
    std::vector<PendingRead> followers;
    NodeId target = kInvalidNode;
    /// Priority the merged message actually shipped at (set in Flush).
    /// Followers attaching after dispatch can carry a higher one — the
    /// in-flight upgrade case CompleteKey retries on a shed reply.
    RequestPriority dispatched = RequestPriority::kLow;
    /// One upgrade retry per entry, so a node shedding even kHigh work
    /// can't trap a key in a retry loop.
    bool upgrade_retry_used = false;
  };
  struct NodeBatch {
    std::vector<std::string> keys;
    Executor::TaskId flush_event = Executor::kInvalidTask;
  };

  /// Ships `target`'s held leaders as one HandleMultiGet message.
  void Flush(NodeId target);
  /// Resolves one key's leader and followers from the node's reply.
  void CompleteKey(const std::string& key, Result<Record> result, Time as_of);
  /// Merged-message failure (timeout / node gone): every member of every
  /// affected key re-dispatches individually through its own router,
  /// skipping the failed node.
  void FailOverKey(const std::string& key, NodeId failed);
  /// May `follower` be served from the leader's reply right now?
  bool FollowerServable(const PendingRead& follower, const Result<Record>& result, Time as_of,
                        Time now) const;

  Executor* loop_;
  MessageFabric* network_;
  ClusterState* cluster_;
  CoalescerConfig config_;
  /// Guards inflight_, held_, last_leader_ and stats_. Never held while
  /// calling into a Router or the fabric (see class comment).
  std::mutex mu_;
  CoalescerStats stats_;
  std::map<std::string, KeyEntry> inflight_;   // key -> leader + followers
  std::map<NodeId, NodeBatch> held_;           // node -> leaders awaiting flush
  std::map<NodeId, Time> last_leader_;         // node -> when its last leader arrived
};

}  // namespace scads

#endif  // SCADS_CLUSTER_COALESCER_H_
