// GraphClient: the social-graph data model over the SCADS data plane.
//
// Two record kinds per user, both ordinary SCADS records (they replicate,
// cache, coalesce, and page like any other value):
//
//   adjacency  AdjacencyKey(u)  -> AdjacencyCodec list of who u follows
//   posts      PostsKey(u)      -> PostLogCodec run of u's recent posts
//
// Keys carry the same 2-byte spread prefix the benches use, so a uniform
// partition map stripes users across the fleet.
//
// Feed(user, k) is the paper-shaped headline query — top-K over the
// two-hop neighborhood: hydrate u's follow list, batch-fetch the follow
// lists of everyone u follows (ONE Router::MultiGet, the same batched
// hydration path ExecuteTwoHop uses), dedupe the neighbor ids in merge
// order (one-hop first, then each followee's list in order — a neighbor
// reached through several followees fans out once), batch-fetch the
// deduped neighbors' post runs, and merge them through a bounded top-K
// heap. The caller's RequestOptions ride every hop: one deadline budget
// spans the whole chain, the staleness bound and priority apply to each
// fetch, and cache/coalescer eligibility is decided per read exactly as
// for any other traffic.
//
// Follow/Unfollow/Post are read-modify-write mutations of one record on
// ReadModifyWrite (consistency/write_policy.h): pinned-primary read, codec
// append/remove (idempotent no-ops skip the write), a write conditioned on
// the read version, bounded re-read retries on CAS conflict. Losing a race
// never loses an edge — the retry re-reads the winner's list and
// re-applies.

#ifndef SCADS_GRAPH_GRAPH_CLIENT_H_
#define SCADS_GRAPH_GRAPH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/router.h"
#include "common/request_options.h"
#include "common/result.h"
#include "consistency/write_policy.h"
#include "core/scads_client.h"
#include "graph/adjacency_codec.h"

namespace scads {

struct GraphClientConfig {
  /// Recent posts kept per user (older posts fall off the run).
  size_t post_run_cap = 32;
  /// Re-read retries when a Follow/Unfollow/Post loses its CAS race.
  /// Negative = retry until the deadline budget (if any) sheds the read.
  int cas_retries = 16;
  /// Ack mode for graph mutations.
  AckMode ack = AckMode::kPrimary;
};

/// One entry of a feed result, newest first.
struct FeedItem {
  uint64_t author = 0;
  uint64_t seq = 0;
  uint64_t ts = 0;

  friend bool operator==(const FeedItem& a, const FeedItem& b) {
    return a.author == b.author && a.seq == b.seq && a.ts == b.ts;
  }
};

/// Total order of feed items: newest first, ties broken (author asc, seq
/// desc) so results are byte-identical across engines and replicas.
bool FeedRanksBefore(const FeedItem& a, const FeedItem& b);

/// Cumulative GraphClient statistics.
struct GraphClientStats {
  int64_t feeds_ok = 0;
  int64_t feeds_failed = 0;
  int64_t mutations_ok = 0;      ///< Follow/Unfollow/Post applied.
  int64_t mutations_noop = 0;    ///< Idempotent no-ops (edge/post already there).
  int64_t mutations_failed = 0;
  int64_t cas_conflicts = 0;     ///< Lost races that triggered a re-read.
  /// Post-dedupe neighbor fan-out summed over feeds (the two-hop breadth
  /// the MultiGets actually carried).
  int64_t feed_fanout = 0;
  /// Neighbor ids dropped by the pre-fan-out dedupe.
  int64_t feed_dupes_dropped = 0;
};

/// Stats are NOT internally synchronized: a GraphClient models one
/// application client; give each thread its own (over copies of the same
/// ScadsClient handle).
class GraphClient {
 public:
  explicit GraphClient(ScadsClient client, GraphClientConfig config = {});

  static std::string AdjacencyKey(uint64_t user);
  static std::string PostsKey(uint64_t user);

  /// Top-`k` posts from the two-hop neighborhood of `user`, newest first.
  /// A user with no adjacency record has an empty feed; dangling neighbors
  /// (no posts record) contribute nothing. Any non-NotFound fetch error
  /// surfaces instead of silently shrinking the feed.
  void Feed(uint64_t user, size_t k, RequestOptions options,
            std::function<void(Result<std::vector<FeedItem>>)> callback);

  /// user starts following target (idempotent).
  void Follow(uint64_t user, uint64_t target, RequestOptions options,
              std::function<void(Status)> callback);

  /// user stops following target (idempotent).
  void Unfollow(uint64_t user, uint64_t target, RequestOptions options,
                std::function<void(Status)> callback);

  /// Appends a post to user's recent-post run (idempotent per (ts, seq)).
  void Post(uint64_t user, PostRef post, RequestOptions options,
            std::function<void(Status)> callback);

  const GraphClientStats& stats() const { return stats_; }
  Router* router() { return client_.router(); }
  const ScadsClient& client() const { return client_; }
  const GraphClientConfig& config() const { return config_; }

 private:
  /// Runs `mutate` on `key` through ReadModifyWrite with this client's ack
  /// mode and retry budget, and books the outcome in the stats. `mutate`
  /// returns false for an idempotent no-op (no write is sent).
  void Mutate(const std::string& key, CasMutation mutate, RequestOptions options,
              std::function<void(Status)> callback);

  ScadsClient client_;
  GraphClientConfig config_;
  GraphClientStats stats_;
};

}  // namespace scads

#endif  // SCADS_GRAPH_GRAPH_CLIENT_H_
