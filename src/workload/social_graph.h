// Synthetic social graph (the CloudStone substitution).
//
// Degree distribution is heavy-tailed (Pareto) but capped — the paper's
// central workload assumption: "the limit of 5,000 friends per user ...
// allows interesting joins" (§2.3). Construction is deterministic from the
// seed.

#ifndef SCADS_WORKLOAD_SOCIAL_GRAPH_H_
#define SCADS_WORKLOAD_SOCIAL_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace scads {

/// Graph-shape tunables.
struct SocialGraphConfig {
  int64_t user_count = 1000;
  /// Mean target degree (before capping); degrees follow a Pareto tail of
  /// shape 2.
  double mean_degree = 20;
  /// Hard per-user friend cap (the paper's 5 000).
  int64_t friend_cap = 5000;
};

/// An undirected friendship graph over users [0, user_count).
class SocialGraph {
 public:
  /// Builds the graph deterministically from `seed`.
  static SocialGraph Generate(const SocialGraphConfig& config, uint64_t seed);

  int64_t user_count() const { return static_cast<int64_t>(adjacency_.size()); }
  int64_t edge_count() const { return edge_count_; }

  /// Neighbor list of `user` (sorted).
  const std::vector<int64_t>& Friends(int64_t user) const {
    return adjacency_[static_cast<size_t>(user)];
  }

  int64_t Degree(int64_t user) const {
    return static_cast<int64_t>(adjacency_[static_cast<size_t>(user)].size());
  }
  int64_t max_degree() const { return max_degree_; }

  /// Every edge once, as (low, high) pairs.
  std::vector<std::pair<int64_t, int64_t>> Edges() const;

  /// True when (a, b) are friends.
  bool AreFriends(int64_t a, int64_t b) const;

  /// Adds an edge if absent and both endpoints stay under the cap. Returns
  /// whether the edge was added (drives incremental-growth experiments).
  bool AddFriendship(int64_t a, int64_t b, int64_t cap);

 private:
  std::vector<std::vector<int64_t>> adjacency_;
  int64_t edge_count_ = 0;
  int64_t max_degree_ = 0;
};

}  // namespace scads

#endif  // SCADS_WORKLOAD_SOCIAL_GRAPH_H_
