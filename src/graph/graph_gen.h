// Deterministic power-law follow-graph generator.
//
// Unlike workload/social_graph.h (a materialized undirected friendship
// graph for the query-layer experiments), this generator produces the
// *directed* follow graph the feed workload runs on, and produces it
// lazily: FollowsOf(user) derives the user's whole sorted follow list from
// (seed, user) alone, so a multi-million-edge graph costs no resident
// memory in the generator — the encoded adjacency records in the store are
// the only copy. That is what lets the bench load >= 1M edges and still
// reason about the store's resident bytes.
//
// Shape: out-degree is Pareto-tailed (heavy tail, capped at the paper's
// 5,000), follow *targets* are Zipf-distributed over user rank — low user
// ids are the celebrities, accumulating power-law in-degree, which is
// exactly the hot-key skew the cache/coalescing/eviction layers are meant
// to absorb.

#ifndef SCADS_GRAPH_GRAPH_GEN_H_
#define SCADS_GRAPH_GRAPH_GEN_H_

#include <cstdint>
#include <vector>

namespace scads {

/// Generator tunables. `users` is the scale knob (the bench's --users).
struct SocialGraphGenConfig {
  int64_t users = 10000;
  /// Zipf exponent for follow-target popularity (0 = uniform; ~0.8-1.0 is
  /// social-graph skew). User 0 is the most-followed celebrity.
  double target_zipf_theta = 0.85;
  /// Mean out-degree before capping. Out-degrees follow a Pareto tail of
  /// shape 2, capped at the paper's 5,000 follows per user (§2.3).
  double mean_out_degree = 16.0;
  /// Initial posts per user seeded by MakeInitialPosts.
  int64_t initial_posts = 6;
};

class SocialGraphGen {
 public:
  SocialGraphGen(SocialGraphGenConfig config, uint64_t seed);

  int64_t users() const { return config_.users; }
  const SocialGraphGenConfig& config() const { return config_; }

  /// The sorted, duplicate-free follow list of `user` (self excluded).
  /// Pure function of (config, seed, user): every call returns the same
  /// list, no shared state, O(degree) work.
  std::vector<uint64_t> FollowsOf(int64_t user) const;

  /// FollowsOf(user).size() (materializes the list; degree is not cheaper
  /// than the list here by design — the store's degree header is).
  int64_t DegreeOf(int64_t user) const;

  /// Deterministic initial recent-post run for `user`, newest first, with
  /// logical timestamps below `ts_base` so workload-driver posts (stamped
  /// >= ts_base) always rank newer.
  std::vector<uint64_t> InitialPostTimestamps(int64_t user, uint64_t ts_base) const;

 private:
  SocialGraphGenConfig config_;
  uint64_t seed_;
};

}  // namespace scads

#endif  // SCADS_GRAPH_GRAPH_GEN_H_
