#include "workload/social_graph.h"

#include <algorithm>

namespace scads {

namespace {
// Pareto shape for the degree tail (smaller = heavier tail).
constexpr double kDegreeAlpha = 2.0;
}  // namespace

bool SocialGraph::AreFriends(int64_t a, int64_t b) const {
  const auto& list = adjacency_[static_cast<size_t>(a)];
  return std::binary_search(list.begin(), list.end(), b);
}

bool SocialGraph::AddFriendship(int64_t a, int64_t b, int64_t cap) {
  if (a == b) return false;
  if (a < 0 || b < 0 || a >= user_count() || b >= user_count()) return false;
  auto& la = adjacency_[static_cast<size_t>(a)];
  auto& lb = adjacency_[static_cast<size_t>(b)];
  if (static_cast<int64_t>(la.size()) >= cap || static_cast<int64_t>(lb.size()) >= cap) {
    return false;
  }
  auto pos_a = std::lower_bound(la.begin(), la.end(), b);
  if (pos_a != la.end() && *pos_a == b) return false;
  la.insert(pos_a, b);
  lb.insert(std::lower_bound(lb.begin(), lb.end(), a), a);
  ++edge_count_;
  max_degree_ = std::max({max_degree_, static_cast<int64_t>(la.size()),
                          static_cast<int64_t>(lb.size())});
  return true;
}

SocialGraph SocialGraph::Generate(const SocialGraphConfig& config, uint64_t seed) {
  SocialGraph graph;
  graph.adjacency_.resize(static_cast<size_t>(config.user_count));
  if (config.user_count < 2 || config.mean_degree <= 0) return graph;
  Rng rng(seed);
  // Draw per-user target degrees from a capped Pareto with the requested
  // mean: Pareto(min, alpha) has mean min*alpha/(alpha-1).
  double minimum = config.mean_degree * (kDegreeAlpha - 1) / kDegreeAlpha;
  minimum = std::max(1.0, minimum);
  std::vector<int64_t> targets(static_cast<size_t>(config.user_count));
  for (auto& t : targets) {
    t = std::min<int64_t>(config.friend_cap,
                          static_cast<int64_t>(rng.Pareto(minimum, kDegreeAlpha)));
  }
  // Wire edges: each user connects to targets chosen zipf-skewed (popular
  // users attract more links, like real social graphs).
  for (int64_t u = 0; u < config.user_count; ++u) {
    int64_t want = targets[static_cast<size_t>(u)];
    int attempts = 0;
    while (graph.Degree(u) < want && attempts < want * 4) {
      ++attempts;
      int64_t v = rng.Zipf(config.user_count, 0.6);
      graph.AddFriendship(u, v, config.friend_cap);
    }
  }
  return graph;
}

std::vector<std::pair<int64_t, int64_t>> SocialGraph::Edges() const {
  std::vector<std::pair<int64_t, int64_t>> edges;
  edges.reserve(static_cast<size_t>(edge_count_));
  for (int64_t u = 0; u < user_count(); ++u) {
    for (int64_t v : adjacency_[static_cast<size_t>(u)]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace scads
