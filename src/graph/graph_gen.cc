#include "graph/graph_gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace scads {

namespace {
// Pareto shape of the out-degree tail (smaller = heavier tail).
constexpr double kDegreeAlpha = 2.0;
// The paper's per-user friend cap (§2.3).
constexpr int64_t kFollowCap = 5000;
}  // namespace

SocialGraphGen::SocialGraphGen(SocialGraphGenConfig config, uint64_t seed)
    : config_(config), seed_(seed) {}

std::vector<uint64_t> SocialGraphGen::FollowsOf(int64_t user) const {
  // Per-user stream: splitmix inside Rng turns the sum into an independent
  // sequence, so lists are stable under any generation order.
  Rng rng(seed_ + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(user + 1));
  // Pareto with mean = mean_out_degree: minimum = mean * (alpha-1) / alpha.
  double minimum = config_.mean_out_degree * (kDegreeAlpha - 1.0) / kDegreeAlpha;
  int64_t degree = static_cast<int64_t>(rng.Pareto(std::max(1.0, minimum), kDegreeAlpha));
  degree = std::min(degree, kFollowCap);
  degree = std::min(degree, config_.users - 1);
  degree = std::max<int64_t>(degree, config_.users > 1 ? 1 : 0);

  std::vector<uint64_t> follows;
  follows.reserve(static_cast<size_t>(degree));
  // Zipf over rank with identity rank->user mapping: user 0 is the head of
  // the popularity curve. Rejection-dedupe with a bounded attempt budget —
  // heavy skew can exhaust distinct heads, in which case the list just
  // comes up short (a real user can't follow 5,000 distinct celebrities
  // out of 10 either).
  int64_t attempts = 8 * degree + 32;
  while (static_cast<int64_t>(follows.size()) < degree && attempts-- > 0) {
    int64_t target = rng.Zipf(config_.users, config_.target_zipf_theta);
    if (target == user) continue;
    auto it = std::lower_bound(follows.begin(), follows.end(),
                               static_cast<uint64_t>(target));
    if (it != follows.end() && *it == static_cast<uint64_t>(target)) continue;
    follows.insert(it, static_cast<uint64_t>(target));
  }
  return follows;
}

int64_t SocialGraphGen::DegreeOf(int64_t user) const {
  return static_cast<int64_t>(FollowsOf(user).size());
}

std::vector<uint64_t> SocialGraphGen::InitialPostTimestamps(int64_t user,
                                                            uint64_t ts_base) const {
  Rng rng(seed_ + 0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(user + 1));
  std::vector<uint64_t> out;
  int64_t count = config_.initial_posts;
  out.reserve(static_cast<size_t>(std::max<int64_t>(count, 0)));
  uint64_t ts = ts_base;
  for (int64_t i = 0; i < count; ++i) {
    uint64_t gap = 1 + rng.Uniform(1000);
    if (ts <= gap) break;
    ts -= gap;
    out.push_back(ts);
  }
  return out;
}

}  // namespace scads
