#include "cluster/replica_selector.h"

#include <algorithm>
#include <limits>

#include "cluster/circuit_breaker.h"

namespace scads {

ReplicaPick ReplicaSelector::ChooseReadReplica(const PartitionInfo& partition,
                                               const RequestOptions& options,
                                               ReadTarget deployment_target) {
  if (partition.replicas.empty()) return ReplicaPick{};
  if (options.read_mode == ReadMode::kPrimaryOnly || partition.replicas.size() == 1) {
    return ReplicaPick{partition.primary(), /*policy=*/false, /*steered=*/false};
  }
  // An explicit kAnyReplica outranks a primary-reading deployment config —
  // the caller is trading freshness for load spreading on purpose.
  if (options.read_mode != ReadMode::kAnyReplica && deployment_target == ReadTarget::kPrimary) {
    return ReplicaPick{partition.primary(), /*policy=*/false, /*steered=*/false};
  }
  return Pick(partition.replicas);
}

std::vector<NodeId> ReplicaSelector::ReadCandidates(const PartitionInfo& partition,
                                                    const RequestOptions& options,
                                                    ReadTarget deployment_target,
                                                    int read_retries, ReplicaPick* pick) {
  if (partition.replicas.empty()) {
    if (pick != nullptr) *pick = ReplicaPick{};
    return {};
  }
  ReplicaPick first = ChooseReadReplica(partition, options, deployment_target);
  if (pick != nullptr) *pick = first;
  return CandidatesFrom(partition, options, first.node, read_retries);
}

std::vector<std::vector<NodeId>> ReplicaSelector::BatchReadCandidates(
    std::span<const PartitionInfo* const> partitions, const RequestOptions& options,
    ReadTarget deployment_target, int read_retries, std::vector<ReplicaPick>& picks) {
  std::vector<std::vector<NodeId>> lists;
  lists.reserve(partitions.size());
  picks.assign(partitions.size(), ReplicaPick{});
  // Each node the batch has met: how many of the batch's first targets it
  // holds so far, and its headroom, read once (a batch touches few nodes,
  // so a linear scan beats a map).
  struct Holding {
    NodeId node;
    size_t held;
    double headroom;
  };
  std::vector<Holding> holdings;
  auto holding = [this, &holdings](NodeId node) -> Holding& {
    for (Holding& entry : holdings) {
      if (entry.node == node) return entry;
    }
    return holdings.emplace_back(Holding{node, 0, 1 - PressureOf(node)});
  };
  // What one more read costs a replica: the reads it would then hold, per
  // unit of headroom. A saturated replica costs more than any other.
  auto cost = [](const Holding& entry) {
    return entry.headroom > 0 ? static_cast<double>(entry.held + 1) / entry.headroom
                              : std::numeric_limits<double>::infinity();
  };
  std::vector<NodeId> cheapest;  // the eligible replicas tied at the lowest cost
  for (size_t i = 0; i < partitions.size(); ++i) {
    const PartitionInfo& partition = *partitions[i];
    if (partition.replicas.empty()) {
      lists.emplace_back();
      continue;
    }
    ReplicaPick& pick = picks[i];
    pick = ChooseReadReplica(partition, options, deployment_target);
    if (pick.policy) {
      double lowest = std::numeric_limits<double>::infinity();
      cheapest.clear();
      for (NodeId replica : partition.replicas) {
        if (breaker_ != nullptr && !breaker_->Healthy(replica)) continue;
        double replica_cost = cost(holding(replica));
        if (replica_cost < lowest) {
          lowest = replica_cost;
          cheapest.clear();
        }
        if (replica_cost == lowest) cheapest.push_back(replica);
      }
      if (!cheapest.empty() &&
          std::find(cheapest.begin(), cheapest.end(), pick.node) == cheapest.end()) {
        OrderAlternates(cheapest);
        pick.node = cheapest.front();
      }
    }
    lists.push_back(CandidatesFrom(partition, options, pick.node, read_retries));
    ++holding(lists.back().front()).held;
  }
  return lists;
}

std::vector<NodeId> ReplicaSelector::CandidatesFrom(const PartitionInfo& partition,
                                                    const RequestOptions& options, NodeId first,
                                                    int read_retries) {
  std::vector<NodeId> candidates;
  candidates.reserve(partition.replicas.size());  // candidates are distinct replicas
  candidates.push_back(first);
  if (options.read_mode == ReadMode::kPrimaryOnly) return candidates;
  // Low-priority reads shed instead of retrying: under failure they give
  // up their replica alternates so the retry load lands on interactive
  // traffic's side of the fleet, not on already-degraded nodes.
  size_t alternates = options.priority == RequestPriority::kLow
                          ? 0
                          : static_cast<size_t>(std::max(read_retries, 0));
  for (NodeId replica : partition.replicas) {
    if (candidates.size() > alternates) break;
    if (std::find(candidates.begin(), candidates.end(), replica) != candidates.end()) continue;
    candidates.push_back(replica);
  }
  OrderAlternates(std::span<NodeId>(candidates).subspan(1));
  // Breaker-aware ordering: candidates the breaker would refuse sink to the
  // back (stable within each class, preserving the policy's order), so the
  // first attempt goes to a node that will actually be tried — an open
  // breaker up front would just burn a skip. With every breaker closed
  // this is the identity permutation.
  if (breaker_ != nullptr && candidates.size() > 1) {
    auto healthy_end = candidates.begin();
    for (auto it = candidates.begin(); it != candidates.end(); ++it) {
      if (breaker_->Healthy(*it)) std::rotate(healthy_end++, it, it + 1);
    }
  }
  return candidates;
}

ReplicaPick UniformSelector::Pick(const std::vector<NodeId>& replicas) {
  return ReplicaPick{replicas[rng_.Uniform(replicas.size())], /*policy=*/true,
                     /*steered=*/false};
}

double PowerOfTwoSelector::PressureOf(NodeId node) const {
  return cluster_->NodeLoad(node).Pressure();
}

ReplicaPick PowerOfTwoSelector::Pick(const std::vector<NodeId>& replicas) {
  size_t n = replicas.size();
  if (n == 1) return ReplicaPick{replicas[0], /*policy=*/true, /*steered=*/false};
  // Two distinct samples; the second index is drawn from [0, n-1) and
  // shifted past the first, so every unordered pair is equally likely.
  size_t a = rng_.Uniform(n);
  size_t b = rng_.Uniform(n - 1);
  if (b >= a) ++b;
  // Strict inequality keeps the first sample on ties, so an idle fleet
  // (all pressures zero) degenerates to exactly uniform random.
  bool steer = PressureOf(replicas[b]) < PressureOf(replicas[a]);
  return ReplicaPick{steer ? replicas[b] : replicas[a], /*policy=*/true, steer};
}

void PowerOfTwoSelector::OrderAlternates(std::span<NodeId> alternates) {
  // Retries walk the alternates least-loaded first; stable so equally-idle
  // alternates keep replica-set order (deterministic under fixed seeds). An
  // insertion sort: there are at most read_retries of them.
  for (size_t i = 1; i < alternates.size(); ++i) {
    for (size_t j = i; j > 0 && PressureOf(alternates[j]) < PressureOf(alternates[j - 1]); --j) {
      std::swap(alternates[j], alternates[j - 1]);
    }
  }
}

std::unique_ptr<ReplicaSelector> MakeSelector(const SelectorConfig& config,
                                              const ClusterState* cluster, uint64_t seed) {
  switch (config.kind) {
    case SelectorKind::kUniform:
      return std::make_unique<UniformSelector>(seed);
    case SelectorKind::kPowerOfTwo:
      return std::make_unique<PowerOfTwoSelector>(cluster, seed);
  }
  return std::make_unique<PowerOfTwoSelector>(cluster, seed);
}

}  // namespace scads
