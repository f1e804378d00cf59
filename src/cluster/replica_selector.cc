#include "cluster/replica_selector.h"

#include <algorithm>

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
  std::vector<NodeId> candidates;
  if (partition.replicas.empty()) {
    if (pick != nullptr) *pick = ReplicaPick{};
    return candidates;
  }
  ReplicaPick first = ChooseReadReplica(partition, options, deployment_target);
  if (pick != nullptr) *pick = first;
  candidates.push_back(first.node);
  if (options.read_mode == ReadMode::kPrimaryOnly) return candidates;
  // Low-priority reads shed instead of retrying: under failure they give
  // up their replica alternates so the retry load lands on interactive
  // traffic's side of the fleet, not on already-degraded nodes.
  int budget = options.priority == RequestPriority::kLow ? 0 : read_retries;
  std::vector<NodeId> alternates;
  for (NodeId replica : partition.replicas) {
    if (static_cast<int>(alternates.size()) >= budget) break;
    if (replica == first.node) continue;
    if (std::find(alternates.begin(), alternates.end(), replica) != alternates.end()) continue;
    alternates.push_back(replica);
  }
  OrderAlternates(&alternates);
  candidates.insert(candidates.end(), alternates.begin(), alternates.end());
  // Breaker-aware ordering: candidates the breaker would refuse sink to the
  // back (stable within each class, preserving the policy's order), so the
  // first attempt goes to a node that will actually be tried — an open
  // breaker up front would just burn a skip. With every breaker closed
  // this is the identity permutation.
  if (breaker_ != nullptr && candidates.size() > 1) {
    std::stable_partition(candidates.begin(), candidates.end(),
                          [this](NodeId id) { return breaker_->Healthy(id); });
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

void PowerOfTwoSelector::OrderAlternates(std::vector<NodeId>* alternates) {
  // Retries walk the alternates least-loaded first; stable so equally-idle
  // alternates keep replica-set order (deterministic under fixed seeds).
  std::stable_sort(alternates->begin(), alternates->end(),
                   [this](NodeId lhs, NodeId rhs) { return PressureOf(lhs) < PressureOf(rhs); });
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
