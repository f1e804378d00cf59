// RequestOptions: the per-request execution context of the data plane.
//
// The SCADS promise is a *per-query* performance/consistency dial (paper
// §2.2): developers declare staleness and latency expectations per
// operation, not per deployment. This context rides on every
// GetRow/PutRow/Query/MultiGet/MultiWrite call and is threaded through
// every layer — facade → router → cache → consistency → executor — so that:
//
//  * the cache serves an entry only within the request's *effective*
//    staleness bound (the override when present, the deployment spec
//    otherwise), and bypasses entries older than the session's version
//    token;
//  * the Router derives each network attempt's timeout from the remaining
//    deadline budget, retries onto the next replica only while budget
//    remains, and sheds with kDeadlineExceeded once it is exhausted;
//  * write policies and scan fan-outs inherit the same budget, so a
//    deadline declared at the facade bounds the whole call tree.
//
// The caller states a *relative* budget (`deadline`); the first data-plane
// layer the request enters arms it into an absolute expiry (`deadline_at`)
// via Arm(now). Arming is idempotent, so every layer may call it defensively.

#ifndef SCADS_COMMON_REQUEST_OPTIONS_H_
#define SCADS_COMMON_REQUEST_OPTIONS_H_

#include <algorithm>
#include <optional>

#include "common/types.h"

namespace scads {

/// Where a read may be served from.
enum class ReadMode {
  /// Deployment config decides: cache when enabled and the router is not
  /// configured primary-only, then the configured replica choice.
  kDefault,
  /// Skip the cache; any replica may serve (spreads load, may be stale).
  kAnyReplica,
  /// Pinned to the partition primary (freshest; session fallbacks and
  /// read-modify-write use this).
  kPrimaryOnly,
};

/// Scheduling weight under contention. kLow requests are the first to be
/// shed: reads give up their replica retries, so a degraded replica set
/// sheds background traffic before it queues interactive traffic.
enum class RequestPriority { kLow, kNormal, kHigh };

/// Per-request overrides carried on every data-plane call. Default-
/// constructed options reproduce the pre-options behaviour exactly.
struct RequestOptions {
  /// Overrides the deployment spec's staleness bound for this request.
  /// Must be positive — in the spec's encoding 0 means *unbounded*, so a
  /// non-positive override is ignored (EffectiveStaleness falls back to the
  /// spec bound) rather than silently disabling the bound. Tighten-only:
  /// query registration rejects a WITH STALENESS looser than the spec, and
  /// the facade layers (Scads, SessionClient) clamp ad-hoc overrides to the
  /// spec bound, so no request can weaken the deployment-wide guarantee.
  /// nullopt = spec.
  std::optional<Duration> max_staleness;

  ReadMode read_mode = ReadMode::kDefault;

  /// Total latency budget for the call, relative to when it enters the data
  /// plane. 0 = unbounded. Armed into `deadline_at` by Arm().
  Duration deadline = 0;

  /// Session token: a floor on the version this read may observe. Cached
  /// entries (and their invalidation markers) older than this are bypassed,
  /// so read-your-writes holds on cache hits too.
  std::optional<Version> min_version;

  RequestPriority priority = RequestPriority::kNormal;

  /// Absolute expiry in simulated time; 0 = not armed / no deadline.
  /// Treated as an implementation detail — set it via Arm().
  Time deadline_at = 0;

  /// Defaults except the read is pinned to the primary replica — the
  /// common spelling for read-modify-write and index-maintenance reads.
  static RequestOptions PrimaryOnly() {
    RequestOptions options;
    options.read_mode = ReadMode::kPrimaryOnly;
    return options;
  }

  /// Converts the relative budget into an absolute expiry. Idempotent: the
  /// first layer to see the request wins, deeper layers are no-ops.
  void Arm(Time now) {
    if (deadline_at == 0 && deadline > 0) deadline_at = now + deadline;
  }

  bool has_deadline() const { return deadline_at != 0; }
  bool Expired(Time now) const { return deadline_at != 0 && now >= deadline_at; }

  /// A network-attempt timeout no longer than the remaining budget (never
  /// negative; an expired request gets a zero timeout).
  Duration ClampTimeout(Duration timeout, Time now) const {
    if (deadline_at == 0) return timeout;
    return std::min(timeout, std::max<Duration>(0, deadline_at - now));
  }

  /// The staleness bound governing this request: the override when present
  /// and positive, the deployment bound otherwise (0 = unbounded, as in the
  /// spec — which is why a 0 override must not be taken literally).
  Duration EffectiveStaleness(Duration spec_bound) const {
    return max_staleness.has_value() && *max_staleness > 0 ? *max_staleness : spec_bound;
  }
};

}  // namespace scads

#endif  // SCADS_COMMON_REQUEST_OPTIONS_H_
