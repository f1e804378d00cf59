// SLA monitoring (Figure 4, "Performance"; Figure 2 "SLA violations" input).
//
// The monitor folds RouterWindow samples into per-window compliance reports:
// did the latency quantile stay under its bound, and did enough requests get
// answered? The Director consumes the report stream; experiments also print
// it as the per-window SLA trace.

#ifndef SCADS_CONSISTENCY_SLA_H_
#define SCADS_CONSISTENCY_SLA_H_

#include <map>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "consistency/spec.h"
#include "common/types.h"

namespace scads {

/// One evaluation window's compliance verdict.
struct SlaReport {
  Time at = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  /// Latency at the SLA quantile (us) and the fraction of reads within the
  /// bound.
  int64_t read_latency_at_quantile = 0;
  double fraction_within_bound = 1.0;
  double availability = 1.0;
  /// Requests shed because their per-request deadline budget ran out.
  int64_t deadline_exceeded = 0;
  bool latency_ok = true;
  bool availability_ok = true;

  bool ok() const { return latency_ok && availability_ok; }
  std::string ToString() const;
};

/// Evaluates PerformanceSla compliance window by window.
class SlaMonitor {
 public:
  explicit SlaMonitor(PerformanceSla sla) : sla_(sla) {}

  /// Folds one router window (as returned by Router::TakeWindow) into a
  /// report. Windows with no traffic are compliant by definition.
  SlaReport Evaluate(const RouterWindow& window, Time now);

  const PerformanceSla& sla() const { return sla_; }
  int64_t windows_violated() const { return violations_; }

 private:
  PerformanceSla sla_;
  int64_t violations_ = 0;
};

/// Per-query-template request accounting — the SLA ledger for the
/// per-request bounds of query registration (`WITH STALENESS ..., DEADLINE
/// ...`). Every Scads::Query execution records its outcome against its
/// template, so operators can see exactly which templates shed on their
/// deadline and how often, instead of one blended deployment-wide number.
class TemplateSlaAccountant {
 public:
  struct TemplateStats {
    /// Registered per-template bounds (0 = none declared).
    Duration deadline = 0;
    Duration staleness = 0;
    int64_t issued = 0;
    int64_t ok = 0;
    /// kDeadlineExceeded outcomes: deadline-budget sheds, plus the
    /// staleness-first "bound unprovable" refusals that share the code
    /// (status.h: "SLA or staleness deadline missed").
    int64_t deadline_exceeded = 0;
    int64_t other_failures = 0;
  };

  /// Declares a template and its registered bounds (RegisterQuery calls
  /// this; recording against an undeclared template also works).
  void RegisterTemplate(const std::string& name, Duration deadline, Duration staleness);

  /// Folds one execution outcome into the template's ledger.
  void Record(const std::string& name, const Status& status);

  /// Stats for `name` (zeros when never seen).
  TemplateStats stats(const std::string& name) const;

  const std::map<std::string, TemplateStats>& all() const { return stats_; }

  /// Rendered ledger, one line per template.
  std::string ToString() const;

 private:
  std::map<std::string, TemplateStats> stats_;
};

}  // namespace scads

#endif  // SCADS_CONSISTENCY_SLA_H_
