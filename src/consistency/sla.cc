#include "consistency/sla.h"

#include "common/strings.h"

namespace scads {

std::string SlaReport::ToString() const {
  return StrFormat("t=%s reads=%lld q-latency=%s within-bound=%.4f availability=%.4f %s",
                   FormatDuration(at).c_str(), static_cast<long long>(reads),
                   FormatDuration(read_latency_at_quantile).c_str(), fraction_within_bound,
                   availability, ok() ? "OK" : "VIOLATION");
}

SlaReport SlaMonitor::Evaluate(const RouterWindow& window, Time now) {
  SlaReport report;
  report.at = now;
  report.reads = window.reads_ok + window.reads_failed;
  report.writes = window.writes_ok + window.writes_failed;
  if (report.reads > 0) {
    report.read_latency_at_quantile =
        window.read_latency.ValueAtQuantile(sla_.read_quantile);
    report.fraction_within_bound =
        window.read_latency.FractionAtOrBelow(sla_.read_latency_bound);
    report.latency_ok = report.fraction_within_bound >= sla_.read_quantile;
  }
  int64_t total = report.reads + report.writes;
  if (total > 0) {
    report.availability =
        static_cast<double>(window.reads_ok + window.writes_ok) / static_cast<double>(total);
    report.availability_ok = report.availability >= sla_.min_availability;
  }
  report.deadline_exceeded = window.deadline_exceeded;
  if (!report.ok()) ++violations_;
  return report;
}

void TemplateSlaAccountant::RegisterTemplate(const std::string& name, Duration deadline,
                                             Duration staleness) {
  TemplateStats& stats = stats_[name];
  stats.deadline = deadline;
  stats.staleness = staleness;
}

void TemplateSlaAccountant::Record(const std::string& name, const Status& status) {
  TemplateStats& stats = stats_[name];
  ++stats.issued;
  if (status.ok()) {
    ++stats.ok;
  } else if (IsDeadlineExceeded(status)) {
    ++stats.deadline_exceeded;
  } else {
    ++stats.other_failures;
  }
}

TemplateSlaAccountant::TemplateStats TemplateSlaAccountant::stats(
    const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? TemplateStats{} : it->second;
}

std::string TemplateSlaAccountant::ToString() const {
  std::string out;
  for (const auto& [name, stats] : stats_) {
    out += StrFormat("%-24s deadline=%-8s staleness=%-8s issued=%lld ok=%lld "
                     "deadline_exceeded=%lld failed=%lld\n",
                     name.c_str(),
                     stats.deadline > 0 ? FormatDuration(stats.deadline).c_str() : "-",
                     stats.staleness > 0 ? FormatDuration(stats.staleness).c_str() : "-",
                     static_cast<long long>(stats.issued), static_cast<long long>(stats.ok),
                     static_cast<long long>(stats.deadline_exceeded),
                     static_cast<long long>(stats.other_failures));
  }
  return out;
}

}  // namespace scads
