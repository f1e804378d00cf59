// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload kv_rw|social_app|threaded_point --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// Prints the workload-specific metrics as one JSON line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Every name
// and unit below matches BENCHMARK.json. Any output mismatch exits 1
// without printing a result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"read_p50_us", "us"},  {"read_p99_us", "us"},
    {"write_p50_us", "us"},    {"write_p99_us", "us"}, {"peak_rss_mb", "MiB"},
    {"bytes_per_user_byte", "ratio"},
};

// End-to-end metrics that only some workloads have; printed on the line
// before the result (see README.md).
constexpr MetricDef kWorkloadSpecific[] = {
    {"failed_frac", "ratio"},   {"query_p50_us", "us"},     {"query_p99_us", "us"},
    {"index_lag_ms", "ms"},     {"slo_rate_ops_s", "ops/s"}, {"ops_per_s", "ops/s"},
    {"cpu_us_per_op", "us"},    {"process.allocs_per_op", "count"},
};

constexpr MetricDef kPerLayer[] = {
    {"router.call_us", "us"},
    {"router.call_allocs", "count"},
    {"router.msgs_per_op", "count"},
    {"router.retry_frac", "ratio"},
    {"router.steer_frac", "ratio"},
    {"cache.point_hit_rate", "ratio"},
    {"cache.scan_hit_rate", "ratio"},
    {"cache.reject_frac", "ratio"},
    {"cache.evictions_per_op", "count"},
    {"cache.probe_ns", "ns"},
    {"coalescer.followers_per_leader", "ratio"},
    {"coalescer.keys_per_batch", "count"},
    {"runtime.tasks_per_op", "count"},
    {"runtime.handoff_us", "us"},
    {"runtime.timers_per_op", "count"},
    {"runtime.cancels_per_op", "count"},
    {"sim.events_per_op", "count"},
    {"sim.event_ns", "ns"},
    {"sim.bytes_per_op", "count"},
    {"node.sojourn_p50_us", "us"},
    {"node.sojourn_p99_us", "us"},
    {"node.busy_frac", "ratio"},
    {"node.shed_frac", "ratio"},
    {"node.handler_us", "us"},
    {"node.handler_allocs", "count"},
    {"node.replicated_per_write", "count"},
    {"node.retransmits", "count"},
    {"storage.get_ns", "ns"},
    {"storage.scan_ns", "ns"},
    {"storage.writes_per_op", "count"},
    {"storage.bytes_per_live_byte", "ratio"},
    {"index.rows_examined_per_row", "ratio"},
    {"index.entries_per_write", "count"},
    {"index.deadline_miss_frac", "ratio"},
    {"index.queue_depth_max", "count"},
    {"query.compile_us", "us"},
    {"query.call_us", "us"},
    {"query.call_allocs", "count"},
    {"core.putrow_call_us", "us"},
    {"consistency.cas_retry_frac", "ratio"},
    {"process.allocs_per_op", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kv_rw|social_app|threaded_point "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

template <size_t N>
bool Known(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return true;
  }
  return false;
}

// One {"name": {"value": v, "unit": u}, ...} object. With `all`, every
// declared metric appears (0 when the workload has no such layer).
template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const std::map<std::string, double>& values,
                        bool all) {
  std::string out = "{";
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end() && !all) continue;
    double v = it == values.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", d.name, v, d.unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT: main only
  Args args;
  std::string spans_out;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds >= 1;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) Usage("bad arguments");

  Report report;
  if (args.workload == "kv_rw") {
    report = RunKvRw(args);
  } else if (args.workload == "social_app") {
    report = RunSocialApp(args);
  } else if (args.workload == "threaded_point") {
    report = RunThreadedPoint(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  // Every metric a workload sets must be declared, and no value may be
  // NaN, infinite or negative (a percentile without ten samples beyond it
  // comes back as -1).
  auto check = [&](const std::map<std::string, double>& values, auto& defs, const char* what) {
    for (const auto& [name, v] : values) {
      if (!Known(defs, name)) {
        report.Mismatch(std::string("undeclared ") + what + " metric " + name);
      } else if (!std::isfinite(v) || (v < 0 && name != "trace.overhead_frac")) {
        report.Mismatch(std::string("metric ") + name +
                        " has no valid value (a percentile needs ten samples beyond it; "
                        "raise --seconds)");
      }
    }
  };
  check(report.end_to_end, kEndToEnd, "end-to-end");
  check(report.workload, kWorkloadSpecific, "workload");
  check(report.layers, kPerLayer, "per-layer");
  if (!args.trace) {
    for (const MetricDef& d : kEndToEnd) {
      if (report.end_to_end.count(d.name) == 0) {
        report.Mismatch(std::string("end-to-end metric ") + d.name + " not measured");
      }
    }
  }
  if (report.attempted < 1) report.Mismatch("no ops attempted");

  if (!spans_out.empty() && args.trace && !Tracer::Get().WriteSpans(spans_out)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n", spans_out.c_str());
  }
  if (!report.correct) {
    for (const std::string& e : report.errors) std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());
    return 1;
  }
  std::printf("{\"workload_metrics\": %s}\n",
              MetricsJson(kWorkloadSpecific, report.workload, false).c_str());
  std::string metrics = args.trace ? MetricsJson(kPerLayer, report.layers, true)
                                   : MetricsJson(kEndToEnd, report.end_to_end, true);
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              static_cast<long long>(report.attempted), static_cast<long long>(report.failed),
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
