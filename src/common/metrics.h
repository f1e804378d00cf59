// Named counters and histograms. Components export metrics through a
// registry so the Director (and tests) can observe them without coupling to
// component internals — the same shape as RocksDB Statistics.

#ifndef SCADS_COMMON_METRICS_H_
#define SCADS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace scads {

/// A monotonically increasing counter. Increments are atomic (relaxed):
/// workers on the threaded backend bump counters concurrently, and a
/// count needs no ordering with anything else. On the single-threaded
/// simulator this costs nothing and behaves identically.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Registry of named counters and histograms. Lookup/creation is guarded
/// by a mutex so threads can GetCounter concurrently; the returned
/// Counter* is stable for the registry's lifetime and atomic to bump.
/// Histogram *recording* is NOT synchronized — histogram users either
/// stay on one thread or hold their own lock (RouterWindow does).
class MetricRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(std::string_view name);

  /// Returns the histogram registered under `name`, creating it on first use.
  LogHistogram* GetHistogram(std::string_view name);

  /// Counter value, or 0 when absent (does not create).
  int64_t CounterValue(std::string_view name) const;

  /// Sorted names of all registered counters.
  std::vector<std::string> CounterNames() const;

  /// Zeroes every counter and histogram.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>> histograms_;
};

}  // namespace scads

#endif  // SCADS_COMMON_METRICS_H_
