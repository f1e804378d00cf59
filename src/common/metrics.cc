#include "common/metrics.h"

namespace scads {

Counter* MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

LogHistogram* MetricRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<LogHistogram>()).first;
  }
  return it->second.get();
}

int64_t MetricRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::string> MetricRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, unused] : counters_) names.push_back(name);
  return names;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace scads
