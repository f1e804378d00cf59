#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "alloc_counter.h"
#include "trace.h"

namespace perfbench {

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Gen::ExpGap(double mean_us) {
  double u = NextDouble();
  double gap = -mean_us * std::log(1.0 - u);
  return std::max<int64_t>(1, std::llround(gap));
}

Zipf::Zipf(int64_t n, double theta) : n_(n), theta_(theta) {
  auto zeta = [theta](int64_t count) {
    double sum = 0;
    for (int64_t i = 1; i <= count; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
  };
  zetan_ = zeta(n);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta(2) / zetan_);
  half_pow_ = 1.0 + std::pow(0.5, theta);
}

int64_t Zipf::Sample(Gen& gen) const {
  double u = gen.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < half_pow_) return 1;
  auto rank = static_cast<int64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::clamp<int64_t>(rank, 0, n_ - 1);
}

std::vector<int64_t> Permutation(int64_t n, Gen& gen) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  for (size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[gen.Uniform(i)]);
  return ids;
}

double Percentile(std::vector<int64_t>* samples, double q) {
  size_t n = samples->size();
  if (n == 0) return -1;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return -1;
  std::nth_element(samples->begin(), samples->begin() + static_cast<ptrdiff_t>(rank - 1),
                   samples->end());
  return static_cast<double>((*samples)[rank - 1]);
}

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000 + static_cast<int64_t>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double SetupSeconds(const std::vector<double>& repeats) {
  return *std::min_element(repeats.begin(), repeats.end());
}

Segments::Segments(bool alternate_tracing)
    : alternate_(alternate_tracing), last_cpu_(CpuMicros()), last_allocs_(AllocCount()) {}

void Segments::Boundary(int64_t ops_done) {
  int64_t cpu = CpuMicros(), allocs = AllocCount();
  int64_t ops = ops_done - last_ops_;
  if (ops > 0) {
    cpu_[traced_ ? 1 : 0].push_back(static_cast<double>(cpu - last_cpu_) /
                                    static_cast<double>(ops));
    if (!traced_) {
      allocs_ += allocs - last_allocs_;
      alloc_ops_ += ops;
    }
  }
  last_ops_ = ops_done;
  last_cpu_ = cpu;
  last_allocs_ = allocs;
  if (alternate_) {
    traced_ = !traced_;
    Tracer::Get().set_enabled(traced_);
  }
}

void Segments::Finish(int64_t ops_done) {
  alternate_ = false;
  Boundary(ops_done);
  traced_ = false;
  Tracer::Get().set_enabled(false);
}

double Segments::cpu_us_per_op() const { return Median(cpu_[0]); }
double Segments::traced_cpu_us_per_op() const { return Median(cpu_[1]); }
double Segments::allocs_per_op() const {
  return alloc_ops_ == 0 ? 0.0 : static_cast<double>(allocs_) / static_cast<double>(alloc_ops_);
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

}  // namespace perfbench
