// Shared pieces of the perfbench binary: arguments, the input generator,
// exact percentiles, process clocks, and the result report.
//
// The benchmark generates every input itself from --seed (SplitMix64 and a
// Zipf sampler defined here, not the program's own Rng), so a change to the
// program's random streams cannot change what the benchmark asks of it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// SplitMix64: small, fast, and fully determined by its seed.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential inter-arrival gap with the given mean, rounded to whole
  // microseconds and at least 1.
  int64_t ExpGap(double mean_us);

 private:
  uint64_t state_;
};

// Zipf over ranks [0, n) with exponent theta (Gray et al.'s rejection-free
// method, as in YCSB). Rank 0 is the hottest.
class Zipf {
 public:
  Zipf(int64_t n, double theta);
  int64_t Sample(Gen& gen) const;

 private:
  int64_t n_;
  double theta_, alpha_, zetan_, eta_, half_pow_;
};

// A seeded permutation of [0, n): maps Zipf ranks onto ids so the hot set
// is scattered over the key space.
std::vector<int64_t> Permutation(int64_t n, Gen& gen);

// Exact nearest-rank percentile of per-op samples (sorts `samples`).
// Returns -1 when fewer than ten samples lie beyond the requested rank.
double Percentile(std::vector<int64_t>* samples, double q);

int64_t WallNanos();     // steady clock
int64_t CpuMicros();     // process user + system time (getrusage)
double PeakRssMb();      // ru_maxrss in MiB

double Median(std::vector<double> values);
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Set-up is repeated this many times before the measured phase (the last
// deployment is the one measured) and, in an untraced run, as many times
// again after it, so the samples span the whole run. Each repeat is clocked
// from the start of building a deployment (after the previous one has been
// torn down) to the end of its warm-up.
inline constexpr int kSetupRepeats = 3;
// setup_s: the fastest repeat. Load from other processes on the host can
// slow a set-up down but cannot speed it up, so the minimum tracks the
// program rather than the host.
double SetupSeconds(const std::vector<double>& repeats);

// Splits a measured phase into kSegments stretches and samples process CPU
// time and allocations at each boundary. cpu_us_per_op is the median over
// segments, which a short burst of host noise cannot move. In a traced run
// tracing is switched on for every other segment, so traced and untraced
// cost are compared over the same stretch of work, and the untraced
// segments alone give the allocation count.
class Segments {
 public:
  static constexpr int kSegments = 10;

  explicit Segments(bool alternate_tracing);
  // Call when `ops_done` ops have been issued since the phase began.
  void Boundary(int64_t ops_done);
  // Call once at the end; turns tracing off.
  void Finish(int64_t ops_done);

  double cpu_us_per_op() const;         // median, untraced segments
  double traced_cpu_us_per_op() const;  // median, traced segments (0 if none)
  double allocs_per_op() const;         // untraced segments

 private:
  bool alternate_;
  bool traced_ = false;
  int64_t last_ops_ = 0, last_cpu_ = 0, last_allocs_ = 0;
  std::vector<double> cpu_[2];
  int64_t allocs_ = 0, alloc_ops_ = 0;
};

// One run's result. The metric maps are keyed by the names declared in
// BENCHMARK.json; main.cc checks every name against that list.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;  // printed when --trace 0
  std::map<std::string, double> workload;    // workload-specific, printed on the line before
  std::map<std::string, double> layers;      // printed when --trace 1
  std::vector<std::string> errors;

  // Records an output mismatch; the run then exits nonzero without a result.
  void Mismatch(const std::string& what);
};

Report RunKvRw(const Args& args);
Report RunSocialApp(const Args& args);
Report RunThreadedPoint(const Args& args);
// A short traced run of threaded_point's deployment that fills the
// runtime.* per-layer metrics of `report` (see threaded_point.cc).
void RuntimeProbe(uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
