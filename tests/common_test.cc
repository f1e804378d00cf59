// Unit tests for src/common: status/result, clock, rng, histogram, strings,
// metrics, types.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/load_signal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace scads {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("key k1 missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key k1 missing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key k1 missing");
}

TEST(StatusTest, CopyPreservesContents) {
  Status s = AbortedError("conflict");
  Status t = s;
  EXPECT_EQ(s, t);
  t = InvalidArgumentError("bad");
  EXPECT_NE(s, t);
  EXPECT_EQ(s.message(), "conflict");
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status s = UnavailableError("partition");
  Status t = std::move(s);
  EXPECT_EQ(t.code(), StatusCode::kUnavailable);
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(AbortedError("").code(), StatusCode::kAborted);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
}

TEST(StatusTest, PredicatesMatch) {
  EXPECT_TRUE(IsNotFound(NotFoundError("x")));
  EXPECT_FALSE(IsNotFound(AbortedError("x")));
  EXPECT_TRUE(IsUnavailable(UnavailableError("x")));
  EXPECT_TRUE(IsAborted(AbortedError("x")));
  EXPECT_TRUE(IsDeadlineExceeded(DeadlineExceededError("x")));
}

Status FailsThenPropagates() {
  SCADS_RETURN_IF_ERROR(Status::Ok());
  SCADS_RETURN_IF_ERROR(InternalError("inner"));
  return InternalError("unreached");
}

TEST(StatusTest, ReturnIfErrorPropagatesFirstFailure) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.message(), "inner");
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, WorksWithMoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, WorksWithNonDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int x) : x(x) {}
    int x;
  };
  Result<NoDefault> r(NoDefault(3));
  EXPECT_EQ(r->x, 3);
  Result<NoDefault> e(InternalError("boom"));
  EXPECT_FALSE(e.ok());
}

TEST(ResultTest, CopyAndMoveSemantics) {
  Result<std::string> a(std::string("hello"));
  Result<std::string> b = a;
  EXPECT_EQ(*a, "hello");
  EXPECT_EQ(*b, "hello");
  Result<std::string> c = std::move(b);
  EXPECT_EQ(*c, "hello");
  c = Result<std::string>(UnavailableError("gone"));
  EXPECT_FALSE(c.ok());
  c = a;
  EXPECT_EQ(*c, "hello");
}

TEST(ResultTest, MovingErrorResultDoesNotCorrupt) {
  // Regression: moving the Status out of an error Result must not make the
  // source believe it holds a value (double-free / garbage destructor).
  Result<std::string> source(NotFoundError("gone"));
  Result<std::string> moved = std::move(source);
  EXPECT_FALSE(moved.ok());
  // Both destructors run at scope exit; this test passes by not crashing.
  Result<std::string> reassigned(std::string("live"));
  reassigned = std::move(moved);
  EXPECT_FALSE(reassigned.ok());
}

TEST(ResultTest, AssignErrorOverValueDestroysValueOnce) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> count;
    ~Probe() {
      if (count) ++*count;
    }
  };
  {
    Result<Probe> r(Probe{counter});
    int after_ctor = *counter;  // temporaries may already have destructed
    r = Result<Probe>(InternalError("boom"));
    EXPECT_EQ(*counter, after_ctor + 1);
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return InvalidArgumentError("not positive");
  return x;
}

Result<int> DoubleIfPositive(int x) {
  int v = 0;
  SCADS_ASSIGN_OR_RETURN(v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubleIfPositive(21).value(), 42);
  EXPECT_EQ(DoubleIfPositive(-1).status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- Clock --

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, WallClockIsMonotonic) {
  WallClock* clock = WallClock::Get();
  Time a = clock->Now();
  Time b = clock->Now();
  EXPECT_LE(a, b);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(29);
  const int n = 20000;
  int64_t small_sum = 0, large_sum = 0;
  for (int i = 0; i < n; ++i) {
    small_sum += rng.Poisson(3.0);
    large_sum += rng.Poisson(200.0);
  }
  EXPECT_NEAR(static_cast<double>(small_sum) / n, 3.0, 0.1);
  EXPECT_NEAR(static_cast<double>(large_sum) / n, 200.0, 2.0);
}

TEST(RngTest, ZipfSkewsTowardLowIndices) {
  Rng rng(31);
  const int64_t n = 1000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 50000; ++i) {
    int64_t v = rng.Zipf(n, 0.99);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // Rank 0 should dominate rank 100 heavily under theta=0.99.
  EXPECT_GT(counts[0], counts[100] * 5);
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Rng rng(37);
  const int64_t n = 10;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) counts[rng.Zipf(n, 0.0)]++;
  for (int64_t i = 0; i < n; ++i) EXPECT_NEAR(counts[i], 2000, 300);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(3.0, 2.0), 3.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(43);
  Rng b = a.Fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyHistogram) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(100), 1.0);
}

TEST(HistogramTest, SingleValue) {
  LogHistogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 42);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(HistogramTest, ExactInLinearRegion) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(i);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 49);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 99);
}

TEST(HistogramTest, QuantilesMonotone) {
  LogHistogram h;
  Rng rng(53);
  for (int i = 0; i < 10000; ++i) h.Record(static_cast<int64_t>(rng.Exponential(10000)));
  int64_t last = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    int64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_LE(h.ValueAtQuantile(1.0), h.max());
}

TEST(HistogramTest, RelativeErrorBounded) {
  LogHistogram h;
  const int64_t value = 1000000;
  h.Record(value);
  int64_t p50 = h.ValueAtQuantile(0.5);
  // Log-bucketing guarantees <= 1/16 relative error.
  EXPECT_NEAR(static_cast<double>(p50), static_cast<double>(value), value / 16.0 + 1);
}

TEST(HistogramTest, FractionAtOrBelow) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(100000);
  EXPECT_NEAR(h.FractionAtOrBelow(1000), 0.9, 1e-9);
  EXPECT_NEAR(h.FractionAtOrBelow(5), 0.0, 1e-9);
  EXPECT_NEAR(h.FractionAtOrBelow(200000), 1.0, 1e-9);
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  LogHistogram a, b, combined;
  Rng rng(59);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(100000));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.ValueAtQuantile(q), combined.ValueAtQuantile(q));
  }
}

TEST(HistogramTest, ResetClearsEverything) {
  LogHistogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, NegativeClampsToZero) {
  LogHistogram h;
  h.Record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, RecordManyMatchesLoop) {
  LogHistogram a, b;
  a.RecordMany(777, 50);
  for (int i = 0; i < 50; ++i) b.Record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.ValueAtQuantile(0.5), b.ValueAtQuantile(0.5));
}

TEST(HistogramTest, SummaryMentionsCount) {
  LogHistogram h;
  h.Record(1);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

// ---------------------------------------------------------------- Strings --

TEST(StringsTest, SplitAndJoin) {
  auto pieces = StrSplit("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(StrJoin(pieces, "-"), "a-b--c");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("friend_index", "friend"));
  EXPECT_FALSE(StartsWith("fr", "friend"));
  EXPECT_TRUE(EndsWith("friend_index", "_index"));
  EXPECT_FALSE(EndsWith("x", "_index"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 7), "k=7");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, AsciiLower) { EXPECT_EQ(AsciiLower("SeLeCt *"), "select *"); }

TEST(StringsTest, OrderedEncodePreservesOrder) {
  std::vector<int64_t> values{-1000000, -1, 0, 1, 42, 1000000,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()};
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(OrderedEncodeInt64(values[i - 1]), OrderedEncodeInt64(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

TEST(StringsTest, OrderedEncodeRoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{-5}, int64_t{123456789}}) {
    int64_t decoded = 0;
    ASSERT_TRUE(OrderedDecodeInt64(OrderedEncodeInt64(v), &decoded));
    EXPECT_EQ(decoded, v);
  }
  int64_t unused;
  EXPECT_FALSE(OrderedDecodeInt64("short", &unused));
}

TEST(StringsTest, AppendKeyPiecePreventsAliasing) {
  std::string k1, k2;
  AppendKeyPiece(&k1, "ab");
  AppendKeyPiece(&k1, "c");
  AppendKeyPiece(&k2, "a");
  AppendKeyPiece(&k2, "bc");
  EXPECT_NE(k1, k2);
}

TEST(StringsTest, PrefixSuccessorBounds) {
  EXPECT_EQ(PrefixSuccessor("abc"), "abd");
  std::string with_ff = std::string("a") + '\xff';
  EXPECT_EQ(PrefixSuccessor(with_ff), "b");
  EXPECT_EQ(PrefixSuccessor("\xff"), "");
  // Every string with prefix p is < PrefixSuccessor(p).
  EXPECT_LT(std::string("abc\xff\xff"), PrefixSuccessor("abc"));
}

// ---------------------------------------------------------------- Metrics --

TEST(MetricsTest, CountersAreNamedAndSticky) {
  MetricRegistry reg;
  reg.GetCounter("reads")->Increment();
  reg.GetCounter("reads")->Increment(2);
  EXPECT_EQ(reg.CounterValue("reads"), 3);
  EXPECT_EQ(reg.CounterValue("missing"), 0);
}

TEST(MetricsTest, HistogramsSticky) {
  MetricRegistry reg;
  reg.GetHistogram("latency")->Record(5);
  EXPECT_EQ(reg.GetHistogram("latency")->count(), 1);
}

TEST(MetricsTest, NamesSorted) {
  MetricRegistry reg;
  reg.GetCounter("b");
  reg.GetCounter("a");
  auto names = reg.CounterNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(MetricsTest, ResetAllZeroes) {
  MetricRegistry reg;
  reg.GetCounter("c")->Increment(9);
  reg.GetHistogram("h")->Record(9);
  reg.ResetAll();
  EXPECT_EQ(reg.CounterValue("c"), 0);
  EXPECT_EQ(reg.GetHistogram("h")->count(), 0);
}

// ------------------------------------------------------------------ Types --

TEST(TypesTest, VersionOrdering) {
  Version a{100, 1}, b{100, 2}, c{200, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (Version{100, 1}));
  EXPECT_GE(c, b);
}

TEST(TypesTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(1500), "1.50ms");
  EXPECT_EQ(FormatDuration(2 * kSecond), "2.00s");
  EXPECT_EQ(FormatDuration(90 * kSecond), "1m30s");
  EXPECT_EQ(FormatDuration(25 * kHour), "1d1h");
}

TEST(TypesTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

TEST(TypesTest, FormatMoney) {
  EXPECT_EQ(FormatMoneyMicros(1500000), "$1.50");
  EXPECT_EQ(FormatMoneyMicros(0), "$0.00");
}

// ---------------------------------------------------------------- Logging --

// Batch sizing, replica steering, drain and repair targets all read one
// pressure scale: 200 ms of backlog or 20 ms of smoothed sojourn is 1.0.
TEST(LoadSignalTest, PressureNormalizesAtItsReferencePoints) {
  auto pressure = [](auto set) {
    NodeLoadSignal signal;
    set(signal);
    return signal.Pressure();
  };
  EXPECT_DOUBLE_EQ(NodeLoadSignal{}.Pressure(), 0.0);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.queue_delay = 200 * kMillisecond; }), 1.0);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.queue_delay = 100 * kMillisecond; }), 0.5);
  // IO debt shares the backlog reference.
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.io_backlog = 100 * kMillisecond; }), 0.5);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.ewma_sojourn = 20 * kMillisecond; }), 1.0);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.ewma_sojourn = 5 * kMillisecond; }), 0.25);
  // Utilization and shed fraction are already fractions of capacity.
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.utilization = 0.3; }), 0.3);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.shed_fraction = 0.4; }), 0.4);
  // The largest component wins...
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) {
                     s.queue_delay = 50 * kMillisecond;   // 0.25
                     s.io_backlog = 20 * kMillisecond;    // 0.1
                     s.ewma_sojourn = 15 * kMillisecond;  // 0.75
                     s.utilization = 0.3;
                     s.shed_fraction = 0.6;
                   }),
                   0.75);
  // ...and the result clamps at 1.0.
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.queue_delay = 2 * kSecond; }), 1.0);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) {
                     s.io_backlog = kSecond;
                     s.ewma_sojourn = kSecond;
                   }),
                   1.0);
  // Suspicion is liveness, not load.
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) { s.suspicion = 5.0; }), 0.0);
  EXPECT_DOUBLE_EQ(pressure([](NodeLoadSignal& s) {
                     s.suspicion = 5.0;
                     s.utilization = 0.2;
                   }),
                   0.2);
}

TEST(LoggingTest, LevelGate) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SCADS_LOG(Info) << "suppressed";  // Must not crash.
  SetLogLevel(LogLevel::kWarning);
}

}  // namespace
}  // namespace scads
