#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/cost.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"

namespace switchboard {
namespace {

// ---------------------------------------------------------------- StrongId

TEST(StrongId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrips) {
  NodeId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Comparisons) {
  NodeId a{1};
  NodeId b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, NodeId{1});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, SiteId>);
  static_assert(!std::is_same_v<ChainId, VnfId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<ChainId> set;
  set.insert(ChainId{1});
  set.insert(ChainId{1});
  set.insert(ChainId{2});
  EXPECT_EQ(set.size(), 2u);
}

// ------------------------------------------------------------------ Result

TEST(Result, HoldsValue) {
  Result<int> r{7};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(Result, HoldsError) {
  Result<int> r{ErrorCode::kNotFound, "missing chain"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message, "missing chain");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, ErrorPropagates) {
  Status s{ErrorCode::kRejected, "vnf voted abort"};
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kRejected);
  EXPECT_NE(s.error().to_string().find("abort"), std::string::npos);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng{5};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);   // all values hit
}

TEST(Rng, ExponentialMean) {
  Rng rng{17};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng{99};
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng{31};
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng{77};
  const auto sample = rng.sample_without_replacement(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{123};
  Rng b = a.split();
  // Streams should not be identical.
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{3};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ------------------------------------------------------------ UtilizationCost

TEST(UtilizationCost, ZeroAtZero) {
  UtilizationCost cost;
  EXPECT_DOUBLE_EQ(cost(0.0), 0.0);
}

TEST(UtilizationCost, LinearBelowFirstBreakpoint) {
  UtilizationCost cost;
  EXPECT_NEAR(cost(0.2), 0.2, 1e-12);   // slope 1 below 1/3
}

TEST(UtilizationCost, IncreasesSteeplyAboveCapacity) {
  UtilizationCost cost;
  EXPECT_GT(cost(1.2) - cost(1.1), 100.0);   // slope 5000 region
}

TEST(UtilizationCost, Monotone) {
  UtilizationCost cost;
  double prev = -1.0;
  for (double u = 0.0; u <= 2.0; u += 0.01) {
    const double c = cost(u);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(UtilizationCost, Convex) {
  UtilizationCost cost;
  // Discrete second difference must be non-negative for convexity.
  for (double u = 0.01; u <= 1.9; u += 0.01) {
    const double second =
        cost(u + 0.01) - 2.0 * cost(u) + cost(u - 0.01);
    EXPECT_GE(second, -1e-9) << "at u=" << u;
  }
}

TEST(UtilizationCost, DeltaMatchesDifference) {
  UtilizationCost cost;
  EXPECT_NEAR(cost.delta(0.3, 0.8), cost(0.8) - cost(0.3), 1e-12);
}

TEST(UtilizationCost, SlopeMatchesSegments) {
  UtilizationCost cost;
  EXPECT_DOUBLE_EQ(cost.slope_at(0.1), 1.0);
  EXPECT_DOUBLE_EQ(cost.slope_at(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cost.slope_at(0.8), 10.0);
  EXPECT_DOUBLE_EQ(cost.slope_at(0.95), 70.0);
  EXPECT_DOUBLE_EQ(cost.slope_at(1.05), 500.0);
  EXPECT_DOUBLE_EQ(cost.slope_at(1.5), 5000.0);
}

TEST(UtilizationCost, CustomBreakpoints) {
  UtilizationCost cost({0.5}, {1.0, 2.0});
  EXPECT_NEAR(cost(0.25), 0.25, 1e-12);
  EXPECT_NEAR(cost(1.0), 0.5 + 2.0 * 0.5, 1e-12);
}

// ------------------------------------------------------------------- Stats

TEST(SampleStats, BasicMoments) {
  SampleStats stats;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleStats, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.add(static_cast<double>(i));
  EXPECT_NEAR(stats.median(), 50.5, 1e-9);
  EXPECT_NEAR(stats.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(stats.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(stats.percentile(99), 99.01, 0.1);
}

TEST(SampleStats, PercentileAfterAdd) {
  SampleStats stats;
  stats.add(1.0);
  EXPECT_DOUBLE_EQ(stats.median(), 1.0);
  stats.add(100.0);   // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(stats.median(), 50.5);
}

TEST(SampleStats, Clear) {
  SampleStats stats;
  stats.add(5.0);
  stats.clear();
  EXPECT_TRUE(stats.empty());
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram h{0.0, 10.0, 10};
  h.add(-1.0);
  h.add(0.5);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[9], 1u);
}

// -------------------------------------------------------------------- Zipf

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfSampler zipf{100, 1.0};
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) total += zipf.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfSampler zipf{50, 1.0};
  EXPECT_GT(zipf.probability(0), zipf.probability(1));
  EXPECT_GT(zipf.probability(1), zipf.probability(10));
}

TEST(Zipf, EmpiricalSkewMatches) {
  ZipfSampler zipf{1000, 1.0};
  Rng rng{11};
  std::vector<int> counts(1000, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf.sample(rng)]++;
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.probability(0), 0.01);
  // Head heavier than tail.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfSampler zipf{10, 0.0};
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.probability(k), 0.1, 1e-9);
  }
}

// --------------------------------------------------------------------- Log

/// Sets the log level for one test and restores the previous one.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : saved_{log_level()} {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(saved_); }
  ScopedLogLevel(const ScopedLogLevel&) = delete;
  ScopedLogLevel& operator=(const ScopedLogLevel&) = delete;

 private:
  LogLevel saved_;
};

// A line below the level evaluates none of its operands: a drop on the
// bus's hot path pays one level check, not a stream and its arguments.
TEST(Log, DisabledLineEvaluatesNoOperand) {
  const ScopedLogLevel level{LogLevel::kWarn};
  int calls = 0;
  const auto operand = [&calls] { return ++calls; };
  testing::internal::CaptureStderr();
  SB_LOG(kDebug) << "debug " << operand();
  SB_LOG(kInfo) << operand() << " info " << operand();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(calls, 0);
}

TEST(Log, EnabledLineIsWrittenOnce) {
  const ScopedLogLevel level{LogLevel::kInfo};
  int calls = 0;
  const auto operand = [&calls] { return ++calls; };
  testing::internal::CaptureStderr();
  SB_LOG(kInfo) << "chain " << operand() << " activated";
  SB_LOG(kError) << "value " << operand();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[INFO ] chain 1 activated\n[ERROR] value 2\n");
  EXPECT_EQ(calls, 2);
}

// SB_LOG is one statement: under an unbraced if, an else still binds to
// that if, at either level.
TEST(Log, NestsUnderAnUnbracedIfElse) {
  for (const LogLevel active : {LogLevel::kDebug, LogLevel::kOff}) {
    const ScopedLogLevel level{active};
    testing::internal::CaptureStderr();
    int taken = 0;
    const bool skip = true;
    if (!skip)
      SB_LOG(kWarn) << "never";
    else
      ++taken;
    EXPECT_EQ(taken, 1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  }
}

}  // namespace
}  // namespace switchboard
