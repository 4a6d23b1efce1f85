// Streaming statistics accumulators used by benchmarks and experiments.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace switchboard {

/// Single-writer event counter: a drop-in replacement for a plain
/// `std::uint64_t` statistics field that one thread at a time bumps while
/// any thread may read it (the forwarder's per-shard cells, written by the
/// worker owning the shard; a flow table's inserts/erases, written under
/// the shard mutex).  A bump is a relaxed load plus a relaxed store, no
/// locked instruction: two threads bumping one counter at once can lose
/// an update, but the value never tears.  Counters are monotonic tallies,
/// not synchronization points; readers that need a consistent *set* of
/// counters must quiesce the writers first (the data plane reads them
/// after joining its workers).
class RelaxedCounter {
 public:
  constexpr RelaxedCounter() = default;
  constexpr RelaxedCounter(std::uint64_t value) : value_{value} {}   // NOLINT(google-explicit-constructor)
  RelaxedCounter(const RelaxedCounter& other)
      : value_{other.value_.load(std::memory_order_relaxed)} {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }

  /// Reads like a plain integer (relaxed).
  operator std::uint64_t() const {   // NOLINT(google-explicit-constructor)
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  RelaxedCounter& operator++() { return *this += 1; }
  RelaxedCounter& operator+=(std::uint64_t delta) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulates samples; supports mean/min/max/stddev and exact percentiles.
/// Percentile queries sort a copy lazily, so keep sample counts moderate
/// (millions are fine).
class SampleStats {
 public:
  void add(double sample);
  void clear();

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  /// p in [0, 100]; linear interpolation between closest ranks.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_{0.0};
  mutable std::vector<double> sorted_;   // cache for percentile queries
  mutable bool sorted_valid_{false};
};

/// Fixed-width histogram counter over [lo, hi) with `bins` buckets plus
/// underflow/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double sample);
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::string to_string(std::size_t max_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_{0};
  std::size_t overflow_{0};
  std::size_t total_{0};
};

}  // namespace switchboard
