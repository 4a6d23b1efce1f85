// Shared pieces of the Switchboard benchmark: wall-clock helpers, sample
// statistics, the result report, and the in-memory span recorder of the
// traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (reorders `v`).  0 for an empty sample.  The benchmark keeps its own
/// statistics so that a change to the library's SampleStats cannot change
/// how it measures.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Samples grouped into blocks, short slices of a timed phase.  A statistic
/// is taken per block and then summarised across blocks, so a stall of the
/// shared host that hits some blocks does not move the result.
struct Series {
  std::vector<double> values;
  std::vector<std::size_t> starts;   // first value of each block

  void begin_block() { starts.push_back(values.size()); }
  void add(double v) { values.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values.size(); }
  /// Quantile `across` over non-empty blocks of each block's quantile `q`.
  [[nodiscard]] double block_quantile(double q, double across) const;
};

/// Samples of operations that every round repeats in the same state.  The
/// deployment is deterministic, so set-up after set-up the i-th
/// create_chain of one seed is the same call on the same state.  The shared
/// host slows whole stretches of a run down, never speeds one up, so each
/// position's time is taken as a low quantile across rounds, and
/// statistics are then taken over positions.
struct ByPosition {
  std::vector<std::vector<double>> rounds;   // per position, one per round

  void add(std::size_t pos, double v) {
    if (pos >= rounds.size()) rounds.resize(pos + 1);
    rounds[pos].push_back(v);
  }
  [[nodiscard]] std::size_t size() const;
  /// Quantile `across` of every non-empty position's samples.
  [[nodiscard]] std::vector<double> per_position(double across) const;
  /// Quantile `q` over positions of `per_position(across)`.
  [[nodiscard]] double quantile(double q, double across) const;
  /// Sum over positions of `per_position(across)`.
  [[nodiscard]] double sum(double across) const;
};

/// Everything one run reports: operations attempted and failed, named
/// correctness checks, and metrics tagged with unit and provenance
/// (`modeled` marks simulated-time or configured quantities; everything
/// else is measured wall-clock time or a count taken from the program).
class Report {
 public:
  struct Metric {
    double value{0.0};
    std::string unit;
    bool modeled{false};
    std::size_t samples{0};
  };

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Records one correctness check; a failed check is a failed operation.
  bool check(std::string_view name, bool ok);
  void set(const std::string& name, double value, std::string unit,
           std::size_t samples = 0, bool modeled = false);
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Human-readable table on stdout.
  void print_table(const char* title) const;
  /// One-line JSON document (the last line run.py parses).
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>,
           std::less<>>
      checks_;   // name -> (passed, failed)
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
};

/// Spans of the traced run, kept in memory and written at exit as Chrome
/// trace-event JSON (opens offline in Perfetto or chrome://tracing).  The
/// first `spans_per_name` spans of each name are kept, so every layer
/// shows up in the file however long the run; per name it also keeps a
/// count and total duration over every span.
class Tracer {
 public:
  struct Span {
    const char* layer;
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t op;   // spans of one operation share this id
  };
  struct Total {
    std::uint64_t count{0};
    std::int64_t ns{0};
  };

  explicit Tracer(bool enabled, std::uint64_t spans_per_name = 2000)
      : enabled_{enabled},
        spans_per_name_{spans_per_name},
        origin_ns_{now_ns()} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// `layer` and `name` must be string literals (stored by pointer).
  void record(const char* layer, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t op);

  [[nodiscard]] Total total(std::string_view name) const;
  /// Mean span duration of `name` in ns (0 when none).
  [[nodiscard]] double mean_ns(std::string_view name) const;
  [[nodiscard]] std::uint64_t spans_recorded() const { return recorded_; }

  /// Writes the retained spans; returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t spans_per_name_;
  std::int64_t origin_ns_;
  std::uint64_t recorded_{0};
  std::vector<Span> spans_;
  std::map<std::string_view, Total> totals_;
};

}  // namespace perfbench
