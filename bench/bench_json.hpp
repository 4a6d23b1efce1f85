// Shared benchmark-result emitter: every bench_* binary accepts
//
//   --json <path>   write machine-readable results to <path>
//   --smoke         reduced-iteration mode for CI (scale workloads with
//                   Session::scaled(); skip google-benchmark sweeps)
//
// so CI's bench-smoke job can run the whole bench suite quickly, merge the
// per-binary files into BENCH_pr.json, and track the perf trajectory per
// PR.  Records carry a name, parameters, and metrics (conventional keys:
// "throughput_pps", "p50_ms", "p99_ms", ...); the file also records the git
// sha the binary was built from and the host's hardware_concurrency, so
// wall-clock metrics can be read against the cores they ran on.
//
// Usage:
//   int main(int argc, char** argv) {
//     swb_bench::Session session{&argc, argv, "bench_fig8_forwarder_scaling"};
//     ...
//     session.add("sharded_scaling")
//         .param("threads", 8)
//         .metric("throughput_pps", pps);
//     return 0;   // the destructor writes the file when --json was given
//   }
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace swb_bench {

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Formats a double as JSON (no NaN/Inf in JSON — clamp to null).
/// %.17g round-trips any double exactly — bit-deterministic metrics
/// (packet counts, pinning digests) are gated with exact comparisons by
/// tools/bench_diff.py, so the JSON must not lose precision.
inline std::string json_number(double v) {
  if (v != v || v > 1e308 || v < -1e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string current_git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA")) {
    return std::string{sha}.substr(0, 12);
  }
  std::string sha = "unknown";
  if (FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      std::string line{buf};
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) sha = line;
    }
    ::pclose(pipe);
  }
  return sha;
}

}  // namespace detail

/// One benchmark data point: a named result with parameters and metrics.
class Record {
 public:
  explicit Record(std::string name) : name_{std::move(name)} {}

  Record& param(const std::string& key, double value) {
    number_params_.emplace_back(key, value);
    return *this;
  }
  Record& param(const std::string& key, const std::string& value) {
    string_params_.emplace_back(key, value);
    return *this;
  }
  Record& metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
    return *this;
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "    {\"name\": \"" + detail::json_escape(name_) +
                      "\", \"params\": {";
    bool first = true;
    for (const auto& [key, value] : number_params_) {
      out += std::string{first ? "" : ", "} + "\"" +
             detail::json_escape(key) + "\": " + detail::json_number(value);
      first = false;
    }
    for (const auto& [key, value] : string_params_) {
      out += std::string{first ? "" : ", "} + "\"" +
             detail::json_escape(key) + "\": \"" + detail::json_escape(value) +
             "\"";
      first = false;
    }
    out += "}, \"metrics\": {";
    first = true;
    for (const auto& [key, value] : metrics_) {
      out += std::string{first ? "" : ", "} + "\"" +
             detail::json_escape(key) + "\": " + detail::json_number(value);
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> number_params_;
  std::vector<std::pair<std::string, std::string>> string_params_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Owns the parsed --json/--smoke flags and the collected records; writes
/// the JSON file at destruction.  Construct before benchmark::Initialize —
/// the constructor strips the flags it consumes from argv.
class Session {
 public:
  Session(int* argc, char** argv, std::string bench_name)
      : bench_name_{std::move(bench_name)} {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--smoke") == 0) {
        smoke_ = true;
      } else if (std::strcmp(arg, "--json") == 0 && i + 1 < *argc) {
        json_path_ = argv[++i];
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        json_path_ = arg + 7;
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    argv[out] = nullptr;
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() { write(); }

  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Workload scaling for smoke mode: full size normally, size/`divisor`
  /// (floored at `floor`) under --smoke.
  [[nodiscard]] std::size_t scaled(std::size_t n, std::size_t divisor = 64,
                                   std::size_t floor = 1) const {
    if (!smoke_) return n;
    return std::max(floor, n / std::max<std::size_t>(divisor, 1));
  }

  Record& add(std::string record_name) {
    records_.emplace_back(std::move(record_name));
    return records_.back();
  }

  /// Writes the file now (idempotent; also called by the destructor).
  void write() {
    if (json_path_.empty() || written_) return;
    FILE* out = std::fopen(json_path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", json_path_.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"git_sha\": \"%s\",\n"
                 "  \"smoke\": %s,\n  \"hardware_concurrency\": %u,\n"
                 "  \"results\": [\n",
                 detail::json_escape(bench_name_).c_str(),
                 detail::json_escape(detail::current_git_sha()).c_str(),
                 smoke_ ? "true" : "false",
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(out, "%s%s\n", records_[i].to_json().c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    written_ = true;
  }

 private:
  std::string bench_name_;
  std::string json_path_;
  bool smoke_{false};
  bool written_{false};
  std::deque<Record> records_;   // deque: add() references stay valid
};

}  // namespace swb_bench
