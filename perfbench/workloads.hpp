// The benchmark's workloads.  Each drives the public API of the library
// (core::Middleware, core::Deployment, control::GlobalSwitchboard) from one
// single-threaded closed-loop client and fills a Report with end-to-end
// metrics (untraced run) or per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
};

/// The workload names run_workload() accepts.
inline constexpr const char* kWorkloads[] = {"steady_flows", "flow_churn"};

/// Runs one workload; returns false for an unknown workload name.
bool run_workload(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
