// Switchboard benchmark binary.  Normally started by run.py, which builds
// it and turns its last output line into the benchmark result:
//
//   swb_perfbench --workload steady_flows --seed 1 --seconds 10 --trace 0
//                 [--trace-out spans.json]
//
// Prints a metric table, then one line "RESULT {json}" carrying the
// operation counts, the correctness checks, and every metric with its unit
// and whether it is measured or modeled.  Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error, 3 when
// the binary was built without optimisation or with a sanitizer.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: swb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "error: refusing to benchmark an unoptimised or sanitizer "
                 "build; build with CMAKE_BUILD_TYPE=RelWithDebInfo\n");
    return 3;
  }
  perfbench::Options options;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::string_view{value} != "0" && std::string_view{value} != "1") {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Report report;
  perfbench::Tracer tracer{options.trace};
  if (!perfbench::run_workload(options, report, tracer)) {
    return usage("unknown workload");
  }
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  report.note("client_threads", "1");
  report.note("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  if (options.trace && !trace_out.empty()) {
    if (!tracer.write_chrome_json(trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 2;
    }
    report.note("trace_file", trace_out);
  }
  report.print_table(options.trace ? "per-layer metrics (traced run)"
                                   : "end-to-end metrics");
  std::printf("RESULT %s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
