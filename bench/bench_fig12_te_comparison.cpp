// Figure 12: wide-area traffic engineering on a tier-1-like dataset.
//
// Paper setup: tier-1 backbone topology + traffic snapshot; 100 VNFs,
// 10000 chains of 3-5 VNFs; Switchboard vs ANYCAST.  Findings:
//   (a) throughput vs NF coverage: SB-LP and SB-DP improve with coverage;
//       ANYCAST is >10x worse and cannot exploit coverage;
//   (b) throughput vs CPU/byte: SB >> ANYCAST everywhere; SB-DP within
//       11-36% of SB-LP;
//   (c) latency vs load: ANYCAST's latency is >40% higher at low load and
//       it collapses beyond ~10% of SB-LP's sustainable load; SB-DP is
//       within 8% of SB-LP.
//
// Scaled-down substitute: synthetic tier-1 topology + gravity traffic
// (DESIGN.md), small enough for the from-scratch simplex yet large enough
// to show the same ordering and crossovers.
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "net/routing.hpp"
#include "reference/dp_reference.hpp"
#include "switchboard/switchboard.hpp"

namespace {

using namespace switchboard;

/// Minimum wall time of `fn` over `repeats` runs, in milliseconds.
template <typename Fn>
double min_wall_ms(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  return best;
}

model::ScenarioParams base_params() {
  model::ScenarioParams params;
  params.topology.core_count = 4;
  params.topology.access_per_core = 1;     // 8 nodes / sites
  params.vnf_count = 8;
  params.chain_count = 20;
  params.min_chain_length = 3;
  params.max_chain_length = 5;
  params.total_chain_traffic = 300.0;
  params.site_capacity = 600.0;
  params.cpu_per_unit = 1.0;
  params.seed = 2026;
  return params;
}

struct Row {
  double lp{0.0};
  double dp{0.0};
  double anycast{0.0};
};

Row throughput_row(const model::ScenarioParams& params) {
  const model::NetworkModel m = model::make_scenario(params);
  Row row;

  te::LpRoutingOptions lp_options;
  lp_options.objective = te::LpObjective::kMaxThroughput;
  const te::LpRoutingResult lp = te::solve_lp_routing(m, lp_options);
  if (lp.optimal()) {
    row.lp = te::evaluate(m, lp.routing).feasible_throughput;
  }

  const te::DpResult dp = te::solve_dp_routing(m);
  row.dp = te::evaluate(m, dp.routing).feasible_throughput;

  row.anycast = te::evaluate(m, te::solve_anycast(m)).feasible_throughput;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_fig12_te_comparison"};
  std::printf("=== Figure 12: TE on a tier-1-like dataset (scaled) ===\n");

  // ---- (a) throughput vs NF coverage --------------------------------
  std::printf("\n-- (a) throughput vs NF coverage --\n");
  std::printf("%10s %12s %12s %12s %10s\n", "coverage", "SB-LP", "SB-DP",
              "ANYCAST", "LP/anycast");
  for (const double coverage : {0.25, 0.5, 0.75, 1.0}) {
    model::ScenarioParams params = base_params();
    params.chain_count = session.scaled(params.chain_count, 2, 5);
    params.coverage = coverage;
    const Row row = throughput_row(params);
    std::printf("%10.2f %12.1f %12.1f %12.1f %9.1fx\n", coverage, row.lp,
                row.dp, row.anycast,
                row.anycast > 0 ? row.lp / row.anycast : 0.0);
    session.add("throughput_vs_coverage")
        .param("coverage", coverage)
        .metric("sb_lp", row.lp)
        .metric("sb_dp", row.dp)
        .metric("anycast", row.anycast);
  }

  // ---- (b) throughput vs CPU/byte ------------------------------------
  std::printf("\n-- (b) throughput vs CPU/byte (compute vs network "
              "bottleneck) --\n");
  std::printf("%10s %12s %12s %12s %12s\n", "cpu/byte", "SB-LP", "SB-DP",
              "ANYCAST", "DP/LP");
  for (const double cpu : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    model::ScenarioParams params = base_params();
    params.chain_count = session.scaled(params.chain_count, 2, 5);
    params.coverage = 0.5;
    params.cpu_per_unit = cpu;
    const Row row = throughput_row(params);
    std::printf("%10.2f %12.1f %12.1f %12.1f %11.0f%%\n", cpu, row.lp, row.dp,
                row.anycast, row.lp > 0 ? 100.0 * row.dp / row.lp : 0.0);
    session.add("throughput_vs_cpu_per_byte")
        .param("cpu_per_unit", cpu)
        .metric("sb_lp", row.lp)
        .metric("sb_dp", row.dp)
        .metric("anycast", row.anycast);
  }

  // ---- (c) latency vs load factor ------------------------------------
  std::printf("\n-- (c) latency vs uniform load increase --\n");
  std::printf("%10s %14s %14s %14s\n", "load", "SB-LP ms", "SB-DP ms",
              "ANYCAST ms");
  // Light base load (half of the throughput experiments) so the sweep
  // spans from everyone-feasible to everyone-saturated.
  for (const double factor : {0.25, 0.5, 1.0, 2.0, 3.0}) {
    model::ScenarioParams params = base_params();
    params.chain_count = session.scaled(params.chain_count, 2, 5);
    params.coverage = 0.5;
    params.total_chain_traffic = 150.0;
    model::NetworkModel m = model::make_scenario(params);
    m.scale_all_traffic(factor);

    te::LpRoutingOptions lp_options;
    lp_options.objective = te::LpObjective::kMinLatency;
    const te::LpRoutingResult lp = te::solve_lp_routing(m, lp_options);
    const te::DpResult dp = te::solve_dp_routing(m);
    const te::RoutingMetrics dp_metrics = te::evaluate(m, dp.routing);
    const te::RoutingMetrics anycast_metrics =
        te::evaluate(m, te::solve_anycast(m));

    char lp_text[32];
    if (lp.optimal()) {
      std::snprintf(lp_text, sizeof lp_text, "%14.1f",
                    te::evaluate(m, lp.routing).mean_latency_ms);
    } else {
      std::snprintf(lp_text, sizeof lp_text, "%14s", "infeasible");
    }
    char any_text[32];
    if (anycast_metrics.feasible) {
      std::snprintf(any_text, sizeof any_text, "%14.1f",
                    anycast_metrics.mean_latency_ms);
    } else {
      std::snprintf(any_text, sizeof any_text, "%11.1f(!)",
                    anycast_metrics.mean_latency_ms);
    }
    std::printf("%9.0f%% %s %14.1f %s\n", factor * 100.0, lp_text,
                dp_metrics.mean_latency_ms, any_text);
  }
  std::printf("   (!) = ANYCAST overloads some resource at this load\n");

  // Maximum uniform load factor each scheme sustains (relative to the
  // factor-1.0 base): the paper's headline is that ANYCAST collapses at
  // ~10% of SB-LP's sustainable load.
  {
    model::ScenarioParams params = base_params();
    params.chain_count = session.scaled(params.chain_count, 2, 5);
    params.coverage = 0.5;
    params.total_chain_traffic = 150.0;
    const model::NetworkModel m = model::make_scenario(params);
    te::LpRoutingOptions alpha_options;
    alpha_options.objective = te::LpObjective::kMaxUniformScale;
    const te::LpRoutingResult lp_alpha = te::solve_lp_routing(m, alpha_options);
    const te::DpResult dp = te::solve_dp_routing(m);
    const te::RoutingMetrics dp_metrics = te::evaluate(m, dp.routing);
    // DP may admit only part of the demand; discount its sustainable
    // scale by the carried fraction for a fair comparison.
    const double dp_alpha = dp_metrics.max_uniform_scale *
                            (dp_metrics.carried_volume /
                             std::max(dp_metrics.demand_volume, 1e-9));
    const double anycast_alpha =
        te::evaluate(m, te::solve_anycast(m)).max_uniform_scale;
    std::printf("\nmax sustainable load factor:  SB-LP %.2f   SB-DP %.2f   "
                "ANYCAST %.2f (%.0f%% of SB-LP)\n",
                lp_alpha.alpha, dp_alpha, anycast_alpha,
                lp_alpha.alpha > 0 ? 100.0 * anycast_alpha / lp_alpha.alpha
                                   : 0.0);
    session.add("max_sustainable_load")
        .metric("sb_lp_alpha", lp_alpha.alpha)
        .metric("sb_dp_alpha", dp_alpha)
        .metric("anycast_alpha", anycast_alpha);
  }

  // ---- (d) TE engine fast path (wall clock) --------------------------
  // Not a paper panel: microbenchmarks of the TE engine on the largest
  // topology this bench builds (48 nodes — wide-area scale, where the
  // per-pair ECMP footprints the cache memoizes are non-trivial),
  // validating that the cached DP solve and the parallel routing
  // precompute return the same answers faster.  Wall-clock metrics; the
  // CI perf gate diffs only the deterministic throughput/alpha metrics
  // above.
  std::printf("\n-- (d) TE engine fast path (wall clock) --\n");
  {
    model::ScenarioParams params = base_params();
    params.topology.core_count = 16;
    params.topology.access_per_core = 2;   // 48 nodes / sites
    params.vnf_count = 12;
    params.chain_count = 200;
    params.coverage = 0.5;
    params.total_chain_traffic = 3000.0;
    params.site_capacity = 400.0;
    const model::NetworkModel m = model::make_scenario(params);
    const int repeats = session.smoke() ? 3 : 7;

    // The library's cached DP solve vs the uncached reference solve of
    // tests/reference: identical solutions, bit for bit.
    const te::DpResult reference = te::solve_dp_routing_reference(m);
    const double uncached_ms = min_wall_ms(repeats, [&] {
      const te::DpResult r = te::solve_dp_routing_reference(m);
      SWB_CHECK(r.routed_volume == reference.routed_volume);
    });
    const double cached_ms = min_wall_ms(repeats, [&] {
      const te::DpResult r = te::solve_dp_routing(m);
      SWB_CHECK(r.routed_volume == reference.routed_volume);
    });
    std::printf("cached DP solve:      %8.2f ms vs %8.2f ms uncached "
                "(%.1fx, identical solution)\n",
                cached_ms, uncached_ms, uncached_ms / cached_ms);
    session.add("cached")
        .param("nodes", static_cast<double>(m.topology().node_count()))
        .param("chains", static_cast<double>(m.chains().size()))
        .metric("uncached_ms", uncached_ms)
        .metric("cached_ms", cached_ms)
        .metric("speedup", uncached_ms / cached_ms);

    // Serial vs parallel all-pairs routing precompute (same topology).
    const net::Topology topo = net::make_tier1_topology(params.topology);
    const std::size_t threads =
        std::max<std::size_t>(2, std::thread::hardware_concurrency());
    const double serial_ms =
        min_wall_ms(repeats, [&] { net::Routing routing{topo, 1}; });
    const double parallel_ms =
        min_wall_ms(repeats, [&] { net::Routing routing{topo, threads}; });
    std::printf("routing precompute:   %8.2f ms vs %8.2f ms serial "
                "(%.1fx with %zu threads)\n",
                parallel_ms, serial_ms, serial_ms / parallel_ms, threads);
    session.add("parallel_build")
        .param("nodes", static_cast<double>(topo.node_count()))
        .param("threads", static_cast<double>(threads))
        .metric("serial_ms", serial_ms)
        .metric("parallel_ms", parallel_ms)
        .metric("speedup", serial_ms / parallel_ms);
  }

  std::printf(
      "\nPaper: SB-LP and SB-DP track each other (DP within 0-36%% of LP on\n"
      "throughput, 8%% on latency); ANYCAST is an order of magnitude worse\n"
      "and cannot use added coverage.\n");
  return 0;
}
