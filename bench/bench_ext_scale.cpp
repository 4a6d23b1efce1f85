// Extension: optimizer runtime scaling (Section 7.3's operational claim).
//
// The paper reports SB-LP taking up to 3 hours on the tier-1 dataset while
// SB-DP "should perform well in practice and scale to larger topologies" —
// hence DP as the primary scheme with LP refining in the background.  This
// benchmark measures both solvers' wall-clock across instance sizes, up to
// the paper's full scale of 10,000 chains for SB-DP, plus the LP engine's
// own scaling story: sparse vs the dense reference, SB-LP at 1,000+
// chains, and warm-started re-solves vs cold ones.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "reference/dense_simplex.hpp"
#include "switchboard/switchboard.hpp"
#include "te/lp_routing_detail.hpp"

namespace {

using namespace switchboard;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

model::NetworkModel make_lp_instance(std::size_t chains) {
  model::ScenarioParams params;
  params.topology.core_count = 4;
  params.topology.access_per_core = 1;
  params.vnf_count = 6;
  params.chain_count = chains;
  params.coverage = 0.5;
  params.total_chain_traffic = 150.0;
  params.seed = 3;
  return model::make_scenario(params);
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_ext_scale"};
  std::printf("=== Extension: optimizer runtime scaling ===\n");

  // ---- SB-LP vs SB-DP on growing joint instances ----------------------
  std::printf("\n-- SB-LP vs SB-DP wall-clock (same instance) --\n");
  std::printf("%8s %8s %12s %12s %14s\n", "chains", "sites", "LP sec",
              "DP sec", "LP/DP");
  for (const std::size_t chains_full : {5, 10, 20, 40}) {
    const std::size_t chains = session.scaled(chains_full, 4, 5);
    const model::NetworkModel m = make_lp_instance(chains);

    auto start = std::chrono::steady_clock::now();
    te::LpRoutingOptions options;
    options.objective = te::LpObjective::kMaxThroughput;
    const te::LpRoutingResult lp = te::solve_lp_routing(m, options);
    const double lp_sec = seconds_since(start);

    start = std::chrono::steady_clock::now();
    const te::DpResult dp = te::solve_dp_routing(m);
    const double dp_sec = seconds_since(start);
    (void)dp;

    std::printf("%8zu %8zu %12.3f %12.4f %13.0fx%s\n", chains,
                m.sites().size(), lp_sec, dp_sec, lp_sec / dp_sec,
                lp.optimal() ? "" : "  (LP not optimal)");
    session.add("lp_vs_dp_runtime")
        .param("chains", static_cast<double>(chains))
        .metric("lp_sec", lp_sec)
        .metric("dp_sec", dp_sec);
  }

  // ---- SB-DP at the paper's full scale ---------------------------------
  std::printf("\n-- SB-DP at paper scale (LP would take hours) --\n");
  std::printf("%8s %8s %8s %12s %16s %12s\n", "chains", "sites", "vnfs",
              "DP sec", "throughput", "latency ms");
  for (const std::size_t chains_full : {1000, 5000, 10000}) {
    const std::size_t chains = session.scaled(chains_full, 64, 50);
    model::ScenarioParams params;
    params.topology.core_count = 8;
    params.topology.access_per_core = 3;   // 32 nodes, paper-like scale
    params.vnf_count = 100;                // the paper's catalog size
    params.chain_count = chains;
    params.coverage = 0.5;
    params.total_chain_traffic = 4000.0;
    params.site_capacity = 2000.0;
    params.seed = 3;
    const model::NetworkModel m = model::make_scenario(params);

    const auto start = std::chrono::steady_clock::now();
    const te::DpResult dp = te::solve_dp_routing(m);
    const double dp_sec = seconds_since(start);
    const te::RoutingMetrics metrics = te::evaluate(m, dp.routing);
    std::printf("%8zu %8zu %8zu %12.2f %16.1f %12.2f\n", chains,
                m.sites().size(), m.vnfs().size(), dp_sec,
                metrics.feasible_throughput, metrics.mean_latency_ms);
    session.add("dp_paper_scale")
        .param("chains", static_cast<double>(chains))
        .metric("dp_sec", dp_sec)
        .metric("throughput", metrics.feasible_throughput)
        .metric("latency_ms", metrics.mean_latency_ms);
  }
  // ---- sparse engine vs dense reference on the same LP -----------------
  // The routing LP is built once and both engines solve that Problem;
  // status parity and objective agreement (1e-6 relative) are asserted
  // in-binary so the nightly run doubles as a large-instance correctness
  // check.
  std::printf("\n-- sparse simplex vs dense reference (same LP) --\n");
  std::printf("%8s %12s %12s %10s\n", "chains", "sparse sec", "dense sec",
              "speedup");
  for (const std::size_t chains_full : {5, 10, 20, 40}) {
    const std::size_t chains = session.scaled(chains_full, 4, 5);
    const model::NetworkModel m = make_lp_instance(chains);
    te::LpRoutingOptions options;
    options.objective = te::LpObjective::kMaxThroughput;
    const lp::Problem problem =
        te::detail::build_routing_lp(m, options).problem;

    auto start = std::chrono::steady_clock::now();
    const lp::Solution sparse = lp::solve(problem);
    const double sparse_sec = seconds_since(start);

    start = std::chrono::steady_clock::now();
    const lp::Solution dense = lp::solve_dense_reference(problem);
    const double dense_sec = seconds_since(start);

    SWB_CHECK(sparse.status == dense.status)
        << "sparse/dense status divergence at " << chains << " chains";
    if (sparse.optimal()) {
      SWB_CHECK(std::abs(sparse.objective - dense.objective) <=
                1e-6 * (1.0 + std::abs(dense.objective)))
          << "sparse=" << sparse.objective << " dense=" << dense.objective;
    }
    std::printf("%8zu %12.4f %12.4f %9.1fx\n", chains, sparse_sec, dense_sec,
                dense_sec / sparse_sec);
    session.add("lp_sparse_vs_dense")
        .param("chains", static_cast<double>(chains))
        .metric("sparse_sec", sparse_sec)
        .metric("dense_sec", dense_sec)
        .metric("speedup", dense_sec / sparse_sec)
        .metric("status_optimal", sparse.optimal() ? 1.0 : 0.0);
  }

  // ---- SB-LP alone at large chain counts (sparse engine only) ----------
  std::printf("\n-- SB-LP large-scale (sparse engine) --\n");
  std::printf("%8s %12s %10s %12s %10s\n", "chains", "LP sec", "iters",
              "refactors", "fill nnz");
  for (const std::size_t chains_full : {200, 1000}) {
    const std::size_t chains = session.scaled(chains_full, 50, 4);
    const model::NetworkModel m = make_lp_instance(chains);
    te::LpRoutingOptions options;
    options.objective = te::LpObjective::kMaxThroughput;

    const auto start = std::chrono::steady_clock::now();
    const te::LpRoutingResult r = te::solve_lp_routing(m, options);
    const double lp_sec = seconds_since(start);
    SWB_CHECK(r.optimal()) << "large-scale SB-LP must solve to optimality";

    std::printf("%8zu %12.3f %10zu %12zu %10zu\n", chains, lp_sec,
                r.stats.iterations(), r.stats.refactorizations,
                r.stats.basis_nonzeros);
    session.add("lp_large_scale")
        .param("chains", static_cast<double>(chains))
        .metric("lp_sec", lp_sec)
        .metric("status_optimal", 1.0)
        .metric("objective", r.objective)
        .metric("iterations", static_cast<double>(r.stats.iterations()))
        .metric("refactorizations",
                static_cast<double>(r.stats.refactorizations))
        .metric("basis_nonzeros",
                static_cast<double>(r.stats.basis_nonzeros));
  }

  // ---- warm-started background refinement vs cold re-solve -------------
  // The paper's operational split keeps SB-LP refining in the background;
  // after a small state change the warm re-solve from the previous basis
  // should be far cheaper than solving from scratch.
  std::printf("\n-- warm vs cold SB-LP re-solve (one rhs perturbation) --\n");
  std::printf("%8s %12s %12s %10s %12s\n", "chains", "cold sec", "warm sec",
              "speedup", "warm iters");
  for (const std::size_t chains_full : {20, 40}) {
    const std::size_t chains = session.scaled(chains_full, 4, 5);
    model::NetworkModel m = make_lp_instance(chains);
    te::TeEngine engine{m};
    te::LpRoutingOptions options;
    options.objective = te::LpObjective::kMaxThroughput;

    // Cold refinement establishes the basis.
    SWB_CHECK(engine.refine_with_lp(options).optimal());

    // Perturb one link's background traffic: same LP shape, one rhs moves.
    const LinkId link{0};
    m.set_background_traffic(link, m.background_traffic(link) + 1.0);

    auto start = std::chrono::steady_clock::now();
    const te::LpRoutingResult cold = te::solve_lp_routing(m, options);
    const double cold_sec = seconds_since(start);

    start = std::chrono::steady_clock::now();
    const te::LpRoutingResult warm = engine.refine_with_lp(options);
    const double warm_sec = seconds_since(start);

    SWB_CHECK(cold.status == warm.status);
    SWB_CHECK(warm.stats.warm_started)
        << "warm refinement must reuse the previous basis";
    if (cold.optimal()) {
      SWB_CHECK(std::abs(cold.objective - warm.objective) <=
                1e-6 * (1.0 + std::abs(cold.objective)))
          << "cold=" << cold.objective << " warm=" << warm.objective;
    }
    std::printf("%8zu %12.4f %12.4f %9.1fx %12zu\n", chains, cold_sec,
                warm_sec, cold_sec / std::max(warm_sec, 1e-9),
                warm.stats.iterations());
    session.add("lp_warm_vs_cold")
        .param("chains", static_cast<double>(chains))
        .metric("cold_sec", cold_sec)
        .metric("warm_sec", warm_sec)
        .metric("speedup", cold_sec / std::max(warm_sec, 1e-9))
        .metric("warm_iterations",
                static_cast<double>(warm.stats.iterations()))
        .metric("cold_iterations",
                static_cast<double>(cold.stats.iterations()));
  }

  std::printf(
      "\nPaper: SB-LP ran for up to 3 hours on the tier-1 dataset; SB-DP's\n"
      "simple heuristic makes it usable as the primary online scheme.\n"
      "The sparse warm-startable engine is what makes background SB-LP\n"
      "refinement at 1,000+ chains practical in this reproduction.\n");
  return 0;
}
