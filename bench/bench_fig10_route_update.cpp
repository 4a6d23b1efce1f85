// Figure 10: dynamic chain-route creation.
//
// Paper setup: one AWS site split into virtual sites A and B; a chain
// (ingress A, egress B) initially runs its NAT only at site A.  A new
// route via B is requested at runtime.  Findings:
//   (a) the route update completes in 595 ms and load is balanced evenly
//       between the two routes afterwards;
//   (b) total chain throughput doubles, commensurate with the added
//       capacity, while the existing route is unaffected.
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "switchboard/switchboard.hpp"

namespace {

using namespace switchboard;

dataplane::FiveTuple flow_tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A000000u + i, 0xC0A80001u,
                              static_cast<std::uint16_t>(1024 + i % 50000),
                              80, 6};
}

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

/// (c) companion microbenchmark: the cost of reacting to a single-chain
/// delta on the controller's path — retire the chain's route load, query
/// the TE engine's cached SB-DP, commit the new route — versus re-running
/// the whole-model SB-DP solve, on a scenario-sized model.  Wall-clock
/// metrics; the CI perf gate diffs only the deterministic control-plane
/// timings.
void bench_incremental_resolve(swb_bench::Session& session) {
  model::ScenarioParams params;
  params.topology.core_count = 5;
  params.topology.access_per_core = 1;   // 10 nodes / sites
  params.vnf_count = 8;
  params.chain_count = 40;
  params.coverage = 0.5;
  params.total_chain_traffic = 400.0;
  params.site_capacity = 500.0;
  params.seed = 7;
  model::NetworkModel m = model::make_scenario(params);
  const int repeats = session.smoke() ? 5 : 9;

  // Full re-solve: what a stateless control plane pays per chain delta.
  const te::DpResult reference = te::solve_dp_routing(m);
  const double full_ms = min_wall_ms(repeats, [&] {
    const te::DpResult r = te::solve_dp_routing(m);
    SWB_CHECK(r.routed_volume == reference.routed_volume);
  });

  // Incremental: every chain's first route committed as create_chain
  // commits it (find_route, then the whole chain's load); the timed delta
  // re-routes the last chain against the residual loads of the others.
  te::TeEngine engine{m};
  std::vector<SiteId> last_sites;
  for (const model::Chain& chain : m.chains()) {
    const te::SingleRoute route = engine.find_route(chain);
    if (!route.found || route.admissible_fraction <= 0) continue;
    const std::vector<SiteId> sites(route.sites.begin() + 1,
                                    route.sites.end() - 1);
    engine.add_route_load(chain, sites, 1.0);
    if (chain.id == m.chains().back().id) last_sites = sites;
  }
  const model::Chain& delta = m.chains().back();
  SWB_CHECK(!last_sites.empty()) << "the last chain found no route";
  double incremental_ms = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    engine.add_route_load(delta, last_sites, -1.0);
    const te::SingleRoute route = engine.find_route(delta);
    SWB_CHECK(route.found);
    last_sites.assign(route.sites.begin() + 1, route.sites.end() - 1);
    engine.add_route_load(delta, last_sites, 1.0);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    incremental_ms = std::min(incremental_ms, ms);
  }

  std::printf("\n-- (c) single-chain delta: controller path vs full re-solve "
              "--\n");
  std::printf("full DP re-solve %8.3f ms   retire + find_route + commit "
              "%8.3f ms   (%.1fx)\n",
              full_ms, incremental_ms, full_ms / incremental_ms);
  session.add("incremental")
      .param("chains", static_cast<double>(m.chains().size()))
      .metric("full_resolve_ms", full_ms)
      .metric("incremental_ms", incremental_ms)
      .metric("speedup", full_ms / incremental_ms);
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_fig10_route_update"};
  // Two virtual sites joined by a fast local link (same-site split).
  net::Topology topo;
  const NodeId node_a = topo.add_node("A", 0, 0);
  const NodeId node_b = topo.add_node("B", 100, 0);
  topo.add_duplex_link(node_a, node_b, 1000.0, 0.5);

  model::NetworkModel m{std::move(topo)};
  const SiteId site_a = m.add_site(node_a, 1000.0, "A");
  const SiteId site_b = m.add_site(node_b, 1000.0, "B");
  const VnfId nat = m.add_vnf("nat", 1.0);
  const double kInstanceCapacity = 10.0;   // traffic units of NAT capacity
  m.deploy_vnf(nat, site_a, kInstanceCapacity);
  m.deploy_vnf(nat, site_b, kInstanceCapacity);

  core::Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("edge");

  control::ChainSpec spec;
  spec.name = "nat-chain";
  spec.ingress_service = edge;
  spec.ingress_node = node_a;
  spec.egress_service = edge;
  spec.egress_node = node_b;
  spec.vnfs = {nat};
  spec.forward_traffic = 4.0;
  const auto created = mw.create_chain(spec);
  if (!created.ok()) {
    std::printf("chain creation failed: %s\n",
                created.error().to_string().c_str());
    return 1;
  }
  const ChainId chain = created->chain;

  std::printf("=== Figure 10: dynamic route addition ===\n\n");
  std::printf("chain created in %.0f ms (simulated control plane)\n",
              sim::to_ms(created->elapsed()));

  // ---- throughput timeline ------------------------------------------
  // Each second, 50 new connections arrive, each demanding 0.4 units:
  // 20 units/s offered against 10 units of single-instance capacity.
  // The new route is requested at t = 10 s.
  constexpr int kSeconds = 20;
  constexpr int kFlowsPerSecond = 50;
  constexpr double kPerFlowDemand = 0.4;
  auto& elements = mw.deployment().elements();

  std::printf("\n-- (b) offered 20.0 units/s; instance capacity %.0f --\n",
              kInstanceCapacity);
  std::printf("%6s %12s %12s %12s %14s\n", "t(s)", "via-A", "via-B", "total",
              "update");

  std::uint32_t next_flow = 0;
  double update_ms = 0.0;
  for (int second = 0; second < kSeconds; ++second) {
    if (second == 10) {
      const auto added = mw.add_route(chain, {site_b});
      if (!added.ok()) {
        std::printf("route addition failed: %s\n",
                    added.error().to_string().c_str());
        return 1;
      }
      update_ms = sim::to_ms(added->elapsed());
    }

    // New connections of this interval pick routes via the current rules.
    std::map<std::uint32_t, int> flows_at_site;
    for (int f = 0; f < kFlowsPerSecond; ++f) {
      const auto walk = mw.send(chain, flow_tuple(next_flow++));
      if (!walk.delivered) continue;
      for (const auto instance : walk.vnf_instances()) {
        flows_at_site[elements.info(instance).site.value()]++;
      }
    }
    const double demand_a = flows_at_site[site_a.value()] * kPerFlowDemand;
    const double demand_b = flows_at_site[site_b.value()] * kPerFlowDemand;
    const double tput_a = std::min(demand_a, kInstanceCapacity);
    const double tput_b = std::min(demand_b, kInstanceCapacity);
    const std::string note =
        second == 10
            ? "+route (" + std::to_string(static_cast<int>(update_ms)) + " ms)"
            : "";
    std::printf("%6d %12.1f %12.1f %12.1f %14s\n", second, tput_a, tput_b,
                tput_a + tput_b, note.c_str());
  }

  const auto& record = mw.chain_record(chain);
  std::printf("\n-- (a) route weights after update --\n");
  for (const auto& route : record.routes) {
    std::printf("route %u via site %u: weight %.2f\n", route.id.value(),
                route.vnf_sites[0].value(), route.weight);
  }
  session.add("route_update")
      .metric("chain_create_ms", sim::to_ms(created->elapsed()))
      .metric("route_update_ms", update_ms);

  bench_incremental_resolve(session);

  std::printf(
      "\nroute update completed in %.0f ms (paper prototype: 595 ms);\n"
      "throughput doubles after the update and load splits evenly.\n",
      update_ms);
  return 0;
}
