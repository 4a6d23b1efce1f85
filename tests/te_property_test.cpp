// Property-based tests over randomized scenarios (parameterized on the
// scenario seed): invariants every traffic-engineering scheme must hold
// regardless of topology, catalog, and demand draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "lp/mip.hpp"
#include "model/scenario.hpp"
#include "reference/dp_reference.hpp"
#include "te/baselines.hpp"
#include "te/dp_routing.hpp"
#include "te/evaluator.hpp"
#include "te/lp_routing.hpp"
#include "te/te_engine.hpp"

namespace switchboard::te {
namespace {

model::ScenarioParams scenario_for_seed(std::uint64_t seed) {
  model::ScenarioParams params;
  params.topology.core_count = 4;
  params.topology.access_per_core = 1;
  params.vnf_count = 6;
  params.chain_count = 15;
  params.coverage = 0.5;
  params.total_chain_traffic = 200.0;
  params.site_capacity = 300.0;
  params.seed = seed;
  return params;
}

class TeSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TeSeedProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(TeSeedProperty, DpNeverOverloadsAnyResource) {
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  const DpResult dp = solve_dp_routing(m);
  const Loads loads = accumulate_loads(m, dp.routing);

  for (const net::Link& link : m.topology().links()) {
    const double budget = m.mlu_limit() * link.capacity -
                          m.background_traffic(link.id);
    EXPECT_LE(loads.link_load(link.id), std::max(0.0, budget) + 1e-6)
        << "link " << link.id.value();
  }
  for (const model::CloudSite& site : m.sites()) {
    EXPECT_LE(loads.site_load(site.id), site.compute_capacity + 1e-6);
  }
  for (const model::Vnf& vnf : m.vnfs()) {
    for (const model::VnfDeployment& dep : vnf.deployments) {
      EXPECT_LE(loads.vnf_site_load(vnf.id, dep.site), dep.capacity + 1e-6);
    }
  }
}

TEST_P(TeSeedProperty, DpStageFractionsAreConsistent) {
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  const DpResult dp = solve_dp_routing(m);
  for (const model::Chain& chain : m.chains()) {
    const double admitted = dp.routing.carried_fraction(chain.id, 1);
    EXPECT_LE(admitted, 1.0 + 1e-9);
    // Every stage carries the same fraction (whole-route admission).
    for (std::size_t z = 2; z <= chain.stage_count(); ++z) {
      EXPECT_NEAR(dp.routing.carried_fraction(chain.id, z), admitted, 1e-9);
    }
  }
}

TEST_P(TeSeedProperty, LpMaxThroughputDominatesDp) {
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  LpRoutingOptions options;
  options.objective = LpObjective::kMaxThroughput;
  const LpRoutingResult lp = solve_lp_routing(m, options);
  if (!lp.optimal()) GTEST_SKIP() << "LP did not solve";
  const DpResult dp = solve_dp_routing(m);
  const RoutingMetrics lp_metrics = evaluate(m, lp.routing);
  const RoutingMetrics dp_metrics = evaluate(m, dp.routing);
  // The LP optimum is an upper bound on any feasible scheme's throughput.
  EXPECT_GE(lp_metrics.feasible_throughput,
            dp_metrics.feasible_throughput - 1e-4);
}

TEST_P(TeSeedProperty, MinLatencyLpDominatesDpWhenBothRouteAll) {
  model::ScenarioParams params = scenario_for_seed(GetParam());
  params.total_chain_traffic = 50.0;   // light load: both should route all
  const model::NetworkModel m = model::make_scenario(params);
  const LpRoutingResult lp = solve_lp_routing(m, {});
  if (!lp.optimal()) GTEST_SKIP() << "LP infeasible";
  const DpResult dp = solve_dp_routing(m);
  if (dp.routed_volume < dp.demand_volume - 1e-6) {
    GTEST_SKIP() << "DP did not route everything";
  }
  const RoutingMetrics lp_metrics = evaluate(m, lp.routing);
  const RoutingMetrics dp_metrics = evaluate(m, dp.routing);
  EXPECT_LE(lp_metrics.mean_latency_ms, dp_metrics.mean_latency_ms + 1e-6);
  // The paper's headline: the DP heuristic lands close to the optimum.
  EXPECT_LE(dp_metrics.mean_latency_ms,
            2.0 * lp_metrics.mean_latency_ms + 1.0);
}

TEST_P(TeSeedProperty, AnycastCarriesAllDemand) {
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  const ChainRouting routing = solve_anycast(m);
  for (const model::Chain& chain : m.chains()) {
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      EXPECT_NEAR(routing.carried_fraction(chain.id, z), 1.0, 1e-9);
      // ANYCAST never splits: one flow per stage.
      EXPECT_EQ(routing.flows(chain.id, z).size(), 1u);
    }
  }
}

TEST_P(TeSeedProperty, SchemesAreDeterministic) {
  const model::ScenarioParams params = scenario_for_seed(GetParam());
  const model::NetworkModel m1 = model::make_scenario(params);
  const model::NetworkModel m2 = model::make_scenario(params);
  const DpResult a = solve_dp_routing(m1);
  const DpResult b = solve_dp_routing(m2);
  EXPECT_DOUBLE_EQ(a.routed_volume, b.routed_volume);
  EXPECT_EQ(a.fully_routed_chains, b.fully_routed_chains);
}

/// Bit-exact comparison of two routings over every chain and stage: the
/// cached DP promises the reference's solution, not just a close one.
void expect_identical_solution(const model::NetworkModel& m,
                               const ChainRouting& a, const ChainRouting& b) {
  for (const model::Chain& chain : m.chains()) {
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const auto& fa = a.flows(chain.id, z);
      const auto& fb = b.flows(chain.id, z);
      ASSERT_EQ(fa.size(), fb.size())
          << "chain " << chain.id.value() << " stage " << z;
      for (std::size_t i = 0; i < fa.size(); ++i) {
        ASSERT_EQ(fa[i].src, fb[i].src);
        ASSERT_EQ(fa[i].dst, fb[i].dst);
        ASSERT_EQ(fa[i].fraction, fb[i].fraction)
            << "chain " << chain.id.value() << " stage " << z << " flow " << i;
      }
    }
  }
}

TEST_P(TeSeedProperty, CachedSolveIsBitIdentical) {
  // solve_dp_routing runs through the edge-cost cache; the reference
  // recomputes every edge cost from the loads.
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  const DpResult reference = solve_dp_routing_reference(m);
  const DpResult cached = solve_dp_routing(m);
  EXPECT_EQ(reference.routed_volume, cached.routed_volume);
  EXPECT_EQ(reference.demand_volume, cached.demand_volume);
  EXPECT_EQ(reference.fully_routed_chains, cached.fully_routed_chains);
  EXPECT_EQ(reference.unrouted_chains, cached.unrouted_chains);
  expect_identical_solution(m, reference.routing, cached.routing);
}

/// The VNF sites the Global Switchboard commits for `route`, or nothing
/// when the route admits no traffic.
std::optional<std::vector<SiteId>> committed_sites(const SingleRoute& route) {
  if (!route.found || route.admissible_fraction <= 0.0) return std::nullopt;
  return std::vector<SiteId>(route.sites.begin() + 1, route.sites.end() - 1);
}

void expect_same_route(const SingleRoute& a, const SingleRoute& b,
                       ChainId chain) {
  ASSERT_EQ(a.found, b.found) << "chain " << chain;
  EXPECT_EQ(a.nodes, b.nodes) << "chain " << chain;
  EXPECT_EQ(a.sites, b.sites) << "chain " << chain;
  EXPECT_EQ(a.admissible_fraction, b.admissible_fraction) << "chain " << chain;
}

TEST_P(TeSeedProperty, TeEngineSolveMatchesSolver) {
  // Route chain by chain as create_chain does — the engine's cached query,
  // then the whole chain committed on it — while the reference routes on
  // loads of its own: every query matches, and so do the loads.
  const model::NetworkModel m =
      model::make_scenario(scenario_for_seed(GetParam()));
  TeEngine engine{m};
  Loads reference_loads{m};
  for (const model::Chain& chain : m.chains()) {
    const SingleRoute cached = engine.find_route(chain);
    const SingleRoute reference = find_single_route_reference(
        m, chain, reference_loads, engine.options());
    expect_same_route(cached, reference, chain.id);
    if (HasFatalFailure()) return;
    if (const auto sites = committed_sites(cached)) {
      engine.add_route_load(chain, *sites, 1.0);
      reference_loads.add_route(chain, *sites, 1.0);
    }
  }
  engine.loads().check_matches(reference_loads, 0.0);
}

TEST_P(TeSeedProperty, IncrementalAddChainMatchesFullSolve) {
  // A chain appended to the model after the engine was built and loaded
  // is routed exactly as the reference routes it on the same committed
  // routes.
  model::NetworkModel m = model::make_scenario(scenario_for_seed(GetParam()));
  TeEngine engine{m};
  Loads reference_loads{m};
  for (const model::Chain& chain : m.chains()) {
    if (const auto sites = committed_sites(engine.find_route(chain))) {
      engine.add_route_load(chain, *sites, 1.0);
      reference_loads.add_route(chain, *sites, 1.0);
    }
  }

  model::Chain extra;
  const model::Chain& proto = m.chains().front();
  extra.name = "extra";
  extra.ingress = proto.ingress;
  extra.egress = proto.egress;
  extra.vnfs = proto.vnfs;
  extra.forward_traffic = proto.forward_traffic;
  extra.reverse_traffic = proto.reverse_traffic;
  const model::Chain& added = m.chain(m.add_chain(std::move(extra)));
  const SingleRoute cached = engine.find_route(added);
  EXPECT_LE(cached.admissible_fraction, 1.0);
  expect_same_route(cached, find_single_route_reference(
                                m, added, reference_loads, engine.options()),
                    added.id);
}

TEST_P(TeSeedProperty, OnehopNeverBeatsHolisticByMuch) {
  // ONEHOP shares SB-DP's cost function but is greedy per hop; it may tie
  // but should not meaningfully beat the holistic DP.
  model::ScenarioParams params = scenario_for_seed(GetParam());
  params.total_chain_traffic = 400.0;
  const model::NetworkModel m = model::make_scenario(params);
  const double full =
      evaluate(m, solve_dp_routing(m).routing).feasible_throughput;
  DpOptions one_hop;
  one_hop.per_hop = true;
  const double greedy =
      evaluate(m, solve_dp_routing(m, one_hop).routing).feasible_throughput;
  EXPECT_GE(full, 0.9 * greedy);
}

// ------------------------------------------------------- MIP vs brute force

class MipSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MipSeedProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST_P(MipSeedProperty, KnapsackMatchesExhaustiveSearch) {
  Rng rng{GetParam()};
  const int n = 8;
  std::vector<double> value(n);
  std::vector<double> weight(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.uniform(1.0, 10.0);
    weight[i] = rng.uniform(1.0, 6.0);
  }
  const double budget = rng.uniform(6.0, 18.0);

  lp::Problem p{lp::Sense::kMaximize};
  std::vector<lp::VarIndex> vars;
  std::vector<lp::Term> budget_terms;
  for (int i = 0; i < n; ++i) {
    const lp::VarIndex v = p.add_variable(value[i]);
    p.add_constraint(lp::Relation::kLessEqual, 1.0, {{v, 1.0}});
    budget_terms.push_back({v, weight[i]});
    vars.push_back(v);
  }
  p.add_constraint(lp::Relation::kLessEqual, budget, std::move(budget_terms));
  const lp::MipSolution mip = lp::solve_mip(p, vars);
  ASSERT_TRUE(mip.optimal());

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double total_weight = 0.0;
    double total_value = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        total_weight += weight[i];
        total_value += value[i];
      }
    }
    if (total_weight <= budget) best = std::max(best, total_value);
  }
  EXPECT_NEAR(mip.objective, best, 1e-6);
}

}  // namespace
}  // namespace switchboard::te
