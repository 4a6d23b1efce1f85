// Unit tests for the TE engine layer (te/te_engine.hpp): Loads change
// epochs and growth, the epoch-validated edge-cost cache, and TeEngine
// driven the way the Global Switchboard drives it — route loads in and
// out, the cached single-route query, capacity changes — against the
// uncached reference DP (tests/reference/dp_reference.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model/network_model.hpp"
#include "model/scenario.hpp"
#include "net/topology_gen.hpp"
#include "reference/dp_reference.hpp"
#include "te/dp_routing.hpp"
#include "te/loads.hpp"
#include "te/te_engine.hpp"

namespace switchboard::te {
namespace {

using model::Chain;
using model::NetworkModel;

/// Line A(0) - M(1) - B(2), 5 ms per hop; one VNF deployed at two sites.
struct LineFixture {
  NetworkModel m{net::make_line_topology(3, 10.0, 5.0)};
  SiteId site_a;
  SiteId site_m;
  SiteId site_b;
  VnfId fw;
  ChainId chain;

  LineFixture() {
    site_a = m.add_site(NodeId{0}, 1000.0, "A");
    site_m = m.add_site(NodeId{1}, 1000.0, "M");
    site_b = m.add_site(NodeId{2}, 1000.0, "B");
    fw = m.add_vnf("fw", 1.0);
    m.deploy_vnf(fw, site_m, 100.0);
    m.deploy_vnf(fw, site_b, 100.0);
    Chain c;
    c.ingress = NodeId{0};
    c.egress = NodeId{2};
    c.vnfs = {fw};
    c.forward_traffic = {2.0, 2.0};
    c.reverse_traffic = {0.0, 0.0};
    chain = m.add_chain(std::move(c));
  }

  [[nodiscard]] LinkId link_between(NodeId src, NodeId dst) const {
    for (const net::Link& link : m.topology().links()) {
      if (link.src == src && link.dst == dst) return link.id;
    }
    return LinkId{};
  }
};

model::ScenarioParams small_scenario(std::uint64_t seed) {
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

// ------------------------------------------------------------ Loads epochs

TEST(LoadsEpochs, VersionAdvancesOnMutation) {
  LineFixture fx;
  Loads loads{fx.m};
  const std::uint64_t v0 = loads.version();
  EXPECT_GE(v0, 1u);   // version 0 must never exist (0 = empty stamp)
  loads.add_stage_flow(fx.m.chain(fx.chain), 1, NodeId{0}, NodeId{1}, 0.5);
  EXPECT_GT(loads.version(), v0);
  const std::uint64_t v1 = loads.version();
  loads.reset();
  EXPECT_GT(loads.version(), v1);
}

TEST(LoadsEpochs, OnlyTouchedResourcesAreStamped) {
  LineFixture fx;
  Loads loads{fx.m};
  const LinkId used = fx.link_between(NodeId{0}, NodeId{1});
  const LinkId untouched = fx.link_between(NodeId{1}, NodeId{2});
  ASSERT_TRUE(used.valid());
  ASSERT_TRUE(untouched.valid());

  const std::uint64_t before = loads.link_epoch(untouched);
  // Stage 1 A -> M: touches the 0->1 link and (fw, M), nothing else.
  loads.add_stage_flow(fx.m.chain(fx.chain), 1, NodeId{0}, NodeId{1}, 0.5);
  EXPECT_EQ(loads.link_epoch(used), loads.version());
  EXPECT_EQ(loads.link_epoch(untouched), before);
  EXPECT_EQ(loads.vnf_site_epoch(fx.fw, fx.site_m), loads.version());
  EXPECT_LT(loads.vnf_site_epoch(fx.fw, fx.site_b), loads.version());
}

TEST(LoadsEpochs, ResetStampsEverySlot) {
  LineFixture fx;
  Loads loads{fx.m};
  loads.add_stage_flow(fx.m.chain(fx.chain), 1, NodeId{0}, NodeId{1}, 0.5);
  loads.reset();
  for (const net::Link& link : fx.m.topology().links()) {
    EXPECT_EQ(loads.link_epoch(link.id), loads.version());
  }
  EXPECT_EQ(loads.vnf_site_epoch(fx.fw, fx.site_m), loads.version());
  EXPECT_EQ(loads.vnf_site_epoch(fx.fw, fx.site_b), loads.version());
}

TEST(LoadsGrowth, NewSitesAndVnfsGetZeroedSlotsAndOldValuesKeepTheirBits) {
  NetworkModel m{net::make_line_topology(4, 10.0, 5.0)};
  const SiteId a = m.add_site(NodeId{0}, 1000.0, "A");
  const SiteId b = m.add_site(NodeId{1}, 1000.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.5);
  m.deploy_vnf(fw, b, 100.0);
  Chain c;
  c.ingress = NodeId{0};
  c.egress = NodeId{0};
  c.vnfs = {fw};
  c.forward_traffic = {1.0 / 3.0, 1.0 / 7.0};
  c.reverse_traffic = {0.1, 0.2};
  const ChainId chain = m.add_chain(std::move(c));
  Loads loads{m};
  loads.add_route(m.chain(chain), {b}, 0.3);
  const double fw_at_b = loads.vnf_site_load(fw, b);
  const double site_b = loads.site_load(b);
  const double link = loads.link_load(LinkId{0});
  ASSERT_GT(fw_at_b, 0.0);
  ASSERT_GT(link, 0.0);

  // A late site widens the VNF-major (vnf, site) layout, so every old slot
  // moves; a late VNF appends a row.
  const SiteId late_site = m.add_site(NodeId{3}, 500.0, "late");
  const VnfId late_vnf = m.add_vnf("late", 1.0);
  m.deploy_vnf(late_vnf, late_site, 10.0);
  loads.grow_to_model();
  loads.check_invariants();
  EXPECT_EQ(loads.vnf_site_load(fw, b), fw_at_b);
  EXPECT_EQ(loads.site_load(b), site_b);
  EXPECT_EQ(loads.link_load(LinkId{0}), link);
  EXPECT_EQ(loads.vnf_site_load(fw, a), 0.0);
  EXPECT_EQ(loads.vnf_site_load(fw, late_site), 0.0);
  EXPECT_EQ(loads.vnf_site_load(late_vnf, b), 0.0);
  EXPECT_EQ(loads.site_load(late_site), 0.0);
  EXPECT_EQ(loads.vnf_site_epoch(late_vnf, late_site), loads.version());
}

// ---------------------------------------------------------- EdgeCostCache

/// Every (pair, vnf-site) combination the DP would query, compared against
/// the uncached reference.
void expect_cache_matches_reference(const NetworkModel& m, const Loads& loads,
                                    const DpOptions& options,
                                    EdgeCostCache& cache) {
  cache.bind(m, loads);
  const std::size_t n = m.topology().node_count();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const NodeId n1{static_cast<NodeId::underlying_type>(a)};
      const NodeId n2{static_cast<NodeId::underlying_type>(b)};
      for (const model::Vnf& vnf : m.vnfs()) {
        for (const model::VnfDeployment& dep : vnf.deployments) {
          const double expected = stage_edge_cost(m, loads, options, n1, n2,
                                                  vnf.id, dep.site);
          const double actual = cache.edge_cost(m, loads, options, n1, n2,
                                                vnf.id, dep.site);
          ASSERT_EQ(expected, actual)
              << a << "->" << b << " vnf " << vnf.id.value() << " site "
              << dep.site.value();
        }
      }
      const double expected =
          stage_edge_cost(m, loads, options, n1, n2, VnfId{}, SiteId{});
      ASSERT_EQ(expected, cache.edge_cost(m, loads, options, n1, n2, VnfId{},
                                          SiteId{}));
    }
  }
}

TEST(EdgeCostCache, MatchesReferenceAcrossLoadMutations) {
  const NetworkModel m = model::make_scenario(small_scenario(3));
  Loads loads{m};
  const DpOptions options;
  EdgeCostCache cache;

  expect_cache_matches_reference(m, loads, options, cache);
  // Mutate loads chain by chain; stale entries must re-validate via epochs.
  for (const model::Chain& chain : m.chains()) {
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const NodeId src = z == 1 ? chain.ingress : chain.egress;
      loads.add_stage_flow(chain, z, src, chain.egress, 0.25);
    }
    expect_cache_matches_reference(m, loads, options, cache);
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(EdgeCostCache, ResetInvalidatesThroughEpochs) {
  const NetworkModel m = model::make_scenario(small_scenario(5));
  Loads loads{m};
  const DpOptions options;
  EdgeCostCache cache;
  expect_cache_matches_reference(m, loads, options, cache);
  const model::Chain& chain = m.chains().front();
  loads.add_stage_flow(chain, 1, chain.ingress, chain.egress, 1.0);
  loads.reset();   // values cached before the reset are all stale now
  expect_cache_matches_reference(m, loads, options, cache);
}

TEST(EdgeCostCache, InvalidatePicksUpModelMutation) {
  // Background traffic lives in the model, invisible to Loads epochs: the
  // caller must invalidate, after which values match the reference again.
  NetworkModel m = model::make_scenario(small_scenario(8));
  Loads loads{m};
  const DpOptions options;
  EdgeCostCache cache;
  expect_cache_matches_reference(m, loads, options, cache);

  m.set_background_traffic(LinkId{0}, m.background_traffic(LinkId{0}) + 50.0);
  cache.invalidate();
  expect_cache_matches_reference(m, loads, options, cache);
}

// --------------------------------------------------------------- TeEngine

/// One committed route, kept to retire or re-add it later.
struct HeldRoute {
  ChainId chain;
  std::vector<SiteId> vnf_sites;
  double weight{0.0};
};

/// The VNF sites of a found route (route.sites holds the ingress and
/// egress endpoints too).
std::vector<SiteId> vnf_sites_of(const SingleRoute& route) {
  return {route.sites.begin() + 1, route.sites.end() - 1};
}

/// Routes every chain in id order as create_chain does — find_route, then
/// add_route_load — at the route's admissible fraction, so the loads never
/// exceed a capacity.  Chains with no admissible route hold nothing.
std::vector<HeldRoute> commit_every_chain(const NetworkModel& m,
                                          TeEngine& engine) {
  std::vector<HeldRoute> held;
  for (const model::Chain& chain : m.chains()) {
    const SingleRoute route = engine.find_route(chain);
    if (!route.found || route.admissible_fraction <= 0.0) continue;
    held.push_back({chain.id, vnf_sites_of(route), route.admissible_fraction});
    engine.add_route_load(chain, held.back().vnf_sites, held.back().weight);
  }
  return held;
}

/// The loads of `held`, accumulated from scratch.
Loads rebuild(const NetworkModel& m, const std::vector<HeldRoute>& held) {
  Loads loads{m};
  for (const HeldRoute& route : held) {
    loads.add_route(m.chain(route.chain), route.vnf_sites, route.weight);
  }
  return loads;
}

/// engine.find_route (cached) against the uncached reference on the same
/// loads: same nodes, sites and admissible fraction, bit for bit.
void expect_route_parity(const NetworkModel& m, TeEngine& engine,
                         const model::Chain& chain,
                         const std::function<bool(VnfId, SiteId)>& allowed) {
  DpOptions options = engine.options();
  options.site_allowed = allowed;
  const SingleRoute reference =
      find_single_route_reference(m, chain, engine.loads(), options);
  const SingleRoute cached = engine.find_route(chain, allowed);
  ASSERT_EQ(cached.found, reference.found) << "chain " << chain.id;
  EXPECT_EQ(cached.nodes, reference.nodes) << "chain " << chain.id;
  EXPECT_EQ(cached.sites, reference.sites) << "chain " << chain.id;
  EXPECT_EQ(cached.admissible_fraction, reference.admissible_fraction)
      << "chain " << chain.id;
}

TEST(TeEngine, RemoveChainRestoresLoads) {
  // A route's load delta in and back out leaves the loads equal to the
  // rebuild of the routes held at each point.
  const NetworkModel m = model::make_scenario(small_scenario(13));
  TeEngine engine{m};
  std::vector<HeldRoute> held = commit_every_chain(m, engine);
  ASSERT_FALSE(held.empty());
  engine.loads().check_matches(rebuild(m, held));

  const HeldRoute victim = held.front();
  const model::Chain& chain = m.chain(victim.chain);
  engine.add_route_load(chain, victim.vnf_sites, -victim.weight);
  held.erase(held.begin());
  engine.loads().check_invariants();
  engine.loads().check_matches(rebuild(m, held));

  engine.add_route_load(chain, victim.vnf_sites, victim.weight);
  held.insert(held.begin(), victim);
  engine.loads().check_invariants();
  engine.loads().check_matches(rebuild(m, held));
}

TEST(TeEngine, RerouteChainKeepsSolutionFeasible) {
  // Retire each chain's route and re-add the route find_route picks on the
  // residual loads, at its admissible fraction: no capacity is exceeded.
  const NetworkModel m = model::make_scenario(small_scenario(21));
  TeEngine engine{m};
  std::vector<HeldRoute> held = commit_every_chain(m, engine);
  ASSERT_FALSE(held.empty());
  for (HeldRoute& route : held) {
    const model::Chain& chain = m.chain(route.chain);
    engine.add_route_load(chain, route.vnf_sites, -route.weight);
    const SingleRoute fresh = engine.find_route(chain);
    ASSERT_TRUE(fresh.found) << "chain " << route.chain;
    route.vnf_sites = vnf_sites_of(fresh);
    route.weight = fresh.admissible_fraction;
    engine.add_route_load(chain, route.vnf_sites, route.weight);
  }
  engine.loads().check_invariants();
  engine.loads().check_matches(rebuild(m, held));
  engine.loads().check_no_capacity_violation(1e-6);
}

/// After a capacity change and invalidate_cost_cache() — the controller's
/// pool-down path — every chain's find_route equals the reference query,
/// and no route admits more than the changed resource's new headroom.
/// `unit_demand` is a route's load on that resource at weight 1,
/// `headroom` the resource's headroom under the engine's loads.
template <typename DemandFn, typename HeadroomFn>
void expect_routes_within_new_headroom(const NetworkModel& m,
                                       TeEngine& engine,
                                       DemandFn&& unit_demand,
                                       HeadroomFn&& headroom) {
  engine.invalidate_cost_cache();
  for (const model::Chain& chain : m.chains()) {
    expect_route_parity(m, engine, chain, {});
    if (::testing::Test::HasFatalFailure()) return;
    const SingleRoute route = engine.find_route(chain);
    if (!route.found) continue;
    Loads unit{m};
    unit.add_route(chain, vnf_sites_of(route), 1.0);
    EXPECT_LE(route.admissible_fraction * unit_demand(unit),
              std::max(0.0, headroom(engine.loads())) + 1e-9)
        << "chain " << chain.id;
  }
}

TEST(TeEngine, LinkCapacityChangeReroutesAffectedChains) {
  NetworkModel m = model::make_scenario(small_scenario(2));
  TeEngine engine{m};
  commit_every_chain(m, engine);

  // Soak up most of the busiest link's capacity with background traffic.
  LinkId busiest{};
  double busiest_load = -1.0;
  for (const net::Link& link : m.topology().links()) {
    if (engine.loads().link_load(link.id) > busiest_load) {
      busiest_load = engine.loads().link_load(link.id);
      busiest = link.id;
    }
  }
  ASSERT_TRUE(busiest.valid());
  ASSERT_GT(busiest_load, 0.0);
  const net::Link& link = m.topology().link(busiest);
  m.set_background_traffic(busiest,
                           m.background_traffic(busiest) + 0.9 * link.capacity);
  expect_routes_within_new_headroom(
      m, engine,
      [busiest](const Loads& unit) { return unit.link_load(busiest); },
      [busiest](const Loads& loads) { return loads.link_headroom(busiest); });
}

TEST(TeEngine, VnfCapacityChangeReroutesAffectedChains) {
  NetworkModel m = model::make_scenario(small_scenario(34));
  TeEngine engine{m};
  commit_every_chain(m, engine);

  // Find a (vnf, site) pair that actually carries load, then halve it.
  VnfId vnf{};
  SiteId site{};
  for (const model::Vnf& v : m.vnfs()) {
    for (const model::VnfDeployment& dep : v.deployments) {
      if (engine.loads().vnf_site_load(v.id, dep.site) > 0.0) {
        vnf = v.id;
        site = dep.site;
        break;
      }
    }
    if (vnf.valid()) break;
  }
  ASSERT_TRUE(vnf.valid());
  m.set_vnf_site_capacity(vnf, site, 0.5 * m.vnf(vnf).capacity_at(site));
  expect_routes_within_new_headroom(
      m, engine,
      [vnf, site](const Loads& unit) { return unit.vnf_site_load(vnf, site); },
      [vnf, site](const Loads& loads) {
        return loads.vnf_site_headroom(vnf, site);
      });
}

TEST(TeEngine, SecondSolveMatchesFirst) {
  // The whole-model solve is a pure function of the model...
  const NetworkModel m = model::make_scenario(small_scenario(42));
  const DpResult first = solve_dp_routing(m);
  const DpResult second = solve_dp_routing(m);
  EXPECT_EQ(first.routed_volume, second.routed_volume);
  EXPECT_EQ(first.fully_routed_chains, second.fully_routed_chains);
  for (const model::Chain& chain : m.chains()) {
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const auto& a = first.routing.flows(chain.id, z);
      const auto& b = second.routing.flows(chain.id, z);
      ASSERT_EQ(a.size(), b.size()) << "chain " << chain.id << " stage " << z;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].src, b[i].src);
        EXPECT_EQ(a[i].dst, b[i].dst);
        EXPECT_EQ(a[i].fraction, b[i].fraction);
      }
    }
  }

  // ...and a warm engine cache answers every query like a fresh one.
  TeEngine engine{m};
  commit_every_chain(m, engine);
  for (const model::Chain& chain : m.chains()) {
    const SingleRoute warm = engine.find_route(chain);
    const SingleRoute cold =
        find_single_route(m, chain, engine.loads(), engine.options());
    ASSERT_EQ(warm.found, cold.found) << "chain " << chain.id;
    EXPECT_EQ(warm.nodes, cold.nodes) << "chain " << chain.id;
    EXPECT_EQ(warm.sites, cold.sites) << "chain " << chain.id;
    EXPECT_EQ(warm.admissible_fraction, cold.admissible_fraction)
        << "chain " << chain.id;
  }
  EXPECT_GT(engine.cost_cache().hits(), 0u);
}

TEST(TeEngine, AddChainOnAVnfAddedAfterConstruction) {
  // Built over 1 VNF x 3 sites; eight VNFs arrive afterwards, and a chain
  // uses the last of them.  Its load slot lies past the loads the engine
  // was built with.
  LineFixture fx;
  TeEngine engine{fx.m};
  VnfId late;
  for (int i = 0; i < 8; ++i) {
    late = fx.m.add_vnf("late" + std::to_string(i), 1.0);
    fx.m.deploy_vnf(late, fx.site_b, 100.0);
  }
  Chain c;
  c.ingress = NodeId{0};
  c.egress = NodeId{2};
  c.vnfs = {late};
  c.forward_traffic = {2.0, 2.0};
  c.reverse_traffic = {0.0, 0.0};
  const ChainId chain = fx.m.add_chain(std::move(c));

  const SingleRoute route = engine.find_route(fx.m.chain(chain));
  ASSERT_TRUE(route.found);
  EXPECT_EQ(route.admissible_fraction, 1.0);
  engine.add_route_load(fx.m.chain(chain), vnf_sites_of(route), 1.0);
  engine.loads().check_invariants();
  EXPECT_GT(engine.loads().vnf_site_load(late, fx.site_b), 0.0);
}

class TeEngineRouteParity : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TeEngineRouteParity,
                         ::testing::Values(1, 7, 19, 42));

TEST_P(TeEngineRouteParity, CachedFindRouteMatchesUncachedReference) {
  // Drives the engine the way the Global Switchboard does — route loads in
  // and out, 2PC-style exclusions, capacity changes followed by
  // invalidate_cost_cache() — and after every step compares the cached
  // query with the uncached reference for every chain.
  NetworkModel m = model::make_scenario(small_scenario(GetParam()));
  TeEngine engine{m};
  std::mt19937_64 rng{GetParam()};
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  std::vector<HeldRoute> held;

  for (int step = 0; step < 60; ++step) {
    std::function<bool(VnfId, SiteId)> allowed;
    switch (pick(4)) {
      case 0: {   // commit part of a chain on its current best route
        const model::Chain& chain = m.chains()[pick(m.chains().size())];
        const SingleRoute route = engine.find_route(chain);
        if (!route.found || route.admissible_fraction <= 0.0) break;
        const double weight =
            route.admissible_fraction *
            std::uniform_real_distribution<double>{0.2, 1.0}(rng);
        HeldRoute kept{chain.id, vnf_sites_of(route), weight};
        engine.add_route_load(chain, kept.vnf_sites, weight);
        held.push_back(std::move(kept));
        break;
      }
      case 1: {   // retire one
        if (held.empty()) break;
        const std::size_t i = pick(held.size());
        engine.add_route_load(m.chain(held[i].chain), held[i].vnf_sites,
                              -held[i].weight);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 2: {   // exclude a few placements, as a 2PC retry does
        std::set<std::pair<std::uint32_t, std::uint32_t>> excluded;
        for (int k = 0; k < 3; ++k) {
          const model::Vnf& vnf = m.vnfs()[pick(m.vnfs().size())];
          if (vnf.deployments.empty()) continue;
          const SiteId site = vnf.deployments[pick(vnf.deployments.size())].site;
          excluded.insert({vnf.id.value(), site.value()});
        }
        allowed = [excluded](VnfId vnf, SiteId site) {
          return excluded.count({vnf.value(), site.value()}) == 0;
        };
        break;
      }
      default: {   // change a capacity in the model, then invalidate
        if (pick(2) == 0) {
          const model::Vnf& vnf = m.vnfs()[pick(m.vnfs().size())];
          if (vnf.deployments.empty()) break;
          const model::VnfDeployment& dep =
              vnf.deployments[pick(vnf.deployments.size())];
          m.set_vnf_site_capacity(vnf.id, dep.site, 0.5 * dep.capacity + 1.0);
        } else {
          const LinkId link{static_cast<LinkId::underlying_type>(
              pick(m.topology().link_count()))};
          m.set_background_traffic(
              link, m.background_traffic(link) +
                        0.2 * m.topology().link(link).capacity);
        }
        engine.invalidate_cost_cache();
        break;
      }
    }
    for (const model::Chain& chain : m.chains()) {
      expect_route_parity(m, engine, chain, allowed);
    }
    if (HasFatalFailure()) return;
  }

  // The loads are exactly the held routes' deltas (within round-off).
  engine.loads().check_matches(rebuild(m, held));
  EXPECT_GT(engine.cost_cache().hits(), 0u);
}

}  // namespace
}  // namespace switchboard::te
