#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "control/messages.hpp"
#include "core/middleware.hpp"
#include "model/network_model.hpp"
#include "net/topology_gen.hpp"

namespace switchboard::control {
namespace {

using core::Deployment;
using core::Middleware;

// ---------------------------------------------------------------- Messages

TEST(Messages, InstanceRoundTrip) {
  InstanceAnnouncement m;
  m.instance = 42;
  m.forwarder = 7;
  m.weight = 2.5;
  const auto parsed = parse_instance(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->instance, 42u);
  EXPECT_EQ(parsed->forwarder, 7u);
  EXPECT_DOUBLE_EQ(parsed->weight, 2.5);
}

TEST(Messages, ForwarderRoundTrip) {
  ForwarderAnnouncement m;
  m.forwarder = 9;
  m.weight = 0.75;
  const auto parsed = parse_forwarder(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->forwarder, 9u);
  EXPECT_DOUBLE_EQ(parsed->weight, 0.75);
}

TEST(Messages, RouteRoundTrip) {
  RouteAnnouncement m;
  m.chain = ChainId{3};
  m.route = RouteId{11};
  m.chain_label = 1003;
  m.egress_label = 2;
  m.ingress_site = SiteId{0};
  m.egress_site = SiteId{2};
  m.weight = 0.5;
  m.hops = {RouteHop{1, VnfId{4}, SiteId{1}}, RouteHop{2, VnfId{6}, SiteId{2}}};
  const auto parsed = parse_route(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->chain, ChainId{3});
  EXPECT_EQ(parsed->route, RouteId{11});
  EXPECT_EQ(parsed->chain_label, 1003u);
  EXPECT_EQ(parsed->egress_label, 2u);
  ASSERT_EQ(parsed->hops.size(), 2u);
  EXPECT_EQ(parsed->hops[0].vnf, VnfId{4});
  EXPECT_EQ(parsed->hops[1].site, SiteId{2});
  EXPECT_DOUBLE_EQ(parsed->weight, 0.5);
}

TEST(Messages, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_instance("not a message").has_value());
  EXPECT_FALSE(parse_route("type=route;chain=x").has_value());
  EXPECT_FALSE(parse_forwarder("").has_value());
}

// --------------------------------------------------------- Deployment setup

/// Line topology A(0) - M(1) - B(2); sites at all three nodes; one
/// firewall VNF deployed at M and B.
struct Fixture {
  model::NetworkModel make_model(double cap_m = 100.0, double cap_b = 100.0) {
    model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
    site_a = m.add_site(NodeId{0}, 1000.0, "A");
    site_m = m.add_site(NodeId{1}, 1000.0, "M");
    site_b = m.add_site(NodeId{2}, 1000.0, "B");
    fw = m.add_vnf("firewall", 1.0);
    m.deploy_vnf(fw, site_m, cap_m);
    m.deploy_vnf(fw, site_b, cap_b);
    return m;
  }

  ChainSpec make_spec(EdgeServiceId edge, double traffic = 1.0) const {
    ChainSpec spec;
    spec.name = "test-chain";
    spec.ingress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_service = edge;
    spec.egress_node = NodeId{2};
    spec.vnfs = {fw};
    spec.forward_traffic = traffic;
    spec.reverse_traffic = traffic * 0.25;
    return spec;
  }

  SiteId site_a, site_m, site_b;
  VnfId fw;
};

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A000000u + i, 0xC0A80001u,
                              static_cast<std::uint16_t>(5000 + i), 80, 6};
}

// ---------------------------------------------------------- Chain creation

TEST(ChainCreation, CompletesAndReportsEvents) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto& report = result.value();
  EXPECT_GT(report.completed, report.started);
  // Events appear in causal order.
  std::vector<std::string> names;
  for (const auto& event : report.events) names.push_back(event.name);
  const auto find = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(find("spec_received"), find("sites_resolved"));
  EXPECT_LT(find("sites_resolved"), find("route_computed"));
  EXPECT_LT(find("route_computed"), find("prepared"));
  EXPECT_LT(find("prepared"), find("committed"));
  EXPECT_LT(find("committed"), find("routes_published"));
  EXPECT_GE(find("activated"), 0);
  // The whole workflow stays within a second of simulated time (the
  // paper's route update takes 595 ms on a real testbed).
  EXPECT_LT(report.elapsed(), sim::seconds(1));
}

TEST(ChainCreation, RouteUsesDeployedSites) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok());
  const ChainRecord& record = mw.chain_record(result->chain);
  ASSERT_EQ(record.routes.size(), 1u);
  ASSERT_EQ(record.routes[0].vnf_sites.size(), 1u);
  const SiteId chosen = record.routes[0].vnf_sites[0];
  EXPECT_TRUE(chosen == fx.site_m || chosen == fx.site_b);
  EXPECT_EQ(record.ingress_site, fx.site_a);
  EXPECT_EQ(record.egress_site, fx.site_b);
}

TEST(ChainCreation, FailsWithoutEdgeService) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  ChainSpec spec = fx.make_spec(EdgeServiceId{99});
  const auto result = mw.create_chain(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST(ChainCreation, InfeasibleWhenNoCapacity) {
  Fixture fx;
  Middleware mw{fx.make_model(/*cap_m=*/0.1, /*cap_b=*/0.1)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge, /*traffic=*/10.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInfeasible);
}

// ----------------------------------------------------------- Data plane E2E

TEST(DataPlaneE2E, ForwardDeliveryThroughVnf) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok());

  const auto walk = mw.send(result->chain, tuple(1));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  // Conformity: exactly one VNF instance on the path.
  EXPECT_EQ(walk.vnf_instances().size(), 1u);
  EXPECT_GT(walk.latency_ms, 0.0);
  EXPECT_LE(walk.latency_ms, 25.0);   // 2 hops x 5ms + detour margin
}

TEST(DataPlaneE2E, FlowAffinityAcrossPackets) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok());

  const auto first = mw.send(result->chain, tuple(1));
  ASSERT_TRUE(first.delivered);
  for (int i = 0; i < 10; ++i) {
    const auto again = mw.send(result->chain, tuple(1));
    ASSERT_TRUE(again.delivered);
    EXPECT_EQ(again.vnf_instances(), first.vnf_instances());
  }
}

TEST(DataPlaneE2E, SymmetricReturn) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok());

  const auto forward = mw.send(result->chain, tuple(2));
  ASSERT_TRUE(forward.delivered) << forward.failure;
  const auto reverse = mw.send(result->chain, tuple(2),
                               dataplane::Direction::kReverse);
  ASSERT_TRUE(reverse.delivered) << reverse.failure;
  // Same VNF instances, reverse order.
  auto expected = forward.vnf_instances();
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(reverse.vnf_instances(), expected);
}

TEST(DataPlaneE2E, ReverseBeforeForwardFails) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(result.ok());
  // No forward packet has established flow state: reverse traffic for an
  // unknown flow is dropped.
  const auto reverse = mw.send(result->chain, tuple(3),
                               dataplane::Direction::kReverse);
  EXPECT_FALSE(reverse.delivered);
}

TEST(DataPlaneE2E, MultiVnfChainTraversesInOrder) {
  model::NetworkModel m{net::make_line_topology(4, 50.0, 5.0)};
  const SiteId s0 = m.add_site(NodeId{0}, 1000.0);
  const SiteId s1 = m.add_site(NodeId{1}, 1000.0);
  const SiteId s2 = m.add_site(NodeId{2}, 1000.0);
  m.add_site(NodeId{3}, 1000.0);
  (void)s0;
  const VnfId fw = m.add_vnf("firewall", 1.0);
  const VnfId nat = m.add_vnf("nat", 1.0);
  m.deploy_vnf(fw, s1, 100.0);
  m.deploy_vnf(nat, s2, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.name = "fw-nat";
  spec.ingress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_service = edge;
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw, nat};
  const auto result = mw.create_chain(spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  const auto walk = mw.send(result->chain, tuple(1));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  const auto instances = walk.vnf_instances();
  ASSERT_EQ(instances.size(), 2u);
  // Conformity: firewall before NAT.
  auto& elements = mw.deployment().elements();
  EXPECT_EQ(elements.info(instances[0]).vnf, fw);
  EXPECT_EQ(elements.info(instances[1]).vnf, nat);
  EXPECT_EQ(elements.info(instances[0]).site, s1);
  EXPECT_EQ(elements.info(instances[1]).site, s2);
}

// --------------------------------------------------------------- Add route

TEST(AddRoute, SecondRouteSpreadsNewFlows) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  const ChainId chain = created->chain;
  const SiteId first_site = mw.chain_record(chain).routes[0].vnf_sites[0];

  // Force the second route through the other site (the Fig. 10 scenario).
  const SiteId other = first_site == fx.site_m ? fx.site_b : fx.site_m;
  const auto added = mw.add_route(chain, {other});
  ASSERT_TRUE(added.ok()) << added.error().to_string();
  EXPECT_LT(added->elapsed(), sim::seconds(1));

  const ChainRecord& record = mw.chain_record(chain);
  ASSERT_EQ(record.routes.size(), 2u);
  EXPECT_DOUBLE_EQ(record.routes[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(record.routes[1].weight, 0.5);

  // New flows spread across both sites.
  std::set<SiteId> used;
  auto& elements = mw.deployment().elements();
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto walk = mw.send(chain, tuple(100 + f));
    ASSERT_TRUE(walk.delivered) << walk.failure;
    for (const auto instance : walk.vnf_instances()) {
      used.insert(elements.info(instance).site);
    }
  }
  EXPECT_EQ(used.size(), 2u) << "both routes should carry new flows";
}

TEST(AddRoute, ExistingFlowKeepsItsPath) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  const ChainId chain = created->chain;

  const auto before = mw.send(chain, tuple(7));
  ASSERT_TRUE(before.delivered);

  const SiteId first_site = mw.chain_record(chain).routes[0].vnf_sites[0];
  const SiteId other = first_site == fx.site_m ? fx.site_b : fx.site_m;
  ASSERT_TRUE(mw.add_route(chain, {other}).ok());

  // Make-before-break: the pinned flow still takes the original path.
  const auto after = mw.send(chain, tuple(7));
  ASSERT_TRUE(after.delivered);
  EXPECT_EQ(after.vnf_instances(), before.vnf_instances());
}

TEST(AddRoute, RoutesThroughOneNextHopShareOneCandidate) {
  // A second route through the first route's site reaches the same
  // next-hop forwarders: each rule names such a forwarder once, weighted
  // by the sum of route.weight x its announced weight over the routes.
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  const ChainId chain = created->chain;
  const dataplane::Labels labels = mw.chain_record(chain).labels;
  auto& elements = mw.deployment().elements();

  // With one route at weight 1, each next-hop candidate's weight is the
  // forwarder's announced weight.
  std::map<dataplane::ElementId, std::pair<dataplane::ElementId, double>>
      announced;   // forwarder -> (its one next hop, announced weight)
  for (std::size_t id = 0; id < elements.size(); ++id) {
    const auto fw = static_cast<dataplane::ElementId>(id);
    if (elements.info(fw).type != ElementType::kForwarder) continue;
    const auto* rule = elements.forwarder(fw).rules().find(labels);
    if (rule == nullptr || rule->next_forwarders.empty()) continue;
    ASSERT_EQ(rule->next_forwarders.size(), 1u);
    const dataplane::ElementId next =
        rule->next_forwarders.elements()[0].element;
    announced[fw] = {next, rule->next_forwarders.weight_of(next)};
  }
  ASSERT_EQ(announced.size(), 2u);   // the ingress edge's and the VNF's

  const SiteId first_site = mw.chain_record(chain).routes[0].vnf_sites[0];
  ASSERT_TRUE(mw.add_route(chain, {first_site}).ok());
  const ChainRecord& record = mw.chain_record(chain);
  ASSERT_EQ(record.routes.size(), 2u);
  ASSERT_EQ(record.routes[1].vnf_sites[0], first_site);

  for (const auto& [fw, before] : announced) {
    const auto* rule = elements.forwarder(fw).rules().find(labels);
    ASSERT_NE(rule, nullptr);
    ASSERT_EQ(rule->next_forwarders.size(), 1u) << "forwarder " << fw;
    EXPECT_EQ(rule->next_forwarders.elements()[0].element, before.first);
    EXPECT_DOUBLE_EQ(rule->next_forwarders.weight_of(before.first),
                     record.routes[0].weight * before.second +
                         record.routes[1].weight * before.second);
  }
}

TEST(AddRoute, FailsWhenEveryRouteCrossesAFullLink) {
  // Every route from A to B leaves A over the A->M link.  With that link
  // at its MLU budget, SB-DP still finds a route, but it admits none of
  // the chain: add_route must refuse it like create_chain does.
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok()) << created.error().to_string();

  model::NetworkModel& m = mw.deployment().network_model();
  for (const net::Link& link : m.topology().links()) {
    if (link.src == NodeId{0} && link.dst == NodeId{1}) {
      m.set_background_traffic(link.id, m.mlu_limit() * link.capacity);
    }
  }
  const auto added = mw.add_route(created->chain, {});
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.error().code, ErrorCode::kInfeasible);
  EXPECT_EQ(mw.chain_record(created->chain).routes.size(), 1u);
}

TEST(AddRoute, RetryPreparesTheNewRoutesShare) {
  // add_route prepares the new route at its 1/(N+1) share of the chain.
  // After the pinned site votes abort, the retry must prepare at that same
  // share: B can hold half of the chain but not all of it.
  Fixture fx;
  Middleware mw{fx.make_model(100.0, /*cap_b=*/2.0)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  const ChainId chain = created->chain;
  ASSERT_EQ(mw.chain_record(chain).routes[0].vnf_sites[0], fx.site_m);
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  ASSERT_DOUBLE_EQ(controller.allocated(fx.site_m), 2.5);   // stage load

  // Out-of-band reservation leaves M 0.5 of headroom: less than the new
  // route's 1.25.
  ASSERT_TRUE(controller.prepare(
      ChainId{900}, RouteId{900}, fx.site_m,
      controller.headroom(fx.site_m) - 0.5, /*stage=*/0,
      mw.deployment().global().epoch()));
  const auto added = mw.add_route(chain, {fx.site_m});
  ASSERT_TRUE(added.ok()) << added.error().to_string();
  const ChainRecord& record = mw.chain_record(chain);
  ASSERT_EQ(record.routes.size(), 2u);
  EXPECT_EQ(record.routes[1].vnf_sites[0], fx.site_b);
  EXPECT_DOUBLE_EQ(controller.headroom(fx.site_b), 0.75);
  std::vector<std::string> names;
  for (const auto& event : added->events) names.push_back(event.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "route_rejected"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "route_recomputed"),
            names.end());
}

TEST(AddRoute, UnknownChainFails) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  mw.register_edge_service("vpn");
  const auto result = mw.add_route(ChainId{42}, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

// ------------------------------------------------------------- 2PC conflict

TEST(TwoPhaseCommit, RejectionTriggersRecompute) {
  // The VNF controller at M holds capacity that Global Switchboard's model
  // view does not know about; 2PC must reject and the retry must land on B.
  Fixture fx;
  Middleware mw{fx.make_model(/*cap_m=*/3.0, /*cap_b=*/100.0)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");

  // Out-of-band reservation eats M's capacity at the controller.
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  ASSERT_TRUE(controller.prepare(ChainId{900}, RouteId{900}, fx.site_m, 2.9,
                                 /*stage=*/0,
                                 mw.deployment().global().epoch()));

  const auto result = mw.create_chain(fx.make_spec(edge, /*traffic=*/1.0));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ChainRecord& record = mw.chain_record(result->chain);
  ASSERT_EQ(record.routes.size(), 1u);
  EXPECT_EQ(record.routes[0].vnf_sites[0], fx.site_b);

  // The report shows the rejected attempt.
  bool saw_rejection = false;
  for (const auto& event : result->events) {
    if (event.name == "route_rejected") saw_rejection = true;
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(TwoPhaseCommit, AbortReleasesReservations) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  const std::uint64_t epoch = mw.deployment().global().epoch();
  ASSERT_TRUE(
      controller.prepare(ChainId{1}, RouteId{1}, fx.site_m, 50.0, 0, epoch));
  EXPECT_DOUBLE_EQ(controller.allocated(fx.site_m), 50.0);
  controller.abort(ChainId{1}, RouteId{1}, epoch);
  EXPECT_DOUBLE_EQ(controller.allocated(fx.site_m), 0.0);
}

TEST(TwoPhaseCommit, PrepareEnforcesCapacity) {
  Fixture fx;
  Middleware mw{fx.make_model(/*cap_m=*/10.0)};
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  const std::uint64_t epoch = mw.deployment().global().epoch();
  EXPECT_TRUE(
      controller.prepare(ChainId{1}, RouteId{1}, fx.site_m, 6.0, 0, epoch));
  EXPECT_FALSE(
      controller.prepare(ChainId{2}, RouteId{2}, fx.site_m, 6.0, 0, epoch));
  EXPECT_TRUE(
      controller.prepare(ChainId{2}, RouteId{3}, fx.site_m, 4.0, 0, epoch));
  EXPECT_DOUBLE_EQ(controller.headroom(fx.site_m), 0.0);
}

// ------------------------------------------------- 2PC timeout envelope

/// The line fixture's chain with forward traffic only, and its firewall
/// controller registered as the fault target "controller:vnf<f>".
struct TimeoutFixture : Fixture {
  TimeoutFixture() : mw{make_model()} {
    mw.deployment().register_fault_targets();
    edge = mw.register_edge_service("vpn");
    spec = make_spec(edge);
    spec.reverse_traffic = 0.0;
    target = "controller:vnf" + std::to_string(fw.value());
  }

  [[nodiscard]] Deployment& dep() { return mw.deployment(); }
  [[nodiscard]] VnfController& controller() {
    return mw.deployment().vnf_controller(fw);
  }

  Middleware mw;
  EdgeServiceId edge;
  ChainSpec spec;
  std::string target;
};

TEST(TwoPhaseTimeout, UnreachableParticipantFailsPrepareAfterThreeRetries) {
  TimeoutFixture fx;
  fx.dep().fault_injector().crash(fx.target);

  const auto result = fx.mw.create_chain(fx.spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(result.error().message,
            "2PC prepare: participant unreachable after retries");
  // Site resolution (35 ms), route compute (20 ms), the prepare RPC (35 ms),
  // then three timeouts of 200 ms plus a 50 ms backoff that doubles.
  EXPECT_EQ(fx.dep().simulator().now(),
            sim::from_ms(35.0 + 20.0 + 35.0 + 250.0 + 300.0 + 400.0));
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_m), 0.0);
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_b), 0.0);
  EXPECT_TRUE(fx.dep().global().state().inflight.empty());
  fx.controller().check_invariants();
  fx.dep().global().check_invariants();
}

TEST(TwoPhaseTimeout, ParticipantRestoredBetweenCommitRetriesActivatesChain) {
  // Prepared at 90 ms, the commit round opens at 110 ms and retries at
  // 360 ms and 660 ms; the controller is back in between.
  TimeoutFixture fx;
  fx.dep().fault_injector().crash_at(sim::from_ms(100.0), fx.target);
  fx.dep().fault_injector().restore_at(sim::from_ms(500.0), fx.target);

  const auto result = fx.mw.create_chain(fx.spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  bool commit_timed_out = false;
  for (const auto& event : result->events) {
    if (event.name == "commit_timeout") commit_timed_out = true;
  }
  EXPECT_TRUE(commit_timed_out);
  const ChainRecord& record = fx.mw.chain_record(result->chain);
  EXPECT_TRUE(record.active);
  ASSERT_EQ(record.routes.size(), 1u);
  EXPECT_EQ(fx.controller().two_phase_state(result->chain, result->route),
            TwoPhaseState::kCommitted);
  fx.controller().check_invariants();
  fx.dep().global().check_invariants();
}

TEST(TwoPhaseTimeout, RestoredParticipantAbortsTheRoundTheCoordinatorGaveUpOn) {
  TimeoutFixture fx;
  fx.dep().fault_injector().crash_at(sim::from_ms(100.0), fx.target);
  fx.dep().fault_injector().restore_at(sim::from_ms(3000.0), fx.target);

  const auto result = fx.mw.create_chain(fx.spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message,
            "2PC commit: participant unreachable after retries");
  EXPECT_EQ(fx.dep().simulator().now(), sim::from_ms(1060.0));
  const ChainId chain = fx.dep().global().state().chains.front().id;
  const RouteId route{fx.dep().global().state().next_route_id - 1};

  // While it is down the participant still holds the round it prepared.
  fx.dep().simulator().run_until(sim::from_ms(2000.0));
  EXPECT_GT(fx.controller().allocated(fx.site_m), 0.0);
  EXPECT_EQ(fx.controller().two_phase_state(chain, route),
            TwoPhaseState::kPrepared);

  // Back, it is reconciled against the journal, which aborted the round.
  fx.dep().simulator().run();
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_m), 0.0);
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_b), 0.0);
  EXPECT_EQ(fx.controller().two_phase_state(chain, route),
            TwoPhaseState::kAborted);
  fx.controller().check_invariants();
  fx.dep().global().check_invariants();
}

TEST(TwoPhaseTimeout, RestoredParticipantReleasesARouteRetiredWhileItWasDown) {
  TimeoutFixture fx;
  const auto result = fx.mw.create_chain(fx.spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const SiteId site =
      fx.mw.chain_record(result->chain).routes.front().vnf_sites.front();
  ASSERT_EQ(fx.controller().committed_routes().size(), 1u);

  // The pool dies while its controller is unreachable: the route retires
  // without the release reaching the participant, and the replacement
  // route's prepare round gives up before the controller returns.
  const sim::SimTime t0 = fx.dep().simulator().now();
  fx.dep().fault_injector().crash(fx.target);
  fx.dep().global().on_instance_down(fx.fw, site);
  fx.dep().fault_injector().restore_at(t0 + sim::from_ms(3000.0), fx.target);
  fx.dep().simulator().run();

  EXPECT_TRUE(fx.mw.chain_record(result->chain).routes.empty());
  EXPECT_TRUE(fx.controller().committed_routes().empty());
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_m), 0.0);
  EXPECT_DOUBLE_EQ(fx.controller().allocated(fx.site_b), 0.0);
  fx.controller().check_invariants();
  fx.dep().global().check_invariants();
}

// ------------------------------------------------------------ Edge addition

TEST(EdgeAddition, TraceIsOrderedAndFast) {
  // 4-node line: chain from node0 to node3, VNF at node1; then a user
  // appears at node2 (a new edge site).
  model::NetworkModel m{net::make_line_topology(4, 50.0, 5.0)};
  m.add_site(NodeId{0}, 1000.0);
  const SiteId s1 = m.add_site(NodeId{1}, 1000.0);
  const SiteId s2 = m.add_site(NodeId{2}, 1000.0);
  m.add_site(NodeId{3}, 1000.0);
  const VnfId fw = m.add_vnf("firewall", 1.0);
  m.deploy_vnf(fw, s1, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("cellular");
  ChainSpec spec;
  spec.name = "mobile";
  spec.ingress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_service = edge;
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw};
  const auto created = mw.create_chain(spec);
  ASSERT_TRUE(created.ok()) << created.error().to_string();

  const auto result = mw.attach_edge(created->chain, s2, edge);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto& trace = result.value();
  // Step 1 is immediate (Table 2 row 1: 0 ms).
  EXPECT_EQ(trace.site_chosen, trace.started);
  // Remaining steps are ordered.
  EXPECT_GT(trace.forwarder_info_received, trace.site_chosen);
  EXPECT_GT(trace.edge_configured, trace.forwarder_info_received);
  EXPECT_GT(trace.remote_received, trace.edge_configured);
  EXPECT_GT(trace.remote_config_started, trace.remote_received);
  EXPECT_GT(trace.remote_config_finished, trace.remote_config_started);
  // Total comfortably under a second (paper: < 600 ms).
  EXPECT_LT(trace.remote_config_finished - trace.started, sim::seconds(1));
}

// ------------------------------------------------------------- Scale-out

TEST(VnfScaleOut, NewFlowsSpreadAcrossInstancePool) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  const SiteId vnf_site = mw.chain_record(created->chain).routes[0].vnf_sites[0];

  // Horizontal scaling: grow the pool at the chain's site to 3 instances.
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  const auto added = controller.scale_instances(vnf_site, 3);
  EXPECT_EQ(added.size(), 2u);
  mw.deployment().simulator().run();   // let announcements propagate

  auto& elements = mw.deployment().elements();
  std::set<dataplane::ElementId> used;
  for (std::uint32_t f = 0; f < 90; ++f) {
    const auto walk = mw.send(created->chain, tuple(500 + f));
    ASSERT_TRUE(walk.delivered) << walk.failure;
    for (const auto instance : walk.vnf_instances()) used.insert(instance);
  }
  EXPECT_EQ(used.size(), 3u) << "flows should spread across the pool";
  // All pool members attach to ONE forwarder (hierarchical LB, Fig. 5).
  std::set<dataplane::ElementId> forwarders;
  for (const auto instance : used) {
    forwarders.insert(elements.info(instance).attached_forwarder);
  }
  EXPECT_EQ(forwarders.size(), 1u);
}

TEST(VnfScaleOut, ExistingFlowsKeepTheirInstance) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  const auto before = mw.send(created->chain, tuple(1));
  ASSERT_TRUE(before.delivered);

  const SiteId vnf_site = mw.chain_record(created->chain).routes[0].vnf_sites[0];
  mw.deployment().vnf_controller(fx.fw).scale_instances(vnf_site, 4);
  mw.deployment().simulator().run();

  const auto after = mw.send(created->chain, tuple(1));
  ASSERT_TRUE(after.delivered);
  EXPECT_EQ(after.vnf_instances(), before.vnf_instances());
}

TEST(EdgeAddition, TrafficFlowsFromNewEdgeSite) {
  // After the mobility stitch, packets entering at the NEW edge site must
  // traverse the chain's VNF and reach the egress.
  model::NetworkModel m{net::make_line_topology(4, 50.0, 5.0)};
  m.add_site(NodeId{0}, 1000.0);
  const SiteId s1 = m.add_site(NodeId{1}, 1000.0);
  const SiteId s2 = m.add_site(NodeId{2}, 1000.0);
  m.add_site(NodeId{3}, 1000.0);
  const VnfId fw = m.add_vnf("firewall", 1.0);
  m.deploy_vnf(fw, s1, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("cellular");
  ChainSpec spec;
  spec.name = "mobile";
  spec.ingress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_service = edge;
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw};
  const auto created = mw.create_chain(spec);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(mw.attach_edge(created->chain, s2, edge).ok());

  const dataplane::ElementId roaming_edge =
      mw.deployment().edge_controller(edge).ensure_edge_instance(s2);
  const auto walk = mw.deployment().inject_from(created->chain, roaming_edge,
                                                tuple(77));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  auto& elements = mw.deployment().elements();
  const auto instances = walk.vnf_instances();
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(elements.info(instances[0]).vnf, fw);
  // Path: new edge (node2) -> firewall (node1) -> egress (node3).
  EXPECT_NEAR(walk.latency_ms, 5.0 + 10.0 + 0.1, 1e-6);
}

TEST(EdgeAddition, UnknownChainFails) {
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto result = mw.attach_edge(ChainId{5}, fx.site_a, edge);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

// --------------------------------------------------------------- Registry

TEST(ElementRegistry, DedicatedForwarderPerService) {
  // The VNF controller and edge controller must not share forwarders for
  // different services at a site (rule disambiguation invariant).
  Fixture fx;
  Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok());
  auto& elements = mw.deployment().elements();

  for (std::size_t id = 0; id < elements.size(); ++id) {
    const auto& info = elements.info(static_cast<dataplane::ElementId>(id));
    if (info.type != ElementType::kForwarder) continue;
    // Collect services attached to this forwarder.
    std::set<std::uint32_t> services;
    for (std::size_t other = 0; other < elements.size(); ++other) {
      const auto& attach =
          elements.info(static_cast<dataplane::ElementId>(other));
      if (attach.attached_forwarder != info.id) continue;
      services.insert(attach.type == ElementType::kVnfInstance
                          ? attach.vnf.value()
                          : 0xFFFFFFFFu);
    }
    EXPECT_LE(services.size(), 1u)
        << "forwarder " << id << " fronts multiple services";
  }
}

}  // namespace
}  // namespace switchboard::control
