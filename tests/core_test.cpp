// Edge cases of the core facade (Deployment / Middleware) not covered by
// the scenario-level integration tests.
#include <gtest/gtest.h>

#include "switchboard/switchboard.hpp"

namespace switchboard::core {
namespace {

using control::ChainSpec;

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A020000u + i, 0xC0A80001u,
                              static_cast<std::uint16_t>(4000 + i), 80, 6};
}

model::NetworkModel tiny_model() {
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, mid, 100.0);
  return m;
}

TEST(Deployment, InjectOnInactiveChainFails) {
  Middleware mw{tiny_model()};
  mw.register_edge_service("vpn");
  // Chain id 0 exists in no record.
  const auto walk = mw.deployment().inject(ChainId{0}, tuple(1));
  EXPECT_FALSE(walk.delivered);
}

TEST(Deployment, RegisterVnfServiceAfterConstruction) {
  // VNFs registered through the Middleware (not pre-seeded in the model)
  // must be routable: controllers sync lazily.
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const VnfId dpi =
      mw.register_vnf_service("dpi", 2.0, {{mid, 50.0}});

  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {dpi};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const auto walk = mw.send(report->chain, tuple(2));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  EXPECT_EQ(walk.vnf_instances().size(), 1u);
}

TEST(Deployment, RegisterVnfServiceWhileAChainIsActive) {
  // A VNF registered after a chain is active gets zeroed load slots while
  // the active chain's loads stay as they are: the controller's audit
  // (loads against a rebuild from the committed routes) passes right after
  // the registration and after a chain on the new VNF, and both chains
  // carry traffic.
  Middleware mw{tiny_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
  const auto first = mw.create_chain(spec);
  ASSERT_TRUE(first.ok()) << first.error().to_string();

  const SiteId mid{1};
  spec.vnfs = {mw.register_vnf_service("dpi", 2.0, {{mid, 50.0}})};
  mw.deployment().global().check_invariants();
  const auto second = mw.create_chain(spec);
  ASSERT_TRUE(second.ok()) << second.error().to_string();

  const auto walk_first = mw.send(first->chain, tuple(6));
  EXPECT_TRUE(walk_first.delivered) << walk_first.failure;
  const auto walk_second = mw.send(second->chain, tuple(7));
  ASSERT_TRUE(walk_second.delivered) << walk_second.failure;
  EXPECT_EQ(walk_second.vnf_instances().size(), 1u);
  mw.deployment().global().check_invariants();
}

TEST(Deployment, WalkReportsPerHopLatency) {
  Middleware mw{tiny_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok());
  const auto walk = mw.send(report->chain, tuple(3));
  ASSERT_TRUE(walk.delivered);
  double total = 0.0;
  for (const auto& hop : walk.path) total += hop.latency_ms;
  EXPECT_NEAR(total, walk.latency_ms, 1e-9);
  // Path structure: edge, fwd, ..., edge.
  EXPECT_EQ(walk.path.front().type, control::ElementType::kEdgeInstance);
  EXPECT_EQ(walk.path.back().type, control::ElementType::kEdgeInstance);
}

TEST(Deployment, VnfProcessingLatencyConfigurable) {
  auto run = [](double processing_ms) {
    DeploymentConfig config;
    config.vnf_processing_ms = processing_ms;
    Middleware mw{tiny_model(), config};
    const EdgeServiceId edge = mw.register_edge_service("vpn");
    ChainSpec spec;
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_node = NodeId{2};
    spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
    const auto report = mw.create_chain(spec);
    EXPECT_TRUE(report.ok());
    return mw.send(report->chain, tuple(4)).latency_ms;
  };
  const double fast = run(0.1);
  const double slow = run(100.0);
  EXPECT_NEAR(slow - fast, 99.9, 1e-6);
}

TEST(Deployment, TwoEdgeServicesCoexist) {
  model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
  m.add_site(NodeId{0}, 100.0);
  const SiteId mid = m.add_site(NodeId{1}, 100.0);
  m.add_site(NodeId{2}, 100.0);
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, mid, 100.0);

  Middleware mw{std::move(m)};
  const EdgeServiceId vpn = mw.register_edge_service("vpn");
  const EdgeServiceId cellular = mw.register_edge_service("cellular");

  // One chain enters via VPN and leaves via cellular.
  ChainSpec spec;
  spec.ingress_service = vpn;
  spec.egress_service = cellular;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {fw};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const auto walk = mw.send(report->chain, tuple(5));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  // The two edge services own distinct instances (and forwarders).
  const auto ingress_instance = walk.path.front().element;
  const auto egress_instance = walk.path.back().element;
  EXPECT_NE(ingress_instance, egress_instance);
}

TEST(Middleware, SequentialChainsGetDistinctLabels) {
  Middleware mw{tiny_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {mw.deployment().network_model().vnfs()[0].id};
  const auto a = mw.create_chain(spec);
  const auto b = mw.create_chain(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->labels.chain, b->labels.chain);
  EXPECT_NE(a->chain, b->chain);
}

}  // namespace
}  // namespace switchboard::core
