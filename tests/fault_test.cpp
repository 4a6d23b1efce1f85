// Fault injection + end-to-end recovery: seeded-determinism property
// tests on the FaultInjector, the kill-instance -> detect -> reroute ->
// drain pipeline, partition-heals-and-2PC-converges, and duplicate
// re-delivery idempotency.  All scenarios run on the discrete-event
// simulator, so the concurrency-sensitive drain path also runs under the
// sanitizer presets with the rest of the suite (ctest label: faults).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/traffic_gen.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using core::DeploymentConfig;
using core::Middleware;

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A020000u + i, 0xC0A80002u,
                              static_cast<std::uint16_t>(3000 + i), 443, 6};
}

/// Line A(0) - X(1) - Y(2) - B(3); firewall deployed at X and Y so a
/// failed pool always has a surviving replacement site.
model::NetworkModel make_two_pool_model() {
  model::NetworkModel m{net::make_line_topology(4, 100.0, 5.0)};
  m.add_site(NodeId{0}, 100.0, "A");
  m.add_site(NodeId{1}, 100.0, "X");
  m.add_site(NodeId{2}, 100.0, "Y");
  m.add_site(NodeId{3}, 100.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 100.0);
  m.deploy_vnf(fw, SiteId{2}, 100.0);
  return m;
}

ChainSpec make_span_spec(EdgeServiceId edge, VnfId fw) {
  ChainSpec spec;
  spec.name = "span";
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw};
  spec.forward_traffic = 1.0;
  spec.reverse_traffic = 0.5;
  return spec;
}

// ------------------------------------------------------ injector basics

TEST(FaultInjector, UnconfiguredInjectorIsInert) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 1234};
  for (int i = 0; i < 100; ++i) {
    const auto verdict = faults.on_message(SiteId{0}, SiteId{1}, "/t");
    EXPECT_FALSE(verdict.faulted());
  }
  EXPECT_TRUE(faults.trace().empty());
  faults.check_invariants();
}

TEST(FaultInjector, PartitionDropsBothDirectionsUntilHealed) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 1};
  faults.partition_sites(SiteId{2}, SiteId{0});
  EXPECT_TRUE(faults.partitioned(SiteId{0}, SiteId{2}));
  EXPECT_TRUE(faults.on_message(SiteId{0}, SiteId{2}, "/t").drop);
  EXPECT_TRUE(faults.on_message(SiteId{2}, SiteId{0}, "/t").drop);
  EXPECT_FALSE(faults.on_message(SiteId{0}, SiteId{1}, "/t").drop);
  faults.heal_sites(SiteId{0}, SiteId{2});
  EXPECT_FALSE(faults.partitioned(SiteId{0}, SiteId{2}));
  EXPECT_FALSE(faults.on_message(SiteId{0}, SiteId{2}, "/t").drop);
  faults.check_invariants();
}

TEST(FaultInjector, ScriptedCrashAndRestoreDriveTheTargetCallback) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 1};
  bool up = true;
  faults.register_target("element:7", [&up](bool state) { up = state; });
  faults.crash_at(sim::from_ms(10.0), "element:7");
  faults.restore_at(sim::from_ms(30.0), "element:7");
  sim.run_until(sim::from_ms(20.0));
  EXPECT_FALSE(up);
  EXPECT_TRUE(faults.is_down("element:7"));
  sim.run_until(sim::from_ms(40.0));
  EXPECT_TRUE(up);
  EXPECT_FALSE(faults.is_down("element:7"));
  // crash + restore, in timestamp order.
  ASSERT_EQ(faults.trace().size(), 2u);
  EXPECT_EQ(faults.trace()[0].kind, "crash");
  EXPECT_EQ(faults.trace()[1].kind, "restore");
  faults.check_invariants();
}

TEST(FaultInjector, SameSeedSameQuerySequenceGivesIdenticalVerdicts) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultInjector faults{sim, seed};
    sim::MessageFaultConfig config;
    config.drop_probability = 0.1;
    config.duplicate_probability = 0.1;
    config.delay_probability = 0.2;
    config.max_extra_delay = sim::from_ms(20.0);
    faults.set_message_faults(config);
    for (std::uint32_t i = 0; i < 500; ++i) {
      faults.on_message(SiteId{i % 4}, SiteId{(i + 1) % 4},
                        "/t" + std::to_string(i % 3));
    }
    return faults.trace_string();
  };
  const std::string a = run(77);
  EXPECT_EQ(a, run(77));
  EXPECT_NE(a, run(78));
}

// ------------------------------------------- end-to-end chain recovery

TEST(Recovery, KillInstanceDetectRerouteDrain) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.detector.period = sim::from_ms(50.0);
  config.detector.suspicion_threshold = 3;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;

  ASSERT_EQ(mw.chain_record(chain).routes.size(), 1u);
  const SiteId dead_site = mw.chain_record(chain).routes[0].vnf_sites[0];
  const SiteId survivor =
      dead_site == SiteId{1} ? SiteId{2} : SiteId{1};

  // Pin a flow through the doomed pool, so the drain has work to do.
  const auto pre = mw.send(chain, tuple(1));
  ASSERT_TRUE(pre.delivered) << pre.failure;
  const auto pinned = pre.vnf_instances();
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(dep.elements().info(pinned[0]).site, dead_site);

  const double total_before =
      dep.global().loads().vnf_site_load(fw, dead_site) +
      dep.global().loads().vnf_site_load(fw, survivor);

  dep.enable_recovery();
  const std::vector<dataplane::ElementId> doomed =
      dep.elements().vnf_instances_at(dead_site, fw);
  ASSERT_FALSE(doomed.empty());
  for (const dataplane::ElementId id : doomed) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }

  // One beat carries the down-elements report; the reroute (compute +
  // 2PC + rule install) completes well inside two simulated seconds.
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(2000.0));
  dep.stop_recovery();

  EXPECT_GE(dep.failure_detector().element_failures_reported(),
            static_cast<std::uint64_t>(doomed.size()));

  // The chain is active again, entirely off the dead pool.
  const control::ChainRecord& record = mw.chain_record(chain);
  EXPECT_TRUE(record.active);
  ASSERT_FALSE(record.routes.empty());
  for (const control::RouteRecord& route : record.routes) {
    for (const SiteId site : route.vnf_sites) {
      EXPECT_EQ(site, survivor) << "route still places fw on dead site";
    }
  }

  // Admitted volume is conserved: the dead pool's load moved wholesale
  // onto the survivor (incremental re-solve, audited in GSB invariants).
  EXPECT_NEAR(dep.global().loads().vnf_site_load(fw, dead_site), 0.0, 1e-9);
  EXPECT_NEAR(dep.global().loads().vnf_site_load(fw, survivor),
              total_before, 1e-6);

  // Drain: the previously-pinned flow and fresh flows all avoid the dead
  // instances.
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto walk = mw.send(chain, tuple(i));
    ASSERT_TRUE(walk.delivered) << "flow " << i << ": " << walk.failure;
    for (const dataplane::ElementId instance : walk.vnf_instances()) {
      EXPECT_EQ(dep.elements().info(instance).site, survivor)
          << "flow " << i << " routed through the dead pool";
    }
  }
}

TEST(Recovery, SiteDeathIsSuspectedAfterSilenceAndReroutes) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.detector.period = sim::from_ms(50.0);
  config.detector.suspicion_threshold = 3;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;
  const SiteId dead_site = mw.chain_record(chain).routes[0].vnf_sites[0];
  const SiteId survivor =
      dead_site == SiteId{1} ? SiteId{2} : SiteId{1};

  dep.enable_recovery();
  // Crash the whole site: its Local Switchboard goes silent and every
  // element there stops processing.
  dep.fault_injector().crash("site:" + std::to_string(dead_site.value()));
  for (const dataplane::ElementId id :
       dep.elements().elements_at(dead_site)) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }

  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(2000.0));
  dep.stop_recovery();

  EXPECT_TRUE(dep.failure_detector().suspects(dead_site));
  EXPECT_GE(dep.failure_detector().suspicions_raised(), 1u);

  const control::ChainRecord& record = mw.chain_record(chain);
  EXPECT_TRUE(record.active);
  ASSERT_FALSE(record.routes.empty());
  for (const control::RouteRecord& route : record.routes) {
    for (const SiteId site : route.vnf_sites) {
      EXPECT_EQ(site, survivor);
    }
  }
  const auto walk = mw.send(chain, tuple(9));
  ASSERT_TRUE(walk.delivered) << walk.failure;
}

TEST(Recovery, PartitionHealsAndActivationConverges) {
  model::NetworkModel m{net::make_line_topology(3, 100.0, 5.0)};
  m.add_site(NodeId{0}, 100.0, "A");
  m.add_site(NodeId{1}, 100.0, "M");
  m.add_site(NodeId{2}, 100.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 100.0);

  DeploymentConfig config;
  config.reliable_bus = true;
  config.bus_ack_timeout = sim::from_ms(150.0);
  config.bus_max_retransmits = 8;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  // Cut the coordinator off from the VNF site for the first 600 ms: the
  // initial route announcements starve; acked delivery retransmits them
  // until the heal, and activation completes.
  dep.fault_injector().partition_sites_for(SiteId{0}, SiteId{1},
                                           sim::from_ms(600.0));

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec;
  spec.name = "healed";
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{2};
  spec.vnfs = {fw};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  EXPECT_FALSE(dep.fault_injector().partitioned(SiteId{0}, SiteId{1}));
  EXPECT_GT(dep.bus().stats().retransmits, 0u);
  EXPECT_GT(dep.bus().stats().acks, 0u);
  EXPECT_GT(dep.simulator().now(), sim::from_ms(600.0))
      << "activation finished before the partition healed?";

  const auto walk = mw.send(report->chain, tuple(3));
  ASSERT_TRUE(walk.delivered) << walk.failure;
}

TEST(Recovery, DuplicatedControlMessagesAreIdempotent) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.reliable_bus = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  // Every wide-area copy is duplicated: route/instance announcements all
  // arrive (at least) twice.  Upserts keep the control plane convergent.
  sim::MessageFaultConfig faults;
  faults.duplicate_probability = 1.0;
  dep.fault_injector().set_message_faults(faults);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(dep.bus().stats().faults_duplicated, 0u);

  const auto walk = mw.send(report->chain, tuple(4));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  dep.global().check_invariants();
}

/// Crashes every instance of the chain's first route pool, runs recovery
/// for two simulated seconds, and returns the dead pool's site.
SiteId kill_route_pool(Middleware& mw, ChainId chain, VnfId fw) {
  core::Deployment& dep = mw.deployment();
  dep.enable_recovery();
  const SiteId dead_site = mw.chain_record(chain).routes[0].vnf_sites[0];
  for (const dataplane::ElementId id :
       dep.elements().vnf_instances_at(dead_site, fw)) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(2000.0));
  dep.stop_recovery();
  return dead_site;
}

// With the controller far from the chain, the dead pool's weight-0
// forwarder announcement reaches the ingress site A before the route's
// weight-0 tombstone arrives from C.  The dead next hop must stay out of
// the ingress forwarder's weighted choice instead of aborting the rule
// install.
TEST(Recovery, DeadNextHopAnnouncedBeforeTheTombstoneStaysOutOfTheRule) {
  model::NetworkModel m{net::make_line_topology(6, 100.0, 5.0)};
  m.add_site(NodeId{0}, 100.0, "A");
  m.add_site(NodeId{1}, 100.0, "X");
  m.add_site(NodeId{2}, 100.0, "Y");
  m.add_site(NodeId{3}, 100.0, "B");
  m.add_site(NodeId{5}, 100.0, "C");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 100.0);
  m.deploy_vnf(fw, SiteId{2}, 100.0);

  DeploymentConfig config;
  config.controller_site = SiteId{4};   // C
  Middleware mw{std::move(m), config};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  const SiteId dead_site = kill_route_pool(mw, report->chain, fw);
  const auto walk = mw.send(report->chain, tuple(11));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  for (const dataplane::ElementId instance : walk.vnf_instances()) {
    EXPECT_NE(mw.deployment().elements().info(instance).site, dead_site);
  }
}

// Mobility after a pool death: the new edge site hosts the dead pool, so
// the retired route is the nearest one.  attach_edge must stitch the edge
// into the live route, and never into a weight-0 forwarder.
TEST(Recovery, EdgeAttachedAfterAPoolDeathJoinsTheLiveRoute) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m)};
  core::Deployment& dep = mw.deployment();
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;

  const SiteId dead_site = kill_route_pool(mw, chain, fw);
  const auto attached = mw.attach_edge(chain, dead_site, edge);
  ASSERT_TRUE(attached.ok()) << attached.error().to_string();

  const dataplane::ElementId roaming =
      dep.edge_controller(edge).ensure_edge_instance(dead_site);
  const auto walk = dep.inject_from(chain, roaming, tuple(7));
  ASSERT_TRUE(walk.delivered) << walk.failure;
  for (const dataplane::ElementId instance : walk.vnf_instances()) {
    EXPECT_NE(dep.elements().info(instance).site, dead_site);
  }
}

// The return path of an edge addition is configured by the first VNF's
// site of a live route only.  A retired route's first site is nearer to
// the new edge here, so answering from it would finish the addition
// before the live route's site even heard of the new edge.
TEST(Recovery, RetiredRouteSiteDoesNotAnswerAnEdgeAddition) {
  // E1(0) - A(1) - X(2) - Y(3) - B(4) - E2(5); the chain runs A -> B.
  model::NetworkModel m{net::make_line_topology(6, 100.0, 5.0)};
  const SiteId e1 = m.add_site(NodeId{0}, 100.0, "E1");
  m.add_site(NodeId{1}, 100.0, "A");
  const SiteId x = m.add_site(NodeId{2}, 100.0, "X");
  m.add_site(NodeId{3}, 100.0, "Y");
  m.add_site(NodeId{4}, 100.0, "B");
  const SiteId e2 = m.add_site(NodeId{5}, 100.0, "E2");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, x, 100.0);
  m.deploy_vnf(fw, SiteId{3}, 100.0);
  Middleware mw{std::move(m)};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  ChainSpec spec = make_span_spec(edge, fw);
  spec.ingress_node = NodeId{1};
  spec.egress_node = NodeId{4};
  const auto report = mw.create_chain(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  const SiteId dead_site = kill_route_pool(mw, report->chain, fw);
  const SiteId survivor = dead_site == x ? SiteId{3} : x;
  // The new edge sits on the dead pool's side of the line.
  const SiteId roaming = dead_site == x ? e1 : e2;
  const auto trace = mw.attach_edge(report->chain, roaming, edge);
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  const model::NetworkModel& model = mw.deployment().network_model();
  const double to_survivor_ms = model.delay_ms(model.site(roaming).node,
                                               model.site(survivor).node);
  EXPECT_GE(trace->remote_received - trace->edge_configured,
            sim::from_ms(to_survivor_ms))
      << "the return path was answered by the retired route's site";
}

// ------------------------------------------- concurrent drain (TSan)

// The failure drain runs on the control plane while packet workers keep
// hammering the shard locks: drain_element's all-shard invalidation must
// be race-free against process_from_wire.  (Runs under the tsan preset
// with the rest of the suite.)
TEST(FaultConcurrency, DrainRacesPacketWorkers) {
  using namespace dataplane;
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint32_t kFlows = 2048;
  Forwarder forwarder{1, kFlows * 2, kWorkers};
  LoadBalanceRule rule;
  rule.vnf_instances.add(100, 1.0);
  rule.vnf_instances.add(101, 1.0);
  forwarder.rules().install(Labels{1, 1}, std::move(rule));

  std::atomic<bool> stop{false};
  std::thread drainer([&forwarder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      forwarder.drain_element(100);
    }
  });
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&forwarder, w] {
      TrafficGenConfig config;
      config.flow_count = kFlows;
      config.worker_count = kWorkers;
      config.worker_index = static_cast<std::uint32_t>(w);
      PacketStream stream{config};
      const std::size_t owned = stream.owned_flow_count();
      for (std::size_t i = 0; i < 3 * owned; ++i) {
        Packet p = stream.next();
        p.arrival_source = 50;
        const ForwardAction action = forwarder.process_from_wire(p);
        EXPECT_EQ(action.type, ActionType::kDeliverToAttached);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  drainer.join();

  // Quiesced: one final drain leaves no pinning on the dead instance.
  forwarder.drain_element(100);
  forwarder.flow_table().for_each(
      [](const Labels&, const FiveTuple&, const FlowEntry& entry) {
        EXPECT_NE(entry.vnf_instance, ElementId{100});
      });
}

// --------------------------------------------- seeded full-run property

/// One complete lossy-run scenario: chain creation under randomized
/// message faults, then a scripted crash + recovery window.  Returns the
/// injector's full fault trace.
std::string lossy_recovery_trace(std::uint64_t seed) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.fault_seed = seed;
  config.reliable_bus = true;
  config.bus_ack_timeout = sim::from_ms(100.0);
  config.bus_max_retransmits = 10;
  config.detector.period = sim::from_ms(50.0);
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  sim::MessageFaultConfig faults;
  faults.drop_probability = 0.05;
  faults.duplicate_probability = 0.05;
  faults.delay_probability = 0.10;
  faults.max_extra_delay = sim::from_ms(10.0);
  dep.fault_injector().set_message_faults(faults);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  if (!report.ok()) return "creation-failed: " + report.error().to_string();

  dep.enable_recovery();
  const SiteId dead_site =
      mw.chain_record(report->chain).routes[0].vnf_sites[0];
  for (const dataplane::ElementId id :
       dep.elements().vnf_instances_at(dead_site, fw)) {
    dep.fault_injector().crash_for("element:" + std::to_string(id),
                                   sim::from_ms(500.0));
  }
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(1500.0));
  dep.stop_recovery();
  return dep.fault_injector().trace_string();
}

// A transient element flap — down in one heartbeat, back before the next —
// must not trigger a route retirement: the detector debounces element
// reports over kElementDebounceBeats consecutive beats.  A sustained
// failure still gets through one beat later.
TEST(Recovery, FlappingElementWithinDebounceWindowDoesNotReroute) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.detector.period = sim::from_ms(50.0);
  config.detector.suspicion_threshold = 3;
  ASSERT_EQ(control::kElementDebounceBeats, 2u);
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;
  const SiteId placed = mw.chain_record(chain).routes[0].vnf_sites[0];

  dep.enable_recovery();
  const sim::SimTime t0 = dep.simulator().now();
  const std::vector<dataplane::ElementId> pool =
      dep.elements().vnf_instances_at(placed, fw);
  ASSERT_FALSE(pool.empty());

  // Flap: down after the first beat, reported down in exactly one beat
  // (streak 1 < 2), healed before the second report.
  for (const dataplane::ElementId id : pool) {
    dep.fault_injector().crash_at(t0 + sim::from_ms(60.0),
                                  "element:" + std::to_string(id));
    dep.fault_injector().restore_at(t0 + sim::from_ms(120.0),
                                    "element:" + std::to_string(id));
  }
  dep.simulator().run_until(t0 + sim::from_ms(500.0));

  EXPECT_EQ(dep.failure_detector().element_failures_reported(), 0u);
  ASSERT_EQ(mw.chain_record(chain).routes.size(), 1u);
  EXPECT_EQ(mw.chain_record(chain).routes[0].vnf_sites[0], placed)
      << "a one-beat flap retired the route";

  // Debounced, not deaf: leave the pool down for good and the failure is
  // relayed on the second consecutive beat, rerouting the chain.
  for (const dataplane::ElementId id : pool) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }
  dep.simulator().run_until(t0 + sim::from_ms(2500.0));
  dep.stop_recovery();

  EXPECT_GE(dep.failure_detector().element_failures_reported(),
            static_cast<std::uint64_t>(pool.size()));
  const SiteId survivor = placed == SiteId{1} ? SiteId{2} : SiteId{1};
  ASSERT_FALSE(mw.chain_record(chain).routes.empty());
  for (const control::RouteRecord& route : mw.chain_record(chain).routes) {
    EXPECT_EQ(route.vnf_sites[0], survivor);
  }
  dep.failure_detector().check_invariants();
}

// Suspect -> heal -> re-suspect: the restored site gets its zeroed pool
// capacity back (on_instance_up), and the second failure retires cleanly
// again instead of double-releasing.
TEST(Recovery, HealedSiteRestoresPoolCapacityAndSecondFailureIsClean) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;

  DeploymentConfig config;
  config.detector.period = sim::from_ms(50.0);
  config.detector.suspicion_threshold = 3;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;
  const SiteId placed = mw.chain_record(chain).routes[0].vnf_sites[0];
  const double capacity_before =
      dep.network_model().vnf(fw).capacity_at(placed);
  ASSERT_GT(capacity_before, 0.0);

  dep.enable_recovery();
  const std::string target = "site:" + std::to_string(placed.value());
  const sim::SimTime t0 = dep.simulator().now();

  // First outage: silence -> suspicion -> pool zeroed + routes retired.
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), target);
  dep.simulator().run_until(t0 + sim::from_ms(1000.0));
  EXPECT_EQ(dep.failure_detector().suspicions_raised(), 1u);
  EXPECT_EQ(dep.network_model().vnf(fw).capacity_at(placed), 0.0);

  // Heal: beats resume, the pool's capacity is restored verbatim.
  dep.fault_injector().restore(target);
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));
  EXPECT_EQ(dep.failure_detector().recoveries_observed(), 1u);
  EXPECT_EQ(dep.network_model().vnf(fw).capacity_at(placed),
            capacity_before);

  // Second outage on the same site retires cleanly again.
  dep.fault_injector().crash(target);
  dep.simulator().run_until(t0 + sim::from_ms(3000.0));
  dep.stop_recovery();
  EXPECT_EQ(dep.failure_detector().suspicions_raised(), 2u);
  EXPECT_EQ(dep.network_model().vnf(fw).capacity_at(placed), 0.0);

  // Throughout, the chain stayed deliverable off the surviving pool.
  EXPECT_TRUE(mw.chain_record(chain).active);
  const auto walk = mw.send(chain, tuple(9));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  dep.failure_detector().check_invariants();
  dep.global().check_invariants();
}

TEST(Recovery, SameFaultSeedGivesByteIdenticalTrace) {
  const std::string a = lossy_recovery_trace(0xFA17);
  const std::string b = lossy_recovery_trace(0xFA17);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "fault trace diverged between identical runs";
  EXPECT_NE(a, lossy_recovery_trace(0xFA18))
      << "different seeds produced identical lossy traces";
}

}  // namespace
}  // namespace switchboard
