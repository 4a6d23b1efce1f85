// SB-ANYCAST-D (DESIGN.md §17; ctest label: anycast): the decentralized
// chain-routing mode.  Covered here: announcement wire format, the
// visited-set loop-guard annotation, link-state flooding (split horizon,
// dedup, staleness aging), forwarding with the Global Switchboard crashed,
// controller-free re-convergence around instance kills, hop-budget loop
// prevention, seeded determinism of the steering/announcement traces, the
// FaultInjector's whole-site isolate/heal primitives, the ChaosSchedule
// heal_all() teardown for soaks that end mid-partition, and the failure
// detector's flap-debounce across a controller restart/resync boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/chaos_schedule.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using core::DeploymentConfig;
using core::Middleware;

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A040000u + i, 0xC0A80002u,
                              static_cast<std::uint16_t>(5000 + i), 443, 6};
}

/// Line A(0) - X(1) - Y(2) - B(3); firewall deployed at X and Y.
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

// --------------------------------------------------------- wire format

TEST(AnycastMessage, SerializeParseRoundtrip) {
  control::AnycastAnnouncement a;
  a.origin = SiteId{3};
  a.seq = 42;
  a.path_delay_ms = 12.5;
  a.entries.push_back(control::AnycastVnfEntry{VnfId{0}, 2, 150.0});
  a.entries.push_back(control::AnycastVnfEntry{VnfId{4}, 1, 75.25});

  const auto parsed = control::parse_anycast(control::serialize(a));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->origin, SiteId{3});
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_DOUBLE_EQ(parsed->path_delay_ms, 12.5);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].vnf, VnfId{0});
  EXPECT_EQ(parsed->entries[0].live_instances, 2u);
  EXPECT_DOUBLE_EQ(parsed->entries[0].residual_capacity, 150.0);
  EXPECT_EQ(parsed->entries[1].vnf, VnfId{4});
  EXPECT_EQ(parsed->entries[1].live_instances, 1u);
  EXPECT_DOUBLE_EQ(parsed->entries[1].residual_capacity, 75.25);

  // An announcement with no pools still carries origin + seq.
  control::AnycastAnnouncement empty;
  empty.origin = SiteId{0};
  empty.seq = 1;
  const auto parsed_empty = control::parse_anycast(control::serialize(empty));
  ASSERT_TRUE(parsed_empty.has_value());
  EXPECT_TRUE(parsed_empty->entries.empty());

  EXPECT_FALSE(control::parse_anycast("type=route;x=1").has_value());
  EXPECT_FALSE(control::parse_anycast("").has_value());
}

TEST(AnycastAnnotation, VisitedBitmapAndRangeGuard) {
  dataplane::AnycastAnnotation ann;
  EXPECT_FALSE(ann.visited(0));
  ann.mark_visited(0);
  ann.mark_visited(63);
  EXPECT_TRUE(ann.visited(0));
  EXPECT_TRUE(ann.visited(63));
  EXPECT_FALSE(ann.visited(5));
  // Site ids beyond the bitmap are ignored, never undefined behavior.
  ann.mark_visited(64);
  EXPECT_FALSE(ann.visited(64));
  EXPECT_FALSE(ann.visited(1000));
}

// ------------------------------------------------ flooding + table state

TEST(AnycastRouter, FloodBuildsTablesWithSplitHorizonAndAging) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.enable_anycast = true;
  config.anycast.announce_period = sim::from_ms(20.0);
  config.anycast.stale_after_periods = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const SiteId placed = mw.chain_record(report->chain).routes[0].vnf_sites[0];

  dep.register_fault_targets();
  dep.start_anycast();
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(100.0));

  // Every other site learned the placed pool from the flood.
  for (std::uint32_t s = 0; s < 4; ++s) {
    control::AnycastRouter& router = dep.anycast_router(SiteId{s});
    const auto view = router.pool_view(placed, fw);
    ASSERT_TRUE(view.has_value()) << "site " << s << " never heard of pool";
    EXPECT_GE(view->live_instances, 1u);
    EXPECT_GT(router.announcements_sent(), 0u);
    EXPECT_GT(router.announcements_received(), 0u);
    router.check_invariants();
  }
  // Full-mesh flooding over 4 sites re-delivers every announcement along
  // multiple paths: split-horizon dedup must be doing real work.
  std::uint64_t dropped = 0;
  std::uint64_t refloods = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    dropped += dep.anycast_router(SiteId{s}).duplicates_dropped();
    refloods += dep.anycast_router(SiteId{s}).refloods();
  }
  EXPECT_GT(refloods, 0u);
  EXPECT_GT(dropped, 0u);

  // Crash the pool's site: its router goes silent and every peer ages the
  // entry out after stale_after_periods announce periods.
  dep.fault_injector().crash("site:" + std::to_string(placed.value()));
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(200.0));
  EXPECT_FALSE(
      dep.anycast_router(SiteId{0}).pool_view(placed, fw).has_value())
      << "stale entry survived aging";

  // Restore: the next announcement refreshes the entry.
  dep.fault_injector().restore("site:" + std::to_string(placed.value()));
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(60.0));
  EXPECT_TRUE(
      dep.anycast_router(SiteId{0}).pool_view(placed, fw).has_value());
  dep.stop_anycast();
  for (std::uint32_t s = 0; s < 4; ++s) {
    dep.anycast_router(SiteId{s}).check_invariants();
  }
}

// ------------------------------------ forwarding with the controller dead

TEST(AnycastForwarding, DeliversBothDirectionsWithControllerCrashed) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.enable_anycast = true;
  config.anycast.announce_period = sim::from_ms(20.0);
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;

  dep.register_fault_targets();
  dep.start_anycast();
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(100.0));

  dep.fault_injector().crash("controller:global");
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(100.0));

  const auto forward = dep.inject_anycast(chain, tuple(1));
  EXPECT_TRUE(forward.delivered) << forward.failure;
  EXPECT_EQ(forward.vnf_instances().size(), 1u);
  EXPECT_GT(forward.latency_ms, 0.0);

  const auto reverse =
      dep.inject_anycast(chain, tuple(1), dataplane::Direction::kReverse);
  EXPECT_TRUE(reverse.delivered) << reverse.failure;
  EXPECT_EQ(reverse.vnf_instances().size(), 1u);
  dep.stop_anycast();
}

TEST(AnycastForwarding, ReconvergesAroundInstanceKillWithoutController) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.enable_anycast = true;
  config.anycast.announce_period = sim::from_ms(20.0);
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const ChainId chain = report->chain;
  const SiteId primary = mw.chain_record(chain).routes[0].vnf_sites[0];
  const SiteId survivor = primary == SiteId{1} ? SiteId{2} : SiteId{1};
  // A second route pinned to the other pool site gives anycast a live
  // fallback instance population.
  const auto extra = mw.add_route(chain, {survivor});
  ASSERT_TRUE(extra.ok()) << extra.error().to_string();

  dep.register_fault_targets();
  dep.start_anycast();
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(100.0));

  // Controller down for everything that follows.
  dep.fault_injector().crash("controller:global");

  // Kill the primary pool between announce ticks: remote tables still
  // advertise it.
  for (const dataplane::ElementId id :
       dep.elements().vnf_instances_at(primary, fw)) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }

  // First packet rides the stale table: it reaches the dead site, the
  // site's own fresh view refutes the entry, and the walk re-steers to
  // the survivor — delivered, at the cost of the detour hop.
  const auto detour = dep.inject_anycast(chain, tuple(7));
  ASSERT_TRUE(detour.delivered) << detour.failure;
  ASSERT_EQ(detour.vnf_instances().size(), 1u);
  EXPECT_EQ(dep.elements().info(detour.vnf_instances()[0]).site, survivor);

  // After the next announcements the ingress router knows the pool is
  // dead and steers straight to the survivor: re-convergence without any
  // controller involvement.
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(100.0));
  const auto view = dep.anycast_router(SiteId{0}).pool_view(primary, fw);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->live_instances, 0u);

  const auto direct = dep.inject_anycast(chain, tuple(8));
  ASSERT_TRUE(direct.delivered) << direct.failure;
  ASSERT_EQ(direct.vnf_instances().size(), 1u);
  EXPECT_EQ(dep.elements().info(direct.vnf_instances()[0]).site, survivor);
  // On the line topology the dead site lies en route to the survivor, so
  // latency ties — but the converged walk visits strictly fewer sites.
  EXPECT_LT(direct.path.size(), detour.path.size())
      << "converged steering should skip the detour";
  EXPECT_LE(direct.latency_ms, detour.latency_ms);
  EXPECT_TRUE(dep.fault_injector().is_down("controller:global"));
  dep.stop_anycast();
}

TEST(AnycastForwarding, HopBudgetExhaustionDropsInsteadOfLooping) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.enable_anycast = true;
  config.anycast.announce_period = sim::from_ms(20.0);
  // One wide-area hop is not enough for ingress -> pool -> egress.
  config.anycast.hop_budget = 1;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto report = mw.create_chain(make_span_spec(edge, fw));
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  dep.start_anycast();
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(100.0));

  const auto walk = dep.inject_anycast(report->chain, tuple(3));
  EXPECT_FALSE(walk.delivered);
  EXPECT_NE(walk.failure.find("hop budget"), std::string::npos)
      << walk.failure;
  dep.stop_anycast();
}

// ------------------------------------------------------- determinism

TEST(AnycastDeterminism, IdenticalRunsProduceIdenticalTracesAndDigests) {
  auto run = [] {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config;
    config.enable_anycast = true;
    config.anycast.announce_period = sim::from_ms(20.0);
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto report = mw.create_chain(make_span_spec(edge, fw));
    EXPECT_TRUE(report.ok());
    const ChainId chain = report->chain;
    const SiteId primary = mw.chain_record(chain).routes[0].vnf_sites[0];
    const SiteId survivor = primary == SiteId{1} ? SiteId{2} : SiteId{1};
    const auto extra = mw.add_route(chain, {survivor});
    EXPECT_TRUE(extra.ok());

    dep.register_fault_targets();
    dep.start_anycast();
    dep.simulator().run_until(dep.simulator().now() + sim::from_ms(80.0));
    dep.fault_injector().crash("controller:global");
    for (const dataplane::ElementId id :
         dep.elements().vnf_instances_at(primary, fw)) {
      dep.fault_injector().crash("element:" + std::to_string(id));
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      dep.inject_anycast(chain, tuple(i));
      dep.simulator().run_until(dep.simulator().now() + sim::from_ms(10.0));
    }
    dep.stop_anycast();

    std::string out = dep.fault_injector().trace_string();
    for (std::uint32_t s = 0; s < 4; ++s) {
      control::AnycastRouter& router = dep.anycast_router(SiteId{s});
      out += router.trace_string();
      out += "digest=" + std::to_string(router.trace_digest()) + "\n";
      router.check_invariants();
    }
    return out;
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("steer"), std::string::npos);
  EXPECT_NE(a.find("recv"), std::string::npos);
}

// ------------------------------------- FaultInjector isolate/heal (whole site)

TEST(FaultInjectorIsolate, IsolateHealAreIdempotentAndPairwiseComplete) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 9};
  faults.set_site_count(4);

  faults.isolate_site(SiteId{1});
  for (const std::uint32_t s : {0u, 2u, 3u}) {
    EXPECT_TRUE(faults.partitioned(SiteId{1}, SiteId{s}));
  }
  EXPECT_FALSE(faults.partitioned(SiteId{0}, SiteId{2}));

  const std::string once = faults.trace_string();
  faults.isolate_site(SiteId{1});   // idempotent: records nothing new
  EXPECT_EQ(faults.trace_string(), once);

  faults.heal_site(SiteId{1});
  for (const std::uint32_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(faults.partitioned(SiteId{1}, SiteId{s}));
  }
  const std::string healed = faults.trace_string();
  faults.heal_site(SiteId{1});   // idempotent again
  EXPECT_EQ(faults.trace_string(), healed);

  // heal_site also clears partitions created pairwise.
  faults.partition_sites(SiteId{0}, SiteId{2});
  faults.heal_site(SiteId{2});
  EXPECT_FALSE(faults.partitioned(SiteId{0}, SiteId{2}));
  faults.check_invariants();
}

TEST(FaultInjectorIsolate, SeededRunsReplayByteIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultInjector faults{sim, seed};
    faults.set_site_count(5);
    sim::MessageFaultConfig message_faults;
    message_faults.drop_probability = 0.2;
    faults.set_message_faults(message_faults);
    faults.isolate_site(SiteId{2});
    for (std::uint32_t i = 0; i < 200; ++i) {
      faults.on_message(SiteId{i % 5}, SiteId{(i + 2) % 5},
                        "/t" + std::to_string(i % 3));
    }
    faults.heal_site(SiteId{2});
    faults.isolate_site(SiteId{4});
    for (std::uint32_t i = 0; i < 200; ++i) {
      faults.on_message(SiteId{i % 5}, SiteId{(i + 1) % 5}, "/u");
    }
    faults.check_invariants();
    return faults.trace_string();
  };
  const std::string a = run(11);
  EXPECT_EQ(a, run(11));
  EXPECT_NE(a, run(12));
}

// ------------------------------------------- ChaosSchedule heal_all teardown

TEST(ChaosSchedule, HealAllAtHorizonConvergesASoakThatEndsMidOutage) {
  sim::Simulator sim;
  sim::FaultInjector faults{sim, 3};
  faults.set_site_count(3);
  faults.register_target("controller:global", [](bool) {});
  faults.register_target("element:9", [](bool) {});

  sim::ChaosConfig config;
  config.start = 0;
  config.horizon = sim::from_ms(400.0);
  config.mean_gap = sim::from_ms(60.0);
  // Every outage outlives the horizon: the soak *ends mid-outage* and
  // only the heal_all() teardown converges it.
  config.min_outage = sim::from_ms(500.0);
  config.max_outage = sim::from_ms(900.0);
  config.clamp_outages = false;
  config.heal_all_at_horizon = true;
  config.crash_targets = {"controller:global"};
  config.partition_sites = {SiteId{0}, SiteId{1}, SiteId{2}};
  sim::ChaosSchedule chaos{sim, faults, config, 21};
  chaos.arm();
  chaos.check_invariants();   // must not demand heal-before-horizon here
  ASSERT_FALSE(chaos.plan().empty());

  // A fault the *test* injected is not the schedule's to heal.
  faults.crash("element:9");

  sim.run_until(config.horizon - 1);
  bool outage_active = faults.is_down("controller:global");
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = a + 1; b < 3; ++b) {
      outage_active = outage_active || faults.partitioned(SiteId{a}, SiteId{b});
    }
  }
  EXPECT_TRUE(outage_active) << "soak never entered its mid-outage tail";

  sim.run_until(config.horizon + 1);
  EXPECT_FALSE(faults.is_down("controller:global"));
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = a + 1; b < 3; ++b) {
      EXPECT_FALSE(faults.partitioned(SiteId{a}, SiteId{b}));
    }
  }
  EXPECT_TRUE(faults.is_down("element:9"))
      << "heal_all touched an outage the schedule did not cause";
  faults.check_invariants();

  // The drawn restores beyond the horizon are idempotent no-ops.
  sim.run_until(config.horizon + sim::from_ms(1000.0));
  faults.check_invariants();
}

// --------------------- detector flap debounce across a controller restart

// A flapping element around a controller crash/restore (amnesia +
// detector resync) must not fire on_instance_down at all, and a
// persistently-dead element is re-reported exactly once to the fresh
// incarnation — never once per beat.
TEST(FailureDetectorRestart, FlapDebounceAndResyncNeverDoubleFire) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
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
  // Count every relay, then forward like enable_recovery()'s own wiring.
  std::map<dataplane::ElementId, int> fired;
  dep.failure_detector().set_element_down_callback(
      [&dep, &fired](dataplane::ElementId element, SiteId site) {
        ++fired[element];
        const control::ElementInfo& info = dep.elements().info(element);
        if (info.type == control::ElementType::kVnfInstance) {
          dep.global().on_instance_down(info.vnf, site);
        }
      });

  const std::vector<dataplane::ElementId> pool =
      dep.elements().vnf_instances_at(placed, fw);
  ASSERT_FALSE(pool.empty());
  const sim::SimTime t0 = dep.simulator().now();

  // Phase 1: a one-beat flap spanning a controller restart.  The restart's
  // resync() clears debounce streaks — the flap must still not fire.
  for (const dataplane::ElementId id : pool) {
    dep.fault_injector().crash_at(t0 + sim::from_ms(60.0),
                                  "element:" + std::to_string(id));
    dep.fault_injector().restore_at(t0 + sim::from_ms(120.0),
                                    "element:" + std::to_string(id));
  }
  dep.fault_injector().crash_at(t0 + sim::from_ms(70.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(200.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(600.0));
  EXPECT_TRUE(fired.empty()) << "a debounced flap fired across the restart";
  EXPECT_GT(dep.global().epoch(), 1u) << "restart never happened";

  // Phase 2: a sustained failure fires once, the controller restarts, and
  // resync re-reports it exactly once to the new incarnation.
  const sim::SimTime t1 = dep.simulator().now();
  for (const dataplane::ElementId id : pool) {
    dep.fault_injector().crash("element:" + std::to_string(id));
  }
  dep.simulator().run_until(t1 + sim::from_ms(600.0));
  for (const dataplane::ElementId id : pool) {
    EXPECT_EQ(fired[id], 1) << "element " << id;
  }

  dep.fault_injector().crash("controller:global");
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(150.0));
  dep.fault_injector().restore("controller:global");
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(600.0));
  for (const dataplane::ElementId id : pool) {
    EXPECT_EQ(fired[id], 2)
        << "element " << id
        << " must be re-reported exactly once after resync";
  }

  // Many more beats: the dedup set holds, nothing re-fires.
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(1000.0));
  dep.stop_recovery();
  for (const dataplane::ElementId id : pool) {
    EXPECT_EQ(fired[id], 2) << "element " << id << " fired per beat";
  }
  dep.failure_detector().check_invariants();
  dep.global().check_invariants();
}

}  // namespace
}  // namespace switchboard
