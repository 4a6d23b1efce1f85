// Tests for the invariant-checking layer: the SWB_CHECK macro family
// (tests/check death tests assert the failure message carries the
// expression, operand values, and streamed context) and one audit test per
// structure exposing check_invariants().
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "control/two_phase.hpp"
#include "core/middleware.hpp"
#include "dataplane/dht_flow_table.hpp"
#include "dataplane/load_balancer.hpp"
#include "dataplane/sharded_flow_table.hpp"
#include "model/network_model.hpp"
#include "net/topology.hpp"
#include "net/topology_gen.hpp"
#include "sim/simulator.hpp"
#include "te/loads.hpp"
#include "te/routing_solution.hpp"

namespace switchboard {
namespace {

dataplane::FiveTuple tuple(std::uint32_t i) {
  return dataplane::FiveTuple{0x0A000000u + i, 0xC0A80001u,
                              static_cast<std::uint16_t>(5000 + (i % 60000)),
                              80, 6};
}

// ------------------------------------------------------------ Check macros

TEST(CheckMacros, PassingChecksAreSilent) {
  SWB_CHECK(true) << "never formatted";
  SWB_CHECK_EQ(2 + 2, 4);
  SWB_CHECK_NE(1, 2);
  SWB_CHECK_LT(1, 2);
  SWB_CHECK_LE(2, 2);
  SWB_CHECK_GT(3, 2);
  SWB_CHECK_GE(3, 3);
}

TEST(CheckMacrosDeathTest, FailureNamesTheExpression) {
  EXPECT_DEATH(SWB_CHECK(1 == 2), "SWB_CHECK\\(1 == 2\\)");
}

TEST(CheckMacrosDeathTest, ComparisonPrintsBothOperandValues) {
  const int occupied = 17;
  const int counted = 16;
  EXPECT_DEATH(SWB_CHECK_EQ(occupied, counted), "\\(17 vs 16\\)");
}

TEST(CheckMacrosDeathTest, StreamedContextAppearsInTheMessage) {
  EXPECT_DEATH(SWB_CHECK_LT(5, 3) << "while probing chain " << 7,
               "while probing chain 7");
}

TEST(CheckMacrosDeathTest, MessageCarriesFileAndLine) {
  EXPECT_DEATH(SWB_CHECK(false), "check_test\\.cpp:[0-9]+");
}

TEST(CheckMacros, OperandsAreEvaluatedExactlyOnce) {
  int calls = 0;
  const auto bump = [&calls] { return ++calls; };
  SWB_CHECK_GE(bump(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(CheckMacros, OneByteIntegersFormatNumerically) {
  EXPECT_EQ(check_detail::format_value(static_cast<std::uint8_t>(7)), "7");
  EXPECT_EQ(check_detail::format_value(static_cast<std::int8_t>(-3)), "-3");
  EXPECT_EQ(check_detail::format_value(true), "true");
  EXPECT_EQ(check_detail::format_value(std::string{"abc"}), "abc");
}

TEST(CheckMacros, DcheckMatchesBuildMode) {
  int evaluations = 0;
  const auto observe = [&evaluations] {
    ++evaluations;
    return true;
  };
  SWB_DCHECK(observe());
#ifdef NDEBUG
  // Compiled out: the condition is type-checked but never run.
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
  EXPECT_DEATH(SWB_DCHECK_EQ(1, 2), "SWB_CHECK_EQ");
#endif
}

// -------------------------------------------------------- ShardedFlowTable

TEST(FlowTableAudit, SurvivesChurnAndGrowth) {
  dataplane::ShardedFlowTable table{16, 1};
  const dataplane::Labels labels{1, 2};
  // Push through several growth cycles, with deletions creating
  // tombstones interleaved along probe chains.
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table.insert(labels, tuple(i), dataplane::FlowEntry{i, i + 1, i + 2});
    if (i % 3 == 0) table.erase(labels, tuple(i / 2));
  }
  table.check_invariants();
  for (std::uint32_t i = 4000; i < 5000; ++i) {
    const auto entry = table.find(labels, tuple(i));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->vnf_instance, i);
  }
}

// ------------------------------------------------------------ DhtFlowTable

TEST(DhtFlowTableAudit, ReplicationTargetHoldsAcrossFailureAndRecovery) {
  dataplane::DhtFlowTable dht{5};
  const dataplane::Labels labels{9, 1};
  for (std::uint32_t i = 0; i < 500; ++i) {
    dht.insert(labels, tuple(i), dataplane::FlowEntry{i, i, i});
  }
  dht.check_invariants();
  dht.fail_node(2);
  dht.check_invariants();   // re-replication restored the factor-2 target
  dht.recover_node(2);
  dht.check_invariants();
  EXPECT_EQ(dht.total_flows(), 500u);
}

// ------------------------------------------------------------ LoadBalancer

TEST(WeightedChoiceAudit, PrefixSumsStayConsistent) {
  dataplane::WeightedChoice choice;
  choice.add(3, 0.5);
  choice.add(7, 2.0);
  choice.add(9, 0.25);
  choice.check_invariants();
  EXPECT_DOUBLE_EQ(choice.total_weight(), 2.75);
}

TEST(WeightedChoiceDeathTest, RejectsNonPositiveWeight) {
  dataplane::WeightedChoice choice;
  EXPECT_DEATH(choice.add(1, 0.0), "weight > 0");
}

TEST(RuleTableAudit, InstalledRulesAuditClean) {
  dataplane::RuleTable rules;
  dataplane::LoadBalanceRule rule;
  rule.vnf_instances.add(11, 1.0);
  rule.next_forwarders.add(21, 0.5);
  rule.next_forwarders.add(22, 0.5);
  rules.install(dataplane::Labels{1, 2}, rule);
  dataplane::LoadBalanceRule ingress_only;   // legal: only next hops
  ingress_only.next_forwarders.add(31, 1.0);
  rules.install(dataplane::Labels{1, 3}, ingress_only);
  rules.check_invariants();
}

// ---------------------------------------------------------------- Topology

TEST(TopologyAudit, GeneratedTopologyIsWellFormed) {
  const net::Topology line = net::make_line_topology(6, 40.0, 5.0);
  line.check_invariants();
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_link(a, b, 10.0, 1.0);
  topo.add_link(b, a, 10.0, 1.0);
  topo.check_invariants();
}

// ------------------------------------------------------------ ChainRouting

TEST(ChainRoutingAudit, ConservedFlowPasses) {
  te::ChainRouting routing{1};
  const ChainId chain{0};
  routing.init_chain(chain, 2);
  // Stage 1 splits 60/40 across two sites; stage 2 forwards each share on.
  routing.add_flow(chain, 1, NodeId{0}, NodeId{1}, 0.6);
  routing.add_flow(chain, 1, NodeId{0}, NodeId{2}, 0.4);
  routing.add_flow(chain, 2, NodeId{1}, NodeId{3}, 0.6);
  routing.add_flow(chain, 2, NodeId{2}, NodeId{3}, 0.4);
  routing.check_invariants();
}

TEST(ChainRoutingAuditDeathTest, LeakedFlowIsCaught) {
  te::ChainRouting routing{1};
  const ChainId chain{0};
  routing.init_chain(chain, 2);
  routing.add_flow(chain, 1, NodeId{0}, NodeId{1}, 1.0);
  // Stage 2 forwards only half of what arrived at node 1.
  routing.add_flow(chain, 2, NodeId{1}, NodeId{2}, 0.5);
  EXPECT_DEATH(routing.check_invariants(), "CHECK failed");
}

// ---------------------------------------------------------------- Simulator

TEST(SimulatorAudit, QueueStaysMonotoneThroughCancellation) {
  sim::Simulator simulator;
  int fired = 0;
  simulator.schedule(5, [&fired] { ++fired; });
  const sim::EventHandle doomed = simulator.schedule(3, [&fired] { ++fired; });
  simulator.schedule(9, [&fired] { ++fired; });
  simulator.check_invariants();
  EXPECT_TRUE(simulator.cancel(doomed));
  simulator.check_invariants();
  simulator.step();
  simulator.check_invariants();
  simulator.run();
  simulator.check_invariants();
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------------------- 2PC state machine

TEST(TwoPhase, LegalMatrixMatchesTheProtocol) {
  using control::TwoPhaseState;
  using control::TwoPhaseTracker;
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kIdle,
                                     TwoPhaseState::kPrepared));
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kIdle,
                                     TwoPhaseState::kAborted));
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kPrepared,
                                     TwoPhaseState::kPrepared));
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kPrepared,
                                     TwoPhaseState::kCommitted));
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kPrepared,
                                     TwoPhaseState::kAborted));
  // Terminal states re-enter only themselves; nothing returns to idle.
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kCommitted,
                                     TwoPhaseState::kCommitted));
  EXPECT_TRUE(TwoPhaseTracker::legal(TwoPhaseState::kAborted,
                                     TwoPhaseState::kAborted));
  EXPECT_FALSE(TwoPhaseTracker::legal(TwoPhaseState::kIdle,
                                      TwoPhaseState::kCommitted));
  EXPECT_FALSE(TwoPhaseTracker::legal(TwoPhaseState::kAborted,
                                      TwoPhaseState::kCommitted));
  EXPECT_FALSE(TwoPhaseTracker::legal(TwoPhaseState::kCommitted,
                                      TwoPhaseState::kAborted));
  EXPECT_FALSE(TwoPhaseTracker::legal(TwoPhaseState::kPrepared,
                                      TwoPhaseState::kIdle));
}

TEST(TwoPhase, HappyPathWalksPrepareThenCommit) {
  using control::TwoPhaseState;
  control::TwoPhaseTracker tracker;
  const ChainId chain{1};
  const RouteId route{4};
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kIdle);
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kPrepared);   // 2nd stage
  tracker.transition(chain, route, TwoPhaseState::kCommitted);
  tracker.transition(chain, route, TwoPhaseState::kCommitted);  // idempotent
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kCommitted);
  EXPECT_EQ(tracker.count(TwoPhaseState::kCommitted), 1u);
  tracker.check_invariants();
}

TEST(TwoPhase, LateAbortOnCommittedIsRejectedAndCounted) {
  // Message duplication / 2PC retries make a stale abort reaching an
  // already-committed reservation an expected event, not a protocol bug:
  // try_transition must reject-and-count it, never SWB_CHECK-abort.
  using control::TwoPhaseState;
  control::TwoPhaseTracker tracker;
  const ChainId chain{3};
  const RouteId route{9};
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kCommitted);
  EXPECT_EQ(tracker.rejected(), 0u);
  EXPECT_FALSE(
      tracker.try_transition(chain, route, TwoPhaseState::kAborted));
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kCommitted)
      << "late abort must not disturb the committed reservation";
  EXPECT_EQ(tracker.rejected(), 1u);
  // Re-delivered commit stays an idempotent no-op (legal self-loop).
  EXPECT_TRUE(
      tracker.try_transition(chain, route, TwoPhaseState::kCommitted));
  EXPECT_EQ(tracker.rejected(), 1u);
  tracker.check_invariants();
}

TEST(TwoPhaseDeathTest, CommitWithoutPrepareIsIllegal) {
  control::TwoPhaseTracker tracker;
  EXPECT_DEATH(
      tracker.transition(ChainId{1}, RouteId{1},
                         control::TwoPhaseState::kCommitted),
      "illegal 2PC transition idle -> committed");
}

TEST(TwoPhaseDeathTest, CommitAfterAbortIsIllegal) {
  control::TwoPhaseTracker tracker;
  tracker.transition(ChainId{1}, RouteId{1},
                     control::TwoPhaseState::kAborted);
  EXPECT_DEATH(
      tracker.transition(ChainId{1}, RouteId{1},
                         control::TwoPhaseState::kCommitted),
      "illegal 2PC transition aborted -> committed");
}

// ----------------------------------------------------------- Control plane

/// Line topology A(0) - M(1) - B(2) with one firewall VNF at M and B —
/// the same shape control_test.cpp uses.
struct ControlFixture {
  model::NetworkModel make_model() {
    model::NetworkModel m{net::make_line_topology(3, 50.0, 5.0)};
    site_a = m.add_site(NodeId{0}, 1000.0, "A");
    site_m = m.add_site(NodeId{1}, 1000.0, "M");
    site_b = m.add_site(NodeId{2}, 1000.0, "B");
    fw = m.add_vnf("firewall", 1.0);
    m.deploy_vnf(fw, site_m, 100.0);
    m.deploy_vnf(fw, site_b, 100.0);
    return m;
  }

  control::ChainSpec make_spec(EdgeServiceId edge) const {
    control::ChainSpec spec;
    spec.name = "audit-chain";
    spec.ingress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_service = edge;
    spec.egress_node = NodeId{2};
    spec.vnfs = {fw};
    return spec;
  }

  SiteId site_a, site_m, site_b;
  VnfId fw;
};

TEST(VnfControllerAudit, ReservationLifecycleTracksTwoPhaseState) {
  using control::TwoPhaseState;
  ControlFixture fx;
  core::Middleware mw{fx.make_model()};
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  const std::uint64_t epoch = mw.deployment().global().epoch();

  ASSERT_TRUE(
      controller.prepare(ChainId{1}, RouteId{1}, fx.site_m, 10.0, 0, epoch));
  EXPECT_EQ(controller.two_phase_state(ChainId{1}, RouteId{1}),
            TwoPhaseState::kPrepared);
  controller.check_invariants();

  controller.abort(ChainId{1}, RouteId{1}, epoch);
  EXPECT_EQ(controller.two_phase_state(ChainId{1}, RouteId{1}),
            TwoPhaseState::kAborted);
  EXPECT_DOUBLE_EQ(controller.allocated(fx.site_m), 0.0);
  controller.check_invariants();

  // A rejected vote (capacity 100 at M) records the no as kAborted.
  EXPECT_FALSE(
      controller.prepare(ChainId{2}, RouteId{2}, fx.site_m, 500.0, 0, epoch));
  EXPECT_EQ(controller.two_phase_state(ChainId{2}, RouteId{2}),
            TwoPhaseState::kAborted);
  controller.check_invariants();
}

TEST(VnfControllerDeathTest, CommitOfUnpreparedRouteAborts) {
  ControlFixture fx;
  core::Middleware mw{fx.make_model()};
  auto& controller = mw.deployment().vnf_controller(fx.fw);
  EXPECT_DEATH(controller.commit(ChainId{5}, RouteId{5}, /*egress_label=*/2,
                                 mw.deployment().global().epoch()),
               "illegal 2PC transition idle -> committed");
}

TEST(GlobalSwitchboardAudit, CleanAfterChainCreationAndRouteAddition) {
  ControlFixture fx;
  core::Middleware mw{fx.make_model()};
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto created = mw.create_chain(fx.make_spec(edge));
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  auto& global = mw.deployment().global();
  global.check_invariants();

  const auto added = mw.add_route(created->chain, {fx.site_b});
  ASSERT_TRUE(added.ok()) << added.error().to_string();
  global.check_invariants();
  global.loads().check_no_capacity_violation();

  // After 2PC the committed route's state is terminal at the controller.
  EXPECT_EQ(mw.deployment().vnf_controller(fx.fw).two_phase_state(
                created->chain, created->route),
            control::TwoPhaseState::kCommitted);
}

// ------------------------------------------------------------------- Loads

TEST(LoadsAudit, FreshAccountingIsConsistent) {
  ControlFixture fx;
  const model::NetworkModel m = fx.make_model();
  te::Loads loads{m};
  loads.check_invariants();
  loads.check_no_capacity_violation();
}

}  // namespace
}  // namespace switchboard
