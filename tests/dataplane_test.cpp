#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/load_balancer.hpp"
#include "dataplane/ovs_forwarder.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/traffic_gen.hpp"
#include "reference/lock_per_lookup.hpp"

namespace switchboard::dataplane {
namespace {

FiveTuple make_tuple(std::uint32_t i) {
  return FiveTuple{0x0A000000u + i, 0xC0A80001u,
                   static_cast<std::uint16_t>(1000 + i), 80, 6};
}

// ------------------------------------------------------------------ Packet

TEST(Packet, ReversedSwapsEndpoints) {
  const FiveTuple t{1, 2, 10, 20, 6};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 20);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_EQ(r.reversed(), t);
}

TEST(Packet, FlowHashDiscriminates) {
  const Labels labels{1, 2};
  std::set<std::uint64_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(flow_hash(labels, make_tuple(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);   // no collisions on this small set
}

TEST(Packet, FlowHashDependsOnLabels) {
  const FiveTuple t = make_tuple(1);
  EXPECT_NE(flow_hash(Labels{1, 1}, t), flow_hash(Labels{2, 1}, t));
  EXPECT_NE(flow_hash(Labels{1, 1}, t), flow_hash(Labels{1, 2}, t));
}

// ---------------------------------------------------------- WeightedChoice

TEST(WeightedChoice, SingleElementAlwaysPicked)  {
  WeightedChoice choice;
  choice.add(42, 1.0);
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_EQ(choice.pick(mix64(s)), 42u);
  }
}

TEST(WeightedChoice, RespectsWeights) {
  WeightedChoice choice;
  choice.add(1, 1.0);
  choice.add(2, 3.0);
  int count1 = 0;
  int count2 = 0;
  for (std::uint64_t s = 0; s < 40000; ++s) {
    const ElementId e = choice.pick(mix64(s));
    if (e == 1) ++count1;
    if (e == 2) ++count2;
  }
  EXPECT_NEAR(static_cast<double>(count2) / count1, 3.0, 0.3);
}

TEST(WeightedChoice, WeightOf) {
  WeightedChoice choice;
  choice.add(1, 1.5);
  choice.add(2, 2.5);
  EXPECT_DOUBLE_EQ(choice.weight_of(1), 1.5);
  EXPECT_DOUBLE_EQ(choice.weight_of(2), 2.5);
  EXPECT_DOUBLE_EQ(choice.weight_of(3), 0.0);
  EXPECT_DOUBLE_EQ(choice.total_weight(), 4.0);
}

TEST(RuleTable, InstallFindRemove) {
  RuleTable rules;
  LoadBalanceRule rule;
  rule.vnf_instances.add(5, 1.0);
  rules.install(Labels{1, 2}, std::move(rule));
  ASSERT_NE(rules.find(Labels{1, 2}), nullptr);
  EXPECT_EQ(rules.find(Labels{1, 3}), nullptr);
  rules.remove(Labels{1, 2});
  EXPECT_EQ(rules.find(Labels{1, 2}), nullptr);
}

// --------------------------------------------------------------- Forwarder

class ForwarderTest : public ::testing::Test {
 protected:
  static constexpr ElementId kVnf1 = 101;
  static constexpr ElementId kVnf2 = 102;
  static constexpr ElementId kNextFw = 201;
  static constexpr ElementId kPrevFw = 200;
  static constexpr Labels kLabels{7, 3};

  ForwarderTest() : fw_{1} {
    LoadBalanceRule rule;
    rule.vnf_instances.add(kVnf1, 1.0);
    rule.vnf_instances.add(kVnf2, 1.0);
    rule.next_forwarders.add(kNextFw, 1.0);
    fw_.rules().install(kLabels, std::move(rule));
  }

  Packet wire_packet(std::uint32_t flow, Direction dir = Direction::kForward,
                     ElementId source = kPrevFw) {
    Packet p;
    p.flow = dir == Direction::kForward ? make_tuple(flow)
                                        : make_tuple(flow).reversed();
    p.labels = kLabels;
    p.direction = dir;
    p.arrival_source = source;
    return p;
  }

  Forwarder fw_;
};

TEST_F(ForwarderTest, FirstPacketPinsVnfInstance) {
  const Packet p = wire_packet(1);
  const ForwardAction action = fw_.process_from_wire(p);
  EXPECT_EQ(action.type, ActionType::kDeliverToAttached);
  EXPECT_TRUE(action.element == kVnf1 || action.element == kVnf2);
  EXPECT_EQ(fw_.counters().flow_misses, 1u);
}

TEST_F(ForwarderTest, FlowAffinity) {
  // All packets of a connection hit the same instance.
  const ForwardAction first = fw_.process_from_wire(wire_packet(1));
  for (int i = 0; i < 50; ++i) {
    const ForwardAction again = fw_.process_from_wire(wire_packet(1));
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(fw_.counters().flow_misses, 1u);
}

TEST_F(ForwarderTest, DifferentFlowsSpreadAcrossInstances) {
  std::set<ElementId> chosen;
  for (std::uint32_t f = 0; f < 64; ++f) {
    chosen.insert(fw_.process_from_wire(wire_packet(f)).element);
  }
  EXPECT_EQ(chosen.size(), 2u);   // both instances used
}

TEST_F(ForwarderTest, VnfReturnGoesToNextForwarder) {
  fw_.process_from_wire(wire_packet(1));
  Packet from_vnf = wire_packet(1);
  from_vnf.arrival_source = kVnf1;
  const ForwardAction action = fw_.process_from_attached(from_vnf);
  EXPECT_EQ(action.type, ActionType::kSendToForwarder);
  EXPECT_EQ(action.element, kNextFw);
}

TEST_F(ForwarderTest, SymmetricReturnUsesLearnedPrevHop) {
  // Forward packet arrives from kPrevFw and creates state.
  fw_.process_from_wire(wire_packet(1, Direction::kForward, kPrevFw));
  // Reverse packet from the wire is delivered to the pinned instance...
  const ForwardAction to_vnf =
      fw_.process_from_wire(wire_packet(1, Direction::kReverse, kNextFw));
  EXPECT_EQ(to_vnf.type, ActionType::kDeliverToAttached);
  // ...and after VNF processing returns to the learned previous hop.
  Packet reverse_from_vnf = wire_packet(1, Direction::kReverse);
  reverse_from_vnf.arrival_source = to_vnf.element;
  const ForwardAction back = fw_.process_from_attached(reverse_from_vnf);
  EXPECT_EQ(back.type, ActionType::kSendToForwarder);
  EXPECT_EQ(back.element, kPrevFw);
}

TEST_F(ForwarderTest, ReverseWithoutStateDrops) {
  const ForwardAction action =
      fw_.process_from_wire(wire_packet(9, Direction::kReverse));
  EXPECT_EQ(action.type, ActionType::kDrop);
  EXPECT_EQ(fw_.counters().drops, 1u);
}

TEST_F(ForwarderTest, UnknownLabelsDrop) {
  Packet p = wire_packet(1);
  p.labels = Labels{99, 99};
  EXPECT_EQ(fw_.process_from_wire(p).type, ActionType::kDrop);
}

TEST_F(ForwarderTest, IngressEdgeFirstPacketCreatesState) {
  // Packet injected by an attached ingress edge instance (id 300).
  Packet p = wire_packet(5);
  p.arrival_source = 300;
  const ForwardAction action = fw_.process_from_attached(p);
  EXPECT_EQ(action.type, ActionType::kSendToForwarder);
  EXPECT_EQ(action.element, kNextFw);
  // Reverse traffic for the flow is delivered back to the edge instance.
  const ForwardAction reverse =
      fw_.process_from_wire(wire_packet(5, Direction::kReverse, kNextFw));
  EXPECT_EQ(reverse.type, ActionType::kDeliverToAttached);
  EXPECT_EQ(reverse.element, 300u);
}

TEST_F(ForwarderTest, LabelReaffixForLegacyVnf) {
  fw_.register_attachment(kVnf1, kLabels);
  fw_.process_from_wire(wire_packet(1));
  // The legacy VNF returns the packet with labels stripped.
  Packet stripped = wire_packet(1);
  stripped.labels = Labels{};
  stripped.arrival_source = kVnf1;
  const ForwardAction action = fw_.process_from_attached(stripped);
  EXPECT_EQ(action.type, ActionType::kSendToForwarder);
  EXPECT_EQ(stripped.labels, kLabels);   // re-affixed in place
  EXPECT_EQ(fw_.counters().label_reaffixed, 1u);
}

TEST_F(ForwarderTest, CompleteFlowRemovesState) {
  fw_.process_from_wire(wire_packet(1));
  EXPECT_EQ(fw_.flow_table().size(), 1u);
  EXPECT_TRUE(fw_.complete_flow(kLabels, make_tuple(1)));
  EXPECT_EQ(fw_.flow_table().size(), 0u);
  // Next packet re-selects (miss again).
  fw_.process_from_wire(wire_packet(1));
  EXPECT_EQ(fw_.counters().flow_misses, 2u);
}

TEST_F(ForwarderTest, MakeBeforeBreakRuleChangeKeepsExistingFlows) {
  // Existing flow pinned to its instance...
  const ForwardAction before = fw_.process_from_wire(wire_packet(1));
  // ...then the Local Switchboard installs a new rule (e.g., new route)
  // with only a new instance.
  LoadBalanceRule new_rule;
  new_rule.vnf_instances.add(999, 1.0);
  new_rule.next_forwarders.add(kNextFw, 1.0);
  fw_.rules().install(kLabels, std::move(new_rule));
  // Old flow unaffected (flow affinity across route changes, Sec. 5.3)...
  EXPECT_EQ(fw_.process_from_wire(wire_packet(1)), before);
  // ...new flows use the new rule.
  EXPECT_EQ(fw_.process_from_wire(wire_packet(2)).element, 999u);
}

// Drained re-pin (recovery): the next forward packet of a flow whose
// instance died re-picks from the current rule in place — no flow miss,
// one table insert — and keeps the previous hop the flow learned.
TEST_F(ForwarderTest, DrainedInstanceRepinsOntoTheSurvivor) {
  const ElementId pinned = fw_.process_from_wire(wire_packet(1)).element;
  const ElementId survivor = pinned == kVnf1 ? kVnf2 : kVnf1;
  EXPECT_EQ(fw_.drain_element(pinned), 1u);
  LoadBalanceRule rule;
  rule.vnf_instances.add(survivor, 1.0);
  rule.next_forwarders.add(kNextFw, 1.0);
  fw_.rules().install(kLabels, std::move(rule));
  const std::uint64_t misses = fw_.counters().flow_misses.value();
  const std::uint64_t inserts = fw_.flow_table().stats().inserts;

  EXPECT_EQ(fw_.process_from_wire(wire_packet(1)),
            (ForwardAction{ActionType::kDeliverToAttached, survivor}));
  EXPECT_EQ(fw_.counters().flow_misses.value(), misses);
  EXPECT_EQ(fw_.flow_table().stats().inserts, inserts + 1);
  const auto entry = fw_.flow_table().find(kLabels, make_tuple(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->vnf_instance, survivor);
  EXPECT_EQ(entry->next_forwarder, kNextFw);
  EXPECT_EQ(entry->prev_element, kPrevFw);

  // Symmetric return survives the drain: reverse traffic handed back by
  // the survivor goes to the learned previous hop.
  Packet reverse = wire_packet(1, Direction::kReverse);
  reverse.arrival_source = survivor;
  EXPECT_EQ(fw_.process_from_attached(reverse),
            (ForwardAction{ActionType::kSendToForwarder, kPrevFw}));
}

TEST_F(ForwarderTest, DrainedNextHopRepinsWhenTheInstanceHandsBack) {
  const ElementId instance = fw_.process_from_wire(wire_packet(1)).element;
  EXPECT_EQ(fw_.drain_element(kNextFw), 1u);
  LoadBalanceRule rule;
  rule.vnf_instances.add(kVnf1, 1.0);
  rule.vnf_instances.add(kVnf2, 1.0);
  rule.next_forwarders.add(202, 1.0);
  fw_.rules().install(kLabels, std::move(rule));
  const std::uint64_t misses = fw_.counters().flow_misses.value();
  const std::uint64_t inserts = fw_.flow_table().stats().inserts;

  Packet from_vnf = wire_packet(1);
  from_vnf.arrival_source = instance;
  EXPECT_EQ(fw_.process_from_attached(from_vnf),
            (ForwardAction{ActionType::kSendToForwarder, 202}));
  EXPECT_EQ(fw_.counters().flow_misses.value(), misses);
  EXPECT_EQ(fw_.flow_table().stats().inserts, inserts + 1);
  const auto entry = fw_.flow_table().find(kLabels, make_tuple(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->next_forwarder, 202u);
  EXPECT_EQ(entry->vnf_instance, instance);
  EXPECT_EQ(entry->prev_element, kPrevFw);
}

TEST_F(ForwarderTest, MutexReadModeMatchesEpochRead) {
  // The lock-per-lookup baseline (tests/reference) wraps the forwarder's
  // epoch read in a per-shard lock: per packet and per batch it must act
  // and count exactly like the forwarder it wraps.
  const auto make_forwarder = [] {
    auto fw = std::make_unique<Forwarder>(1);
    LoadBalanceRule rule;
    rule.vnf_instances.add(kVnf1, 1.0);
    rule.vnf_instances.add(kVnf2, 1.0);
    rule.next_forwarders.add(kNextFw, 1.0);
    fw->rules().install(kLabels, std::move(rule));
    return fw;
  };
  const std::unique_ptr<Forwarder> mutex_fw = make_forwarder();
  LockPerLookup locks{mutex_fw->flow_table().shard_count()};
  // Same seed (same id), same flows: actions must agree packet by packet,
  // first packets and hits alike.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t f = 0; f < 200; ++f) {
      EXPECT_EQ(locks.process_from_wire(*mutex_fw, wire_packet(f)),
                fw_.process_from_wire(wire_packet(f)))
          << f;
    }
  }
  const ForwarderCounters a = fw_.counters();
  const ForwarderCounters b = mutex_fw->counters();
  EXPECT_EQ(a.from_wire.value(), b.from_wire.value());
  EXPECT_EQ(a.flow_misses.value(), b.flow_misses.value());
  EXPECT_EQ(a.drops.value(), b.drops.value());

  // The batch loop against the forwarder's SoA pipeline on a mixed batch:
  // first packets, hits, reverse packets with and without state.
  std::vector<Packet> packets;
  for (std::uint32_t f = 0; f < 100; ++f) packets.push_back(wire_packet(f));
  for (std::uint32_t f = 0; f < 100; f += 2) packets.push_back(wire_packet(f));
  for (std::uint32_t f = 50; f < 150; f += 3) {
    packets.push_back(wire_packet(f, Direction::kReverse));
  }
  const std::unique_ptr<Forwarder> locked_fw = make_forwarder();
  const std::unique_ptr<Forwarder> pipelined_fw = make_forwarder();
  LockPerLookup batch_locks{locked_fw->flow_table().shard_count()};
  std::vector<ForwardAction> locked(packets.size());
  std::vector<ForwardAction> pipelined(packets.size());
  EXPECT_EQ(batch_locks.process_batch(*locked_fw, packets, locked),
            pipelined_fw->process_batch(packets, pipelined));
  EXPECT_EQ(locked, pipelined);
  EXPECT_EQ(locked_fw->counters().flow_misses.value(),
            pipelined_fw->counters().flow_misses.value());
  EXPECT_EQ(locked_fw->counters().drops.value(),
            pipelined_fw->counters().drops.value());
}

TEST_F(ForwarderTest, BatchPipelineMatchesPerPacketPath) {
  Forwarder single{1};
  LoadBalanceRule rule;
  rule.vnf_instances.add(kVnf1, 1.0);
  rule.vnf_instances.add(kVnf2, 1.0);
  rule.next_forwarders.add(kNextFw, 1.0);
  single.rules().install(kLabels, std::move(rule));

  // Mixed batch: first packets, repeats (hits), reverse packets with and
  // without state, unknown labels — every wire-side resolve branch.
  std::vector<Packet> packets;
  for (std::uint32_t f = 0; f < 100; ++f) packets.push_back(wire_packet(f));
  for (std::uint32_t f = 0; f < 100; f += 2) {
    packets.push_back(wire_packet(f));
    packets.push_back(wire_packet(f, Direction::kReverse, kNextFw));
  }
  packets.push_back(wire_packet(500, Direction::kReverse));   // miss-drop
  Packet unknown = wire_packet(7);
  unknown.labels = Labels{99, 99};
  packets.push_back(unknown);

  std::vector<ForwardAction> batch_actions{packets.size()};
  const std::size_t delivered = fw_.process_batch(packets, batch_actions);
  std::size_t single_delivered = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const ForwardAction expect = single.process_from_wire(packets[i]);
    EXPECT_EQ(batch_actions[i], expect) << i;
    if (expect.type != ActionType::kDrop) ++single_delivered;
  }
  EXPECT_EQ(delivered, single_delivered);

  // Byte-identical bookkeeping, not just actions.
  const ForwarderCounters a = fw_.counters();
  const ForwarderCounters b = single.counters();
  EXPECT_EQ(a.from_wire.value(), b.from_wire.value());
  EXPECT_EQ(a.flow_misses.value(), b.flow_misses.value());
  EXPECT_EQ(a.drops.value(), b.drops.value());
  const ShardedFlowTable::Stats sa = fw_.flow_table().stats();
  const ShardedFlowTable::Stats sb = single.flow_table().stats();
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(fw_.flow_table().size(), single.flow_table().size());
}

// ------------------------------------------------- annotation mode (§15)

TEST_F(ForwarderTest, AnnotationAffixedOnFirstPacketAndHonoured) {
  Packet p = wire_packet(1);
  EXPECT_EQ(p.steering.route_epoch, kNoRouteEpoch);
  const ForwardAction first = fw_.process_annotated(p);
  EXPECT_EQ(first.type, ActionType::kDeliverToAttached);
  // The affix: pinning + current route epoch now ride in the packet.
  EXPECT_EQ(p.steering.route_epoch, fw_.route_epoch());
  EXPECT_EQ(p.steering.pinning.vnf_instance, first.element);
  EXPECT_EQ(p.steering.pinning.next_forwarder, kNextFw);
  EXPECT_EQ(fw_.counters().flow_misses, 1u);

  // Subsequent packets carrying the annotation touch no per-flow state:
  // no additional misses, no flow-table entry ever created.
  const ForwardAction again = fw_.process_annotated(p);
  EXPECT_EQ(again, first);
  EXPECT_EQ(fw_.counters().flow_misses, 1u);
  EXPECT_EQ(fw_.flow_table().size(), 0u);
}

TEST_F(ForwarderTest, AnnotationPickEqualsTableModePick) {
  // The annotation a flow gets equals the pinning table mode stores:
  // both are the same pure function of (forwarder seed, flow key).
  Forwarder table_fw{1};
  LoadBalanceRule rule;
  rule.vnf_instances.add(kVnf1, 1.0);
  rule.vnf_instances.add(kVnf2, 1.0);
  rule.next_forwarders.add(kNextFw, 1.0);
  table_fw.rules().install(kLabels, std::move(rule));
  for (std::uint32_t f = 0; f < 200; ++f) {
    Packet p = wire_packet(f);
    const ForwardAction annotated = fw_.process_annotated(p);
    const ForwardAction table = table_fw.process_from_wire(wire_packet(f));
    EXPECT_EQ(annotated, table) << f;
    const auto entry = table_fw.flow_table().find(kLabels, make_tuple(f));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(p.steering.pinning, *entry) << f;
  }
}

TEST_F(ForwarderTest, StaleAnnotationIsRederivedAgainstNewEpoch) {
  Packet p = wire_packet(1);
  (void)fw_.process_annotated(p);
  const std::uint32_t old_epoch = p.steering.route_epoch;

  // A route update bumps the rule-table version: the annotation is stale.
  LoadBalanceRule new_rule;
  new_rule.vnf_instances.add(999, 1.0);
  new_rule.next_forwarders.add(kNextFw, 1.0);
  fw_.rules().install(kLabels, std::move(new_rule));
  EXPECT_NE(fw_.route_epoch(), old_epoch);

  const ForwardAction repicked = fw_.process_annotated(p);
  EXPECT_EQ(repicked.type, ActionType::kDeliverToAttached);
  EXPECT_EQ(repicked.element, 999u);   // re-derived from the new rule
  EXPECT_EQ(p.steering.route_epoch, fw_.route_epoch());
  EXPECT_EQ(fw_.counters().flow_misses, 2u);
}

TEST_F(ForwarderTest, AnnotationReverseWithoutAffixDrops) {
  // Mirrors the table modes' unknown-reverse-flow drop.
  Packet p = wire_packet(9, Direction::kReverse);
  EXPECT_EQ(fw_.process_annotated(p).type, ActionType::kDrop);
  EXPECT_EQ(fw_.counters().drops, 1u);
}

TEST_F(ForwarderTest, AnnotatedBatchMatchesPerPacket) {
  std::vector<Packet> batch;
  for (std::uint32_t f = 0; f < 100; ++f) batch.push_back(wire_packet(f));
  std::vector<ForwardAction> first_pass{batch.size()};
  EXPECT_EQ(fw_.process_batch_annotated(batch, first_pass), batch.size());
  EXPECT_EQ(fw_.counters().flow_misses, 100u);   // every packet affixed

  // The batch was annotated in place: a second pass is pure fast path —
  // same actions, no new misses, still zero per-flow table state.
  std::vector<ForwardAction> second_pass{batch.size()};
  EXPECT_EQ(fw_.process_batch_annotated(batch, second_pass), batch.size());
  EXPECT_EQ(fw_.counters().flow_misses, 100u);
  EXPECT_EQ(fw_.flow_table().size(), 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(first_pass[i], second_pass[i]) << i;
  }

  // And the batch path agrees with per-packet process_annotated.
  Forwarder reference{1};
  LoadBalanceRule rule;
  rule.vnf_instances.add(kVnf1, 1.0);
  rule.vnf_instances.add(kVnf2, 1.0);
  rule.next_forwarders.add(kNextFw, 1.0);
  reference.rules().install(kLabels, std::move(rule));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Packet p = wire_packet(static_cast<std::uint32_t>(i));
    EXPECT_EQ(first_pass[i], reference.process_annotated(p)) << i;
  }
}

// ------------------------------------------------------------ action trace

// A seeded script on one forwarder: wire and attached packets in both
// directions, first packets and hits, unknown labels, label re-affix, a
// rule with no instance and one with no next hop, drains of instances and
// of a next hop mid-stream, a make-before-break rule replacement, a rule
// removal, annotated packets and flow completions.  Every action, the final
// counters and the sorted table contents fold into one FNV-1a digest,
// pinned below: any change to what the forwarder does moves it.
namespace trace {

constexpr Labels kChain{7, 3};       // instances and next hops
constexpr Labels kIngress{8, 3};     // next hops only (an ingress edge's rule)
constexpr Labels kEgress{9, 4};      // instances only (an egress site's rule)
constexpr Labels kUnknown{99, 99};   // no rule
constexpr ElementId kEdge = 300;
constexpr std::uint64_t kSeed = 24;

enum class StepKind : std::uint8_t {
  kWire, kAttached, kAnnotated, kComplete, kDrain, kReplaceRule, kRemoveRule,
};

struct Step {
  StepKind kind{StepKind::kWire};
  Packet packet;
  ElementId drained{kNoElement};
};

struct Digest {
  std::uint64_t value{14695981039346656037ULL};   // FNV-1a offset basis
  void fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xFF;
      value *= 1099511628211ULL;
    }
  }
  void fold(const ForwardAction& action) {
    fold(static_cast<std::uint64_t>(action.type));
    fold(action.element);
  }
};

LoadBalanceRule make_rule(std::initializer_list<ElementId> instances,
                          std::initializer_list<ElementId> next_hops) {
  LoadBalanceRule rule;
  double weight = 1.0;
  for (const ElementId e : instances) rule.vnf_instances.add(e, weight++);
  for (const ElementId e : next_hops) rule.next_forwarders.add(e, weight++);
  return rule;
}

std::unique_ptr<Forwarder> make_forwarder() {
  auto fw = std::make_unique<Forwarder>(7);
  fw->rules().install(kChain, make_rule({101, 102, 103}, {201, 202}));
  fw->rules().install(kIngress, make_rule({}, {203}));
  fw->rules().install(kEgress, make_rule({104}, {}));
  fw->register_attachment(101, kChain);
  fw->register_attachment(104, kEgress);
  fw->register_attachment(kEdge, kIngress);
  return fw;
}

std::vector<Step> make_script(std::uint64_t seed) {
  Rng rng{seed};
  const Labels labels[] = {kChain, kChain, kChain, kIngress, kEgress,
                           kUnknown};
  const ElementId attached[] = {101, 102, 103, 104, 105, kEdge};
  std::vector<Step> script;
  for (int i = 0; i < 800; ++i) {
    if (i == 200) script.push_back({StepKind::kDrain, {}, 102});
    if (i == 400) script.push_back({StepKind::kReplaceRule, {}, kNoElement});
    if (i == 500) script.push_back({StepKind::kDrain, {}, kEdge});
    if (i == 600) script.push_back({StepKind::kDrain, {}, 201});
    if (i == 700) script.push_back({StepKind::kRemoveRule, {}, kNoElement});
    Step step;
    const std::int64_t draw = rng.uniform_int(0, 99);
    step.kind = draw < 55   ? StepKind::kWire
                : draw < 85 ? StepKind::kAttached
                : draw < 92 ? StepKind::kAnnotated
                            : StepKind::kComplete;
    Packet& p = step.packet;
    const auto flow = static_cast<std::uint32_t>(rng.uniform_int(0, 23));
    p.labels = labels[rng.uniform_int(0, 5)];
    p.direction = rng.bernoulli(0.7) ? Direction::kForward
                                     : Direction::kReverse;
    p.flow = p.direction == Direction::kForward ? make_tuple(flow)
                                                : make_tuple(flow).reversed();
    if (step.kind == StepKind::kAttached) {
      p.arrival_source = attached[rng.uniform_int(0, 5)];
      if (rng.bernoulli(0.2)) p.labels = Labels{};   // a stripping VNF
    } else {
      p.arrival_source = static_cast<ElementId>(200 + rng.uniform_int(0, 4));
    }
    script.push_back(step);
  }
  return script;
}

/// Runs one step the per-packet way and folds what it returned.
void run_step(Forwarder& fw, const Step& step, Digest& digest) {
  Packet packet = step.packet;
  switch (step.kind) {
    case StepKind::kWire:
      digest.fold(fw.process_from_wire(packet));
      break;
    case StepKind::kAttached:
      digest.fold(fw.process_from_attached(packet));
      digest.fold(packet.labels.chain);   // re-affixed in place
      break;
    case StepKind::kAnnotated:
      digest.fold(fw.process_annotated(packet));
      digest.fold(packet.steering.pinning.vnf_instance);
      digest.fold(packet.steering.pinning.next_forwarder);
      digest.fold(packet.steering.pinning.prev_element);
      digest.fold(packet.steering.route_epoch);
      break;
    case StepKind::kComplete:
      digest.fold(fw.complete_flow(
          packet.labels, packet.direction == Direction::kForward
                             ? packet.flow
                             : packet.flow.reversed()));
      break;
    case StepKind::kDrain:
      digest.fold(fw.drain_element(step.drained));
      break;
    case StepKind::kReplaceRule:
      // Make-before-break: 102 and 201 leave, 105 and 204 join.
      fw.rules().install(kChain, make_rule({101, 103, 105}, {202, 204}));
      break;
    case StepKind::kRemoveRule:
      fw.rules().remove(kEgress);
      break;
  }
}

/// The table as sorted (key, entry) words.
std::vector<std::array<std::uint64_t, 6>> table_contents(
    const Forwarder& fw) {
  std::vector<std::array<std::uint64_t, 6>> rows;
  fw.flow_table().for_each([&](const Labels& labels, const FiveTuple& tuple,
                               const FlowEntry& entry) {
    rows.push_back({(std::uint64_t{labels.chain} << 32) | labels.egress_site,
                    (std::uint64_t{tuple.src_ip} << 32) | tuple.dst_ip,
                    (std::uint64_t{tuple.src_port} << 24) |
                        (std::uint64_t{tuple.dst_port} << 8) | tuple.protocol,
                    entry.vnf_instance, entry.next_forwarder,
                    entry.prev_element});
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace trace

TEST(ForwarderTrace, SeededScriptReproducesThePinnedDigest) {
  const std::unique_ptr<Forwarder> fw = trace::make_forwarder();
  trace::Digest digest;
  for (const trace::Step& step : trace::make_script(trace::kSeed)) {
    trace::run_step(*fw, step, digest);
  }
  const ForwarderCounters counters = fw->counters();
  for (const RelaxedCounter* counter :
       {&counters.from_wire, &counters.from_attached, &counters.flow_misses,
        &counters.drops, &counters.label_reaffixed}) {
    digest.fold(counter->value());
  }
  for (const auto& row : trace::table_contents(*fw)) {
    for (const std::uint64_t word : row) digest.fold(word);
  }
  EXPECT_EQ(digest.value, 0xf8bcc7fe2d1089a5ULL);
}

TEST(ForwarderTrace, BatchReplayActsLikePerPacketCalls) {
  // The script again on two forwarders: one takes each wire packet through
  // process_from_wire, the other takes each run of wire packets between two
  // other steps through process_batch.
  const std::unique_ptr<Forwarder> per_packet = trace::make_forwarder();
  const std::unique_ptr<Forwarder> batched = trace::make_forwarder();
  std::vector<ForwardAction> expected;
  std::vector<ForwardAction> replayed;
  std::vector<Packet> pending;
  const auto flush = [&] {
    std::vector<ForwardAction> actions(pending.size());
    const std::size_t delivered = batched->process_batch(pending, actions);
    EXPECT_EQ(delivered,
              static_cast<std::size_t>(std::count_if(
                  actions.begin(), actions.end(), [](const ForwardAction& a) {
                    return a.type != ActionType::kDrop;
                  })));
    replayed.insert(replayed.end(), actions.begin(), actions.end());
    pending.clear();
  };
  trace::Digest per_packet_steps;
  trace::Digest batched_steps;
  for (const trace::Step& step : trace::make_script(trace::kSeed)) {
    if (step.kind == trace::StepKind::kWire) {
      expected.push_back(per_packet->process_from_wire(step.packet));
      pending.push_back(step.packet);
      continue;
    }
    flush();
    trace::run_step(*per_packet, step, per_packet_steps);
    trace::run_step(*batched, step, batched_steps);
  }
  flush();
  EXPECT_EQ(replayed, expected);
  EXPECT_EQ(batched_steps.value, per_packet_steps.value);
  EXPECT_EQ(trace::table_contents(*batched),
            trace::table_contents(*per_packet));
}

// ------------------------------------------------------------ OvsForwarder

TEST(OvsForwarder, BridgeIsDeterministic) {
  OvsForwarder a{OvsMode::kBridge};
  OvsForwarder b{OvsMode::kBridge};
  const auto packets = make_packet_batch({.flow_count = 10}, 100);
  for (const Packet& p : packets) {
    EXPECT_EQ(a.process(p), b.process(p));
  }
}

TEST(OvsForwarder, AffinityLearnsRulesPerFlow) {
  OvsForwarder ovs{OvsMode::kLabelsAffinity};
  const auto packets = make_packet_batch({.flow_count = 10}, 200);
  for (const Packet& p : packets) ovs.process(p);
  // 2 rules per flow (forward + reverse learn).
  EXPECT_EQ(ovs.learned_rules(), 20u);
}

TEST(OvsForwarder, AffinityKeepsPortStable) {
  OvsForwarder ovs{OvsMode::kLabelsAffinity};
  PacketStream stream{{.flow_count = 4}};
  std::uint32_t first_ports[4];
  for (int i = 0; i < 4; ++i) first_ports[i] = ovs.process(stream.next());
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(ovs.process(stream.next()), first_ports[i]);
    }
  }
}

TEST(OvsForwarder, LabelsModeDoesHeaderWork) {
  OvsForwarder ovs{OvsMode::kLabels};
  const auto packets = make_packet_batch({.flow_count = 5}, 50);
  for (const Packet& p : packets) ovs.process(p);
  EXPECT_GT(ovs.work_digest(), 0u);
}

// -------------------------------------------------------------- TrafficGen

TEST(TrafficGen, RoundRobinAcrossFlows) {
  PacketStream stream{{.flow_count = 3}};
  const Packet a = stream.next();
  const Packet b = stream.next();
  const Packet c = stream.next();
  const Packet a2 = stream.next();
  EXPECT_NE(a.flow, b.flow);
  EXPECT_NE(b.flow, c.flow);
  EXPECT_EQ(a.flow, a2.flow);
}

TEST(TrafficGen, DistinctFlowsHaveDistinctTuples) {
  PacketStream stream{{.flow_count = 1000}};
  std::set<std::uint64_t> hashes;
  for (std::uint32_t f = 0; f < 1000; ++f) {
    hashes.insert(flow_hash(Labels{1, 1}, stream.flow_tuple(f)));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(TrafficGen, ReverseFractionApproximate) {
  TrafficGenConfig config;
  config.flow_count = 10;
  config.reverse_fraction = 0.3;
  const auto packets = make_packet_batch(config, 10000);
  int reverse = 0;
  for (const Packet& p : packets) {
    if (p.direction == Direction::kReverse) ++reverse;
  }
  EXPECT_NEAR(reverse / 10000.0, 0.3, 0.03);
}

TEST(TrafficGen, DeterministicForSeed) {
  const auto a = make_packet_batch({.flow_count = 7, .seed = 3}, 100);
  const auto b = make_packet_batch({.flow_count = 7, .seed = 3}, 100);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow);
    EXPECT_EQ(a[i].direction, b[i].direction);
  }
}

}  // namespace
}  // namespace switchboard::dataplane
