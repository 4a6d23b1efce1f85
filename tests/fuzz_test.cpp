// Randomized differential tests ("fuzz"): drive data-plane and simulator
// components with random operation sequences and compare against simple
// reference models.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/dht_flow_table.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/sharded_flow_table.hpp"
#include "sim/simulator.hpp"

namespace switchboard {
namespace {

using namespace dataplane;

FiveTuple tuple_for(std::uint32_t i) {
  return FiveTuple{0x0A000000u + (i % 97), 0xC0A80000u + (i % 89),
                   static_cast<std::uint16_t>(1000 + i % 83),
                   static_cast<std::uint16_t>(2000 + i % 79),
                   static_cast<std::uint8_t>(i % 2 ? 6 : 17)};
}

// ---------------------------------------------- ShardedFlowTable vs std::map

struct KeyLess {
  bool operator()(const std::pair<Labels, FiveTuple>& a,
                  const std::pair<Labels, FiveTuple>& b) const {
    const auto pack = [](const std::pair<Labels, FiveTuple>& k) {
      return std::make_tuple(k.first.chain, k.first.egress_site,
                             k.second.src_ip, k.second.dst_ip,
                             k.second.src_port, k.second.dst_port,
                             k.second.protocol);
    };
    return pack(a) < pack(b);
  }
};

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(1, 7, 42, 1337));

TEST_P(FlowTableFuzz, MatchesReferenceMap) {
  Rng rng{GetParam()};
  ShardedFlowTable table{16, 1};   // small: forces growth + tombstone churn
  std::map<std::pair<Labels, FiveTuple>, FlowEntry, KeyLess> reference;

  for (int op = 0; op < 20000; ++op) {
    const auto i = static_cast<std::uint32_t>(rng.uniform_int(0, 400));
    const Labels labels{static_cast<std::uint32_t>(rng.uniform_int(1, 3)), 1};
    const FiveTuple t = tuple_for(i);
    const auto key = std::make_pair(labels, t);
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const FlowEntry entry{i, i + 1, i + 2};
      table.insert(labels, t, entry);
      reference[key] = entry;
    } else if (dice < 0.8) {
      const std::optional<FlowEntry> found = table.find(labels, t);
      const auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_FALSE(found.has_value());
      } else {
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->vnf_instance, ref->second.vnf_instance);
        EXPECT_EQ(found->next_forwarder, ref->second.next_forwarder);
        EXPECT_EQ(found->prev_element, ref->second.prev_element);
      }
    } else {
      const bool erased = table.erase(labels, t);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    }
    ASSERT_EQ(table.size(), reference.size());
  }
}

TEST_P(FlowTableFuzz, DhtMatchesReferenceUnderChurnAndFailures) {
  Rng rng{GetParam() + 50};
  DhtFlowTable dht{4};
  std::map<std::pair<Labels, FiveTuple>, FlowEntry, KeyLess> reference;

  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<std::uint32_t>(rng.uniform_int(0, 300));
    const Labels labels{1, 1};
    const FiveTuple t = tuple_for(i);
    const auto key = std::make_pair(labels, t);
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const FlowEntry entry{i, i, i};
      dht.insert(labels, t, entry);
      reference[key] = entry;
    } else if (dice < 0.75) {
      const auto found = dht.find(labels, t);
      const auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_FALSE(found.has_value());
      } else {
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->vnf_instance, ref->second.vnf_instance);
      }
    } else if (dice < 0.9) {
      EXPECT_EQ(dht.erase(labels, t), reference.erase(key) > 0);
    } else if (dht.live_node_count() > 2) {
      // Fail a random live node; with RF=2 and one failure at a time,
      // nothing may be lost.
      std::size_t node = 0;
      do {
        node = static_cast<std::size_t>(rng.uniform_int(0, 3));
      } while (!dht.node_alive(node));
      dht.fail_node(node);
    } else {
      for (std::size_t n = 0; n < dht.node_count(); ++n) {
        if (!dht.node_alive(n)) dht.recover_node(n);
      }
    }
  }
  // Final sweep: every reference entry must be resolvable.
  for (const auto& [key, entry] : reference) {
    const auto found = dht.find(key.first, key.second);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->vnf_instance, entry.vnf_instance);
  }
}

// ------------------------------------------------ Forwarder affinity fuzz

class ForwarderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ForwarderFuzz, ::testing::Values(3, 9, 27));

TEST_P(ForwarderFuzz, AffinityInvariantUnderRuleChurn) {
  // Random interleaving of packets and rule updates: once a flow is
  // pinned, its delivery target never changes (until completed), no
  // matter how rules churn.
  Rng rng{GetParam()};
  Forwarder fw{1};
  const Labels labels{9, 9};

  auto install_random_rule = [&] {
    LoadBalanceRule rule;
    const int instances = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < instances; ++k) {
      rule.vnf_instances.add(100 + static_cast<ElementId>(rng.uniform_int(0, 9)),
                             rng.uniform(0.5, 2.0));
    }
    rule.next_forwarders.add(200, 1.0);
    fw.rules().install(labels, std::move(rule));
  };
  install_random_rule();

  std::unordered_map<std::uint32_t, ElementId> pinned;
  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform();
    const auto flow = static_cast<std::uint32_t>(rng.uniform_int(0, 200));
    if (dice < 0.75) {
      Packet p;
      p.flow = tuple_for(flow);
      p.labels = labels;
      p.arrival_source = 50;
      const ForwardAction action = fw.process_from_wire(p);
      ASSERT_EQ(action.type, ActionType::kDeliverToAttached);
      const auto it = pinned.find(flow);
      if (it != pinned.end()) {
        EXPECT_EQ(action.element, it->second) << "flow " << flow
                                              << " repinned at op " << op;
      } else {
        pinned[flow] = action.element;
      }
    } else if (dice < 0.9) {
      install_random_rule();   // affinity must survive this
    } else {
      fw.complete_flow(labels, tuple_for(flow));
      pinned.erase(flow);
    }
  }
}

// ----------------------------------------------------------- Simulator fuzz

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz, ::testing::Values(5, 55, 555));

TEST_P(SimulatorFuzz, RandomScheduleCancelKeepsOrderAndCounts) {
  Rng rng{GetParam()};
  sim::Simulator sim;
  int fired = 0;
  int expected = 0;
  sim::SimTime last = -1;
  bool monotone = true;

  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 5000; ++i) {
    const auto delay = rng.uniform_int(0, 10000);
    handles.push_back(sim.schedule(delay, [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      ++fired;
    }));
    ++expected;
  }
  // Cancel a random third.
  int cancelled = 0;
  for (const sim::EventHandle h : handles) {
    if (rng.bernoulli(0.33) && sim.cancel(h)) ++cancelled;
  }
  expected -= cancelled;
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace switchboard
