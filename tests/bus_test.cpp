#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bus/message_bus.hpp"
#include "bus/topic.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace switchboard::bus {
namespace {

BusConfig make_config(std::size_t sites, double delay_ms = 20.0) {
  BusConfig config;
  config.site_count = sites;
  config.inter_site_delay = [delay_ms](SiteId, SiteId) {
    return sim::from_ms(delay_ms);
  };
  return config;
}

// ------------------------------------------------------------------- Topic

TEST(Topic, PathsFollowPaperConvention) {
  const Topic t = forwarders_topic(ChainId{1}, 3, VnfId{7}, SiteId{2});
  EXPECT_EQ(t.path, "/c1/e3/vnf_7/site_2_forwarders");
  EXPECT_EQ(t.publisher_site, SiteId{2});
  const Topic i = instances_topic(ChainId{1}, 3, VnfId{7}, SiteId{2});
  EXPECT_EQ(i.path, "/c1/e3/vnf_7/site_2_instances");
  const Topic r = routes_topic(SiteId{0});
  EXPECT_EQ(r.path, "/chains/all");
  EXPECT_EQ(r.publisher_site, SiteId{0});
}

// ---------------------------------------------------------------- ProxyBus

TEST(ProxyBus, DeliversToRemoteSubscriber) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(3, 25.0)};
  const Topic topic{"/t", SiteId{0}};
  std::vector<std::string> received;
  sim::SimTime delivered_at = 0;
  bus.subscribe(SiteId{1}, topic, [&](const Message& m) {
    received.push_back(m.payload);
    delivered_at = sim.now();
  });
  bus.publish(topic, "hello");
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  // Service (0.1 ms) + propagation (25 ms).
  EXPECT_EQ(delivered_at, sim::from_ms(25.0) + sim::microseconds(100));
}

TEST(ProxyBus, NoSubscriberNoMessage) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(3)};
  bus.publish(Topic{"/t", SiteId{0}}, "x");
  sim.run();
  EXPECT_EQ(bus.stats().wide_area_messages, 0u);
  EXPECT_EQ(bus.stats().local_deliveries, 0u);
}

TEST(ProxyBus, OneWideAreaCopyPerSite) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(4)};
  const Topic topic{"/t", SiteId{0}};
  int delivered = 0;
  // Five subscribers at site 1, three at site 2.
  for (int i = 0; i < 5; ++i) {
    bus.subscribe(SiteId{1}, topic, [&](const Message&) { ++delivered; });
  }
  for (int i = 0; i < 3; ++i) {
    bus.subscribe(SiteId{2}, topic, [&](const Message&) { ++delivered; });
  }
  bus.publish(topic, "x");
  sim.run();
  EXPECT_EQ(bus.stats().wide_area_messages, 2u);   // one per site
  EXPECT_EQ(delivered, 8);
}

TEST(ProxyBus, LocalSubscriberNoWideArea) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(2)};
  const Topic topic{"/t", SiteId{0}};
  int delivered = 0;
  bus.subscribe(SiteId{0}, topic, [&](const Message&) { ++delivered; });
  bus.publish(topic, "x");
  sim.run();
  EXPECT_EQ(bus.stats().wide_area_messages, 0u);
  EXPECT_EQ(delivered, 1);
}

TEST(ProxyBus, EgressBufferOverflowDrops) {
  sim::Simulator sim;
  BusConfig config = make_config(2);
  config.egress_buffer = 4;
  config.per_message_service = sim::milliseconds(1);
  ProxyBus bus{sim, config};
  const Topic topic{"/t", SiteId{0}};
  bus.subscribe(SiteId{1}, topic, [](const Message&) {});
  for (int i = 0; i < 20; ++i) bus.publish(topic, "x");
  sim.run();
  EXPECT_GT(bus.stats().drops, 0u);
  EXPECT_LT(bus.stats().wide_area_messages, 20u);
  EXPECT_EQ(bus.stats().wide_area_messages + bus.stats().drops, 20u);
}

TEST(ProxyBus, DistinctTopicsAreIndependent) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(2)};
  int a_count = 0;
  int b_count = 0;
  bus.subscribe(SiteId{1}, Topic{"/a", SiteId{0}},
                [&](const Message&) { ++a_count; });
  bus.subscribe(SiteId{1}, Topic{"/b", SiteId{0}},
                [&](const Message&) { ++b_count; });
  bus.publish(Topic{"/a", SiteId{0}}, "x");
  sim.run();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 0);
}

TEST(ProxyBus, DuplicateSiteSubscriptionStillOneWireCopy) {
  sim::Simulator sim;
  ProxyBus bus{sim, make_config(2)};
  const Topic topic{"/t", SiteId{0}};
  int delivered = 0;
  bus.subscribe(SiteId{1}, topic, [&](const Message&) { ++delivered; });
  bus.subscribe(SiteId{1}, topic, [&](const Message&) { ++delivered; });
  bus.publish(topic, "x");
  sim.run();
  EXPECT_EQ(bus.stats().wide_area_messages, 1u);
  EXPECT_EQ(delivered, 2);
}

// ------------------------------------------------------------- FullMeshBus

TEST(FullMeshBus, OneCopyPerSubscriber) {
  sim::Simulator sim;
  FullMeshBus bus{sim, make_config(4)};
  const Topic topic{"/t", SiteId{0}};
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    bus.subscribe(SiteId{1}, topic, [&](const Message&) { ++delivered; });
  }
  bus.publish(topic, "x");
  sim.run();
  EXPECT_EQ(bus.stats().wide_area_messages, 5u);   // per subscriber!
  EXPECT_EQ(delivered, 5);
}

TEST(FullMeshBus, QueuingInflatesLatencyVersusProxy) {
  // Many subscribers spread across sites; a burst of publishes.  The
  // full mesh serializes copies per subscriber at the publisher egress,
  // the proxy bus one per site: mean delivery latency must be higher for
  // the mesh (Fig. 9).
  constexpr std::size_t kSites = 10;
  constexpr int kSubsPerSite = 8;
  constexpr int kBurst = 50;

  auto run = [&](auto& bus, sim::Simulator& sim) {
    const Topic topic{"/t", SiteId{0}};
    for (std::size_t s = 1; s < kSites; ++s) {
      for (int i = 0; i < kSubsPerSite; ++i) {
        bus.subscribe(SiteId{static_cast<SiteId::underlying_type>(s)}, topic,
                      [](const Message&) {});
      }
    }
    for (int i = 0; i < kBurst; ++i) bus.publish(topic, "x");
    sim.run();
  };

  sim::Simulator sim_proxy;
  ProxyBus proxy{sim_proxy, make_config(kSites)};
  run(proxy, sim_proxy);

  sim::Simulator sim_mesh;
  FullMeshBus mesh{sim_mesh, make_config(kSites)};
  run(mesh, sim_mesh);

  ASSERT_GT(proxy.stats().delivery_latency_ms.count(), 0u);
  ASSERT_GT(mesh.stats().delivery_latency_ms.count(), 0u);
  EXPECT_GT(mesh.stats().delivery_latency_ms.mean(),
            proxy.stats().delivery_latency_ms.mean());
  EXPECT_GT(mesh.stats().wide_area_messages,
            proxy.stats().wide_area_messages);
}

TEST(FullMeshBus, DropsUnderOverload) {
  sim::Simulator sim;
  BusConfig config = make_config(3);
  config.egress_buffer = 8;
  config.per_message_service = sim::milliseconds(1);
  FullMeshBus bus{sim, config};
  const Topic topic{"/t", SiteId{0}};
  for (int i = 0; i < 20; ++i) {
    bus.subscribe(SiteId{1}, topic, [](const Message&) {});
    bus.subscribe(SiteId{2}, topic, [](const Message&) {});
  }
  for (int i = 0; i < 10; ++i) bus.publish(topic, "x");
  sim.run();
  EXPECT_GT(bus.stats().drops, 0u);
}

// Property: both buses deliver the same *set* of messages when nothing
// drops — the topologies differ in cost, not semantics.
TEST(BusEquivalence, SameDeliveriesWithoutOverload) {
  constexpr std::size_t kSites = 5;
  auto run = [&](auto& bus, sim::Simulator& sim) {
    std::vector<int> delivered(kSites, 0);
    for (std::size_t s = 0; s < kSites; ++s) {
      bus.subscribe(SiteId{static_cast<SiteId::underlying_type>(s)},
                    Topic{"/t", SiteId{0}},
                    [&delivered, s](const Message&) { ++delivered[s]; });
    }
    for (int i = 0; i < 7; ++i) bus.publish(Topic{"/t", SiteId{0}}, "m");
    sim.run();
    return delivered;
  };

  sim::Simulator sim_a;
  ProxyBus proxy{sim_a, make_config(kSites)};
  const auto a = run(proxy, sim_a);

  sim::Simulator sim_b;
  FullMeshBus mesh{sim_b, make_config(kSites)};
  const auto b = run(mesh, sim_b);

  EXPECT_EQ(a, b);
  EXPECT_EQ(proxy.stats().drops, 0u);
  EXPECT_EQ(mesh.stats().drops, 0u);
}


// Property: for random topic/subscriber layouts (no overload), the proxy
// bus delivers exactly once per (publish, subscriber), and its wide-area
// cost is one message per (publish, distinct remote subscribed site).
class BusFanoutProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, BusFanoutProperty,
                         ::testing::Values(2, 12, 22, 32));

TEST_P(BusFanoutProperty, DeliveryAndWanCountsMatchTopology) {
  Rng rng{GetParam()};
  sim::Simulator sim;
  constexpr std::size_t kSites = 8;
  BusConfig config = make_config(kSites);
  config.egress_buffer = 1 << 20;   // no drops in this property
  ProxyBus bus{sim, config};

  const int topics = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<Topic> all_topics;
  std::vector<std::set<std::uint32_t>> remote_sites(topics);
  std::vector<int> subscriber_count(topics, 0);
  std::vector<int> delivered(topics, 0);
  for (int t = 0; t < topics; ++t) {
    const SiteId publisher{static_cast<SiteId::underlying_type>(
        rng.uniform_int(0, kSites - 1))};
    all_topics.push_back(Topic{"/t" + std::to_string(t), publisher});
    const int subs = static_cast<int>(rng.uniform_int(1, 12));
    for (int k = 0; k < subs; ++k) {
      const SiteId site{static_cast<SiteId::underlying_type>(
          rng.uniform_int(0, kSites - 1))};
      bus.subscribe(site, all_topics[t],
                    [&delivered, t](const Message&) { ++delivered[t]; });
      ++subscriber_count[t];
      if (site != publisher) remote_sites[t].insert(site.value());
    }
  }

  std::vector<int> publishes(topics, 0);
  std::uint64_t expected_wan = 0;
  for (int t = 0; t < topics; ++t) {
    publishes[t] = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < publishes[t]; ++i) {
      bus.publish(all_topics[t], "m" + std::to_string(i));
    }
    expected_wan +=
        static_cast<std::uint64_t>(publishes[t]) * remote_sites[t].size();
  }
  sim.run();

  for (int t = 0; t < topics; ++t) {
    EXPECT_EQ(delivered[t], publishes[t] * subscriber_count[t])
        << "topic " << t;
  }
  EXPECT_EQ(bus.stats().wide_area_messages, expected_wan);
  EXPECT_EQ(bus.stats().drops, 0u);
}

// ---------------------------------------------------------- Retained state

// Retained replay is shared by both topologies: each runs the same cases.
template <typename Bus>
class RetainedReplay : public ::testing::Test {
 protected:
  /// Publishes `payloads` on `topic` at site 0, lets them settle, then
  /// subscribes late at site 1 and returns what the replay delivered.
  std::vector<std::string> late_replay(
      const std::string& topic_path, const std::vector<std::string>& payloads,
      bool retain = true) {
    BusConfig config = make_config(2);
    config.retain_messages = retain;
    Bus bus{sim_, config};
    const Topic topic{topic_path, SiteId{0}};
    for (const std::string& payload : payloads) bus.publish(topic, payload);
    sim_.run();
    const std::uint64_t wide_area_before = bus.stats().wide_area_messages;
    std::vector<std::string> received;
    bus.subscribe(SiteId{1}, topic, [&received](const Message& m) {
      received.push_back(m.payload);
    });
    sim_.run();
    // One wide-area copy per replayed payload, nothing else.
    EXPECT_EQ(bus.stats().wide_area_messages - wide_area_before,
              received.size());
    return received;
  }

  sim::Simulator sim_;
};

using BusTypes = ::testing::Types<ProxyBus, FullMeshBus>;
TYPED_TEST_SUITE(RetainedReplay, BusTypes);

// A consumer that upserts by id must end on the latest weight, not on a
// stale one the deduplication kept at its first position.
TYPED_TEST(RetainedReplay, RepublishedPayloadReplaysLast) {
  const auto received =
      this->late_replay("/c1/e2/vnf_3/site_0_forwarders",
                        {"id=5;w=1", "id=5;w=0", "id=5;w=1"});
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received.back(), "id=5;w=1");
}

TYPED_TEST(RetainedReplay, LateSubscriberGetsEachRetainedPayloadOnce) {
  auto received = this->late_replay("/t", {"a", "b", "a", "c", "b"});
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, (std::vector<std::string>{"a", "b", "c"}));
}

// The retained store against the one it replaced: a list searched with
// std::find, a republished payload rotated to the end.  Seeded random
// sequences over a small payload pool republish often; the late replay
// must deliver exactly the reference's payloads, in its order.
TYPED_TEST(RetainedReplay, MatchesListAndFindReferenceOverRandomRepublishes) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng{seed};
    const std::int64_t pool = rng.uniform_int(1, 12);
    const std::int64_t publishes = rng.uniform_int(1, 80);
    std::vector<std::string> sequence;
    std::vector<std::string> reference;
    for (std::int64_t i = 0; i < publishes; ++i) {
      std::string payload =
          "route;id=" + std::to_string(rng.uniform_int(0, pool - 1));
      const auto it = std::find(reference.begin(), reference.end(), payload);
      if (it == reference.end()) {
        reference.push_back(payload);
      } else {
        std::rotate(it, it + 1, reference.end());
      }
      sequence.push_back(std::move(payload));
    }
    EXPECT_EQ(this->late_replay("/chains/all", sequence), reference)
        << "seed " << seed;
  }
}

TYPED_TEST(RetainedReplay, HealthTopicReplaysNothing) {
  EXPECT_TRUE(this->late_replay("/health/site_0", {"beat1", "beat2"}).empty());
}

// Replication frames and acks are reliable but never retained: a late
// subscriber to a stream or ack topic gets no replay, while the routes
// topic published the same way still replays.
TYPED_TEST(RetainedReplay, ReplicationTopicReplaysNothing) {
  const std::vector<std::string> frames{"k=1;e=1;s=1", "k=1;e=1;s=2"};
  EXPECT_TRUE(this->late_replay(replication_stream_topic(0, 1, SiteId{0}).path,
                                frames)
                  .empty());
  EXPECT_TRUE(
      this->late_replay(replication_ack_topic(0, 1, SiteId{0}).path, frames)
          .empty());
  EXPECT_EQ(this->late_replay(routes_topic(SiteId{0}).path, frames), frames);
}

TYPED_TEST(RetainedReplay, RetainOffReplaysNothing) {
  EXPECT_TRUE(this->late_replay("/t", {"a", "b"}, /*retain=*/false).empty());
}

// ------------------------------------------------------------ ReliableBus

// Without abandonment, every reliable copy toward a silent site burns its
// full retry budget before counting as lost — this bounds the waste the
// crash path avoids.
TEST(ReliableBus, SilentSiteBurnsTheFullRetryBudget) {
  sim::Simulator sim;
  BusConfig config = make_config(2);
  config.reliable_delivery = true;
  config.fault_hook = [](SiteId, SiteId to, const std::string&) {
    sim::MessageVerdict verdict;
    verdict.drop = to == SiteId{1};   // site 1 went dark
    return verdict;
  };
  ProxyBus bus{sim, config};
  int delivered = 0;
  bus.subscribe(SiteId{1}, Topic{"/routes", SiteId{0}},
                [&delivered](const Message&) { ++delivered; });
  bus.publish(Topic{"/routes", SiteId{0}}, "r1");
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(bus.stats().retransmits, config.max_retransmits);
  EXPECT_EQ(bus.stats().lost_messages, 1u);
  EXPECT_EQ(bus.stats().abandoned_retransmits, 0u);
  EXPECT_EQ(bus.reliable_in_flight(), 0u);   // gave up -> terminal
}

TEST(ReliableBus, AbandonStopsRetransmitsTowardCrashedSite) {
  sim::Simulator sim;
  BusConfig config = make_config(2);
  config.reliable_delivery = true;
  config.fault_hook = [](SiteId, SiteId to, const std::string&) {
    sim::MessageVerdict verdict;
    verdict.drop = to == SiteId{1};
    return verdict;
  };
  ProxyBus bus{sim, config};
  bus.subscribe(SiteId{1}, Topic{"/routes", SiteId{0}},
                [](const Message&) {});
  bus.publish(Topic{"/routes", SiteId{0}}, "r1");
  bus.publish(Topic{"/routes", SiteId{0}}, "r2");

  // The site's crash is observed before the first ack timeout: both
  // pending copies are written off immediately instead of retrying
  // against silence until the budget runs out.
  sim.run_until(sim::from_ms(50.0));
  EXPECT_EQ(bus.reliable_in_flight(), 2u);
  bus.abandon_retransmits_to(SiteId{1});
  EXPECT_EQ(bus.reliable_in_flight(), 0u);
  sim.run();

  EXPECT_EQ(bus.stats().abandoned_retransmits, 2u);
  EXPECT_EQ(bus.stats().retransmits, 0u);
  EXPECT_EQ(bus.stats().lost_messages, 0u);
}

TEST(ReliableBus, PrefixAbandonWritesOffOnlyMatchingTopics) {
  // A crashed controller replica silences only its replication stream;
  // the site's other reliable traffic (route pushes to a co-located
  // Local Switchboard) must keep retrying.  The prefix overload scopes
  // the write-off to one topic family.
  sim::Simulator sim;
  BusConfig config = make_config(2);
  config.reliable_delivery = true;
  config.fault_hook = [](SiteId, SiteId to, const std::string&) {
    sim::MessageVerdict verdict;
    verdict.drop = to == SiteId{1};
    return verdict;
  };
  ProxyBus bus{sim, config};
  bus.subscribe(SiteId{1}, Topic{"/ctl/repl/0_1", SiteId{0}},
                [](const Message&) {});
  bus.subscribe(SiteId{1}, Topic{"/routes", SiteId{0}}, [](const Message&) {});
  bus.publish(Topic{"/ctl/repl/0_1", SiteId{0}}, "frame");
  bus.publish(Topic{"/routes", SiteId{0}}, "r1");

  sim.run_until(sim::from_ms(50.0));
  EXPECT_EQ(bus.reliable_in_flight(), 2u);
  bus.abandon_retransmits_to(SiteId{1}, "/ctl/repl/");
  EXPECT_EQ(bus.reliable_in_flight(), 1u);   // the route copy survives
  sim.run();

  EXPECT_EQ(bus.stats().abandoned_retransmits, 1u);
  // The surviving route copy burns its budget against the dead site.
  EXPECT_EQ(bus.stats().retransmits, config.max_retransmits);
  EXPECT_EQ(bus.stats().lost_messages, 1u);
}

TEST(ReliableBus, FinishedEntriesAreReapedNotAccumulated) {
  sim::Simulator sim;
  BusConfig config = make_config(2);
  config.reliable_delivery = true;
  ProxyBus bus{sim, config};
  int delivered = 0;
  bus.subscribe(SiteId{1}, Topic{"/routes", SiteId{0}},
                [&delivered](const Message&) { ++delivered; });
  for (int i = 0; i < 3; ++i) {
    bus.publish(Topic{"/routes", SiteId{0}}, "m" + std::to_string(i));
  }
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(bus.stats().acks, 3u);
  EXPECT_EQ(bus.reliable_in_flight(), 0u);
  EXPECT_EQ(bus.reliable_tracked(), 3u);   // finished, awaiting reap

  // The next reliable send sweeps the finished entries before tracking
  // its own copy: state is bounded by the in-flight window, not history.
  bus.publish(Topic{"/routes", SiteId{0}}, "m3");
  EXPECT_EQ(bus.reliable_tracked(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(bus.reliable_in_flight(), 0u);
}

}  // namespace
}  // namespace switchboard::bus
