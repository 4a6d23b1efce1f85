// Replicated controller (DESIGN.md §18, ctest label: replication):
// journal streaming to hot-standby followers, quorum-acked state changes,
// deterministic epoch-fenced leader failover with no replay window, and
// the chaos soak proving repeated leader kills converge byte-identically
// to the fault-free end state.  Soak length honors SWB_CHAOS_SOAK_MS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "control/replication.hpp"
#include "sim/chaos_schedule.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using control::ReplicaGroup;
using core::DeploymentConfig;
using core::Middleware;

/// Simulated chaos-window length; CI's sanitizer soak raises it.
double soak_ms() {
  if (const char* env = std::getenv("SWB_CHAOS_SOAK_MS")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0) return parsed;
  }
  return 1500.0;
}

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

ChainSpec make_span_spec(EdgeServiceId edge, VnfId fw, std::string name) {
  ChainSpec spec;
  spec.name = std::move(name);
  spec.ingress_service = edge;
  spec.egress_service = edge;
  spec.ingress_node = NodeId{0};
  spec.egress_node = NodeId{3};
  spec.vnfs = {fw};
  spec.forward_traffic = 1.0;
  spec.reverse_traffic = 0.5;
  return spec;
}

DeploymentConfig replicated_config() {
  DeploymentConfig config;
  config.reliable_bus = true;   // replication streams need acked delivery
  return config;
}

/// Controller-side end-state fingerprint (chains, routes, weights, loads);
/// epochs and counters excluded — they legitimately differ between a
/// failed-over run and its fault-free reference.
std::string state_digest(core::Deployment& dep,
                         const std::vector<ChainId>& chains) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const ChainId chain : chains) {
    const control::ChainRecord* rec = dep.global().find_record(chain);
    if (rec == nullptr) {
      out << "c" << chain.value() << "=absent\n";
      continue;
    }
    out << "c" << rec->id.value() << " active=" << rec->active;
    for (const control::RouteRecord& route : rec->routes) {
      out << " r" << route.id.value() << "@";
      for (const SiteId site : route.vnf_sites) out << site.value() << ",";
      out << "w=" << route.weight;
    }
    out << "\n";
  }
  const te::Loads& loads = dep.global().loads();
  const model::NetworkModel& m = dep.network_model();
  for (std::size_t e = 0; e < m.topology().link_count(); ++e) {
    out << "L" << e << "="
        << loads.link_load(LinkId{static_cast<std::uint32_t>(e)}) << "\n";
  }
  for (std::size_t s = 0; s < m.sites().size(); ++s) {
    const SiteId site{static_cast<std::uint32_t>(s)};
    out << "S" << s << "=" << loads.site_load(site);
    for (std::size_t f = 0; f < m.vnfs().size(); ++f) {
      out << " v" << f
          << "=" << loads.vnf_site_load(VnfId{static_cast<std::uint32_t>(f)},
                                        site);
    }
    out << "\n";
  }
  return out.str();
}

/// Drives every kind of journaled change: two chain creations, a pinned
/// second route, a pool death that retires the routes placed there (a
/// chain left without one gets a replacement), and the pool's return.
/// Returns the chains once everything settled.
std::vector<ChainId> drive_journaled_changes(Middleware& mw, VnfId fw) {
  core::Deployment& dep = mw.deployment();
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  if (!a.ok()) {
    ADD_FAILURE() << a.error().to_string();
    return {};
  }
  const SiteId first =
      dep.global().record(a->chain).routes.front().vnf_sites.front();
  const SiteId other{first == SiteId{1} ? 2u : 1u};
  const auto second = mw.add_route(a->chain, {other});
  EXPECT_TRUE(second.ok()) << second.error().to_string();
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  if (!b.ok()) {
    ADD_FAILURE() << b.error().to_string();
    return {};
  }
  dep.global().on_instance_down(fw, first);
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  dep.global().on_instance_up(fw, first);
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  return {a->chain, b->chain};
}

// --------------------------------------------- streaming + quorum gating

TEST(Replication, StreamingKeepsHotStandbysConvergent) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();
  EXPECT_EQ(group.replica_count(), 3u);
  EXPECT_EQ(group.quorum(), 2u);   // majority of 3
  EXPECT_EQ(group.leader(), 0u);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(500.0));

  // Every follower holds every record the leader journaled, applied it to
  // its own controller state, and folded the identical digest.
  EXPECT_GT(group.records_streamed(), 0u);
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_EQ(group.digest(2), group.leader_digest());
  for (std::uint32_t r = 0; r < 3; ++r) {
    const control::ControllerState& state = group.state(r);
    std::size_t committed = 0;
    for (const control::ChainRecord& chain : state.chains) {
      committed += chain.routes.size();
    }
    EXPECT_EQ(state.chains.size(), 2u) << "replica " << r;
    EXPECT_EQ(committed, 2u) << "replica " << r;
    EXPECT_TRUE(state.inflight.empty()) << "replica " << r;
  }

  // Commits were held at the quorum barrier: each release waited for a
  // real cross-site durability round trip, not zero time.
  EXPECT_GT(group.barriers_released(), 0u);
  EXPECT_EQ(group.barriers_dropped(), 0u);
  EXPECT_GT(group.mean_quorum_ack_ms(), 0.0);
  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.divergences(), 0u);

  group.verify_convergence();
  group.check_invariants();
  dep.global().check_invariants();
  dep.stop_replication();
}

TEST(Replication, SingleReplicaGroupReleasesBarriersImmediately) {
  // Quorum 1-of-1 degenerates to the plain durable controller: every
  // barrier releases with zero wait, and compaction happens locally.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(1);
  ReplicaGroup& group = *dep.replica_group();
  EXPECT_EQ(group.quorum(), 1u);

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  EXPECT_GT(group.barriers_released(), 0u);
  EXPECT_EQ(group.mean_quorum_ack_ms(), 0.0);
  EXPECT_EQ(group.records_streamed(), 0u);   // nobody to stream to
  EXPECT_GT(group.journal(0).snapshots_taken(), 0u);
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, CompactionIsFencedOnFollowerInstallAcks) {
  // An aggressive snapshot interval forces replicated compactions during
  // chain creation: the leader's log must only truncate after a quorum of
  // followers durably installed the snapshot, and followers must land on
  // the identical digest afterwards.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config = replicated_config();
  config.replication.journal.snapshot_interval = 4;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(500.0));

  EXPECT_GT(group.snapshot_installs_sent(), 0u);
  EXPECT_GT(group.replicated_compactions(), 0u);
  EXPECT_GT(group.journal(0).snapshots_taken(), 0u);
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_EQ(group.digest(2), group.leader_digest());
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ----------------------------------------------- hot failover mid-2PC

TEST(Replication, LeaderDeathMid2PCFailsOverToReferenceState) {
  // Two runs over the same model and inputs.  `kill` crashes the leader
  // after the second chain's 2PC prepare record was journaled and
  // streamed but before the commit round ran; the elected standby must
  // re-drive the prepared round under the bumped epoch with NO journal
  // replay charged, and land byte-identically on the fault-free end
  // state.
  auto run = [](bool kill) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    Middleware mw{std::move(m), replicated_config()};
    core::Deployment& dep = mw.deployment();
    dep.enable_replication(3);
    ReplicaGroup& group = *dep.replica_group();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());
    const ChainId chain_a = a->chain;

    // The second creation is driven manually: its completion callback
    // belongs to the doomed incarnation and must never fire.
    const sim::SimTime t0 = dep.simulator().now();
    bool done_fired = false;
    dep.global().create_chain(make_span_spec(edge, fw, "b"),
                              [&done_fired](Result<control::CreationReport>) {
                                done_fired = true;
                              });
    const ChainId chain_b{chain_a.value() + 1};

    if (kill) {
      // Timeline from t0: site resolve 35 ms, route compute +20 ms,
      // prepare round +35 ms -> prep journaled and streamed at 90 ms; the
      // commit waits on the prep quorum barrier and runs ~20 ms after the
      // acks land.  Crash at 95 ms: after the prep stream left the
      // leader, before the commit round.
      dep.fault_injector().crash_at(t0 + sim::from_ms(95.0),
                                    "controller:leader");
      dep.simulator().run_until(t0 + sim::from_ms(100.0));
      EXPECT_FALSE(group.replica_up(0));
      EXPECT_FALSE(dep.global().up());
    }

    dep.simulator().run_until(t0 + sim::from_ms(3000.0));

    if (kill) {
      EXPECT_FALSE(done_fired)
          << "the dead incarnation's callback must not fire";
      EXPECT_EQ(group.elections(), 1u);
      EXPECT_EQ(group.cold_restarts(), 0u);
      EXPECT_NE(group.leader(), 0u);
      EXPECT_EQ(dep.global().epoch(), 2u);

      // Hot promotion: the standby's state was already live, so the
      // failover read no journal, charged zero replay cost, and still
      // re-drove the prepared commit.
      const control::ColdStartReport& report = dep.global().last_cold_start();
      EXPECT_EQ(report.replay_cost, sim::Duration{0});
      EXPECT_EQ(report.replayed_records, 0u);
      EXPECT_EQ(report.redriven_commits, 1u);
      EXPECT_FALSE(group.election_string().empty());
    } else {
      EXPECT_TRUE(done_fired);
      EXPECT_EQ(group.elections(), 0u);
      EXPECT_EQ(dep.global().epoch(), 1u);
    }

    // Both runs must deliver on both chains end to end.
    for (const ChainId chain : {chain_a, chain_b}) {
      const auto walk = mw.send(chain, tuple(7));
      EXPECT_TRUE(walk.delivered) << walk.failure;
    }
    EXPECT_EQ(group.divergences(), 0u);
    group.verify_convergence();
    group.check_invariants();
    dep.global().check_invariants();
    dep.stop_replication();
    return state_digest(dep, {chain_a, chain_b});
  };

  const std::string reference = run(false);
  const std::string failed_over = run(true);
  EXPECT_EQ(failed_over, reference);
}

TEST(Replication, RestoreBeforeDetectionTakesTheColdPath) {
  // A leader that crashes and restores inside the detection window was
  // never deposed: no election runs, and recovery is the legacy §13 cold
  // start — full replay cost charged.  This is the contrast the failover
  // bench measures.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(60.0),
                                  "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(3000.0));

  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.cold_restarts(), 1u);
  EXPECT_EQ(group.leader(), 0u);
  EXPECT_EQ(dep.global().epoch(), 2u);
  EXPECT_GT(dep.global().last_cold_start().replay_cost, sim::Duration{0});
  const auto walk = mw.send(a->chain, tuple(9));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ------------------------------------------------ election determinism

TEST(Replication, ElectionIsDeterministicAcrossPresets) {
  // Three deployment presets, each run twice: the election trace —
  // election time, winner, epoch — must be byte-identical between runs of
  // the same preset.  Nothing in the failover path may consult wall
  // clocks, randomness, or container iteration order.
  struct Preset {
    std::uint32_t replicas;
    std::uint32_t quorum;   // 0 = majority
    double period_ms;
  };
  const std::vector<Preset> presets{{3, 0, 50.0}, {3, 2, 30.0}, {4, 0, 50.0}};

  auto run = [](const Preset& preset) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config = replicated_config();
    config.replication.quorum = preset.quorum;
    config.replication.detector.period = sim::from_ms(preset.period_ms);
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();
    dep.enable_replication(preset.replicas);
    ReplicaGroup& group = *dep.replica_group();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());

    const sim::SimTime t0 = dep.simulator().now();
    dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                  "controller:leader");
    dep.simulator().run_until(t0 + sim::from_ms(2000.0));
    EXPECT_EQ(group.elections(), 1u);
    dep.stop_replication();
    return group.election_string();
  };

  std::vector<std::string> traces;
  for (const Preset& preset : presets) {
    const std::string first = run(preset);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, run(preset)) << "election trace diverged between "
                                  << "identical runs";
    traces.push_back(first);
  }
  // The presets genuinely differ (different timing -> different traces).
  EXPECT_NE(traces[0], traces[1]);
}

// --------------------------------------- follower loss + catch-up resync

TEST(Replication, FollowerCrashDoesNotStallQuorumAndResyncsOnRestore) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Follower 2 dies; the 2-of-3 quorum (leader + follower 1) still
  // releases barriers, so the next creation completes during the outage.
  dep.fault_injector().crash("controller:replica2");
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(group.digest(1), group.leader_digest());
  EXPECT_NE(group.digest(2), group.leader_digest());

  // Restore: the live leader re-syncs the amnesiac follower with a fresh
  // snapshot install; it converges without an election or cold start.
  dep.fault_injector().restore("controller:replica2");
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(1000.0));

  EXPECT_EQ(group.elections(), 0u);
  EXPECT_EQ(group.cold_restarts(), 0u);
  EXPECT_GT(group.snapshot_installs_sent(), 0u);
  EXPECT_EQ(group.digest(2), group.leader_digest());
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, RecordLessInstallLeavesTheFollowerUnchanged) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(500.0));
  const std::uint64_t epoch = group.state(1).epoch;
  const std::size_t chains = group.state(1).chains.size();
  const std::uint64_t digest = group.digest(1);
  ASSERT_EQ(chains, 1u);

  // A snapshot install from the live leader, in its epoch, that carries no
  // records: applied, it would replace follower 1's state with an empty
  // one.  The bus bytes are untrusted, so the parser rejects the frame.
  control::ReplicationFrame install;
  install.kind = control::ReplicationKind::kSnapshotInstall;
  install.from = group.leader();
  install.epoch = dep.global().epoch();
  install.seq = 1;
  dep.bus().publish(
      bus::replication_stream_topic(group.leader(), 1,
                                    group.site_of(group.leader())),
      control::serialize(install));
  dep.simulator().run_until(dep.simulator().now() + sim::from_ms(40.0));

  EXPECT_EQ(group.state(1).epoch, epoch);
  EXPECT_EQ(group.state(1).chains.size(), chains);
  EXPECT_EQ(group.digest(1), digest);
  group.check_invariants();
  dep.stop_replication();
}

TEST(Replication, PartitionedLeaderIsAFalseSuspicionNotAnElection) {
  // The CP choice: heartbeat silence from a leader whose process is alive
  // (a pure partition) must never elect a second coordinator.  Move the
  // leader off the detector's site first, then cut the link between them.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Kill replica 0 long enough for a real election, then bring it back as
  // a follower.
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:leader");
  dep.fault_injector().restore_at(t0 + sim::from_ms(800.0),
                                  "controller:leader");
  dep.simulator().run_until(t0 + sim::from_ms(1500.0));
  ASSERT_EQ(group.elections(), 1u);
  const std::uint32_t leader = group.leader();
  ASSERT_NE(leader, 0u);
  ASSERT_TRUE(group.replica_up(0));

  // Partition the new leader's site from the detector's site (site 0).
  // Its heartbeats go silent while its process stays up: the detector
  // suspects it, the group refuses to elect, and the suspicion is
  // counted as false.
  const SiteId leader_site = group.site_of(leader);
  dep.fault_injector().partition_sites(SiteId{0}, leader_site);
  dep.simulator().run_until(t0 + sim::from_ms(2300.0));
  EXPECT_GE(group.false_suspicions(), 1u);
  EXPECT_EQ(group.elections(), 1u);
  EXPECT_EQ(group.leader(), leader);

  // Heal; the stalled follower catches up via the beat-loop repair
  // install and the group converges again.
  dep.fault_injector().heal_sites(SiteId{0}, leader_site);
  dep.simulator().run_until(t0 + sim::from_ms(3500.0));
  const auto walk = mw.send(a->chain, tuple(3));
  EXPECT_TRUE(walk.delivered) << walk.failure;
  group.verify_convergence();
  group.check_invariants();
  dep.stop_replication();
}

// ------------------------------------------ snapshot cut at every record

TEST(Replication, IdleLeaderKillAtEverySnapshotIntervalPromotesCleanly) {
  // Replicated compaction ships the leader's state at the moment an
  // append crosses the interval.  That state must already hold the
  // appended change, or a promoted standby would hold a prep without its
  // begin, or a prepared round the leader had already committed.
  for (std::uint32_t interval = 1; interval <= 8; ++interval) {
    SCOPED_TRACE("snapshot_interval " + std::to_string(interval));
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config = replicated_config();
    config.replication.journal.snapshot_interval = interval;
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();
    dep.enable_replication(3);
    ReplicaGroup& group = *dep.replica_group();

    const std::vector<ChainId> chains = drive_journaled_changes(mw, fw);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_GT(group.replicated_compactions(), 0u);
    const std::string fault_free = state_digest(dep, chains);

    const sim::SimTime t0 = dep.simulator().now();
    dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                  "controller:leader");
    dep.simulator().run_until(t0 + sim::from_ms(2000.0));

    ASSERT_EQ(group.elections(), 1u);
    const control::ColdStartReport& report = dep.global().last_cold_start();
    EXPECT_EQ(report.replayed_records, 0u);
    EXPECT_EQ(report.redriven_commits, 0u);
    EXPECT_EQ(report.aborted_inflight, 0u);
    EXPECT_EQ(state_digest(dep, chains), fault_free);
    group.verify_convergence();
    group.check_invariants();
    dep.global().check_invariants();
    dep.stop_replication();
  }
}

TEST(Replication, FormerLeaderRestoredWithoutALiveLeaderPromotesFromItsJournal) {
  // The first leader dies and a standby takes over; then every other
  // replica dies while the first restores, so no install can reach it.
  // Elected again, it must promote with the state its own journal holds.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  const std::string before = state_digest(dep, chains);

  t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:replica0");
  dep.simulator().run_until(t0 + sim::from_ms(1000.0));
  ASSERT_EQ(group.elections(), 1u);
  ASSERT_NE(group.leader(), 0u);

  t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:replica1");
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:replica2");
  dep.fault_injector().restore_at(t0 + sim::from_ms(20.0),
                                  "controller:replica0");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));
  ASSERT_EQ(group.elections(), 2u);
  EXPECT_EQ(group.leader(), 0u);
  EXPECT_EQ(dep.global().last_cold_start().chains_restored, 2u);
  EXPECT_EQ(state_digest(dep, chains), before);
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(chains.size());
       ++i) {
    const auto walk = mw.send(chains[i], tuple(20 + i));
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  group.check_invariants();
  dep.global().check_invariants();
  dep.stop_replication();
}

// ----------------------------------------------------------- chaos soak

// Repeated scripted leader kills — every outage longer than the detection
// window, so each kill forces a real election — plus partitions between
// replica sites.  After the window heals and the tail settles, the
// controller state must be byte-identical to its own pre-chaos snapshot:
// failovers are invisible to the state machine.
TEST(ReplicationSoak, RepeatedLeaderKillsConvergeByteIdentically) {
  const double window_ms = soak_ms();
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), replicated_config()};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  ReplicaGroup& group = *dep.replica_group();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 2; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const sim::SimTime t0 = dep.simulator().now();
  dep.simulator().run_until(t0 + sim::from_ms(200.0));
  const std::string before = state_digest(dep, chains);

  // Detection needs ~period * (threshold + 1) of silence; a 400 ms floor
  // clears the 50 ms x 3 default with margin, so every kill is detected
  // and elected around, never ridden out.
  const sim::SimTime horizon = t0 + sim::from_ms(200.0 + window_ms);
  sim::ChaosSchedule chaos{
      dep.simulator(),
      dep.fault_injector(),
      {.start = t0 + sim::from_ms(250.0),
       .horizon = horizon,
       .mean_gap = sim::from_ms(400.0),
       .min_outage = sim::from_ms(400.0),
       .max_outage = sim::from_ms(700.0),
       .crash_weight = 3.0,
       .partition_weight = 1.0,
       .crash_targets = {"controller:leader", "controller:replica1",
                         "controller:replica2"},
       .partition_sites = {SiteId{0}, SiteId{1}, SiteId{2}}},
      0xFA110FELL};
  chaos.arm();
  ASSERT_FALSE(chaos.plan().empty());

  // Step through the window auditing the group at each boundary.
  for (sim::SimTime at = t0; at < horizon; at += sim::from_ms(250.0)) {
    dep.simulator().run_until(at + sim::from_ms(250.0));
    group.check_invariants();
    dep.global().check_invariants();
    dep.fault_injector().check_invariants();
  }

  // Heal-and-settle tail: repair installs re-sync stalled followers.
  dep.simulator().run_until(horizon + sim::from_ms(2500.0));
  dep.stop_replication();

  EXPECT_GE(group.elections(), 1u)
      << "every outage outlives detection, so the plan must have elected";
  EXPECT_EQ(group.divergences(), 0u);
  EXPECT_EQ(state_digest(dep, chains), before)
      << "failovers leaked into the controller state";
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(chains.size());
       ++i) {
    const auto walk = mw.send(chains[i], tuple(50 + i));
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  group.verify_convergence();
  group.check_invariants();
  dep.global().check_invariants();
  dep.durable_store().check_invariants();
}

}  // namespace
}  // namespace switchboard
