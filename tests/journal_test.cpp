// Controller durability (DESIGN.md §13): DurableStore and StateJournal
// mechanics, TwoPhaseTracker replay idempotency, and the crash-with-
// amnesia recovery path of the Global Switchboard — cold start from
// snapshot+replay, re-driven 2PC commits, epoch fencing at participants
// and Local Switchboards, and reconciliation of orphaned capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/durable_store.hpp"
#include "switchboard/switchboard.hpp"

namespace switchboard {
namespace {

using control::ChainSpec;
using control::StateJournal;
using control::TwoPhaseState;
using control::TwoPhaseTracker;
using core::DeploymentConfig;
using core::Middleware;

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

/// End-state fingerprint: chain/route/weight structure plus the full load
/// model, formatted round-trip-exact so two runs can be compared byte for
/// byte.  Excludes epochs and counters, which legitimately differ between
/// a crashed run and its fault-free reference.
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
    const LinkId link{static_cast<LinkId::underlying_type>(e)};
    out << "L" << e << "=" << loads.link_load(link) << "\n";
  }
  for (std::size_t s = 0; s < m.sites().size(); ++s) {
    const SiteId site{static_cast<SiteId::underlying_type>(s)};
    out << "S" << s << "=" << loads.site_load(site);
    for (std::size_t f = 0; f < m.vnfs().size(); ++f) {
      const VnfId vnf{static_cast<VnfId::underlying_type>(f)};
      out << " v" << f << "=" << loads.vnf_site_load(vnf, site);
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

/// The persisted state minus its epoch line (which a restart bumps).
std::vector<std::string> state_without_epoch(core::Deployment& dep) {
  std::vector<std::string> lines = dep.global().snapshot_state();
  lines.erase(lines.begin());
  return lines;
}

// ---------------------------------------------------------- DurableStore

TEST(DurableStore, AppendWriteReadEraseAndCounters) {
  sim::DurableStore store;
  EXPECT_FALSE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "");

  store.append("a", "one\n");
  store.append("a", "two\n");
  EXPECT_TRUE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "one\ntwo\n");
  EXPECT_EQ(store.appends(), 2u);

  store.write("a", "fresh\n");
  EXPECT_EQ(store.read("a"), "fresh\n");
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_GE(store.bytes_written(), std::string{"one\ntwo\nfresh\n"}.size());

  store.erase("a");
  EXPECT_FALSE(store.exists("a"));
  EXPECT_EQ(store.read("a"), "");
  store.check_invariants();
}

// ---------------------------------------------------------- StateJournal

TEST(StateJournal, AppendsAccumulateInTheLog) {
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 0}};
  journal.append("t=epoch;n=1");
  journal.append("t=nri;n=0");
  EXPECT_EQ(journal.appends(), 2u);
  EXPECT_FALSE(journal.wants_snapshot());   // interval 0 = never compact
  const auto log = journal.log_records();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "t=epoch;n=1");
  EXPECT_EQ(log[1], "t=nri;n=0");
  EXPECT_TRUE(journal.snapshot_records().empty());
  journal.check_invariants();
}

TEST(StateJournal, SnapshotCompactsTheLog) {
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 3}};
  journal.append("r1");
  journal.append("r2");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r3");
  EXPECT_TRUE(journal.wants_snapshot());

  journal.write_snapshot("s1\ns2\n");
  EXPECT_EQ(journal.snapshots_taken(), 1u);
  EXPECT_EQ(journal.records_compacted(), 3u);
  EXPECT_EQ(journal.appends_since_snapshot(), 0u);
  EXPECT_FALSE(journal.wants_snapshot());
  EXPECT_TRUE(journal.log_records().empty());
  const auto snap = journal.snapshot_records();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], "s1");
  EXPECT_EQ(snap[1], "s2");

  journal.append("r4");   // post-snapshot appends land in the fresh log
  ASSERT_EQ(journal.log_records().size(), 1u);
  EXPECT_EQ(journal.log_records()[0], "r4");
  journal.check_invariants();
}

TEST(StateJournal, TornTrailingRecordIsDroppedAndCounted) {
  // A crash mid-append leaves the last log record unterminated; replay
  // must shed exactly that record (its write never durably completed),
  // keep every record before it, and count the drop.
  sim::DurableStore store;
  StateJournal writer{store, {.name = "j", .snapshot_interval = 0}};
  writer.append("t=epoch;n=1");
  writer.append("t=nri;n=0");
  store.append(writer.log_blob(), "t=chain;id=7");   // no trailing '\n'

  StateJournal reader{store, {.name = "j", .snapshot_interval = 0}};
  const auto log = reader.log_records();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "t=epoch;n=1");
  EXPECT_EQ(log[1], "t=nri;n=0");
  EXPECT_EQ(reader.torn_records_dropped(), 1u);

  // The next append re-terminates the blob: the torn bytes stay dead (a
  // second read still drops one torn record, never a merged frankenstein
  // record), and the new record survives.
  reader.append("t=nri;n=1");
  const auto log2 = reader.log_records();
  ASSERT_EQ(log2.size(), 3u);
  EXPECT_EQ(log2[2], "t=nri;n=1");
  reader.check_invariants();
}

TEST(StateJournal, SnapshotAtExactIntervalBoundary) {
  // wants_snapshot() must trip exactly AT the interval, not one past it,
  // and the appends_since_snapshot counter must reset so the next window
  // is a full interval wide.
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 2}};
  journal.append("r1");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r2");
  EXPECT_TRUE(journal.wants_snapshot());
  journal.write_snapshot("s1\n");
  EXPECT_FALSE(journal.wants_snapshot());
  EXPECT_EQ(journal.appends_since_snapshot(), 0u);

  journal.append("r3");
  EXPECT_FALSE(journal.wants_snapshot());
  journal.append("r4");
  EXPECT_TRUE(journal.wants_snapshot());
  EXPECT_EQ(journal.snapshots_taken(), 1u);
  EXPECT_EQ(journal.records_compacted(), 2u);
  journal.check_invariants();
}

TEST(StateJournal, ReplayCostScalesWithPersistedRecords) {
  sim::DurableStore store;
  StateJournal journal{store,
                       {.name = "j",
                        .snapshot_interval = 0,
                        .replay_cost_per_record = sim::Duration{50}}};
  EXPECT_EQ(journal.replay_cost(), sim::Duration{0});
  journal.write_snapshot("s1\ns2\ns3\n");
  journal.append("r1");
  EXPECT_EQ(journal.replay_cost(), sim::Duration{4 * 50});
}

TEST(StateJournalDeathTest, SnapshotBlobMustHoldOnlyTerminatedRecords) {
  sim::DurableStore store;
  StateJournal journal{store, {.name = "j", .snapshot_interval = 0}};
  journal.write_snapshot("");   // an empty snapshot is fine
  EXPECT_DEATH(journal.write_snapshot("s1\ns2"), "terminated records");
  EXPECT_DEATH(journal.write_snapshot("\ns1\n"), "terminated records");
  EXPECT_DEATH(journal.write_snapshot("s1\n\ns2\n"), "empty snapshot record");
}

TEST(StateJournal, SplitAndJoinRecordsAreInverses) {
  const std::vector<std::string> records{"t=epoch;n=1", "t=nri;n=0"};
  EXPECT_EQ(control::join_records(records), "t=epoch;n=1\nt=nri;n=0\n");
  EXPECT_EQ(control::split_records(control::join_records(records)), records);
  // An unterminated tail is not a record.
  EXPECT_EQ(control::split_records("a\nb"), std::vector<std::string>{"a"});
  EXPECT_TRUE(control::split_records("").empty());
}

// ------------------------------------------------- TwoPhaseTracker replay

TEST(TwoPhaseReplay, DuplicateTerminalTransitionsAreRejectedAndCounted) {
  TwoPhaseTracker tracker;
  const ChainId chain{1};
  const RouteId route{2};
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kCommitted);

  // A late abort replayed against a committed route is protocol noise:
  // shed, counted, state untouched.
  EXPECT_FALSE(tracker.try_transition(chain, route, TwoPhaseState::kAborted));
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kCommitted);

  // A re-delivered commit is an idempotent terminal self-loop.
  EXPECT_TRUE(tracker.try_transition(chain, route, TwoPhaseState::kCommitted));
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.count(TwoPhaseState::kCommitted), 1u);
  tracker.check_invariants();
}

TEST(TwoPhaseReplay, CommitAfterAbortStaysRejected) {
  TwoPhaseTracker tracker;
  const ChainId chain{3};
  const RouteId route{4};
  tracker.transition(chain, route, TwoPhaseState::kPrepared);
  tracker.transition(chain, route, TwoPhaseState::kAborted);
  // The coordinator must never commit past a no vote; a replayed commit
  // for the aborted round bounces every time it is re-delivered.
  EXPECT_FALSE(tracker.try_transition(chain, route,
                                      TwoPhaseState::kCommitted));
  EXPECT_FALSE(tracker.try_transition(chain, route,
                                      TwoPhaseState::kCommitted));
  EXPECT_EQ(tracker.rejected(), 2u);
  EXPECT_EQ(tracker.state(chain, route), TwoPhaseState::kAborted);
  tracker.check_invariants();
}

// ------------------------------------------------- participant epoch fence

TEST(EpochFence, ParticipantRejectsCommandsFromOlderIncarnations) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  Middleware mw{std::move(m), {}};
  control::VnfController& c = mw.deployment().vnf_controller(fw);

  // Epoch 5 prepares; the fence advances to 5.
  EXPECT_TRUE(c.prepare(ChainId{9}, RouteId{1}, SiteId{1}, 1.0, 0, 5));
  EXPECT_EQ(c.highest_epoch(), 5u);

  // A stale incarnation's abort bounces without touching the round.
  c.abort(ChainId{9}, RouteId{1}, 3);
  EXPECT_EQ(c.stale_commands_rejected(), 1u);
  ASSERT_EQ(c.committed_routes().size(), 0u);

  // The current incarnation still drives the round to completion.
  c.commit(ChainId{9}, RouteId{1}, 42, 5);
  ASSERT_EQ(c.committed_routes().size(), 1u);
  EXPECT_EQ(c.committed_routes()[0].first, ChainId{9});
  c.check_invariants();
}

// ----------------------------------------- cold start: quiet-state replay

TEST(ColdStart, QuietCrashRecoversIdenticalStateAndBumpsEpoch) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  const auto b = mw.create_chain(make_span_spec(edge, fw, "b"));
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  const std::vector<ChainId> chains{a->chain, b->chain};

  EXPECT_TRUE(dep.global().durable());
  EXPECT_EQ(dep.global().epoch(), 1u);
  const std::string before = state_digest(dep, chains);

  // Crash with amnesia at a quiet moment and restore: replay alone must
  // reproduce the exact pre-crash state.
  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(50.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(dep.global().epoch(), 2u);
  EXPECT_EQ(state_digest(dep, chains), before);

  const control::ColdStartReport& report = dep.global().last_cold_start();
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.chains_restored, 2u);
  EXPECT_EQ(report.routes_restored, 2u);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_EQ(report.redriven_commits, 0u);
  EXPECT_EQ(report.aborted_inflight, 0u);
  EXPECT_EQ(report.orphans_released, 0u);
  EXPECT_GT(report.replay_cost, sim::Duration{0});

  // The amnesia restore is traced distinctly from a plain restore.
  ASSERT_EQ(dep.fault_injector().trace().size(), 2u);
  EXPECT_EQ(dep.fault_injector().trace()[0].kind, "crash");
  EXPECT_EQ(dep.fault_injector().trace()[1].kind, "restore-amnesia");

  dep.global().check_invariants();
  dep.state_journal()->check_invariants();
  dep.durable_store().check_invariants();
}

TEST(ColdStart, SnapshotCompactionSurvivesCrash) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  config.journal.snapshot_interval = 4;   // compact aggressively
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (int i = 0; i < 3; ++i) {
    const auto r =
        mw.create_chain(make_span_spec(edge, fw, "c" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  ASSERT_GT(dep.state_journal()->snapshots_taken(), 0u);
  ASSERT_GT(dep.state_journal()->records_compacted(), 0u);
  const std::string before = state_digest(dep, chains);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(state_digest(dep, chains), before);
  EXPECT_EQ(dep.global().last_cold_start().chains_restored, 3u);
}

// ------------------------------------ crash mid-2PC: re-driven commit

TEST(ColdStart, CrashBetweenPrepareAndCommitConvergesToReferenceRun) {
  // Two runs over the same model and inputs.  `crash` kills the Global
  // Switchboard after the 2PC prepare round of the second chain was
  // journaled but before the commit round ran; recovery must re-drive the
  // commit and land byte-identically on the fault-free end state.
  auto run = [](bool crash) {
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config;
    config.durable_controller = true;
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();

    const EdgeServiceId edge = mw.register_edge_service("vpn");
    const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
    EXPECT_TRUE(a.ok());
    const ChainId chain_a = a->chain;

    // The second creation is driven manually: its completion callback dies
    // with the crashed incarnation (the route still must activate).
    const sim::SimTime t0 = dep.simulator().now();
    bool done_fired = false;
    dep.global().create_chain(make_span_spec(edge, fw, "b"),
                              [&done_fired](Result<control::CreationReport>) {
                                done_fired = true;
                              });
    const ChainId chain_b{chain_a.value() + 1};

    if (crash) {
      // Timeline from t0: site resolve 35 ms, route compute +20 ms,
      // prepare round +35 ms -> prep journaled at 90 ms; commit runs at
      // 110 ms.  Crash in the gap.
      dep.register_fault_targets();
      dep.fault_injector().crash_at(t0 + sim::from_ms(95.0),
                                    "controller:global");
      dep.fault_injector().restore_at(t0 + sim::from_ms(200.0),
                                      "controller:global");
      dep.simulator().run_until(t0 + sim::from_ms(100.0));

      // Prove the crash point: chain b's round is journaled prepared but
      // not committed.
      bool saw_prep = false;
      bool saw_commit = false;
      for (const std::string& record : dep.state_journal()->log_records()) {
        if (record.find("t=prep;chain=" + std::to_string(chain_b.value())) !=
            std::string::npos) {
          saw_prep = true;
        }
        if (record.find("t=commit;chain=" +
                        std::to_string(chain_b.value())) !=
            std::string::npos) {
          saw_commit = true;
        }
      }
      EXPECT_TRUE(saw_prep) << "crash landed before the prepare round";
      EXPECT_FALSE(saw_commit) << "crash landed after the commit round";
    }

    dep.simulator().run_until(t0 + sim::from_ms(3000.0));

    if (crash) {
      EXPECT_FALSE(done_fired)
          << "the crashed incarnation's callback must not fire";
      EXPECT_EQ(dep.global().epoch(), 2u);
      EXPECT_EQ(dep.global().last_cold_start().redriven_commits, 1u);
    } else {
      EXPECT_TRUE(done_fired);
      EXPECT_EQ(dep.global().epoch(), 1u);
    }

    // Both runs must deliver on both chains end to end.
    for (const ChainId chain : {chain_a, chain_b}) {
      const auto walk =
          mw.send(chain, dataplane::FiveTuple{0x0A020001u, 0xC0A80002u, 3001,
                                              443, 6});
      EXPECT_TRUE(walk.delivered) << walk.failure;
    }
    dep.global().check_invariants();
    return state_digest(dep, {chain_a, chain_b});
  };

  const std::string reference = run(false);
  const std::string recovered = run(true);
  EXPECT_EQ(recovered, reference);
}

TEST(ColdStart, UnpreparedInflightRoundIsAborted) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const sim::SimTime t0 = dep.simulator().now();
  dep.global().create_chain(make_span_spec(edge, fw, "x"),
                            [](Result<control::CreationReport>) {});

  // Crash after the 2PC begin was journaled (55 ms: route computed,
  // commit_route ran) but before the prepare round (90 ms): recovery
  // cannot know any vote, so the round must abort.
  dep.register_fault_targets();
  dep.fault_injector().crash_at(t0 + sim::from_ms(60.0),
                                "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(150.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(3000.0));

  EXPECT_EQ(dep.global().last_cold_start().aborted_inflight, 1u);
  EXPECT_EQ(dep.global().last_cold_start().redriven_commits, 0u);
  // The chain record replayed but never activated; no capacity is held.
  const control::ChainRecord* rec = dep.global().find_record(ChainId{0});
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->active);
  EXPECT_TRUE(rec->routes.empty());
  EXPECT_EQ(dep.vnf_controller(fw).committed_routes().size(), 0u);
  dep.global().check_invariants();
}

// -------------------------------------------- reconciliation + LS fencing

TEST(ColdStart, OrphanedParticipantCapacityIsReleasedOnReconciliation) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Plant an orphan: capacity committed at the participant for a round no
  // journal record owns (as if the journaled release was lost with a
  // crashed disk batch on a pre-durability build).
  control::VnfController& c = dep.vnf_controller(fw);
  const std::uint64_t epoch = dep.global().epoch();
  ASSERT_TRUE(c.prepare(ChainId{77}, RouteId{99}, SiteId{1}, 2.0, 0, epoch));
  c.commit(ChainId{77}, RouteId{99}, 42, epoch);
  ASSERT_EQ(c.committed_routes().size(), 2u);   // chain a + the orphan

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  // The sweep released exactly the orphan; chain a's capacity survives.
  EXPECT_EQ(dep.global().last_cold_start().orphans_released, 1u);
  ASSERT_EQ(c.committed_routes().size(), 1u);
  EXPECT_EQ(c.committed_routes()[0].first, a->chain);
  dep.global().check_invariants();
}

TEST(ColdStart, OrphanedPreparedReservationIsAbortedOnReconciliation) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  // Plant a prepared orphan: a reservation for a round no journal record
  // begins, as a coordinator leaves behind when it gives up on a round
  // while the participant is unreachable.
  control::VnfController& c = dep.vnf_controller(fw);
  const double before = c.allocated(SiteId{1});
  ASSERT_TRUE(c.prepare(ChainId{77}, RouteId{99}, SiteId{1}, 2.0, 0,
                        dep.global().epoch()));
  ASSERT_DOUBLE_EQ(c.allocated(SiteId{1}), before + 2.0);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  // The sweep aborted exactly the orphan; chain a's capacity survives.
  EXPECT_EQ(dep.global().last_cold_start().orphans_released, 1u);
  EXPECT_EQ(c.two_phase_state(ChainId{77}, RouteId{99}),
            control::TwoPhaseState::kAborted);
  EXPECT_DOUBLE_EQ(c.allocated(SiteId{1}), before);
  ASSERT_EQ(c.committed_routes().size(), 1u);
  EXPECT_EQ(c.committed_routes()[0].first, a->chain);
  c.check_invariants();
  dep.global().check_invariants();
}

TEST(ColdStart, LocalSwitchboardFencesStaleEpochAnnouncements) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok());

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  // The epoch-2 republish advanced every site's fence.
  control::LocalSwitchboard& ls = dep.local(SiteId{0});
  ASSERT_EQ(ls.highest_route_epoch(), 2u);
  const std::uint64_t rejected_before = ls.stale_routes_rejected();

  // A retained epoch-1 announcement from the dead incarnation arrives
  // late: it must be fenced, not applied.
  const control::ChainRecord& rec = mw.chain_record(a->chain);
  control::RouteAnnouncement stale;
  stale.chain = rec.id;
  stale.route = RouteId{555};
  stale.chain_label = rec.labels.chain;
  stale.egress_label = rec.labels.egress_site;
  stale.ingress_site = rec.ingress_site;
  stale.egress_site = rec.egress_site;
  stale.weight = 1.0;
  stale.epoch = 1;
  ls.handle_route(stale);
  EXPECT_EQ(ls.stale_routes_rejected(), rejected_before + 1);
  EXPECT_EQ(ls.highest_route_epoch(), 2u);

  // Route announcements round-trip the epoch through the wire format.
  const std::string wire = control::serialize(stale);
  const auto parsed = control::parse_route(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 1u);
}

// ------------------------------------------ snapshot cut at every record

TEST(ColdStart, QuietCrashAtEverySnapshotIntervalRestoresTheExactState) {
  // A snapshot is cut by whichever append crosses the interval — a chain,
  // begin, prep, commit, retire, or pool record.  The change must already
  // be in the state when its record is appended, so a quiet crash after
  // any cut restores the exact state with nothing to re-drive or abort.
  for (std::uint32_t interval = 1; interval <= 8; ++interval) {
    SCOPED_TRACE("snapshot_interval " + std::to_string(interval));
    model::NetworkModel m = make_two_pool_model();
    const VnfId fw = m.vnfs()[0].id;
    DeploymentConfig config;
    config.durable_controller = true;
    config.journal.snapshot_interval = interval;
    Middleware mw{std::move(m), config};
    core::Deployment& dep = mw.deployment();

    const std::vector<ChainId> chains = drive_journaled_changes(mw, fw);
    ASSERT_EQ(chains.size(), 2u);
    ASSERT_GT(dep.state_journal()->snapshots_taken(), 1u);
    const std::string before = state_digest(dep, chains);
    const std::vector<std::string> persisted = state_without_epoch(dep);

    dep.register_fault_targets();
    const sim::SimTime t0 = dep.simulator().now();
    dep.fault_injector().crash_at(t0 + sim::from_ms(10.0),
                                  "controller:global");
    dep.fault_injector().restore_at(t0 + sim::from_ms(50.0),
                                    "controller:global");
    dep.simulator().run_until(t0 + sim::from_ms(2000.0));

    const control::ColdStartReport& report = dep.global().last_cold_start();
    EXPECT_EQ(report.epoch, 2u);
    EXPECT_EQ(report.redriven_commits, 0u);
    EXPECT_EQ(report.aborted_inflight, 0u);
    EXPECT_EQ(report.rejected_records, 0u);
    EXPECT_EQ(state_digest(dep, chains), before);
    EXPECT_EQ(state_without_epoch(dep), persisted);
    dep.global().check_invariants();
    dep.state_journal()->check_invariants();
  }
}

// --------------------------------------------------- route-id allocator

TEST(ColdStart, RejectedAddRouteLeavesTheAllocatorToTheJournal) {
  // Route ids advance only through journaled begin records: a request
  // rejected before its 2PC begins must leave the live allocator where the
  // journal has it, so a cold start restores the exact state.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  const EdgeServiceId edge = mw.register_edge_service("vpn");
  const auto a = mw.create_chain(make_span_spec(edge, fw, "a"));
  ASSERT_TRUE(a.ok()) << a.error().to_string();

  // Two placements for a one-VNF chain.
  const auto bad = mw.add_route(a->chain, {SiteId{1}, SiteId{2}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
  const std::vector<std::string> persisted = state_without_epoch(dep);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(10.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(50.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  EXPECT_EQ(dep.global().last_cold_start().epoch, 2u);
  EXPECT_EQ(state_without_epoch(dep), persisted);
  dep.global().check_invariants();
}

// ------------------------------------------------------- chain names

TEST(ChainNames, UnjournalableNameFailsThroughTheCallback) {
  // ';' and '\n' would break the record framing.  Such a name is an
  // invalid argument for the caller — with or without durability — and
  // never reaches the journal.
  for (const bool durable : {false, true}) {
    for (const std::string name : {"a;b", "line\nbreak"}) {
      SCOPED_TRACE((durable ? "durable, " : "volatile, ") + name);
      model::NetworkModel m = make_two_pool_model();
      const VnfId fw = m.vnfs()[0].id;
      DeploymentConfig config;
      config.durable_controller = durable;
      Middleware mw{std::move(m), config};
      core::Deployment& dep = mw.deployment();
      const EdgeServiceId edge = mw.register_edge_service("vpn");

      const auto bad = mw.create_chain(make_span_spec(edge, fw, name));
      ASSERT_FALSE(bad.ok());
      EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);

      // The controller is unharmed: the next creation goes through.
      const auto good = mw.create_chain(make_span_spec(edge, fw, "good"));
      ASSERT_TRUE(good.ok()) << good.error().to_string();
      EXPECT_EQ(dep.global().state().chains.size(), 1u);
      if (durable) {
        for (const std::string& record : dep.state_journal()->log_records()) {
          EXPECT_EQ(record.find(name), std::string::npos) << record;
        }
      }
      dep.global().check_invariants();
    }
  }
}

// ---------------------------------------------------- corrupted journal

TEST(ColdStart, CorruptedLogRecordIsSkippedAndCounted) {
  // One flipped byte in a middle log record must not stop recovery: the
  // record fails to decode, the records that depended on it fail to
  // apply, all are skipped and counted, and every other chain comes back.
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  config.journal.snapshot_interval = 0;   // every record stays in the log
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (const char* name : {"a", "b", "c"}) {
    const auto r = mw.create_chain(make_span_spec(edge, fw, name));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    chains.push_back(r->chain);
  }
  const control::ChainRecord a_before = dep.global().record(chains[0]);
  const control::ChainRecord c_before = dep.global().record(chains[2]);

  // Chain b's registration gets a letter where its ingress node id was.
  sim::DurableStore& store = dep.durable_store();
  const std::string blob = dep.state_journal()->log_blob();
  std::string bytes = store.read(blob);
  const std::size_t at =
      bytes.find("t=chain;id=" + std::to_string(chains[1].value()) + ";");
  ASSERT_NE(at, std::string::npos);
  const std::size_t field = bytes.find(";inn=", at);
  ASSERT_NE(field, std::string::npos);
  bytes[field + 5] = 'x';
  store.write(blob, bytes);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  const control::ColdStartReport& report = dep.global().last_cold_start();
  EXPECT_EQ(report.epoch, 2u);
  // The chain record, then b's begin, prep and commit, which no longer
  // fit a known chain.
  EXPECT_EQ(report.rejected_records, 4u);
  EXPECT_EQ(report.chains_restored, 2u);
  EXPECT_EQ(dep.global().find_record(chains[1]), nullptr);
  // b's committed capacity has no journaled owner any more.
  EXPECT_EQ(report.orphans_released, 1u);
  for (const control::ChainRecord* before : {&a_before, &c_before}) {
    const control::ChainRecord& after = dep.global().record(before->id);
    EXPECT_TRUE(after.active);
    ASSERT_EQ(after.routes.size(), before->routes.size());
    EXPECT_EQ(after.routes[0].id, before->routes[0].id);
    EXPECT_EQ(after.routes[0].vnf_sites, before->routes[0].vnf_sites);
    const auto walk = mw.send(
        before->id,
        dataplane::FiveTuple{0x0A020001u, 0xC0A80002u, 3001, 443, 6});
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  dep.global().check_invariants();
  dep.state_journal()->check_invariants();

  // The recovered controller keeps serving new chains.
  const auto d = mw.create_chain(make_span_spec(edge, fw, "d"));
  EXPECT_TRUE(d.ok()) << d.error().to_string();
}

/// Journals chains a, b and c with compaction off, lets `corrupt` rewrite
/// chain b's records in the log bytes, then crashes the controller and
/// cold-starts it.  Chains a and c must come back active on the routes
/// they had and carry a new flow.  Returns the cold start's report.
control::ColdStartReport cold_start_with_b_corrupted(
    const std::function<void(std::string& bytes, ChainId b)>& corrupt) {
  model::NetworkModel m = make_two_pool_model();
  const VnfId fw = m.vnfs()[0].id;
  DeploymentConfig config;
  config.durable_controller = true;
  config.journal.snapshot_interval = 0;   // every record stays in the log
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();

  const EdgeServiceId edge = mw.register_edge_service("vpn");
  std::vector<ChainId> chains;
  for (const char* name : {"a", "b", "c"}) {
    const auto r = mw.create_chain(make_span_spec(edge, fw, name));
    if (!r.ok()) {
      ADD_FAILURE() << r.error().to_string();
      return {};
    }
    chains.push_back(r->chain);
  }
  const control::ChainRecord a_before = dep.global().record(chains[0]);
  const control::ChainRecord c_before = dep.global().record(chains[2]);

  sim::DurableStore& store = dep.durable_store();
  const std::string blob = dep.state_journal()->log_blob();
  std::string bytes = store.read(blob);
  corrupt(bytes, chains[1]);
  store.write(blob, bytes);

  dep.register_fault_targets();
  const sim::SimTime t0 = dep.simulator().now();
  dep.fault_injector().crash_at(t0 + sim::from_ms(5.0), "controller:global");
  dep.fault_injector().restore_at(t0 + sim::from_ms(25.0),
                                  "controller:global");
  dep.simulator().run_until(t0 + sim::from_ms(2000.0));

  const control::ColdStartReport report = dep.global().last_cold_start();
  EXPECT_EQ(report.epoch, 2u);
  for (const control::ChainRecord* before : {&a_before, &c_before}) {
    const control::ChainRecord& after = dep.global().record(before->id);
    EXPECT_TRUE(after.active);
    EXPECT_EQ(after.routes, before->routes);
    const auto walk = mw.send(
        before->id,
        dataplane::FiveTuple{0x0A020001u, 0xC0A80002u, 3001, 443, 6});
    EXPECT_TRUE(walk.delivered) << walk.failure;
  }
  const control::ChainRecord* b = dep.global().find_record(chains[1]);
  EXPECT_TRUE(b == nullptr || (!b->active && b->routes.empty()));
  dep.global().check_invariants();
  dep.state_journal()->check_invariants();
  const auto d = mw.create_chain(make_span_spec(edge, fw, "d"));
  EXPECT_TRUE(d.ok()) << d.error().to_string();
  return report;
}

TEST(ColdStart, BeginNamingASiteOutsideTheModelIsSkippedAndCounted) {
  // A corrupted digit that still decodes: chain b's begin places its VNF
  // at site 999, which the model lacks.  Replay skips the begin, then b's
  // prep and commit, which no longer follow a begin; b comes back with no
  // route, and its committed capacity has no journaled owner.
  const control::ColdStartReport report =
      cold_start_with_b_corrupted([](std::string& bytes, ChainId b) {
        const std::size_t at =
            bytes.find("t=begin;chain=" + std::to_string(b.value()) + ";");
        ASSERT_NE(at, std::string::npos);
        const std::size_t sites = bytes.find(";sites=", at) + 7;
        bytes.replace(sites, bytes.find('\n', sites) - sites, "999");
      });
  EXPECT_EQ(report.rejected_records, 3u);
  EXPECT_EQ(report.chains_restored, 3u);
  EXPECT_EQ(report.routes_restored, 2u);
  EXPECT_EQ(report.orphans_released, 1u);
}

TEST(ColdStart, ChainRenumberedOutsideTheModelIsSkippedAndCounted) {
  // Chain b's records all name chain 999, which the model never
  // registered: its chain record is skipped, then its begin, prep and
  // commit, which name no known chain.
  const control::ColdStartReport report =
      cold_start_with_b_corrupted([](std::string& bytes, ChainId b) {
        const std::string id = std::to_string(b.value());
        using Rewrite = std::pair<std::string, std::string>;
        for (const auto& [from, to] :
             {Rewrite{"t=chain;id=" + id + ";", "t=chain;id=999;"},
              Rewrite{"chain=" + id + ";", "chain=999;"}}) {
          for (std::size_t at = bytes.find(from); at != std::string::npos;
               at = bytes.find(from, at + to.size())) {
            bytes.replace(at, from.size(), to);
          }
        }
      });
  EXPECT_EQ(report.rejected_records, 4u);
  EXPECT_EQ(report.chains_restored, 2u);
  EXPECT_EQ(report.routes_restored, 2u);
  EXPECT_EQ(report.orphans_released, 1u);
}

}  // namespace
}  // namespace switchboard
