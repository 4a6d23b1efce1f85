// Recovery-time experiment: VNF-pool failure under the heartbeat
// detector, as a function of the detector period.
//
// Scenario: chains spanning a 4-node line, firewall pools at the two
// middle sites.  At a scripted time every instance of the pool carrying
// the chains crashes.  Measured per detector period, all in *simulated*
// time (machine-independent for a fixed fault seed, so the headline
// reroute metrics are CI-gated):
//   - detection_ms: crash -> first element-down report at the detector;
//   - reroute_ms:   crash -> every affected chain active again with all
//                   routes off the dead pool;
//   - packets_lost / packets_sent: a fixed-cadence probe stream during
//     the failover window (lost = dropped, dead-pinned, or the chain was
//     between retirement and replacement activation);
//   - routes_rerouted / rerouted_volume: recovery work actually done.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "control/controller_state.hpp"
#include "switchboard/switchboard.hpp"

namespace {

using namespace switchboard;
using core::Middleware;

dataplane::FiveTuple flow_tuple(std::uint32_t chain, std::uint32_t k) {
  return dataplane::FiveTuple{0x0A300000u + chain, 0xC0A80003u + k, 9000,
                              443, 6};
}

struct RecoveryRun {
  double detection_ms{-1.0};
  double reroute_ms{-1.0};
  double routes_rerouted{0.0};
  double rerouted_volume{0.0};
  double packets_sent{0.0};
  double packets_lost{0.0};
};

RecoveryRun run_recovery(double period_ms, std::size_t chain_count) {
  model::NetworkModel m{net::make_line_topology(4, 400.0, 5.0)};
  m.add_site(NodeId{0}, 400.0, "A");
  m.add_site(NodeId{1}, 400.0, "X");
  m.add_site(NodeId{2}, 400.0, "Y");
  m.add_site(NodeId{3}, 400.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 400.0);
  m.deploy_vnf(fw, SiteId{2}, 400.0);

  core::DeploymentConfig config;
  config.fault_seed = 0x13FA17;
  config.detector.period = sim::from_ms(period_ms);
  config.detector.suspicion_threshold = 3;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  const EdgeServiceId edge = mw.register_edge_service("vpn");

  std::vector<ChainId> chains;
  for (std::size_t c = 0; c < chain_count; ++c) {
    control::ChainSpec spec;
    spec.name = "chain" + std::to_string(c);
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_node = NodeId{3};
    spec.vnfs = {fw};
    spec.forward_traffic = 1.0;
    spec.reverse_traffic = 0.5;
    const auto report = mw.create_chain(spec);
    SWB_CHECK(report.ok()) << report.error().to_string();
    chains.push_back(report->chain);
    // Pin one flow per chain so the failover drains real state.
    SWB_CHECK(mw.send(chains.back(), flow_tuple(
        static_cast<std::uint32_t>(c), 0)).delivered);
  }

  // Everything on the pool chain 0 uses dies; the other pool survives.
  const SiteId dead_site = mw.chain_record(chains[0]).routes[0].vnf_sites[0];
  RecoveryRun run;
  std::vector<ChainId> affected;
  for (const ChainId chain : chains) {
    const control::ChainRecord& record = mw.chain_record(chain);
    bool chain_affected = false;
    for (const control::RouteRecord& route : record.routes) {
      bool doomed = false;
      for (const SiteId site : route.vnf_sites) doomed |= site == dead_site;
      if (!doomed) continue;
      chain_affected = true;
      run.routes_rerouted += 1.0;
      run.rerouted_volume += route.weight *
          (record.spec.forward_traffic + record.spec.reverse_traffic);
    }
    if (chain_affected) affected.push_back(chain);
  }

  dep.enable_recovery();
  sim::Simulator& sim = dep.simulator();
  const sim::SimTime crash_at = sim.now() + sim::from_ms(100.0);
  for (const dataplane::ElementId id :
       dep.elements().vnf_instances_at(dead_site, fw)) {
    dep.fault_injector().crash_at(crash_at, "element:" + std::to_string(id));
  }

  // 1 ms probes: first detector report, then full reroute convergence.
  sim::SimTime detect_at = -1;
  sim::SimTime reroute_at = -1;
  const sim::SimTime horizon = crash_at + sim::from_ms(3000.0);
  for (sim::SimTime t = crash_at; t <= horizon; t += sim::from_ms(1.0)) {
    sim.schedule_at(t, [&, dead_site] {
      if (detect_at < 0 &&
          dep.failure_detector().element_failures_reported() > 0) {
        detect_at = sim.now();
      }
      if (reroute_at >= 0) return;
      for (const ChainId chain : affected) {
        const control::ChainRecord& record = mw.chain_record(chain);
        if (!record.active || record.routes.empty()) return;
        for (const control::RouteRecord& route : record.routes) {
          for (const SiteId site : route.vnf_sites) {
            if (site == dead_site) return;
          }
        }
      }
      reroute_at = sim.now();
    });
  }

  // 5 ms probe stream per chain across the failover window.
  const sim::SimTime stream_end = crash_at + sim::from_ms(1500.0);
  std::uint32_t k = 1;
  for (sim::SimTime t = crash_at; t <= stream_end;
       t += sim::from_ms(5.0), ++k) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      sim.schedule_at(t, [&, c, k] {
        const auto walk = mw.send(
            chains[c], flow_tuple(static_cast<std::uint32_t>(c), k));
        run.packets_sent += 1.0;
        if (!walk.delivered) run.packets_lost += 1.0;
      });
    }
  }

  sim.run_until(horizon + sim::from_ms(1.0));
  dep.stop_recovery();

  SWB_CHECK(detect_at >= 0) << "failure never detected";
  SWB_CHECK(reroute_at >= 0) << "chains never converged off the dead pool";
  run.detection_ms = sim::to_ms(detect_at - crash_at);
  run.reroute_ms = sim::to_ms(reroute_at - crash_at);
  return run;
}

// --- controller restart (DESIGN.md §13) ----------------------------------
// Crash-with-amnesia on the Global Switchboard: recovery replays the
// journal (snapshot + log), re-publishes every route under the new epoch,
// and reconciles participants.  Reported per (chain count, snapshot
// interval), in simulated time except where marked MEASURED:
//   - replay_records / replay_ms: journal size at crash time and the
//     simulated replay cost it charges — a MODELED bill, the configured
//     replay_cost_per_record times the records;
//   - measured_replay_ns_per_record: the MEASURED wall-clock cost of that
//     replay work on this host (ungated);
//   - measured_snapshot_cold_us / measured_snapshot_warm_us: the MEASURED
//     wall time to encode and write one snapshot of the replayed state
//     into a scratch journal — cold with every chain block to encode (the
//     first compaction after a restart), warm with nothing changed since
//     (ungated);
//   - recovery_ms: restore -> every Local Switchboard fenced at the new
//     epoch and every chain active again;
//   - reconciliation_messages: sweep + re-publish traffic of the fresh
//     incarnation.

struct RestartRun {
  double replay_records{0.0};
  double replay_ms{0.0};
  double measured_replay_ns_per_record{0.0};
  double measured_snapshot_cold_us{0.0};
  double measured_snapshot_warm_us{0.0};
  double recovery_ms{-1.0};
  double reconciliation_messages{0.0};
  double snapshots_taken{0.0};
};

struct MeasuredReplay {
  double ns_per_record{0.0};
  double snapshot_cold_us{0.0};
  double snapshot_warm_us{0.0};
};

/// Wall-clock cost of the replay a cold start does — ns per record of
/// folding `snapshot` + `log` through a fresh ControllerState with the
/// controller's id check — and of two snapshots of the replayed state,
/// each encoded and written to a scratch journal: the first encodes every
/// chain block, the second none.  Minimum over a few repeats.  Checks the
/// fold rejects `rejected` records, as the cold start did.
MeasuredReplay measure_replay(const control::GlobalSwitchboard& global,
                              const std::vector<std::string>& snapshot,
                              const std::vector<std::string>& log,
                              std::size_t rejected) {
  using Clock = std::chrono::steady_clock;
  const auto us_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  const control::ControllerState::IdCheck known = global.id_check();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double replay_us = kInf;
  MeasuredReplay best{kInf, kInf, kInf};
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto start = Clock::now();
    control::ControllerState state;
    const std::size_t skipped =
        state.apply_lines(snapshot, known) + state.apply_lines(log, known);
    replay_us = std::min(replay_us, us_since(start));
    SWB_CHECK_EQ(skipped, rejected);

    sim::DurableStore scratch;
    control::StateJournal journal{scratch};
    start = Clock::now();
    journal.write_snapshot(state.snapshot());
    best.snapshot_cold_us = std::min(best.snapshot_cold_us, us_since(start));
    start = Clock::now();
    journal.write_snapshot(state.snapshot());
    best.snapshot_warm_us = std::min(best.snapshot_warm_us, us_since(start));
  }
  best.ns_per_record =
      replay_us * 1e3 / static_cast<double>(snapshot.size() + log.size());
  return best;
}

RestartRun run_restart(std::size_t chain_count,
                       std::uint32_t snapshot_interval,
                       sim::Duration replay_cost_per_record =
                           control::JournalConfig{}.replay_cost_per_record) {
  model::NetworkModel m{net::make_line_topology(4, 400.0, 5.0)};
  m.add_site(NodeId{0}, 400.0, "A");
  m.add_site(NodeId{1}, 400.0, "X");
  m.add_site(NodeId{2}, 400.0, "Y");
  m.add_site(NodeId{3}, 400.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 400.0);
  m.deploy_vnf(fw, SiteId{2}, 400.0);
  const std::size_t site_count = m.sites().size();

  core::DeploymentConfig config;
  config.fault_seed = 0x13FA17;
  config.durable_controller = true;
  config.journal.snapshot_interval = snapshot_interval;
  config.journal.replay_cost_per_record = replay_cost_per_record;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  const EdgeServiceId edge = mw.register_edge_service("vpn");

  std::vector<ChainId> chains;
  for (std::size_t c = 0; c < chain_count; ++c) {
    control::ChainSpec spec;
    spec.name = "chain" + std::to_string(c);
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_node = NodeId{3};
    spec.vnfs = {fw};
    spec.forward_traffic = 1.0;
    spec.reverse_traffic = 0.5;
    const auto report = mw.create_chain(spec);
    SWB_CHECK(report.ok()) << report.error().to_string();
    chains.push_back(report->chain);
  }

  dep.register_fault_targets();
  sim::Simulator& sim = dep.simulator();
  const sim::SimTime restore_at = sim.now() + sim::from_ms(100.0);
  dep.fault_injector().crash_at(sim.now() + sim::from_ms(50.0),
                                "controller:global");
  dep.fault_injector().restore_at(restore_at, "controller:global");
  // The journal as the crash left it, for the measured replay.
  std::vector<std::string> crashed_snapshot;
  std::vector<std::string> crashed_log;
  sim.schedule_at(restore_at - sim::from_ms(1.0), [&] {
    crashed_snapshot = dep.state_journal()->snapshot_records();
    crashed_log = dep.state_journal()->log_records();
  });

  // 1 ms probes: recovery is complete when every Local Switchboard's route
  // fence reached the new incarnation's epoch (the re-publish landed
  // everywhere) and every chain is active again.
  sim::SimTime recovered_at = -1;
  const sim::SimTime horizon = restore_at + sim::from_ms(3000.0);
  for (sim::SimTime t = restore_at; t <= horizon; t += sim::from_ms(1.0)) {
    sim.schedule_at(t, [&] {
      if (recovered_at >= 0) return;
      const std::uint64_t epoch = dep.global().epoch();
      if (epoch < 2) return;
      for (std::size_t s = 0; s < site_count; ++s) {
        if (dep.local(SiteId{static_cast<std::uint32_t>(s)})
                .highest_route_epoch() < epoch) {
          return;
        }
      }
      for (const ChainId chain : chains) {
        if (!mw.chain_record(chain).active) return;
      }
      recovered_at = sim.now();
    });
  }

  sim.run_until(horizon + sim::from_ms(1.0));
  SWB_CHECK(recovered_at >= 0) << "controller never finished recovering";
  for (const ChainId chain : chains) {
    SWB_CHECK(mw.send(chain, flow_tuple(chain.value(), 7)).delivered);
  }

  const control::ColdStartReport& report = dep.global().last_cold_start();
  RestartRun run;
  run.replay_records = static_cast<double>(report.replayed_records);
  run.replay_ms = sim::to_ms(report.replay_cost);
  SWB_CHECK_EQ(crashed_snapshot.size() + crashed_log.size(),
               report.replayed_records);
  const MeasuredReplay measured = measure_replay(
      dep.global(), crashed_snapshot, crashed_log, report.rejected_records);
  run.measured_replay_ns_per_record = measured.ns_per_record;
  run.measured_snapshot_cold_us = measured.snapshot_cold_us;
  run.measured_snapshot_warm_us = measured.snapshot_warm_us;
  run.recovery_ms = sim::to_ms(recovered_at - restore_at);
  run.reconciliation_messages =
      static_cast<double>(report.reconciliation_messages);
  run.snapshots_taken =
      static_cast<double>(dep.state_journal()->snapshots_taken());
  return run;
}

// --- replicated failover (DESIGN.md §18) ---------------------------------
// Hot failover vs cold restart at matched journal length (snapshots off,
// so the journal holds every record of the run).  `hot`: a 3-replica
// group loses its leader for good; detection elects the freshest hot
// standby, which promotes with ZERO replay charged and re-publishes.
// `cold`: the single durable controller restores from disk and replays
// the identical journal.  Both windows start where the recovery work
// starts (election / restore) — detection latency is reported separately —
// so the difference is exactly the replay cost the hot standby never pays.

struct FailoverRun {
  double detection_ms{-1.0};     // crash -> election fired
  double hot_failover_ms{-1.0};  // election -> fences + chains recovered
  double cold_recovery_ms{-1.0}; // restore -> same condition, cold path
  double records_streamed{0.0};
  double quorum_ack_ms{0.0};
  double elections{0.0};
};

FailoverRun run_failover(std::size_t chain_count,
                         sim::Duration replay_cost_per_record) {
  model::NetworkModel m{net::make_line_topology(4, 400.0, 5.0)};
  m.add_site(NodeId{0}, 400.0, "A");
  m.add_site(NodeId{1}, 400.0, "X");
  m.add_site(NodeId{2}, 400.0, "Y");
  m.add_site(NodeId{3}, 400.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 400.0);
  m.deploy_vnf(fw, SiteId{2}, 400.0);
  const std::size_t site_count = m.sites().size();

  core::DeploymentConfig config;
  config.fault_seed = 0x13FA17;
  config.reliable_bus = true;
  config.replication.journal.snapshot_interval = 0;   // keep every record
  config.replication.journal.replay_cost_per_record = replay_cost_per_record;
  Middleware mw{std::move(m), config};
  core::Deployment& dep = mw.deployment();
  dep.enable_replication(3);
  control::ReplicaGroup& group = *dep.replica_group();
  const EdgeServiceId edge = mw.register_edge_service("vpn");

  std::vector<ChainId> chains;
  for (std::size_t c = 0; c < chain_count; ++c) {
    control::ChainSpec spec;
    spec.name = "chain" + std::to_string(c);
    spec.ingress_service = edge;
    spec.egress_service = edge;
    spec.ingress_node = NodeId{0};
    spec.egress_node = NodeId{3};
    spec.vnfs = {fw};
    spec.forward_traffic = 1.0;
    spec.reverse_traffic = 0.5;
    const auto report = mw.create_chain(spec);
    SWB_CHECK(report.ok()) << report.error().to_string();
    chains.push_back(report->chain);
  }

  sim::Simulator& sim = dep.simulator();
  const sim::SimTime crash_at = sim.now() + sim::from_ms(50.0);
  dep.fault_injector().crash_at(crash_at, "controller:leader");

  // Same recovered condition as the cold series: new epoch fenced at every
  // Local Switchboard and every chain active again.
  sim::SimTime recovered_at = -1;
  const sim::SimTime horizon = crash_at + sim::from_ms(3000.0);
  for (sim::SimTime t = crash_at; t <= horizon; t += sim::from_ms(1.0)) {
    sim.schedule_at(t, [&] {
      if (recovered_at >= 0) return;
      const std::uint64_t epoch = dep.global().epoch();
      if (epoch < 2) return;
      for (std::size_t s = 0; s < site_count; ++s) {
        if (dep.local(SiteId{static_cast<std::uint32_t>(s)})
                .highest_route_epoch() < epoch) {
          return;
        }
      }
      for (const ChainId chain : chains) {
        if (!mw.chain_record(chain).active) return;
      }
      recovered_at = sim.now();
    });
  }

  sim.run_until(horizon + sim::from_ms(1.0));
  dep.stop_replication();
  SWB_CHECK(recovered_at >= 0) << "failover never finished recovering";
  SWB_CHECK(group.elections() == 1) << "expected exactly one election";
  SWB_CHECK(group.cold_restarts() == 0) << "hot path must not cold start";
  for (const ChainId chain : chains) {
    SWB_CHECK(mw.send(chain, flow_tuple(chain.value(), 7)).delivered);
  }
  group.verify_convergence();

  // Election time from the deterministic trace: "t=<us>;winner=...".
  long long election_us = -1;
  SWB_CHECK(std::sscanf(group.election_string().c_str(), "t=%lld",
                        &election_us) == 1);
  SWB_CHECK(election_us >= crash_at);

  FailoverRun run;
  run.detection_ms = sim::to_ms(election_us - crash_at);
  run.hot_failover_ms = sim::to_ms(recovered_at - election_us);
  run.records_streamed = static_cast<double>(group.records_streamed());
  run.quorum_ack_ms = group.mean_quorum_ack_ms();
  run.elections = static_cast<double>(group.elections());

  // The cold contrast: one durable controller, the identical chain load
  // and journal economics, restored from disk after a scripted outage.
  const RestartRun cold = run_restart(chain_count, /*snapshot_interval=*/0,
                                      replay_cost_per_record);
  run.cold_recovery_ms = cold.recovery_ms;

  // The §18 acceptance property, checked in-binary on every run: the hot
  // window must beat the cold window, because the standby replays nothing.
  SWB_CHECK(run.hot_failover_ms < run.cold_recovery_ms)
      << "hot " << run.hot_failover_ms << " ms vs cold "
      << run.cold_recovery_ms << " ms";
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_fig13_recovery"};
  const std::size_t kChains = 6;

  std::printf("=== Recovery: detection + reroute latency vs beat period ===\n");
  std::printf("%-12s %14s %12s %16s %18s %14s\n", "period-ms", "detect-ms",
              "reroute-ms", "routes-rerouted", "rerouted-volume", "pkt-loss");

  for (const double period_ms : {25.0, 50.0, 100.0}) {
    const RecoveryRun run = run_recovery(period_ms, kChains);
    std::printf("%-12.0f %14.1f %12.1f %16.0f %18.2f %10.0f/%.0f\n",
                period_ms, run.detection_ms, run.reroute_ms,
                run.routes_rerouted, run.rerouted_volume, run.packets_lost,
                run.packets_sent);
    session.add("recovery")
        .param("period_ms", period_ms)
        .param("chains", static_cast<double>(kChains))
        .metric("detection_ms", run.detection_ms)
        .metric("reroute_ms", run.reroute_ms)
        .metric("routes_rerouted", run.routes_rerouted)
        .metric("rerouted_volume", run.rerouted_volume)
        .metric("packets_sent", run.packets_sent)
        .metric("packets_lost", run.packets_lost);
  }

  std::printf(
      "\nDetection tracks the beat period (one beat carries the element\n"
      "report); reroute adds compute + 2PC + rule install on top.\n");

  std::printf(
      "\n=== Controller restart: journal replay + re-publish convergence ===\n");
  std::printf("(replay: modeled = configured %.0f ns per record, simulated; "
              "measured = wall-clock fold on this host; snap-cold/warm-us = "
              "measured encode + write of one snapshot)\n",
              sim::to_ms(control::JournalConfig{}.replay_cost_per_record) *
                  1e6);
  std::printf("%-8s %10s %16s %18s %16s %14s %12s %12s %14s %14s\n",
              "chains", "snap-int", "replay-records", "modeled-replay-ms",
              "measured-ns/rec", "recovery-ms", "reconcile", "snapshots",
              "snap-cold-us", "snap-warm-us");
  struct RestartPoint {
    std::size_t chains;
    std::uint32_t snapshot_interval;
  };
  // Journal size scales with chain count; the snapshot interval trades
  // steady-state compaction work against replay length (0 = never
  // compact, the worst case).
  for (const RestartPoint point :
       {RestartPoint{2, 64}, RestartPoint{6, 64}, RestartPoint{12, 64},
        RestartPoint{6, 8}, RestartPoint{6, 0}}) {
    const RestartRun run =
        run_restart(point.chains, point.snapshot_interval);
    std::printf(
        "%-8zu %10u %16.0f %18.2f %16.0f %14.2f %12.0f %12.0f %14.1f %14.1f\n",
        point.chains, point.snapshot_interval, run.replay_records,
        run.replay_ms, run.measured_replay_ns_per_record, run.recovery_ms,
        run.reconciliation_messages, run.snapshots_taken,
        run.measured_snapshot_cold_us, run.measured_snapshot_warm_us);
    session.add("controller_restart")
        .param("chains", static_cast<double>(point.chains))
        .param("snapshot_interval",
               static_cast<double>(point.snapshot_interval))
        .metric("replay_records", run.replay_records)
        .metric("replay_ms", run.replay_ms)
        .metric("measured_replay_ns_per_record",
                run.measured_replay_ns_per_record)
        .metric("measured_snapshot_cold_us", run.measured_snapshot_cold_us)
        .metric("measured_snapshot_warm_us", run.measured_snapshot_warm_us)
        .metric("recovery_ms", run.recovery_ms)
        .metric("reconciliation_messages", run.reconciliation_messages)
        .metric("snapshots_taken", run.snapshots_taken);
  }

  std::printf(
      "\nReplay cost scales with journal records; compaction caps it.\n"
      "The replay bill is modeled (configured cost per record, charged in\n"
      "simulated time); the measured fold costs a small fraction of it.\n"
      "Recovery adds the epoch-fenced re-publish round trip on top.\n");

  std::printf(
      "\n=== Replicated failover: hot standby vs cold restart ===\n");
  std::printf("%-8s %12s %16s %16s %10s %12s %14s\n", "chains", "detect-ms",
              "hot-failover-ms", "cold-recover-ms", "streamed", "elections",
              "quorum-ack-ms");
  {
    // Replay priced high enough that the cold window is dominated by it:
    // the hot/cold gap is the replay bill the standby never pays.
    const std::size_t kFailoverChains = 12;
    const FailoverRun run =
        run_failover(kFailoverChains, sim::from_ms(0.2));
    std::printf("%-8zu %12.1f %16.2f %16.2f %10.0f %12.0f %14.2f\n",
                kFailoverChains, run.detection_ms, run.hot_failover_ms,
                run.cold_recovery_ms, run.records_streamed, run.elections,
                run.quorum_ack_ms);
    session.add("failover")
        .param("chains", static_cast<double>(kFailoverChains))
        .param("replicas", 3.0)
        .metric("detection_ms", run.detection_ms)
        .metric("hot_failover_ms", run.hot_failover_ms)
        .metric("cold_recovery_ms", run.cold_recovery_ms)
        .metric("records_streamed", run.records_streamed)
        .metric("elections", run.elections)
        .metric("quorum_ack_ms", run.quorum_ack_ms);
  }

  std::printf(
      "\nThe hot standby mirrors every journal record in memory, so\n"
      "promotion skips replay entirely; the cold path pays for every\n"
      "record in the journal before it can re-publish.\n");
  return 0;
}
