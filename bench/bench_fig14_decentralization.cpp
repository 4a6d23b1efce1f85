// Decentralization experiment: what forwarding survives when the Global
// Switchboard is dead for the whole chaos window?
//
// Scenario: chains spanning the 4-node line with firewall pools at both
// middle sites and two installed routes each (one per pool).  At window
// start the Global Switchboard crashes and STAYS crashed; a quarter of
// the way in, every instance of the pool carrying route 0 dies.  The
// same fixed-cadence probe stream then measures, per routing mode:
//
//   - sb_dp / sb_lp:  the centralized modes keep forwarding on installed
//     rules, but flows pinned to the dead pool stay black-holed — the
//     only entity that could reroute them is the crashed controller;
//   - sb_anycast_d:   per-stage steering off the AnycastRouters'
//     link-state tables detours around the dead pool immediately (the
//     dead site refutes its own stale advertisement) and re-converges to
//     the direct path as soon as the next announcement flood lands —
//     no controller involved.
//
// All headline metrics are simulated-time deterministic for the fixed
// fault seed: packet counts gate exactly, availability gates
// direction-aware, and the anycast announcement/steering trace digest is
// checked in-binary across a duplicate run AND gated exactly in CI
// (tools/bench_diff.py).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "switchboard/switchboard.hpp"

namespace {

using namespace switchboard;
using core::Middleware;

enum class Mode { kSbDp, kSbLp, kSbAnycastD };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSbDp: return "sb_dp";
    case Mode::kSbLp: return "sb_lp";
    case Mode::kSbAnycastD: return "sb_anycast_d";
  }
  return "?";
}

dataplane::FiveTuple flow_tuple(std::uint32_t chain, std::uint32_t k) {
  return dataplane::FiveTuple{0x0A140000u + chain, 0xC0A80005u + k, 9100,
                              443, 6};
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct ModeRun {
  double packets_sent{0.0};
  double packets_forwarded{0.0};
  double availability{0.0};
  /// Kill -> last anomalous probe (failed, or detoured through the dead
  /// site after the kill).  0 when nothing after the kill was anomalous.
  double reconverge_ms{0.0};
  /// Wide-area announcement traffic (originals + re-floods); 0 for the
  /// centralized modes, which pay their coordination cost at the (dead)
  /// controller instead.
  double announce_messages{0.0};
  /// FNV-1a over the fault trace + every router's steering trace
  /// (sb_anycast_d only) — the determinism artifact.
  std::uint64_t trace_digest{0};
};

ModeRun run_mode(Mode mode, std::size_t chain_count, double window_ms) {
  model::NetworkModel m{net::make_line_topology(4, 400.0, 5.0)};
  m.add_site(NodeId{0}, 400.0, "A");
  m.add_site(NodeId{1}, 400.0, "X");
  m.add_site(NodeId{2}, 400.0, "Y");
  m.add_site(NodeId{3}, 400.0, "B");
  const VnfId fw = m.add_vnf("fw", 1.0);
  m.deploy_vnf(fw, SiteId{1}, 400.0);
  m.deploy_vnf(fw, SiteId{2}, 400.0);

  core::DeploymentConfig config;
  config.fault_seed = 0x14DECE;
  if (mode == Mode::kSbLp) {
    config.te_mode = control::GlobalSwitchboard::TeMode::kSbLp;
  }
  if (mode == Mode::kSbAnycastD) {
    config.enable_anycast = true;
    config.anycast.announce_period = sim::from_ms(20.0);
    config.anycast.stale_after_periods = 3;
  }
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
    // Second route on the other pool: the centralized modes get the best
    // possible starting position (half their flows survive the kill on
    // installed rules alone).
    const SiteId primary = mw.chain_record(chains.back())
                               .routes[0].vnf_sites[0];
    const SiteId other = primary == SiteId{1} ? SiteId{2} : SiteId{1};
    const auto second = mw.add_route(chains.back(), {other});
    SWB_CHECK(second.ok()) << second.error().to_string();
  }
  dep.register_fault_targets();

  sim::Simulator& sim = dep.simulator();
  if (mode == Mode::kSbAnycastD) {
    // Announcement floods need a few periods to populate every table.
    dep.start_anycast();
    sim.run_until(sim.now() + sim::from_ms(100.0));
  }

  const SiteId dead_site = mw.chain_record(chains[0]).routes[0].vnf_sites[0];
  const sim::SimTime window_start = sim.now();
  const sim::SimTime window_end = window_start + sim::from_ms(window_ms);
  const sim::SimTime kill_at = window_start + sim::from_ms(window_ms / 4.0);

  // The controller is dead for the WHOLE window; the mid-window pool kill
  // happens with nobody home to reroute.
  dep.fault_injector().crash_at(window_start, "controller:global");
  for (const dataplane::ElementId id :
       dep.elements().vnf_instances_at(dead_site, fw)) {
    dep.fault_injector().crash_at(kill_at, "element:" + std::to_string(id));
  }

  ModeRun run;
  sim::SimTime last_anomaly_at = -1;
  std::uint32_t k = 1;
  for (sim::SimTime t = window_start + sim::from_ms(5.0); t <= window_end;
       t += sim::from_ms(5.0), ++k) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      sim.schedule_at(t, [&, c, k, mode, dead_site, kill_at] {
        const dataplane::FiveTuple tuple =
            flow_tuple(static_cast<std::uint32_t>(c), k);
        const core::Deployment::WalkResult walk =
            mode == Mode::kSbAnycastD ? dep.inject_anycast(chains[c], tuple)
                                      : mw.send(chains[c], tuple);
        run.packets_sent += 1.0;
        if (walk.delivered) run.packets_forwarded += 1.0;
        // Anomalous = dropped, or (post-kill) detoured through the dead
        // pool's site.  Re-convergence = the last anomalous probe.
        bool anomalous = !walk.delivered;
        if (sim.now() >= kill_at) {
          for (const core::Deployment::HopTrace& hop : walk.path) {
            anomalous |= dep.elements().info(hop.element).site == dead_site;
          }
        }
        if (anomalous) last_anomaly_at = sim.now();
      });
    }
  }

  sim.run_until(window_end + sim::from_ms(1.0));
  if (mode == Mode::kSbAnycastD) dep.stop_anycast();

  run.availability =
      run.packets_sent > 0 ? run.packets_forwarded / run.packets_sent : 0.0;
  run.reconverge_ms =
      last_anomaly_at < kill_at ? 0.0 : sim::to_ms(last_anomaly_at - kill_at);
  // FNV-1a from a seed one digit short of its offset basis
  // (14695981039346656037); the exact trace_digest gate depends on it.
  std::uint64_t digest = 1469598103934665603ULL;
  digest = fnv1a(digest, dep.fault_injector().trace_string());
  if (mode == Mode::kSbAnycastD) {
    for (const model::CloudSite& site : dep.network_model().sites()) {
      const control::AnycastRouter& router = dep.anycast_router(site.id);
      run.announce_messages += static_cast<double>(
          router.announcements_sent() + router.refloods());
      digest = fnv1a(digest, router.trace_string());
      router.check_invariants();
    }
  }
  run.trace_digest = digest;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_fig14_decentralization"};
  const std::size_t chain_count = session.scaled(8, 4, 2);
  const double window_ms = session.smoke() ? 400.0 : 1500.0;

  std::printf(
      "=== Decentralization: forwarding with the controller dead ===\n"
      "chains=%zu window=%.0fms (controller crashed throughout; pool kill "
      "at t+%.0fms)\n\n",
      chain_count, window_ms, window_ms / 4.0);
  std::printf("%-14s %10s %12s %14s %14s %12s\n", "mode", "sent",
              "forwarded", "availability", "reconverge-ms", "announces");

  ModeRun runs[3];
  const Mode modes[3] = {Mode::kSbDp, Mode::kSbLp, Mode::kSbAnycastD};
  for (int i = 0; i < 3; ++i) {
    runs[i] = run_mode(modes[i], chain_count, window_ms);
    std::printf("%-14s %10.0f %12.0f %14.4f %14.1f %12.0f\n",
                mode_name(modes[i]), runs[i].packets_sent,
                runs[i].packets_forwarded, runs[i].availability,
                runs[i].reconverge_ms, runs[i].announce_messages);
  }
  const ModeRun& dp = runs[0];
  const ModeRun& lp = runs[1];
  const ModeRun& anycast = runs[2];

  // Determinism: an identical second run must replay byte-identical fault
  // and steering traces (DESIGN.md §14/§17).
  const ModeRun replay = run_mode(Mode::kSbAnycastD, chain_count, window_ms);
  SWB_CHECK_EQ(replay.trace_digest, anycast.trace_digest)
      << "anycast chaos run is not deterministic";
  SWB_CHECK_EQ(replay.packets_forwarded, anycast.packets_forwarded);
  SWB_CHECK_EQ(replay.reconverge_ms, anycast.reconverge_ms);

  // The headline claim, enforced in-binary: with the controller dead,
  // decentralized steering strictly beats both centralized modes, and it
  // re-converges off the dead pool on announcement cadence while the
  // centralized modes stay degraded to the end of the window.
  SWB_CHECK(anycast.availability > dp.availability)
      << "anycast availability must strictly beat SB-DP";
  SWB_CHECK(anycast.availability > lp.availability)
      << "anycast availability must strictly beat SB-LP";
  SWB_CHECK(anycast.reconverge_ms < 100.0)
      << "anycast never re-converged after the pool kill";
  SWB_CHECK(dp.reconverge_ms > anycast.reconverge_ms);
  SWB_CHECK(lp.reconverge_ms > anycast.reconverge_ms);

  for (int i = 0; i < 3; ++i) {
    session.add("decentralization")
        .param("mode", mode_name(modes[i]))
        .param("chains", static_cast<double>(chain_count))
        .param("window_ms", window_ms)
        .metric("packets_sent", runs[i].packets_sent)
        .metric("packets_forwarded", runs[i].packets_forwarded)
        .metric("availability", runs[i].availability)
        .metric("reconverge_ms", runs[i].reconverge_ms)
        .metric("announce_messages", runs[i].announce_messages)
        // %.17g doubles round-trip 53-bit integers exactly; enough of the
        // digest for an exact CI gate.
        .metric("trace_digest", static_cast<double>(
            runs[i].trace_digest & ((std::uint64_t{1} << 53) - 1)));
  }

  std::printf(
      "\nThe centralized modes coast on installed rules: every flow hashed\n"
      "onto the dead pool stays black-holed until the controller returns.\n"
      "SB-ANYCAST-D detours around the dead site immediately (the site's\n"
      "own registry refutes its stale advertisement) and drops back to the\n"
      "direct path one announcement period later — availability %.4f vs\n"
      "%.4f/%.4f, paid for with %.0f announcement messages.\n",
      anycast.availability, dp.availability, lp.availability,
      anycast.announce_messages);
  return 0;
}
