#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "control/messages.hpp"
#include "switchboard/switchboard.hpp"

namespace perfbench {
namespace {

using namespace switchboard;
using dataplane::Direction;
using dataplane::ElementId;
using dataplane::FiveTuple;

// ---- workload sizes -------------------------------------------------------
// The deployment is fixed (model::make_scenario with its own seed); the
// workload seed draws only what customers and users send it: the order in
// which chains are requested, which chains get a second route, and every
// connection and packet.
constexpr std::size_t kChains = 1000;
constexpr std::size_t kVnfs = 10;
constexpr std::size_t kAddRoutes = 100;
// 131,072 connections: at ~6 forwarders per path the flow tables hold
// about 800,000 entries (~95 B each), well past L2.
constexpr std::size_t kConnections = 131072;
constexpr double kZipfExponent = 1.0;
// One reverse packet per four forward ones (the scenario's reverse_ratio).
constexpr double kReverseShare = 0.2;
// Set-ups per run (setup_s is their median), and controller restarts in
// each.
constexpr std::size_t kSetups = 11;
constexpr std::size_t kRestarts = 4;
// Timed data-plane phases are cut into blocks of this length (see Series).
constexpr double kBlockSeconds = 0.02;
// Blocks between moves of the client thread to another CPU (CpuRotation).
constexpr std::size_t kBlocksPerCpu = 25;
// Other tenants of a shared host make a run up to 1.7 times slower, in
// stretches of tens of milliseconds to tens of seconds, and never faster;
// on a busy host the unhindered stretches are a small share of a run.
// So timings report the second percentile, across blocks, of the
// per-block statistic (rates the ninety-eighth), and a repeated
// operation's second percentile across set-ups (see ByPosition): the
// code's own speed, on the share of the run the host left it alone.
constexpr double kFast = 0.02;

model::ScenarioParams scenario_params() {
  model::ScenarioParams params;   // 24 sites (8 core + 16 access PoPs)
  params.vnf_count = kVnfs;
  params.chain_count = kChains;
  params.total_chain_traffic = 150.0;
  return params;
}

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  std::vector<std::size_t> order;           // scenario chain per position
  std::vector<std::size_t> route_positions; // positions given add_route
  std::uint64_t flow_seed{0};
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng{seed};
  Inputs in;
  in.order.resize(kChains);
  std::iota(in.order.begin(), in.order.end(), std::size_t{0});
  rng.shuffle(in.order);
  std::vector<std::size_t> positions(kChains);
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  rng.shuffle(positions);
  in.route_positions.assign(positions.begin(),
                            positions.begin() + kAddRoutes);
  std::sort(in.route_positions.begin(), in.route_positions.end());
  in.flow_seed = rng();
  return in;
}

/// A connection's forward 5-tuple.  The source address carries `prefix`
/// and a serial number, so tuples never repeat within a run.
FiveTuple make_flow(std::uint32_t prefix, std::uint64_t serial, Rng& rng) {
  const auto src = static_cast<std::uint32_t>(
      ((prefix + (serial >> 24)) << 24) | (serial & 0xFFFFFFu));
  return FiveTuple{src, static_cast<std::uint32_t>(rng()),
                   static_cast<std::uint16_t>(1024 + rng() % 60000),
                   static_cast<std::uint16_t>(rng() % 2 == 0 ? 80 : 443), 6};
}

// ---- accumulated measurements --------------------------------------------

struct Accum {
  // End to end.
  Series walk_ns;
  std::int64_t busy_ns{0};   // inject + complete_flow time
  std::uint64_t walks{0};
  std::vector<double> walk_pps;   // per block
  ByPosition create_us;           // by chain position
  ByPosition create_sim_ms;
  ByPosition add_route_us;        // by index into Inputs::route_positions
  ByPosition restart_ms;          // by restart of the round
  std::vector<double> setup_s;
  // Per layer.
  std::vector<double> scenario_ms;
  std::vector<double> deployment_ms;
  std::vector<double> warmup_s;
  std::vector<double> walk_self_ns;
  std::uint64_t hops{0};   // distinct forwarders over timed walks
  std::uint64_t te_calls{0};
  std::uint64_t te_admitted{0};
  std::uint64_t control_ops{0};
  std::uint64_t journal_appends{0};
  std::uint64_t snapshots{0};
  std::uint64_t wide_area_msgs{0};
  std::uint64_t local_deliveries{0};
  std::uint64_t events{0};
  std::uint64_t steps{0};
  std::int64_t step_ns{0};
  std::uint64_t replayed_records{0};
  std::uint64_t cold_starts{0};
  std::int64_t replay_charge_us{0};   // configured, modeled
  // Data-plane counter deltas over the timed phase.
  std::uint64_t forwarder_calls{0};
  std::uint64_t flow_misses{0};
  std::uint64_t table_inserts{0};
  std::uint64_t table_erases{0};
  std::uint64_t plane_walks{0};
  double flow_bytes{0.0};
  double flows{0.0};
};

struct Conn {
  std::size_t pos{0};   // creation position of its chain
  FiveTuple flow;
  std::vector<ElementId> instances;    // forward order
  std::vector<ElementId> forwarders;   // distinct, first-visit order
};

struct ChainInfo {
  ChainId id;
  dataplane::Labels labels;
  std::vector<VnfId> vnfs;
  ElementId ingress_edge{dataplane::kNoElement};
  ElementId egress_edge{dataplane::kNoElement};
};

struct Installation {
  std::unique_ptr<core::Middleware> mw;
  std::vector<control::ChainSpec> specs;   // by scenario chain index
  std::vector<ChainInfo> chains;           // by creation position
  std::vector<std::size_t> live;           // positions created
  std::vector<Conn> restart_conns;         // flows opened by restarts
};

/// Moves the client thread, in turn, to each CPU it may run on.  Which of
/// a shared host's cores a neighbour is loading changes over seconds, and
/// a thread left alone can sit on a loaded one for a whole run; moving it
/// every set-up and every half second lets the fast percentiles find an
/// unloaded one.  Does nothing when the thread may use one CPU only.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }
  [[nodiscard]] std::size_t count() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t turn_{0};
};

class Run {
 public:
  Run(const Options& options, Report& report, Tracer& tracer)
      : options_{options},
        report_{report},
        tracer_{tracer},
        inputs_{make_inputs(options.seed)} {}

  void execute();

 private:
  [[nodiscard]] bool traced() const { return tracer_.enabled(); }
  [[nodiscard]] std::uint64_t next_op() { return ++op_; }

  // Set-up and the control plane.
  Installation build(Accum& acc);
  void bring_up(Installation& inst, Accum& acc, std::uint64_t& digest);
  void drive(sim::Simulator& sim, const std::function<bool()>& done,
             Accum& acc);
  std::optional<Result<control::CreationReport>> create(
      Installation& inst, const control::ChainSpec& spec, Accum& acc);
  void time_route_codec(core::Deployment& dep, const control::ChainSpec& spec,
                        ChainId chain);
  void restart(Installation& inst, std::size_t restart_no, Accum& acc,
               std::uint64_t& digest);
  void audit(core::Deployment& dep);

  // The data plane.
  bool send(Installation& inst, Conn& conn, Direction dir, bool first,
            bool timed, Accum& acc, std::uint64_t* digest);
  bool replay(core::Deployment& dep, const ChainInfo& chain, const Conn& conn,
              Direction dir, std::vector<ElementId>& path,
              std::int64_t& forwarder_ns, bool record, std::uint64_t op);
  void close(Installation& inst, const Conn& conn, bool timed, Accum& acc);
  std::vector<Conn> warm_up(Installation& inst, Accum& acc,
                            std::uint64_t& digest);
  void plane_phase(Installation& inst, std::vector<Conn>& conns,
                   double seconds, Accum& acc);
  void plane_ops(Installation& inst, std::vector<Conn>& conns,
                 const std::vector<std::size_t>& rank_to_conn,
                 const ZipfSampler& zipf, Accum& acc);

  // Workloads.
  void report_end_to_end(Accum& acc);
  void note_digest(std::uint64_t digest);
  void report_per_layer(Accum& untraced, Accum& traced, double overhead);

  const Options& options_;
  Report& report_;
  Tracer& tracer_;
  Inputs inputs_;
  std::uint64_t op_{0};
  Rng traffic_{0};
  CpuRotation cpus_;
  std::uint64_t churn_serial_{0};
};

// ---- helpers --------------------------------------------------------------

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::uint64_t tuple_key(const FiveTuple& f) {
  return (std::uint64_t{f.src_ip} << 32 | f.dst_ip) ^
         (std::uint64_t{f.src_port} << 40 | std::uint64_t{f.dst_port} << 8 |
          f.protocol);
}

struct PlaneCounters {
  std::uint64_t calls{0};
  std::uint64_t misses{0};
  std::uint64_t inserts{0};
  std::uint64_t erases{0};
};

template <typename Fn>   // Fn(const dataplane::Forwarder&)
void for_each_forwarder(core::Deployment& dep, Fn&& fn) {
  control::ElementRegistry& el = dep.elements();
  for (std::size_t i = 0; i < el.size(); ++i) {
    const auto id = static_cast<ElementId>(i);
    if (el.info(id).type == control::ElementType::kForwarder) {
      fn(el.forwarder(id));
    }
  }
}

PlaneCounters plane_counters(core::Deployment& dep) {
  PlaneCounters total;
  for_each_forwarder(dep, [&](const dataplane::Forwarder& f) {
    const dataplane::ForwarderCounters c = f.counters();
    const dataplane::ShardedFlowTable::Stats s = f.flow_table().stats();
    total.calls += c.from_wire + c.from_attached;
    total.misses += c.flow_misses;
    total.inserts += s.inserts;
    total.erases += s.erases;
  });
  return total;
}

/// Adds the data-plane counter deltas since `before`, and the flow tables'
/// current footprint, to `acc`.
void add_plane_deltas(core::Deployment& dep, const PlaneCounters& before,
                      std::uint64_t walks, Accum& acc) {
  const PlaneCounters after = plane_counters(dep);
  acc.forwarder_calls += after.calls - before.calls;
  acc.flow_misses += after.misses - before.misses;
  acc.table_inserts += after.inserts - before.inserts;
  acc.table_erases += after.erases - before.erases;
  acc.plane_walks += walks;
  for_each_forwarder(dep, [&](const dataplane::Forwarder& f) {
    acc.flow_bytes += static_cast<double>(f.flow_table().memory_bytes());
    acc.flows += static_cast<double>(f.flow_table().size());
  });
}

/// Tracing overhead on one end-to-end metric: the traced half's median
/// over the untraced half's, printed with both.
double overhead(const char* metric, std::vector<double> untraced,
                std::vector<double> traced) {
  const double u = quantile(untraced, 0.5);
  const double t = quantile(traced, 0.5);
  std::printf("tracing overhead on %s: untraced %.6g, traced %.6g (x%.4f)\n",
              metric, u, t, ratio(t, u));
  return ratio(t, u);
}

// ---- set-up and the control plane ----------------------------------------

Installation Run::build(Accum& acc) {
  Installation inst;
  const std::int64_t t0 = now_ns();
  model::NetworkModel model = model::make_scenario(scenario_params());
  const std::int64_t t1 = now_ns();
  tracer_.record("model", "model.make_scenario", t0, t1, next_op());
  acc.scenario_ms.push_back(static_cast<double>(t1 - t0) / 1e6);

  for (const model::Chain& chain : model.chains()) {
    control::ChainSpec spec;
    spec.name = chain.name;
    spec.ingress_node = chain.ingress;
    spec.egress_node = chain.egress;
    spec.vnfs = chain.vnfs;
    spec.forward_traffic = chain.forward_traffic.front();
    spec.reverse_traffic = chain.reverse_traffic.front();
    inst.specs.push_back(std::move(spec));
  }

  const std::int64_t t2 = now_ns();
  core::DeploymentConfig config;
  config.durable_controller = true;
  inst.mw = std::make_unique<core::Middleware>(std::move(model), config);
  const EdgeServiceId edge = inst.mw->register_edge_service("edge");
  const std::int64_t t3 = now_ns();
  tracer_.record("core", "core.build_deployment", t2, t3, next_op());
  acc.deployment_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
  for (control::ChainSpec& spec : inst.specs) {
    spec.ingress_service = edge;
    spec.egress_service = edge;
  }
  return inst;
}

/// Steps the simulator until `done` holds or the event queue drains (the
/// loop Middleware runs inside its blocking calls); the traced run times
/// every step.
void Run::drive(sim::Simulator& sim, const std::function<bool()>& done,
                Accum& acc) {
  while (!done()) {
    if (!traced()) {
      if (!sim.step()) break;
      continue;
    }
    const std::int64_t t0 = now_ns();
    const bool stepped = sim.step();
    acc.step_ns += now_ns() - t0;
    if (!stepped) break;
    ++acc.steps;
  }
}

std::optional<Result<control::CreationReport>> Run::create(
    Installation& inst, const control::ChainSpec& spec, Accum& acc) {
  if (!traced()) return inst.mw->create_chain(spec);
  core::Deployment& dep = inst.mw->deployment();
  control::GlobalSwitchboard& global = dep.global();
  const std::uint64_t op = next_op();

  // The route SB-DP would compute right now, timed on its own.
  model::Chain chain;
  chain.ingress = spec.ingress_node;
  chain.egress = spec.egress_node;
  chain.vnfs = spec.vnfs;
  chain.forward_traffic.assign(spec.vnfs.size() + 1, spec.forward_traffic);
  chain.reverse_traffic.assign(spec.vnfs.size() + 1, spec.reverse_traffic);
  const std::int64_t t0 = now_ns();
  const te::SingleRoute route = te::find_single_route(
      dep.network_model(), chain, global.loads(), global.dp_options());
  const std::int64_t t1 = now_ns();
  tracer_.record("te", "te.find_single_route", t0, t1, op);
  ++acc.te_calls;
  if (route.found && route.admissible_fraction > 0) ++acc.te_admitted;

  std::optional<Result<control::CreationReport>> slot;
  const std::int64_t t2 = now_ns();
  global.create_chain(spec, [&slot](Result<control::CreationReport> r) {
    slot = std::move(r);
  });
  drive(dep.simulator(), [&slot] { return slot.has_value(); }, acc);
  tracer_.record("control", "control.create_chain", t2, now_ns(), op);
  return slot;
}

/// Times encoding and parsing of the route announcement the controller
/// publishes for a chain's first route, and checks the round trip.
void Run::time_route_codec(core::Deployment& dep,
                           const control::ChainSpec& spec, ChainId chain) {
  control::GlobalSwitchboard& global = dep.global();
  const control::ChainRecord& rec = global.record(chain);
  const control::RouteRecord& route = rec.routes.front();
  control::RouteAnnouncement msg;
  msg.chain = chain;
  msg.route = route.id;
  msg.chain_label = rec.labels.chain;
  msg.egress_label = rec.labels.egress_site;
  msg.ingress_site = rec.ingress_site;
  msg.egress_site = rec.egress_site;
  msg.weight = route.weight;
  msg.epoch = global.epoch();
  for (std::size_t z = 0; z < route.vnf_sites.size(); ++z) {
    msg.hops.push_back(control::RouteHop{z + 1, spec.vnfs[z],
                                         route.vnf_sites[z]});
  }
  const std::uint64_t op = next_op();
  const std::int64_t t0 = now_ns();
  const std::string payload = control::serialize(msg);
  const std::int64_t t1 = now_ns();
  const std::optional<control::RouteAnnouncement> parsed =
      control::parse_route(payload);
  const std::int64_t t2 = now_ns();
  tracer_.record("control", "control.serialize_route", t0, t1, op);
  tracer_.record("control", "control.parse_route", t1, t2, op);
  report_.check("route_codec_round_trip",
                parsed.has_value() && control::serialize(*parsed) == payload);
}

void Run::audit(core::Deployment& dep) {
  // Both audits abort the process on a violation; reaching the check
  // means they passed.
  dep.global().check_invariants();
  dep.simulator().check_invariants();
  report_.check("controller_and_simulator_invariants", true);
}

/// One round of chain set-up on `inst`: every chain created in the seeded
/// order, add_route on the seeded subset, then kRestarts cold starts.
void Run::bring_up(Installation& inst, Accum& acc, std::uint64_t& digest) {
  core::Deployment& dep = inst.mw->deployment();
  control::GlobalSwitchboard& global = dep.global();
  sim::Simulator& sim = dep.simulator();
  const control::StateJournal& journal = *dep.state_journal();
  const std::uint64_t appends0 = journal.appends();
  const std::uint64_t snapshots0 = journal.snapshots_taken();
  const bus::BusStats& bus = dep.bus().stats();
  const std::uint64_t wide0 = bus.wide_area_messages;
  const std::uint64_t local0 = bus.local_deliveries;
  const std::uint64_t events0 = sim.executed_events();

  inst.chains.assign(kChains, ChainInfo{});
  inst.live.clear();
  std::uint64_t ops = 0;
  for (std::size_t pos = 0; pos < kChains; ++pos) {
    const control::ChainSpec& spec = inst.specs[inputs_.order[pos]];
    report_.attempt();
    ++ops;
    const std::int64_t t0 = now_ns();
    const auto result = create(inst, spec, acc);
    const std::int64_t t1 = now_ns();
    if (!report_.check("create_chain_admitted",
                       result.has_value() && result->ok())) {
      if (result.has_value()) {
        std::fprintf(stderr, "  %s: %s\n", spec.name.c_str(),
                     result->error().to_string().c_str());
      }
      continue;
    }
    acc.create_us.add(pos, static_cast<double>(t1 - t0) / 1e3);
    acc.create_sim_ms.add(pos, sim::to_ms(result->value().elapsed()));
    const ChainId id = result->value().chain;
    const control::ChainRecord& rec = global.record(id);
    inst.chains[pos] = ChainInfo{
        id, rec.labels, spec.vnfs,
        dep.edge_controller(spec.ingress_service)
            .ensure_edge_instance(rec.ingress_site),
        dep.edge_controller(spec.egress_service)
            .ensure_edge_instance(rec.egress_site)};
    inst.live.push_back(pos);
    if (traced()) time_route_codec(dep, spec, id);
  }

  for (std::size_t k = 0; k < inputs_.route_positions.size(); ++k) {
    const std::size_t pos = inputs_.route_positions[k];
    if (inst.chains[pos].vnfs.empty()) continue;   // never created
    report_.attempt();
    ++ops;
    const std::int64_t t0 = now_ns();
    std::optional<Result<control::CreationReport>> slot;
    if (traced()) {
      global.add_route(inst.chains[pos].id, {},
                       [&slot](Result<control::CreationReport> r) {
                         slot = std::move(r);
                       });
      drive(sim, [&slot] { return slot.has_value(); }, acc);
    } else {
      slot = inst.mw->add_route(inst.chains[pos].id);
    }
    const std::int64_t t1 = now_ns();
    if (report_.check("add_route_admitted", slot.has_value() && slot->ok())) {
      acc.add_route_us.add(k, static_cast<double>(t1 - t0) / 1e3);
    }
  }
  drive(sim, [] { return false; }, acc);   // let every site finish

  acc.control_ops += ops;
  acc.journal_appends += journal.appends() - appends0;
  acc.snapshots += journal.snapshots_taken() - snapshots0;
  acc.wide_area_msgs += bus.wide_area_messages - wide0;
  acc.local_deliveries += bus.local_deliveries - local0;
  acc.events += sim.executed_events() - events0;

  if (traced()) {
    const std::int64_t t0 = now_ns();
    const std::vector<std::string> snapshot = global.snapshot_state();
    tracer_.record("control", "control.snapshot_state", t0, now_ns(),
                   next_op());
    report_.check("snapshot_not_empty", !snapshot.empty());
  }
  audit(dep);

  for (std::size_t r = 0; r < kRestarts; ++r) restart(inst, r, acc, digest);
  for (const Conn& conn : inst.restart_conns) close(inst, conn, false, acc);
  inst.restart_conns.clear();
}

/// A crash-with-amnesia of the Global Switchboard and its cold start,
/// timed until every chain is active again and has delivered one packet
/// of a new connection.
void Run::restart(Installation& inst, std::size_t restart_no, Accum& acc,
                  std::uint64_t& digest) {
  core::Deployment& dep = inst.mw->deployment();
  control::GlobalSwitchboard& global = dep.global();
  const auto count_routes = [&] {
    std::pair<std::size_t, std::size_t> counts{0, 0};   // active, routes
    for (const std::size_t pos : inst.live) {
      const control::ChainRecord* rec =
          global.find_record(inst.chains[pos].id);
      if (rec == nullptr) continue;
      counts.first += rec->active ? 1 : 0;
      counts.second += rec->routes.size();
    }
    return counts;
  };
  const auto before = count_routes();

  report_.attempt();
  Rng flows{inputs_.flow_seed ^ (0x9E37ULL * (restart_no + 1))};
  const std::int64_t t0 = now_ns();
  global.set_up(false);
  const std::int64_t c0 = now_ns();
  const control::ColdStartReport cold = global.cold_start();
  tracer_.record("control", "control.cold_start", c0, now_ns(), next_op());
  drive(dep.simulator(), [] { return false; }, acc);
  bool delivered = true;
  for (const std::size_t pos : inst.live) {
    Conn conn;
    conn.pos = pos;
    conn.flow = make_flow(11, restart_no * kChains + pos, flows);
    delivered &= send(inst, conn, Direction::kForward, true, false, acc,
                      &digest);
    inst.restart_conns.push_back(std::move(conn));
  }
  const std::int64_t t1 = now_ns();

  acc.replayed_records += cold.replayed_records;
  acc.replay_charge_us += cold.replay_cost;
  ++acc.cold_starts;
  bool fenced = true;
  for (const model::CloudSite& site : dep.network_model().sites()) {
    fenced &= dep.local(site.id).highest_route_epoch() >= global.epoch();
  }
  const bool same = report_.check("restart_restores_chains_and_routes",
                                  count_routes() == before &&
                                      before.first == inst.live.size());
  report_.check("restart_fences_every_site", fenced);
  if (same && fenced && delivered) {
    acc.restart_ms.add(restart_no, static_cast<double>(t1 - t0) / 1e6);
  }
  audit(dep);
}

// ---- the data plane --------------------------------------------------------

/// Re-drives one packet hop by hop through the public Forwarder calls,
/// mirroring Deployment::inject_from, and returns the elements it visits.
/// `forwarder_ns` sums the forwarder calls; `record` keeps them as spans.
/// It reads no controller state, so it leaves the core's share of a walk
/// as cold as a real inject finds it.
bool Run::replay(core::Deployment& dep, const ChainInfo& chain,
                 const Conn& conn, Direction dir,
                 std::vector<ElementId>& path, std::int64_t& forwarder_ns,
                 bool record, std::uint64_t op) {
  control::ElementRegistry& el = dep.elements();
  const bool forward = dir == Direction::kForward;
  const ElementId edge = forward ? chain.ingress_edge : chain.egress_edge;

  dataplane::Packet packet;
  packet.flow = forward ? conn.flow : conn.flow.reversed();
  packet.labels = chain.labels;
  packet.direction = dir;
  packet.size_bytes = 64;
  packet.arrival_source = edge;
  path.assign({edge});
  forwarder_ns = 0;

  ElementId current = el.info(edge).attached_forwarder;
  path.push_back(current);
  const auto call = [&](bool wire) {
    dataplane::Forwarder& f = el.forwarder(current);
    const std::int64_t t0 = now_ns();
    const dataplane::ForwardAction action =
        wire ? f.process_from_wire(packet) : f.process_from_attached(packet);
    const std::int64_t t1 = now_ns();
    forwarder_ns += t1 - t0;
    if (record) {
      tracer_.record("dataplane",
                     wire ? "dataplane.process_from_wire"
                          : "dataplane.process_from_attached",
                     t0, t1, op);
    }
    return action;
  };
  dataplane::ForwardAction action = call(false);
  for (int hops = 0; hops < 64; ++hops) {
    switch (action.type) {
      case dataplane::ActionType::kDrop:
        return false;
      case dataplane::ActionType::kSendToForwarder:
        packet.arrival_source = current;
        current = action.element;
        path.push_back(current);
        action = call(true);
        break;
      case dataplane::ActionType::kDeliverToAttached:
        path.push_back(action.element);
        if (el.info(action.element).type ==
            control::ElementType::kEdgeInstance) {
          return true;
        }
        packet.arrival_source = action.element;
        action = call(false);
        break;
    }
  }
  return false;
}

/// One 64-byte packet of `conn` through Deployment::inject, with every
/// per-walk check.  `first` marks the connection's first packet, which
/// records the instances and forwarders it pins.  In the traced run a
/// timed packet is also replayed hop by hop, once before inject and once
/// after.  The first replay meets the forwarders as inject would have (it
/// does a first packet's flow-state install) and gives the per-call times;
/// the second meets them as inject just left them, so inject minus the
/// second replay's forwarder time is the core's own share of the walk.
bool Run::send(Installation& inst, Conn& conn, Direction dir, bool first,
               bool timed, Accum& acc, std::uint64_t* digest) {
  core::Deployment& dep = inst.mw->deployment();
  const ChainInfo& chain = inst.chains[conn.pos];
  const bool replaying = timed && traced();
  const std::uint64_t op = next_op();
  std::vector<ElementId> replay_path;
  std::int64_t replay_ns = 0;
  bool replay_ok = true;
  if (replaying) {
    replay_ok = replay(dep, chain, conn, dir, replay_path, replay_ns, true, op);
  }

  report_.attempt();
  const std::int64_t t0 = now_ns();
  const core::Deployment::WalkResult walk = dep.inject(chain.id, conn.flow,
                                                       dir);
  const std::int64_t t1 = now_ns();
  if (timed) tracer_.record("core", "core.inject", t0, t1, op);
  if (!report_.check("walk_delivered", walk.delivered)) return false;

  std::vector<ElementId> instances;
  std::vector<ElementId> forwarders;
  std::vector<ElementId> elements;
  bool in_order = true;
  control::ElementRegistry& el = dep.elements();
  for (const core::Deployment::HopTrace& hop : walk.path) {
    elements.push_back(hop.element);
    if (hop.type == control::ElementType::kVnfInstance) {
      const std::size_t stage = instances.size();
      const std::size_t spec_stage =
          dir == Direction::kForward ? stage : chain.vnfs.size() - 1 - stage;
      in_order &= stage < chain.vnfs.size() &&
                  el.info(hop.element).vnf == chain.vnfs[spec_stage];
      instances.push_back(hop.element);
    } else if (hop.type == control::ElementType::kForwarder &&
               std::find(forwarders.begin(), forwarders.end(),
                         hop.element) == forwarders.end()) {
      forwarders.push_back(hop.element);
    }
  }
  in_order &= instances.size() == chain.vnfs.size();
  report_.check("instances_in_spec_order", in_order);
  if (dir == Direction::kReverse) std::reverse(instances.begin(),
                                               instances.end());
  if (first) {
    conn.instances = instances;
    conn.forwarders = forwarders;
    if (digest != nullptr) {
      *digest = fnv(*digest, chain.id.value());
      *digest = fnv(*digest, tuple_key(conn.flow));
      for (const ElementId id : instances) *digest = fnv(*digest, id);
    }
  } else {
    report_.check(dir == Direction::kForward
                      ? "forward_walk_keeps_pinned_instances"
                      : "reverse_walk_visits_forward_instances",
                  instances == conn.instances);
  }

  if (replaying) {
    report_.check("replay_matches_inject",
                  replay_ok && replay_path == elements);
    const bool ok =
        replay(dep, chain, conn, dir, replay_path, replay_ns, false, op);
    report_.check("replay_matches_inject", ok && replay_path == elements);
    acc.walk_self_ns.push_back(static_cast<double>(t1 - t0 - replay_ns));
  }
  if (timed) {
    acc.walk_ns.add(static_cast<double>(t1 - t0));
    acc.busy_ns += t1 - t0;
    ++acc.walks;
    acc.hops += forwarders.size();
  }
  return true;
}

/// Connection teardown at every forwarder on the connection's path.
void Run::close(Installation& inst, const Conn& conn, bool timed,
                Accum& acc) {
  core::Deployment& dep = inst.mw->deployment();
  const dataplane::Labels& labels = inst.chains[conn.pos].labels;
  const std::uint64_t op = next_op();
  report_.attempt();
  bool found = !conn.forwarders.empty();
  for (const ElementId id : conn.forwarders) {
    dataplane::Forwarder& f = dep.elements().forwarder(id);
    const std::int64_t t0 = now_ns();
    found &= f.complete_flow(labels, conn.flow);
    const std::int64_t t1 = now_ns();
    tracer_.record("dataplane", "dataplane.complete_flow", t0, t1, op);
    if (timed) acc.busy_ns += t1 - t0;
  }
  report_.check("teardown_finds_flow_at_every_forwarder", found);
}

/// Establishes the data-plane workloads' connections: one forward packet
/// each, on chains drawn uniformly.
std::vector<Conn> Run::warm_up(Installation& inst, Accum& acc,
                               std::uint64_t& digest) {
  Rng rng{inputs_.flow_seed};
  std::vector<Conn> conns(kConnections);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kConnections; ++i) {
    Conn& conn = conns[i];
    conn.pos = inst.live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(inst.live.size()) - 1))];
    conn.flow = make_flow(10, i, rng);
    send(inst, conn, Direction::kForward, true, false, acc, &digest);
  }
  const std::int64_t t1 = now_ns();
  tracer_.record("core", "core.flow_warmup", t0, t1, next_op());
  acc.warmup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  return conns;
}

/// The timed phase of steady_flows or flow_churn.
void Run::plane_phase(Installation& inst, std::vector<Conn>& conns,
                      double seconds, Accum& acc) {
  core::Deployment& dep = inst.mw->deployment();
  const PlaneCounters c0 = plane_counters(dep);
  const std::uint64_t walks0 = acc.walks;
  std::vector<std::size_t> rank_to_conn(conns.size());
  std::iota(rank_to_conn.begin(), rank_to_conn.end(), std::size_t{0});
  Rng perm{inputs_.flow_seed ^ 0x2A};
  perm.shuffle(rank_to_conn);
  const ZipfSampler zipf{conns.size(), kZipfExponent};

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t now = now_ns(); now < deadline; now = now_ns()) {
    const std::int64_t block_end =
        std::min(deadline, now + static_cast<std::int64_t>(kBlockSeconds * 1e9));
    if (acc.walk_pps.size() % kBlocksPerCpu == 0) cpus_.next();
    const std::uint64_t block_walks0 = acc.walks;
    const std::int64_t block_busy0 = acc.busy_ns;
    acc.walk_ns.begin_block();
    while (now_ns() < block_end) {
      plane_ops(inst, conns, rank_to_conn, zipf, acc);
    }
    acc.walk_pps.push_back(
        ratio(static_cast<double>(acc.walks - block_walks0),
              static_cast<double>(acc.busy_ns - block_busy0) / 1e9));
  }

  add_plane_deltas(dep, c0, acc.walks - walks0, acc);
}

/// A burst of the data-plane client's operations: 64 Zipf-chosen packets
/// (steady_flows) or 64 whole connections (flow_churn).
void Run::plane_ops(Installation& inst, std::vector<Conn>& conns,
                    const std::vector<std::size_t>& rank_to_conn,
                    const ZipfSampler& zipf, Accum& acc) {
  for (int i = 0; i < 64; ++i) {
    if (options_.workload != "flow_churn") {
      Conn& conn = conns[rank_to_conn[zipf.sample(traffic_)]];
      const Direction dir = traffic_.bernoulli(kReverseShare)
                                ? Direction::kReverse
                                : Direction::kForward;
      send(inst, conn, dir, false, true, acc, nullptr);
      continue;
    }
    Conn conn;
    conn.pos = inst.live[static_cast<std::size_t>(traffic_.uniform_int(
        0, static_cast<std::int64_t>(inst.live.size()) - 1))];
    conn.flow = make_flow(12, churn_serial_++, traffic_);
    if (!send(inst, conn, Direction::kForward, true, true, acc, nullptr)) {
      continue;
    }
    send(inst, conn, Direction::kReverse, false, true, acc, nullptr);
    for (int p = 0; p < 3; ++p) {
      send(inst, conn, Direction::kForward, false, true, acc, nullptr);
    }
    close(inst, conn, true, acc);
  }
}

// ---- workloads -------------------------------------------------------------

/// Set-ups alternate with slices of the timed phase, so that both spread
/// over the whole run and a slow stretch of the shared host hits only part
/// of either.  The traced run traces the second half of the set-ups and
/// their slices; the first half gives the data-plane counters and the
/// baseline for the tracing overhead.
void Run::execute() {
  Accum untraced;
  Accum traced;
  std::uint64_t first_digest = 0;
  traffic_ = Rng{inputs_.flow_seed ^ 0x7AFF1C};
  const double slice = options_.seconds / kSetups;
  for (std::size_t s = 0; s < kSetups; ++s) {
    const bool tracing = options_.trace && 2 * s >= kSetups;
    tracer_.set_enabled(tracing);
    Accum& acc = tracing ? traced : untraced;
    cpus_.next();
    std::uint64_t digest = kFnvBasis;
    const std::int64_t t0 = now_ns();
    Installation inst = build(acc);
    bring_up(inst, acc, digest);
    std::vector<Conn> conns = warm_up(inst, acc, digest);
    acc.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (s == 0) first_digest = digest;
    report_.check("pinning_digest_repeats_across_setups",
                  digest == first_digest);
    plane_phase(inst, conns, slice, acc);
    if (s + 1 == kSetups) {
      for (const Conn& conn : conns) close(inst, conn, false, acc);
    }
  }   // each set-up is torn down, untimed, as its iteration ends
  note_digest(first_digest);
  report_.note("client_cpus", std::to_string(cpus_.count()));
  if (options_.trace) {
    report_per_layer(untraced, traced,
                     overhead("walk_ns_p50", untraced.walk_ns.values,
                              traced.walk_ns.values));
  } else {
    report_end_to_end(untraced);
  }
}

void Run::note_digest(std::uint64_t digest) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  report_.note("pinning_digest", hex);
}

void Run::report_end_to_end(Accum& acc) {
  const double q = kFast;
  report_.set("walk_pps", quantile(acc.walk_pps, 1.0 - q), "1/s", acc.walks);
  report_.set("walk_ns_p50", acc.walk_ns.block_quantile(0.5, q), "ns",
              acc.walk_ns.size());
  report_.set("walk_ns_p99", acc.walk_ns.block_quantile(0.99, q), "ns",
              acc.walk_ns.size());
  const std::size_t chains = acc.create_us.per_position(q).size();
  report_.set("create_chain_us_p50", acc.create_us.quantile(0.5, q), "us",
              acc.create_us.size());
  report_.set("create_chain_us_p99", acc.create_us.quantile(0.99, q), "us",
              acc.create_us.size());
  report_.set("chains_per_s",
              ratio(static_cast<double>(chains), acc.create_us.sum(q) / 1e6),
              "1/s", acc.create_us.size());
  report_.set("add_route_us_p50", acc.add_route_us.quantile(0.5, q), "us",
              acc.add_route_us.size());
  report_.set("restart_ms_p50", acc.restart_ms.quantile(0.5, q), "ms",
              acc.restart_ms.size());
  report_.set("create_chain_sim_ms_p50", acc.create_sim_ms.quantile(0.5, q),
              "ms", acc.create_sim_ms.size(), true);
  report_.set("setup_s", quantile(acc.setup_s, 0.5), "s", acc.setup_s.size());
}

void Run::report_per_layer(Accum& untraced, Accum& traced, double overhead) {
  const auto per = [](std::uint64_t n, std::uint64_t d) {
    return ratio(static_cast<double>(n), static_cast<double>(d));
  };
  const std::uint64_t ops = traced.control_ops;
  report_.set("core.walk_self_ns", mean(traced.walk_self_ns), "ns",
              traced.walk_self_ns.size());
  report_.set("core.hops_per_walk", per(untraced.hops, untraced.walks),
              "count", untraced.walks);
  report_.set("dataplane.from_wire_ns",
              tracer_.mean_ns("dataplane.process_from_wire"), "ns",
              tracer_.total("dataplane.process_from_wire").count);
  report_.set("dataplane.from_attached_ns",
              tracer_.mean_ns("dataplane.process_from_attached"), "ns",
              tracer_.total("dataplane.process_from_attached").count);
  report_.set("dataplane.complete_flow_ns",
              tracer_.mean_ns("dataplane.complete_flow"), "ns",
              tracer_.total("dataplane.complete_flow").count);
  report_.set("dataplane.flow_miss_ratio",
              per(untraced.flow_misses, untraced.forwarder_calls), "ratio",
              untraced.forwarder_calls);
  report_.set("dataplane.flow_table_bytes_per_flow",
              ratio(untraced.flow_bytes, untraced.flows), "B",
              static_cast<std::size_t>(untraced.flows));
  report_.set("dataplane.table_inserts_per_walk",
              per(untraced.table_inserts, untraced.plane_walks), "count",
              untraced.plane_walks);
  report_.set("dataplane.table_erases_per_walk",
              per(untraced.table_erases, untraced.plane_walks), "count",
              untraced.plane_walks);
  report_.set("te.find_route_us",
              tracer_.mean_ns("te.find_single_route") / 1e3, "us",
              traced.te_calls);
  report_.set("te.admitted_ratio", per(traced.te_admitted, traced.te_calls),
              "ratio", traced.te_calls);
  report_.set("control.create_call_us",
              tracer_.mean_ns("control.create_chain") / 1e3, "us",
              tracer_.total("control.create_chain").count);
  report_.set("control.snapshot_encode_ms",
              tracer_.mean_ns("control.snapshot_state") / 1e6, "ms",
              tracer_.total("control.snapshot_state").count);
  report_.set("control.journal_appends_per_op",
              per(traced.journal_appends, ops), "count", ops);
  report_.set("control.snapshots_per_op", per(traced.snapshots, ops),
              "count", ops);
  report_.set("control.route_msg_encode_ns",
              tracer_.mean_ns("control.serialize_route"), "ns",
              tracer_.total("control.serialize_route").count);
  report_.set("control.route_msg_parse_ns",
              tracer_.mean_ns("control.parse_route"), "ns",
              tracer_.total("control.parse_route").count);
  const double cold_us = tracer_.mean_ns("control.cold_start") / 1e3;
  const double records = per(traced.replayed_records, traced.cold_starts);
  report_.set("control.cold_start_us", cold_us, "us", traced.cold_starts);
  report_.set("control.replayed_records", records, "count",
              traced.cold_starts);
  report_.set("control.cold_start_ns_per_record",
              ratio(cold_us * 1e3, records), "ns", traced.cold_starts);
  report_.set("control.replay_charge_ns_per_record",
              1e3 * per(static_cast<std::uint64_t>(traced.replay_charge_us),
                        traced.replayed_records),
              "ns", traced.cold_starts, true);
  report_.set("bus.wide_area_msgs_per_op", per(traced.wide_area_msgs, ops),
              "count", ops);
  report_.set("bus.local_deliveries_per_op",
              per(traced.local_deliveries, ops), "count", ops);
  report_.set("sim.events_per_op", per(traced.events, ops), "count", ops);
  report_.set("sim.step_ns",
              ratio(static_cast<double>(traced.step_ns),
                    static_cast<double>(traced.steps)),
              "ns", traced.steps);
  report_.set("model.scenario_ms", mean(traced.scenario_ms), "ms",
              traced.scenario_ms.size());
  report_.set("core.deployment_build_ms", mean(traced.deployment_ms), "ms",
              traced.deployment_ms.size());
  report_.set("core.flow_warmup_s", mean(traced.warmup_s), "s",
              traced.warmup_s.size());
  report_.set("trace.overhead_ratio", overhead, "ratio");
  report_.set("trace.spans", static_cast<double>(tracer_.spans_recorded()),
              "count");
}

}  // namespace

bool run_workload(const Options& options, Report& report, Tracer& tracer) {
  bool known = false;
  for (const char* name : kWorkloads) known |= options.workload == name;
  if (!known) return false;
  Run run{options, report, tracer};
  run.execute();
  return true;
}

}  // namespace perfbench
