// Data-plane design ablations (choices DESIGN.md calls out):
//
//   1. Label switching vs source routing — Switchboard carries a fixed
//      2-label stack; NSH/SegmentRouting-style source routing embeds the
//      whole hop list, so header work grows with chain length (Section 8's
//      argument against source routing).
//   2. Make-before-break rule updates — route changes only steer *new*
//      connections; the ablation resets flow state on update and counts
//      how many established connections lose their VNF instance (what a
//      stateful VNF would experience as a broken connection).
//   3. Replicated (DHT) flow table vs per-forwarder tables under a
//      forwarder failure — the fraction of established flows that survive
//      with their pinning intact.
//   4. Steering state in the packet (Active-Switching-style annotation,
//      DESIGN.md §15) vs per-flow table entries — per-packet cost against
//      per-flow memory and the 16-byte wire overhead.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench_json.hpp"
#include "dataplane/dht_flow_table.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/traffic_gen.hpp"

namespace {

using namespace switchboard::dataplane;

// ------------------------------------------------- 1. labels vs src-route

/// Builds the per-hop header a source-routed packet carries: 16 bytes per
/// remaining hop, checksummed.  Returns a digest so the work is real.
std::uint64_t source_route_encap(const Packet& packet, int chain_length,
                                 std::uint8_t* scratch) {
  const int header_bytes = 14 + 20 + 8 + 16 * (chain_length + 1);
  std::uint64_t digest = 0;
  for (int i = 0; i < header_bytes; i += 8) {
    const std::uint64_t word =
        mix64(packet.flow.src_ip + static_cast<std::uint64_t>(i));
    std::memcpy(scratch + (i % 256), &word, 8);
    digest += word & 0xFF;
  }
  return digest;
}

/// Switchboard's label stack: fixed 8 bytes regardless of chain length.
std::uint64_t label_encap(const Packet& packet, std::uint8_t* scratch) {
  std::memcpy(scratch, &packet.labels.chain, 4);
  std::memcpy(scratch + 4, &packet.labels.egress_site, 4);
  return mix64(packet.labels.chain ^ packet.labels.egress_site) & 0xFF;
}

double measure_ns_per_packet(int chain_length, bool source_routed,
                             std::size_t packets_target) {
  const auto packets = make_packet_batch({.flow_count = 64}, 4096);
  std::uint8_t scratch[256] = {};
  std::uint64_t sink = 0;
  double best = 1e18;
  for (int run = 0; run < 5; ++run) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t processed = 0;
    while (processed < packets_target) {
      for (const Packet& p : packets) {
        sink += source_routed
            ? source_route_encap(p, chain_length, scratch)
            : label_encap(p, scratch);
      }
      processed += packets.size();
    }
    const double elapsed =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, elapsed / static_cast<double>(processed));
  }
  benchmark::DoNotOptimize(sink);
  return best;
}

void ablation_labels_vs_source_routing(swb_bench::Session& session) {
  const std::size_t target = session.scaled(400'000, 64);
  std::printf("\n-- 1. label stack vs source routing (per-packet header "
              "work) --\n");
  std::printf("%14s %16s %18s %10s\n", "chain length", "labels ns/pkt",
              "src-route ns/pkt", "ratio");
  for (const int len : {1, 2, 4, 8, 16}) {
    const double labels = measure_ns_per_packet(len, false, target);
    const double source = measure_ns_per_packet(len, true, target);
    std::printf("%14d %16.2f %18.2f %9.1fx\n", len, labels, source,
                source / labels);
    session.add("labels_vs_source_routing")
        .param("chain_length", len)
        .metric("labels_ns_per_pkt", labels)
        .metric("source_route_ns_per_pkt", source);
  }
  std::printf("label-stack cost is flat; source-routing cost grows with the\n"
              "chain, which is why Switchboard uses label switching.\n");
}

// ---------------------------------------------- 2. make-before-break

void ablation_make_before_break(swb_bench::Session& session) {
  std::printf("\n-- 2. route update: make-before-break vs flow reset --\n");
  constexpr Labels kLabels{1, 1};
  const std::uint32_t kFlows =
      static_cast<std::uint32_t>(session.scaled(10'000, 16, 500));

  const auto run = [&](bool reset_flows) {
    Forwarder fw{1, kFlows * 2};
    LoadBalanceRule rule;
    rule.vnf_instances.add(100, 1.0);
    rule.vnf_instances.add(101, 1.0);
    rule.next_forwarders.add(200, 1.0);
    fw.rules().install(kLabels, rule);

    TrafficGenConfig config;
    config.flow_count = kFlows;
    PacketStream stream{config};
    std::vector<ElementId> before(kFlows);
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      Packet p = stream.next();
      p.arrival_source = 50;
      before[f] = fw.process_from_wire(p).element;
    }

    // Route update: a new rule with a changed instance set.
    LoadBalanceRule updated;
    updated.vnf_instances.add(101, 1.0);
    updated.vnf_instances.add(102, 1.0);
    updated.next_forwarders.add(201, 1.0);
    if (reset_flows) fw.flow_table().clear();   // the naive ablation
    fw.rules().install(kLabels, updated);

    PacketStream replay{config};
    std::uint32_t broken = 0;
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      Packet p = replay.next();
      p.arrival_source = 50;
      if (fw.process_from_wire(p).element != before[f]) ++broken;
    }
    return broken;
  };

  const std::uint32_t mbb_broken = run(false);
  const std::uint32_t reset_broken = run(true);
  std::printf("%-26s %10u / %u connections repinned\n",
              "make-before-break:", mbb_broken, kFlows);
  std::printf("%-26s %10u / %u connections repinned\n",
              "flow-state reset:", reset_broken, kFlows);
  session.add("make_before_break")
      .param("flows", static_cast<double>(kFlows))
      .metric("mbb_broken", mbb_broken)
      .metric("reset_broken", reset_broken);
  std::printf("stateful VNFs (NATs, firewalls) drop every repinned\n"
              "connection; Switchboard's update breaks none.\n");
}

// ---------------------------------------------- 3. DHT failover

void ablation_dht_failover(swb_bench::Session& session) {
  std::printf("\n-- 3. forwarder failure: DHT-replicated vs local flow "
              "tables --\n");
  constexpr Labels kLabels{1, 1};
  const std::uint32_t kFlows =
      static_cast<std::uint32_t>(session.scaled(20'000, 16, 1'000));
  constexpr std::size_t kNodes = 5;

  TrafficGenConfig config;
  config.flow_count = kFlows;
  PacketStream stream{config};

  // DHT: entries replicated across the ring.
  DhtFlowTable dht{kNodes};
  // Baseline: flows partitioned across per-forwarder tables, no replicas.
  std::vector<ShardedFlowTable> local(kNodes);
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    const FiveTuple t = stream.flow_tuple(f);
    const FlowEntry entry{f, f, f};
    dht.insert(kLabels, t, entry);
    local[flow_hash(kLabels, t) % kNodes].insert(kLabels, t, entry);
  }

  dht.fail_node(2);
  local[2].clear();   // the forwarder's state dies with it

  std::uint32_t dht_alive = 0;
  std::uint32_t local_alive = 0;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    const FiveTuple t = stream.flow_tuple(f);
    if (dht.find(kLabels, t).has_value()) ++dht_alive;
    if (local[flow_hash(kLabels, t) % kNodes].find(kLabels, t).has_value()) {
      ++local_alive;
    }
  }
  std::printf("%-28s %6.1f%% of flows keep their pinning\n",
              "DHT flow table (RF=2):",
              100.0 * dht_alive / kFlows);
  std::printf("%-28s %6.1f%% of flows keep their pinning\n",
              "per-forwarder tables:",
              100.0 * local_alive / kFlows);
  session.add("dht_failover")
      .param("flows", static_cast<double>(kFlows))
      .metric("dht_survival_pct", 100.0 * dht_alive / kFlows)
      .metric("local_survival_pct", 100.0 * local_alive / kFlows);
  std::printf("the replicated table preserves flow affinity through the\n"
              "failure (Section 5.3's fault-tolerance direction).\n");
}

// ------------------------------- 4. annotation vs flow-table state

/// Per-packet steering cost vs per-flow state cost of the two places the
/// pinning can live: the forwarder's flow table (Switchboard) or a
/// 16-byte in-packet annotation validated against the route epoch
/// (Active-Switching ablation, DESIGN.md §15).
void ablation_annotation_vs_table(swb_bench::Session& session) {
  std::printf("\n-- 4. steering state: flow-table entries vs in-packet "
              "annotation --\n");
  constexpr Labels kLabels{1, 1};
  const auto kFlows =
      static_cast<std::uint32_t>(session.scaled(100'000, 100, 1'000));
  const std::size_t packets_target = session.scaled(2'000'000, 100, 20'000);
  const std::size_t passes =
      std::max<std::size_t>(packets_target / kFlows, 1);

  const auto install = [&](Forwarder& fw) {
    LoadBalanceRule rule;
    rule.vnf_instances.add(100, 1.0);
    rule.vnf_instances.add(101, 1.0);
    rule.next_forwarders.add(200, 1.0);
    fw.rules().install(kLabels, rule);
  };
  const auto make_batch = [&] {
    TrafficGenConfig config;
    config.flow_count = kFlows;
    config.seed = 42;
    std::vector<Packet> batch;
    batch.reserve(kFlows);
    PacketStream stream{config};
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      Packet p = stream.next();
      p.arrival_source = 50;
      batch.push_back(p);
    }
    return batch;
  };
  const auto timed_ns_per_pkt = [&](auto&& pass) {
    double best = 1e18;
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      std::size_t delivered = 0;
      for (std::size_t i = 0; i < passes; ++i) delivered += pass();
      const double elapsed =
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
      benchmark::DoNotOptimize(delivered);
      best = std::min(best, elapsed / static_cast<double>(passes * kFlows));
    }
    return best;
  };

  // Switchboard: pinning lives in the flow table; every packet looks it up.
  Forwarder table_fw{1, kFlows * 2};
  install(table_fw);
  auto table_batch = make_batch();
  for (const Packet& p : table_batch) (void)table_fw.process_from_wire(p);
  const double table_bytes_per_flow =
      static_cast<double>(table_fw.flow_table().memory_bytes()) / kFlows;
  const double table_ns = timed_ns_per_pkt(
      [&] { return table_fw.process_batch(table_batch); });

  // Ablation: pinning rides in the packet; the forwarder only validates
  // the route epoch.  Zero per-flow table state, 16 wire bytes per packet.
  Forwarder annotation_fw{1, /*flow_capacity=*/64};
  install(annotation_fw);
  auto annotated_batch = make_batch();
  (void)annotation_fw.process_batch_annotated(annotated_batch);  // affix
  const double annotation_ns = timed_ns_per_pkt(
      [&] { return annotation_fw.process_batch_annotated(annotated_batch); });
  const double annotation_table_bytes =
      static_cast<double>(annotation_fw.flow_table().memory_bytes());

  std::printf("%-24s %8.1f ns/pkt %12.1f table bytes/flow\n",
              "flow-table pinning:", table_ns, table_bytes_per_flow);
  std::printf("%-24s %8.1f ns/pkt %12.1f table bytes/flow + 16 B/pkt on "
              "the wire\n", "in-packet annotation:", annotation_ns,
              annotation_table_bytes / kFlows);
  session.add("annotation_vs_table")
      .param("flows", static_cast<double>(kFlows))
      .metric("table_ns_per_pkt", table_ns)
      .metric("annotation_ns_per_pkt", annotation_ns)
      .metric("table_bytes_per_flow", table_bytes_per_flow)
      .metric("annotation_wire_bytes_per_pkt", 16.0);
  std::printf("annotations trade per-flow forwarder memory for per-packet\n"
              "wire bytes and lose the pinning on any route-epoch bump.\n");
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_ablation_dataplane"};
  std::printf("=== Data-plane design ablations ===\n");
  ablation_labels_vs_source_routing(session);
  ablation_make_before_break(session);
  ablation_dht_failover(session);
  ablation_annotation_vs_table(session);
  return 0;
}
