// Figure 8: forwarder throughput scaling.
//
// Paper setup: DPDK forwarder instances pinned one per core behind SR-IOV
// VFs; 64-byte UDP packets uniform over a fixed number of flows.  Findings:
//   * ~7 Mpps on one core,
//   * +3-4 Mpps per additional forwarder instance,
//   * 6 instances with 512K flows each (3M total) still >20 Mpps,
//   * throughput decreases with flow count (flow-table entries fall out
//     of the CPU cache), converging to >3 Mpps/core for huge tables.
//
// Two scale-out shapes are measured on this host:
//   1. shared-nothing: one independent Forwarder per thread (the paper's
//      process-per-core deployment);
//   2. sharded: ONE Forwarder driven by N RSS workers over its
//      ShardedFlowTable — each worker owns a disjoint shard set and a
//      per-worker traffic generator, so steady-state lookups take only
//      uncontended locks.
//
// A third series (DESIGN.md §15) sweeps live-flow count 10^5 -> 10^7 across
// three ways to read steering state — epoch (the forwarder's lock-free
// batched SoA pipeline), mutex (the lock-per-lookup baseline of
// tests/reference: a per-shard lock around each packet's epoch read) and
// annotation (Active-Switching-style steering affix, no per-packet table
// lookup) — reporting ns/pkt and Mpps/core.  Packet counts and the flow-pinning digest are bit-identical
// across modes and thread counts; the binary aborts if they are not.
//
// Flags: --threads N (sharded sweep up to N; default 8, not capped at the
// host: sharded and shared-nothing points above hardware_concurrency run
// time-sliced and carry `oversubscribed` = 1), --json <path>, --smoke (see
// bench_json.hpp).  Absolute Mpps depends on the host; the scaling *shape*
// is the reproduction target.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/check.hpp"
#include "dataplane/forwarder.hpp"
#include "dataplane/traffic_gen.hpp"
#include "reference/lock_per_lookup.hpp"

namespace {

using namespace switchboard::dataplane;

void install_rule(Forwarder& forwarder) {
  LoadBalanceRule rule;
  rule.vnf_instances.add(100, 1.0);
  rule.next_forwarders.add(200, 1.0);
  forwarder.rules().install(Labels{1, 1}, std::move(rule));
}

/// Pre-creates flow state for every flow of `config` (worker filter off).
void preload_flows(Forwarder& forwarder, std::uint32_t flows,
                   std::uint64_t seed) {
  TrafficGenConfig config;
  config.flow_count = flows;
  config.seed = seed;
  PacketStream stream{config};
  for (std::uint32_t f = 0; f < flows; ++f) {
    Packet packet = stream.next();
    packet.arrival_source = 50;
    forwarder.process_from_wire(packet);
  }
}

/// Packets/sec of one forwarder over `flows` established flows
/// (single-threaded classic path).
double run_single_core(std::uint32_t flows, std::uint64_t seed,
                       std::size_t packets_target) {
  Forwarder forwarder{1, flows * 2};
  install_rule(forwarder);
  preload_flows(forwarder, flows, seed);
  TrafficGenConfig config;
  config.flow_count = flows;
  config.seed = seed;
  // Stream packets round-robin over ALL flows so the whole flow table is
  // touched (that is what creates the cache-miss effect at large tables).
  PacketStream stream{config};

  std::size_t processed = 0;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  while (processed < packets_target) {
    for (std::size_t burst = 0; burst < 8192; ++burst) {
      Packet p = stream.next();
      p.arrival_source = 50;
      const ForwardAction action = forwarder.process_from_wire(p);
      sink += action.element;
    }
    processed += 8192;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(processed) / elapsed;
}

/// Aggregate packets/sec of `cores` shared-nothing forwarders (the paper's
/// process-per-core model).
double run_shared_nothing(std::size_t cores, std::uint32_t flows_per_core,
                          std::size_t packets_per_core) {
  std::vector<std::thread> threads;
  std::vector<double> pps(cores, 0.0);
  for (std::size_t c = 0; c < cores; ++c) {
    threads.emplace_back([&pps, c, flows_per_core, packets_per_core] {
      pps[c] = run_single_core(flows_per_core, 7'000 + c, packets_per_core);
    });
  }
  for (auto& t : threads) t.join();
  double total = 0.0;
  for (const double p : pps) total += p;
  return total;
}

/// Aggregate packets/sec of ONE sharded forwarder driven by `workers` RSS
/// worker threads, each with a per-worker traffic generator over its share
/// of `flows_total` established flows.
double run_sharded(std::size_t workers, std::uint32_t flows_total,
                   std::size_t packets_per_worker) {
  Forwarder forwarder{1, flows_total * 2, workers};
  install_rule(forwarder);
  preload_flows(forwarder, flows_total, 42);

  // Materialize each worker's batch up front (round-robin over its owned
  // flows) so the measured loop is pure forwarder work.
  std::vector<std::vector<Packet>> batches(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    TrafficGenConfig config;
    config.flow_count = flows_total;
    config.seed = 42;
    config.worker_count = static_cast<std::uint32_t>(workers);
    config.worker_index = static_cast<std::uint32_t>(w);
    PacketStream stream{config};
    const std::size_t batch_size =
        std::max<std::size_t>(stream.owned_flow_count(), 1);
    batches[w].reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      Packet p = stream.next();
      p.arrival_source = 50;
      batches[w].push_back(p);
    }
  }

  std::vector<std::thread> threads;
  std::vector<std::size_t> processed(workers, 0);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&forwarder, &batches, &processed, w,
                          packets_per_worker] {
      const std::vector<Packet>& batch = batches[w];
      std::size_t done = 0;
      std::size_t delivered = 0;
      while (done < packets_per_worker) {
        delivered += forwarder.process_batch(batch);
        done += batch.size();
      }
      benchmark::DoNotOptimize(delivered);
      processed[w] = done;
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::size_t total = 0;
  for (const std::size_t p : processed) total += p;
  return static_cast<double>(total) / elapsed;
}

// ---------------------------------------------------------------------------
// Flow-scale sweep across data-plane read modes (DESIGN.md §15).

struct SweepRun {
  double pps{0.0};
  std::uint64_t packets_forwarded{0};
  std::uint64_t pinning_digest{0};
};

// 52 bits round-trip exactly through the JSON double in the bench record,
// so bench_diff.py can gate the digest with an exact comparison.
constexpr std::uint64_t kDigestMask = (std::uint64_t{1} << 52) - 1;

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  return hash * 1099511628211ULL;
}

/// FNV-1a over every flow's (vnf_instance, next_forwarder) pinning in flow
/// order.  Pinning is a pure function of (forwarder id, flow key), so the
/// digest is bit-identical across read modes and thread counts; any drift
/// is a determinism bug.
template <typename PinningFn>
std::uint64_t pinning_digest(std::uint32_t flows, PinningFn&& pin_of) {
  std::uint64_t digest = 14695981039346656037ULL;
  for (std::uint32_t f = 0; f < flows; ++f) {
    const FlowEntry entry = pin_of(f);
    digest = fnv1a_mix(digest, entry.vnf_instance);
    digest = fnv1a_mix(digest, entry.next_forwarder);
  }
  return digest & kDigestMask;
}

/// Per-worker RSS batches, one packet per owned flow (the materialization
/// run_sharded uses, shared by all three sweep modes).
std::vector<std::vector<Packet>> make_worker_batches(std::size_t workers,
                                                     std::uint32_t flows) {
  std::vector<std::vector<Packet>> batches(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    TrafficGenConfig config;
    config.flow_count = flows;
    config.seed = 42;
    config.worker_count = static_cast<std::uint32_t>(workers);
    config.worker_index = static_cast<std::uint32_t>(w);
    PacketStream stream{config};
    const std::size_t batch_size = stream.owned_flow_count();
    batches[w].reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      Packet p = stream.next();
      p.arrival_source = 50;
      batches[w].push_back(p);
    }
  }
  return batches;
}

/// Timed section shared by the sweep runners: every worker makes `passes`
/// full passes over its batch, so the total packet count is exactly
/// passes * flows — independent of the worker count (RSS partitions the
/// flow set) and of the row's read path (every packet hits an established
/// pin).
template <typename PassFn>
SweepRun run_timed_passes(std::vector<std::vector<Packet>>& batches,
                          std::size_t passes, PassFn&& run_pass) {
  const std::size_t workers = batches.size();
  std::vector<std::thread> threads;
  std::vector<std::size_t> delivered(workers, 0);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&batches, &delivered, &run_pass, w, passes] {
      std::size_t count = 0;
      for (std::size_t pass = 0; pass < passes; ++pass) {
        count += run_pass(batches[w]);
      }
      benchmark::DoNotOptimize(count);
      delivered[w] = count;
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  SweepRun run;
  for (const std::size_t d : delivered) run.packets_forwarded += d;
  run.pps = static_cast<double>(run.packets_forwarded) / elapsed;
  return run;
}

/// Flow-table rows over `flows` preloaded flows: epoch (the forwarder's
/// lock-free batched pipeline) or, with `lock_per_lookup`, the per-packet
/// baseline that takes a per-shard lock around each epoch read.
SweepRun run_flow_scale_table(bool lock_per_lookup, std::size_t workers,
                              std::uint32_t flows, std::size_t passes) {
  Forwarder forwarder{1, flows * 2, workers};
  install_rule(forwarder);
  preload_flows(forwarder, flows, 42);
  auto batches = make_worker_batches(workers, flows);
  LockPerLookup locks{forwarder.flow_table().shard_count()};

  SweepRun run = run_timed_passes(batches, passes, [&](std::vector<Packet>& b) {
    return lock_per_lookup ? locks.process_batch(forwarder, b)
                           : forwarder.process_batch(b);
  });

  TrafficGenConfig config;
  config.flow_count = flows;
  config.seed = 42;
  PacketStream stream{config};
  run.pinning_digest = pinning_digest(flows, [&](std::uint32_t f) {
    const auto entry =
        forwarder.flow_table().find(Labels{1, 1}, stream.flow_tuple(f));
    SWB_CHECK(entry.has_value()) << "flow " << f << " lost its pin";
    return *entry;
  });
  return run;
}

/// Annotation mode: steering state rides in the packet (Active-Switching
/// ablation) — no per-flow table entries, so the affix pass replaces the
/// table modes' preload and later passes are the pure validate-and-forward
/// fast path.
SweepRun run_flow_scale_annotation(std::size_t workers, std::uint32_t flows,
                                   std::size_t passes) {
  Forwarder forwarder{1, /*flow_capacity=*/64, workers};
  install_rule(forwarder);
  auto batches = make_worker_batches(workers, flows);
  for (auto& batch : batches) {
    (void)forwarder.process_batch_annotated(batch);  // affix (untimed)
  }

  SweepRun run = run_timed_passes(batches, passes, [&](std::vector<Packet>& b) {
    return forwarder.process_batch_annotated(b);
  });

  TrafficGenConfig config;
  config.flow_count = flows;
  config.seed = 42;
  PacketStream stream{config};
  run.pinning_digest = pinning_digest(flows, [&](std::uint32_t f) {
    Packet probe;
    probe.flow = stream.flow_tuple(f);
    probe.labels = Labels{1, 1};
    probe.arrival_source = 50;
    (void)forwarder.process_annotated(probe);
    SWB_CHECK(probe.steering.valid_for(forwarder.route_epoch()))
        << "flow " << f << " not annotated";
    return probe.steering.pinning;
  });
  return run;
}

/// The 10^5 -> 10^7 live-flow sweep over the three read modes.  Emits
/// ns/pkt + Mpps/core (wall-clock, artifact-only) and packets_forwarded +
/// pinning_digest (bit-deterministic, gated exact by bench_diff.py), plus
/// an epoch-vs-mutex throughput ratio record per cell.  Aborts in-binary
/// if packet counts or digests diverge across modes or thread counts.
void flow_scale_sweep(swb_bench::Session& session) {
  const std::size_t packets_target = session.scaled(4'000'000, 100, 40'000);

  std::printf("\n-- flow-scale sweep: live flows x read mode (DESIGN.md §15) "
              "--\n");
  std::printf("%10s %8s %12s %12s %12s\n", "flows", "threads", "mode",
              "ns/pkt", "Mpps/core");
  for (const std::uint32_t flows_full : {100'000u, 1'000'000u, 10'000'000u}) {
    const auto flows =
        static_cast<std::uint32_t>(session.scaled(flows_full, 100, 1'000));
    const std::size_t passes =
        std::max<std::size_t>(packets_target / flows, 1);
    bool have_reference = false;
    std::uint64_t expect_packets = 0;
    std::uint64_t expect_digest = 0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      double epoch_pps = 0.0;
      double mutex_pps = 0.0;
      const struct {
        const char* name;
        SweepRun run;
      } rows[] = {
          {"epoch", run_flow_scale_table(false, threads, flows, passes)},
          {"mutex", run_flow_scale_table(true, threads, flows, passes)},
          {"annotation", run_flow_scale_annotation(threads, flows, passes)},
      };
      for (const auto& [name, run] : rows) {
        // Determinism contract: byte-identical results across read modes
        // and thread counts (ISSUE: thread-count-independent results).
        if (!have_reference) {
          have_reference = true;
          expect_packets = run.packets_forwarded;
          expect_digest = run.pinning_digest;
        }
        SWB_CHECK_EQ(run.packets_forwarded, expect_packets)
            << "mode " << name << " threads " << threads;
        SWB_CHECK_EQ(run.pinning_digest, expect_digest)
            << "mode " << name << " threads " << threads;

        const double ns_per_pkt =
            static_cast<double>(threads) * 1e9 / run.pps;
        const double mpps_per_core =
            run.pps / 1e6 / static_cast<double>(threads);
        std::printf("%10u %8zu %12s %12.1f %12.2f\n", flows, threads, name,
                    ns_per_pkt, mpps_per_core);
        session.add("flow_scale_sweep")
            .param("flows", flows)
            .param("threads", static_cast<double>(threads))
            .param("mode", name)
            .metric("ns_per_pkt", ns_per_pkt)
            .metric("mpps_per_core", mpps_per_core)
            .metric("packets_forwarded",
                    static_cast<double>(run.packets_forwarded))
            .metric("pinning_digest",
                    static_cast<double>(run.pinning_digest));
        if (std::strcmp(name, "epoch") == 0) epoch_pps = run.pps;
        if (std::strcmp(name, "mutex") == 0) mutex_pps = run.pps;
      }
      session.add("flow_scale_mode_ratio")
          .param("flows", flows)
          .param("threads", static_cast<double>(threads))
          .metric("epoch_vs_mutex", epoch_pps / mutex_pps);
    }
  }
}

void BM_SingleCoreByFlows(benchmark::State& state) {
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  Forwarder forwarder{1, flows * 2};
  install_rule(forwarder);
  preload_flows(forwarder, flows, 42);
  TrafficGenConfig config;
  config.flow_count = flows;
  config.seed = 42;
  PacketStream stream{config};
  for (auto _ : state) {
    Packet p = stream.next();
    p.arrival_source = 50;
    benchmark::DoNotOptimize(forwarder.process_from_wire(p));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SingleCoreByFlows)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(524288)
    ->Arg(2097152);

void print_figure8_tables(swb_bench::Session& session,
                          std::size_t max_threads) {
  const std::size_t packets = session.scaled(8'000'000, 64);
  const std::uint32_t big_flows =
      static_cast<std::uint32_t>(session.scaled(1u << 19, 64));

  std::printf("\n=== Figure 8: forwarder scaling (this host) ===\n");
  std::printf("-- single core, throughput vs established flows --\n");
  std::printf("%12s %14s\n", "flows", "Mpps");
  for (const std::uint32_t flows : {1u << 10, 1u << 16, 1u << 19, 1u << 21}) {
    const std::uint32_t f =
        static_cast<std::uint32_t>(session.scaled(flows, 64, 16));
    const double pps = run_single_core(f, 42, packets);
    std::printf("%12u %14.2f\n", f, pps / 1e6);
    session.add("single_core_by_flows")
        .param("flows", f)
        .metric("throughput_pps", pps);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t scale_packets = session.scaled(6'000'000, 64);

  std::printf("\n-- shared-nothing: independent forwarders x %u flows "
              "(host has %u CPU%s) --\n", big_flows, hw, hw == 1 ? "" : "s");
  std::printf("%8s %12s %14s\n", "cores", "flows", "Mpps");
  for (const std::size_t cores : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{6}}) {
    const double pps = run_shared_nothing(cores, big_flows, scale_packets);
    std::printf("%8zu %12zu %14.2f\n", cores,
                cores * static_cast<std::size_t>(big_flows), pps / 1e6);
    session.add("shared_nothing_scaling")
        .param("cores", static_cast<double>(cores))
        .param("flows_per_core", big_flows)
        .metric("throughput_pps", pps)
        .metric("oversubscribed", cores > hw ? 1.0 : 0.0);
  }

  std::printf("\n-- sharded: ONE forwarder, N RSS workers over %u flows --\n",
              big_flows);
  std::printf("%8s %14s %10s\n", "threads", "Mpps", "speedup");
  const double single = run_sharded(1, big_flows, scale_packets);
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    const double pps = threads == 1
        ? single
        : run_sharded(threads, big_flows, scale_packets / threads);
    std::printf("%8zu %14.2f %9.2fx\n", threads, pps / 1e6, pps / single);
    session.add("sharded_scaling")
        .param("threads", static_cast<double>(threads))
        .param("flows", big_flows)
        .metric("throughput_pps", pps)
        .metric("speedup_vs_1_thread", pps / single)
        .metric("oversubscribed", threads > hw ? 1.0 : 0.0);
  }
  std::printf(
      "Paper (Xeon E5-2470 + XL710): 7 Mpps @ 1 core, +3-4 Mpps/core, \n"
      ">20 Mpps @ 6 cores x 512K flows; throughput declines with flow count\n"
      "as the table falls out of cache (steady-state >3 Mpps/core).\n");
}

}  // namespace

int main(int argc, char** argv) {
  swb_bench::Session session{&argc, argv, "bench_fig8_forwarder_scaling"};

  // --threads N: upper end of the sharded-worker sweep.
  std::size_t max_threads = 8;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = static_cast<std::size_t>(std::atoi(argv[i] + 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[out] = nullptr;
  max_threads = std::max<std::size_t>(max_threads, 1);

  if (!session.smoke()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  print_figure8_tables(session, max_threads);
  flow_scale_sweep(session);
  return 0;
}
