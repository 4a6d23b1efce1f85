#!/usr/bin/env python3
"""Perf gate: diff a merged bench-smoke JSON against the seed baseline.

Usage:
    python3 tools/bench_diff.py --baseline BENCH_seed.json \
        --current BENCH_pr.json [--tolerance 0.25]
    python3 tools/bench_diff.py --report BENCH_seed.json BENCH_[0-9]*.json
    python3 tools/bench_diff.py --unchanged BENCH_24.json BENCH_pr.json

--report prints the trajectory instead of gating: one row per metric, one
column per file (BENCH_seed.json first, then BENCH_<n>.json in PR order),
gated metrics first, wall-clock metrics tagged "wall" (a gated one
"gated+wall").

--unchanged PREVIOUS CURRENT checks that a change left every deterministic
metric alone: it compares every metric outside WALL_CLOCK exactly, prints
how many it compared and each difference or metric missing from one side,
and exits 1 if there is any.

Both files are the `jq -s` merge CI produces:

    {"git_sha": ..., "smoke": true, "benches": [
        {"bench": "bench_fig10_route_update", "results": [
            {"name": "route_update", "params": {...}, "metrics": {...}}]}]}

Only DETERMINISTIC metrics are gated — solver outputs and simulated
control-plane times, which are machine-independent for a fixed seed.
Wall-clock series (the TE engine's `cached` / `parallel_build` /
`incremental` microbenchmarks, forwarder throughputs, ...) are noisy on
shared CI runners and are deliberately not part of the gate; they are
tracked through the uploaded BENCH_pr.json artifact instead.

A gated metric's spec is either a direction string ("up" / "down" /
"flat" / "exact") or a dict {"direction": ..., "tolerance": ...}
overriding the global --tolerance for that metric (mode-vs-mode
throughput ratios get a loose per-metric tolerance: the *shape* is
gated, runner noise is not).

A metric fails the gate when it moves more than its tolerance in its bad
direction; moves in the good direction only get reported.  "flat"
metrics have no good direction — they fail on a move beyond the
tolerance EITHER way (LP objective values: a "better" objective than the
baseline optimum is just as much a solver bug as a worse one).  "exact"
metrics (packet counts, pinning digests — bit-deterministic by
construction) fail on ANY change.  A gated record present in the
baseline but missing from the current run fails too (a silently-dropped
bench is a regression).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

# (bench, record name) -> {metric: spec}.  A spec is either a direction
# string ("up"/"down" = the GOOD way, "exact" = any change fails) or a
# dict {"direction": ..., "tolerance": ...} with a per-metric tolerance.
GATED = {
    ("bench_fig10_route_update", "route_update"): {
        "chain_create_ms": "down",
        "route_update_ms": "down",
    },
    ("bench_fig12_te_comparison", "throughput_vs_coverage"): {
        "sb_lp": "up",
        "sb_dp": "up",
        "anycast": "up",
    },
    ("bench_fig12_te_comparison", "throughput_vs_cpu_per_byte"): {
        "sb_lp": "up",
        "sb_dp": "up",
        "anycast": "up",
    },
    ("bench_fig12_te_comparison", "max_sustainable_load"): {
        "sb_lp_alpha": "up",
        "sb_dp_alpha": "up",
        "anycast_alpha": "up",
    },
    # Recovery work done is simulated-time deterministic for a fixed fault
    # seed: losing reroutes or rerouted volume means failover regressed.
    # The packet counts of the recovery window are bit-deterministic too:
    # they move only when the announcement path (bus replay, rule builds,
    # drains and re-pins) changes behaviour.
    ("bench_fig13_recovery", "recovery"): {
        "routes_rerouted": "up",
        "rerouted_volume": "up",
        "packets_sent": "exact",
        "packets_lost": "exact",
    },
    # Edge addition (Table 2) replays retained forwarder state on the
    # simulated clock: every step time is bit-deterministic.
    ("bench_table2_edge_addition", "edge_addition_latency"): {
        "site_chosen_ms": "exact",
        "edge_configured_ms": "exact",
        "total_ms": "exact",
    },
    # Bus fan-out (Fig. 9) counts are bit-deterministic per topology.
    ("bench_fig9_message_bus", "bus_fanout"): {
        "delivered": "exact",
        "drops": "exact",
    },
    # Data-plane ablations with seeded, order-independent outcomes.
    ("bench_ablation_dataplane", "dht_failover"): {
        "dht_survival_pct": "exact",
        "local_survival_pct": "exact",
    },
    ("bench_ablation_dataplane", "make_before_break"): {
        "mbb_broken": "exact",
        "reset_broken": "exact",
    },
    # Controller crash-with-amnesia recovery is simulated-time
    # deterministic: journal growth or a slower cold start is a real
    # durability-layer regression, not runner noise.
    ("bench_fig13_recovery", "controller_restart"): {
        "replay_ms": "down",
        "recovery_ms": "down",
    },
    # Replicated failover (DESIGN.md §18): all simulated-time deterministic
    # for the fixed fault seed.  The hot window must not grow (a slower
    # promotion means the standby started replaying or the fence round
    # got slower); detection tracks the suspicion threshold; elections is
    # bit-deterministic (exactly one leader death is scripted).
    ("bench_fig13_recovery", "failover"): {
        "detection_ms": "down",
        "hot_failover_ms": "down",
        "elections": "exact",
    },
    # Decentralization chaos window (DESIGN.md §17): everything here is
    # simulated-time deterministic for the fixed fault seed.  Packet
    # counts and the anycast steering-trace digest are bit-deterministic
    # (gated exact); availability must never drop (the controller-dead
    # survival claim IS this metric); re-convergence and announcement
    # overhead must not grow.
    ("bench_fig14_decentralization", "decentralization"): {
        "packets_forwarded": "exact",
        "availability": "up",
        "reconverge_ms": "down",
        "announce_messages": "down",
        "trace_digest": "exact",
    },
    # Flow-scale sweep (DESIGN.md §15): packet counts and the pinning
    # digest are bit-deterministic across modes AND thread counts, so any
    # drift is a correctness bug, not noise.  ns_per_pkt / mpps_per_core
    # are wall-clock and stay artifact-only.
    ("bench_fig8_forwarder_scaling", "flow_scale_sweep"): {
        "packets_forwarded": "exact",
        "pinning_digest": "exact",
    },
    # Epoch-read vs mutex-read throughput ratio: the gate only protects
    # the shape (the lock-free path must not collapse relative to the
    # mutex path); the loose tolerance absorbs oversubscribed runners.
    ("bench_fig8_forwarder_scaling", "flow_scale_mode_ratio"): {
        "epoch_vs_mutex": {"direction": "up", "tolerance": 0.6},
    },
    # LP engine gates (DESIGN.md §16).  Solve status is bit-deterministic;
    # the optimal objective is FP-deterministic to far better than 1e-6 on
    # any one toolchain, so it is gated flat with a tight tolerance (both
    # "better" and "worse" values mean the solver broke).  The sparse/
    # dense and warm/cold speedups are wall-clock shape gates with loose
    # tolerances, like epoch_vs_mutex above.
    ("bench_ext_scale", "lp_sparse_vs_dense"): {
        "status_optimal": "exact",
        "speedup": {"direction": "up", "tolerance": 0.6},
    },
    ("bench_ext_scale", "lp_large_scale"): {
        "status_optimal": "exact",
        "objective": {"direction": "flat", "tolerance": 1e-6},
    },
    ("bench_ext_scale", "lp_warm_vs_cold"): {
        "speedup": {"direction": "up", "tolerance": 0.6},
    },
}

# (bench, record name) -> metrics measured with a host clock.  They move
# with the machine and its load, so the trajectory report tags them.
WALL_CLOCK = {
    ("bench_ablation_dataplane", "annotation_vs_table"): {
        "annotation_ns_per_pkt", "table_ns_per_pkt"},
    ("bench_ablation_dataplane", "labels_vs_source_routing"): {
        "labels_ns_per_pkt", "source_route_ns_per_pkt"},
    ("bench_ext_scale", "dp_paper_scale"): {"dp_sec"},
    ("bench_ext_scale", "lp_large_scale"): {"lp_sec"},
    ("bench_ext_scale", "lp_sparse_vs_dense"): {
        "dense_sec", "sparse_sec", "speedup"},
    ("bench_ext_scale", "lp_vs_dp_runtime"): {"dp_sec", "lp_sec"},
    ("bench_ext_scale", "lp_warm_vs_cold"): {
        "cold_sec", "warm_sec", "speedup"},
    ("bench_fig10_route_update", "incremental"): {
        "full_resolve_ms", "incremental_ms", "speedup"},
    ("bench_fig12_te_comparison", "cached"): {
        "cached_ms", "uncached_ms", "speedup"},
    ("bench_fig12_te_comparison", "parallel_build"): {
        "parallel_ms", "serial_ms", "speedup"},
    ("bench_fig13_recovery", "controller_restart"): {
        "measured_replay_ns_per_record", "measured_snapshot_cold_us",
        "measured_snapshot_warm_us"},
    ("bench_fig7_ovs_overhead", "ovs_overhead"): {
        "affinity_pps", "bridge_pps", "labels_pps", "affinity_overhead_pct",
        "labels_overhead_pct"},
    ("bench_fig8_forwarder_scaling", "flow_scale_mode_ratio"): {
        "epoch_vs_mutex"},
    ("bench_fig8_forwarder_scaling", "flow_scale_sweep"): {
        "mpps_per_core", "ns_per_pkt"},
    ("bench_fig8_forwarder_scaling", "sharded_scaling"): {
        "throughput_pps", "speedup_vs_1_thread"},
    ("bench_fig8_forwarder_scaling", "shared_nothing_scaling"): {
        "throughput_pps"},
    ("bench_fig8_forwarder_scaling", "single_core_by_flows"): {
        "throughput_pps"},
}

EPSILON = 1e-9


def load_records(path):
    """-> {(bench, record_name, frozen_params): {metric: value}}"""
    with open(path, encoding="utf-8") as f:
        merged = json.load(f)
    records = {}
    for bench in merged.get("benches", []):
        bench_name = bench.get("bench", "?")
        for result in bench.get("results", []):
            key = (
                bench_name,
                result.get("name", "?"),
                tuple(sorted(result.get("params", {}).items())),
            )
            records[key] = result.get("metrics", {})
    return records


def describe(key):
    bench, name, params = key
    param_text = ", ".join(f"{k}={v}" for k, v in params)
    return f"{bench}/{name}({param_text})" if param_text else f"{bench}/{name}"


def pr_order(path):
    """Sort key: BENCH_seed.json first, then BENCH_<n>.json by n, then any
    other file in the order given."""
    stem = pathlib.Path(path).stem
    if stem == "BENCH_seed":
        return (0, 0)
    match = re.fullmatch(r"BENCH_(\d+)", stem)
    return (1, int(match.group(1))) if match else (2, 0)


def column_label(path):
    stem = pathlib.Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def format_value(value):
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def report(paths):
    """Prints one row per (record, metric) over `paths` in PR order."""
    paths = sorted(paths, key=pr_order)
    runs = [load_records(path) for path in paths]
    rows = set()
    for records in runs:
        for key, metrics in records.items():
            rows.update((key, metric) for metric in metrics)

    def row_order(row):
        (bench, name, _), metric = row
        gated = metric in GATED.get((bench, name), {})
        return (not gated, row)

    table = []
    for row in sorted(rows, key=row_order):
        key, metric = row
        tags = [tag for tag, table in (("gated", GATED), ("wall", WALL_CLOCK))
                if metric in table.get((key[0], key[1]), ())]
        tag = "+".join(tags)
        values = [format_value(records.get(key, {}).get(metric))
                  for records in runs]
        table.append((f"{describe(key)} {metric}", tag, values))

    labels = [column_label(path) for path in paths]
    name_width = max([len("metric")] + [len(name) for name, _, _ in table])
    widths = [max([len(label)] + [len(values[i]) for _, _, values in table])
              for i, label in enumerate(labels)]
    print(f"{'metric':<{name_width}}  {'tag':<10}  " +
          "  ".join(f"{label:>{w}}" for label, w in zip(labels, widths)))
    for name, tag, values in table:
        print(f"{name:<{name_width}}  {tag:<10}  " +
              "  ".join(f"{v:>{w}}" for v, w in zip(values, widths)))
    return 0


def unchanged(previous_path, current_path):
    """Compares every metric outside WALL_CLOCK of two runs exactly."""
    previous = load_records(previous_path)
    current = load_records(current_path)
    findings = []
    compared = 0
    for key in sorted(previous.keys() | current.keys()):
        wall = WALL_CLOCK.get((key[0], key[1]), set())
        before = previous.get(key, {})
        after = current.get(key, {})
        for metric in sorted((before.keys() | after.keys()) - wall):
            if metric not in after:
                findings.append(f"{describe(key)}: {metric} missing from "
                                f"{current_path}")
            elif metric not in before:
                findings.append(f"{describe(key)}: {metric} missing from "
                                f"{previous_path}")
            else:
                compared += 1
                if after[metric] != before[metric]:
                    findings.append(f"{describe(key)}: {metric} "
                                    f"{before[metric]!r} -> {after[metric]!r}")
    print(f"bench_diff: compared {compared} deterministic metrics exactly")
    for finding in findings:
        print(f"DIFF {finding}")
    if findings:
        return 1
    print("bench_diff: every deterministic metric unchanged")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional move in the bad direction")
    parser.add_argument("--report", nargs="+", metavar="FILE",
                        help="print the per-metric trajectory over FILEs")
    parser.add_argument("--unchanged", nargs=2,
                        metavar=("PREVIOUS", "CURRENT"),
                        help="compare every non-wall-clock metric exactly")
    args = parser.parse_args()
    if args.report:
        return report(args.report)
    if args.unchanged:
        return unchanged(*args.unchanged)
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required without --report")

    baseline = load_records(args.baseline)
    current = load_records(args.current)

    failures = []
    compared = 0
    for key, base_metrics in sorted(baseline.items()):
        gated = GATED.get((key[0], key[1]))
        if not gated:
            continue
        cur_metrics = current.get(key)
        if cur_metrics is None:
            failures.append(f"{describe(key)}: record missing from current run")
            continue
        for metric, spec in sorted(gated.items()):
            if isinstance(spec, dict):
                direction = spec["direction"]
                tolerance = spec.get("tolerance", args.tolerance)
            else:
                direction = spec
                tolerance = args.tolerance
            if metric not in base_metrics:
                continue  # baseline predates the metric; nothing to gate
            if metric not in cur_metrics:
                failures.append(f"{describe(key)}: metric {metric} disappeared")
                continue
            base = base_metrics[metric]
            cur = cur_metrics[metric]
            compared += 1
            if direction == "exact":
                if cur != base:
                    failures.append(f"{describe(key)}: {metric} changed "
                                    f"{base!r} -> {cur!r} (gated exact)")
                continue
            delta = (cur - base) / max(abs(base), EPSILON)
            if direction == "flat":
                bad = abs(delta)
            else:
                bad = -delta if direction == "up" else delta
            arrow = f"{base:.4g} -> {cur:.4g} ({delta:+.1%})"
            if bad > tolerance:
                failures.append(f"{describe(key)}: {metric} regressed {arrow}")
            elif abs(delta) > EPSILON:
                print(f"ok   {describe(key)}: {metric} {arrow}")

    print(f"bench_diff: compared {compared} gated metrics "
          f"(tolerance {args.tolerance:.0%})")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
