#!/usr/bin/env python3
"""Perf gate: diff a merged bench-smoke JSON against the seed baseline.

Usage:
    python3 tools/bench_diff.py --baseline BENCH_seed.json \
        --current BENCH_pr.json [--tolerance 0.25]

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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional move in the bad direction")
    args = parser.parse_args()

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
