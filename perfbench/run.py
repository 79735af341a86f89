#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload ewo_flood --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, both passes

Run from the repository root. Each run repeats the workload in fresh
processes for --seconds of wall time (at least MIN_ITERATIONS times) and
reports medians. --trace 0 prints the end-to-end metrics; --trace 1 runs the
traced pass and prints the per-layer metrics. Human-readable lines go first;
the last line of standard output is one JSON object. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ewo_flood", "nat_churn", "lb_txn_sharded")
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 120

# End-to-end metrics, printed by the untraced pass: name -> unit.
END_TO_END = {
    "edge_pkts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "visible_wait_mean_us": "us",
    "proto_bytes_per_pkt": "B/pkt",
    "delivered_frac": "frac",
}

# Per-layer metrics, printed by the traced pass: name -> unit. Counter ratios
# come from swishbench's "layers" map under the same name.
LAYER_RATIOS = {
    "sim.events_per_pkt": "events/pkt",
    "shard.events_per_window": "events/window",
    "shard.windows_per_ms": "windows/ms",
    "shard.cross_event_frac": "frac",
    "shard.imbalance": "ratio",
    "packet.parses_per_pass": "parses/pass",
    "packet.parse_hit_rate": "frac",
    "packet.copies_per_pkt": "copies/pkt",
    "packet.buffers_per_pkt": "buffers/pkt",
    "net.link_pkts_per_pkt": "pkts/pkt",
    "net.link_bytes_per_pkt": "B/pkt",
    "net.drops": "count",
    "pisa.passes_per_pkt": "passes/pkt",
    "pisa.cp_execs_per_pkt": "execs/pkt",
    "pisa.recirc_per_pkt": "recircs/pkt",
    "pisa.drops": "count",
    "sro.hops_per_commit": "hops/commit",
    "sro.retries_per_commit": "retries/commit",
    "sro.redirect_frac": "frac",
    "sro.failed": "count",
    "own.acq_per_alloc": "acq/alloc",
    "own.acq_retries": "count",
    "own.queue_rejected": "count",
    "ewo.updates_per_write": "updates/write",
    "ewo.merged_per_update": "entries/update",
    "ewo.bytes_per_write": "B/write",
    "con.forward_frac": "frac",
    "con.retries": "count",
    "con.elections": "count",
    "con.accepts_per_commit": "accepts/commit",
    "membership.control_bytes_per_ms": "B/ms",
}
LAYER_TIMED = {
    "sim.ns_per_event": "ns/event",
    "shard.speedup_vs_1": "x",
    "swishmem.divergence_mean": "count",
    "span.setup.fabric_ms": "ms",
    "span.setup.spaces_ms": "ms",
    "span.setup.install_ms": "ms",
    "span.setup.start_ms": "ms",
    "span.run.nf_ns_per_pkt": "ns/pkt",
    "span.run.sink_ns_per_pkt": "ns/pkt",
    "span.run.self_ns_per_pkt": "ns/pkt",
    "trace.overhead_frac": "frac",
}
PER_LAYER = {**LAYER_RATIOS, **LAYER_TIMED}

# Fields of one iteration that depend only on the inputs (virtual time and
# counters), so every iteration of a run must repeat them exactly.
DETERMINISTIC = ("attempted", "delivered", "pkt_latency_ns", "conn_setup_ns", "wait_ns",
                 "divergence_mean", "divergence_ticks", "proto_bytes", "lookahead_ns", "layers")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build() -> Path:
    """Configures and builds swishbench (incrementally); returns the binary path."""
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(root), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(root), "-j", jobs, "--target", "swishbench"],
                   check=True, stdout=sys.stderr)
    return root / "swishbench"


def iterate(binary: Path, workload: str, seed: int, trace: bool = False, shards: int = 0) -> dict:
    """Runs one iteration in a fresh process and returns its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if shards:
        cmd += ["--shards", str(shards)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(seconds: float, step) -> list:
    """Calls step() until `seconds` have passed, at least MIN_ITERATIONS times."""
    out = []
    start = time.monotonic()
    while len(out) < MIN_ITERATIONS or time.monotonic() - start < seconds:
        out.append(step())
    return out


def ratio(pair) -> float:
    num, base = pair
    return num / base if base else 0.0


def check(records: list) -> list:
    """Errors of the output checks of iterations of one configuration, and
    any difference between them in the fields that must repeat exactly."""
    errors = []
    for r in records:
        errors += [f"{r['workload']}: {e}" for e in r["errors"]]
        for name in ("pkt_latency_ns", "conn_setup_ns", "wait_ns"):
            if r[name]["n"] and not r[name]["p99_ok"]:
                errors.append(f"{r['workload']}: {name} p99 has fewer than 10 samples beyond it")
        for key in DETERMINISTIC:
            if r[key] != records[0][key]:
                errors.append(f"{r['workload']}: {key} differs between iterations: "
                              f"{records[0][key]} vs {r[key]}")
    return errors


def latency_line(name: str, lat: dict) -> str:
    if lat["n"] == 0:
        return f"  {name:<24} n/a (no samples)"
    return (f"  {name:<24} p50 {lat['p50'] / 1e3:.3f} us, p99 {lat['p99'] / 1e3:.3f} us, "
            f"p{lat['tail_q'] * 100:g} {lat['tail'] / 1e3:.3f} us, mean {lat['mean'] / 1e3:.4f} us"
            f" (n={lat['n']})")


def end_to_end(records: list) -> dict:
    first = records[0]
    return {
        "edge_pkts_per_s": statistics.median(r["attempted"] / r["run_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "visible_wait_mean_us": first["wait_ns"]["mean"] / 1e3,
        "proto_bytes_per_pkt": ratio(first["proto_bytes"]),
        "delivered_frac": first["delivered"] / first["attempted"],
    }


def report_end_to_end(records: list, metrics: dict) -> None:
    first = records[0]
    n = len(records)
    print(f"{first['workload']} (shards {first['shards']}, {n} iterations; wall metrics are "
          f"medians, virtual-time metrics are exact at this seed)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    pps = sorted(r["attempted"] / r["run_s"] for r in records)
    print(f"  {'edge_pkts_per_s range':<24} {pps[0]:.6g} .. {pps[-1]:.6g} 1/s")
    lost = first["attempted"] - first["delivered"]
    print(f"  {'loss_frac':<24} {lost / first['attempted']:.6g} "
          f"({lost} of {first['attempted']} edge packets)")
    print(f"  {'proto bytes':<24} {first['proto_bytes'][0]:.0f} B over "
          f"{first['proto_bytes'][1]:.0f} edge packets")
    print(latency_line("visible_wait", first["wait_ns"]))
    print(latency_line("conn_setup", first["conn_setup_ns"]))
    print(latency_line("pkt_latency", first["pkt_latency_ns"]))
    print(f"  {'ewo_divergence_mean':<24} {first['divergence_mean']:.6g} "
          f"(over {first['divergence_ticks']} probes)")


def per_layer(untraced: list, traced: list, one_shard: list) -> dict:
    base = untraced[0]
    layers = base["layers"]
    metrics = {name: ratio(layers[name]) for name in LAYER_RATIOS}
    events = layers["sim.events_per_pkt"][0]
    run_s = statistics.median(r["run_s"] for r in untraced)
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics["sim.ns_per_event"] = run_s * 1e9 / events
    metrics["shard.speedup_vs_1"] = (
        statistics.median(r["run_s"] for r in one_shard) / run_s if one_shard else 1.0)
    metrics["swishmem.divergence_mean"] = base["divergence_mean"]
    for part in ("fabric", "spaces", "install", "start"):
        metrics[f"span.setup.{part}_ms"] = statistics.median(
            r["setup_spans_ms"][part] for r in traced)
    for part in ("nf", "sink", "self"):
        metrics[f"span.run.{part}_ns_per_pkt"] = statistics.median(
            r["spans_ns_per_pkt"][part] for r in traced)
    metrics["trace.overhead_frac"] = traced_s / run_s - 1
    return metrics


def report_per_layer(untraced: list, traced: list, one_shard: list, metrics: dict) -> None:
    base = untraced[0]
    print(f"{base['workload']} traced pass ({len(untraced)} untraced, {len(traced)} traced"
          + (f", {len(one_shard)} one-shard" if one_shard else "") + " iterations)")
    for name, unit in PER_LAYER.items():
        extra = ""
        if name in LAYER_RATIOS:
            num, den = base["layers"][name]
            extra = f"  [{num:.0f} / {den:.6g}]"
        print(f"  {name:<34} {metrics[name]:.6g} {unit}{extra}")
    inject = statistics.median(r["spans_ns_per_pkt"]["inject"] for r in traced)
    print(f"  {'span.run.inject_ns_per_pkt':<34} {inject:.6g} ns/pkt (ewo_flood pump only)")
    print(f"  {'shard.lookahead_ns':<34} {base['lookahead_ns']:.6g} ns")


def run_workload(binary: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Returns (correct, attempted, failed, metrics) for one workload and pass."""
    one_shard = []
    if not trace:
        records = repeat(seconds, lambda: iterate(binary, workload, seed))
        metrics = end_to_end(records)
        report_end_to_end(records, metrics)
        everything = records
    else:
        untraced, traced = [], []

        def cycle():
            untraced.append(iterate(binary, workload, seed))
            traced.append(iterate(binary, workload, seed, trace=True))
            if untraced[-1]["shards"] > 1:  # the same work on one shard, for the speedup
                one_shard.append(iterate(binary, workload, seed, shards=1))

        repeat(seconds, cycle)
        metrics = per_layer(untraced, traced, one_shard)
        report_per_layer(untraced, traced, one_shard, metrics)
        everything = untraced + traced
    errors = check(everything) + (check(one_shard) if one_shard else [])
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["attempted"] - r["delivered"] for r in everything)
    return not errors, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.workload == "all":
        passes = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        passes = [(args.workload, bool(args.trace))]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload, trace in passes:
            ok, a, f, m = run_workload(binary, workload, args.seed, args.seconds, trace)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            units = PER_LAYER if trace else END_TO_END
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: {"value": m[name], "unit": unit}
                            for name, unit in units.items()})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    if args.workload == "all":
        print(f"all workloads: {'all checks passed' if correct else 'CHECKS FAILED'}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
