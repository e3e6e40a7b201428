"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload reserve-insert --seed 1 --seconds 30 --trace 0

Runs units of the workload (see ``workloads.py``) until ``--seconds``
have passed, checks every output, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced units alternate and the metrics are the
per-layer ones plus the tracing overhead. Progress goes to stderr.

Every reported time is rescaled to one host speed: it is divided by how
many times slower than ``REFERENCE_S`` the fixed ``workloads.reference``
loop ran on either side of the stretch the time was taken in.

The engine is imported from ``src/`` beside this directory; without it
the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("gossip-sweep", "delta-hot", "reserve-insert", "store-direct")
MIN_UNITS = 3  # per variant
SIM_VARIANTS = 4  # scenarios per simulator run, cycled unit by unit
# ``workloads.reference`` on the host the benchmark was built on, when
# nothing else slowed it: times are rescaled to this host speed.
REFERENCE_S = 0.0028


def load_engine() -> None:
    """Put the checkout's ``src/`` first on the path and import the engine from it."""
    package = SRC / "eventual"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: engine source not found at {package}")
    sys.path.insert(0, str(SRC))
    import eventual

    if Path(eventual.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported eventual from {eventual.__file__}, not {package}")


def _prepare(name: str, seed: int):
    """Generate the workload's inputs; returns (unit functions, one per
    variant, and cleanup)."""
    import workloads as w

    if name == "gossip-sweep":
        w.WORK_DIR.mkdir(exist_ok=True)
        path = w.WORK_DIR / f"gossip-{seed}-{os.getpid()}.yaml"
        path.write_text(w.gossip_variant(seed))
        return [lambda: w.gossip_sweep(path, seed)], path.unlink
    if name == "store-direct":
        ops = w.store_ops(seed)
        return [lambda: w.store_direct(ops)], None

    seeds = [seed * SIM_VARIANTS + k for k in range(SIM_VARIANTS)]
    if name == "delta-hot":
        return [partial(w.simulate, w.delta_hot(s), s, ("account", "balance"), False) for s in seeds], None
    return [partial(w.simulate, w.reserve_insert(s), s, ("book", "on_hand"), True) for s in seeds], None


def _slowdowns(unit) -> list[float]:
    """Per stretch of the unit: how many times slower than ``REFERENCE_S``
    the host ran, from the references on its two sides."""
    return [(before + after) / 2 / REFERENCE_S for before, after in zip(unit.refs, unit.refs[1:])]


def _scaled(units, attr: str) -> list[float]:
    """Every sample ``attr`` of the units, divided by its stretch's slowdown."""
    out = []
    for u in units:
        slowdowns = _slowdowns(u)
        out.extend(value / slowdowns[k] for k, value in getattr(u, attr))
    return out


def _pct(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _ops_per_s(units) -> float:
    """Ops per rescaled second over the run's variants: the total ops of
    one unit of each variant over the sum of each variant's median time."""
    ops: dict[int, int] = {}
    times: dict[int, list[float]] = {}
    for u in units:
        slowdowns = _slowdowns(u)
        ops[u.variant] = sum(n for _, n, _ in u.timings)
        times.setdefault(u.variant, []).append(
            sum(seconds / slowdowns[k] for k, _, seconds in u.timings))
    return sum(ops.values()) / sum(statistics.median(t) for t in times.values())


def end_to_end(units, peak_rss_mb: float) -> dict:
    values = {
        "setup_s": (statistics.median(_scaled(units, "setup_s")), "s"),
        "ops_per_s": (_ops_per_s(units), "1/s"),
        "write_p50_us": (_pct(_scaled(units, "write_us"), 50), "us"),
        "read_p50_us": (_pct(_scaled(units, "read_us"), 50), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, unit) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced unit."""
    c, t, x = tracer.calls, tracer.total_s, tracer.extra
    rollups = c["store.ReplicaStore.rollup"]
    fold_states = c["store.ReplicaStore.fold_state"]
    resolves = c["replication.resolve"]
    scan_names = tuple(f"process.scan_{k}" for k in ("exceptions", "reservations", "apologies"))
    scans = sum(c[n] for n in scan_names)
    returned = x["store.missing_for_returned"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "scenario.load_s": (tracer.outer_s("scenario."), "s"),
        # safe_load parses through load: count each parse once
        "scenario.yaml_parses": (c["scenario.compose"] + c["scenario.safe_load"] + c["scenario.load"]
                                 - tracer.edge_count(("scenario.safe_load",), "scenario.load"), "count"),
        "sim.run_s": (t["sim.Simulator.run"], "s"),
        "sim.messages_sent": (unit.messages_sent, "count"),
        "sim.redeliveries": (unit.redeliveries, "count"),
        "sim.converge_ticks": (statistics.median(unit.converge_ticks) if unit.converge_ticks else 0, "ticks"),
        "txn.steps": (c["txn.execute_step"], "count"),
        "txn.step_s": (t["txn.execute_step"], "s"),
        "txn.commits": (c["txn.commit"], "count"),
        "txn.commit_s": (t["txn.commit"], "s"),
        "txn.rolled_back": (x["txn.rolled_back"], "count"),
        "txn.lock_conflicts": (tracer.raised[("txn.execute_step", "LockConflict")], "count"),
        "txn.pending_s": (t["txn.apply_pending_actions"], "s"),
        "registry.validates": (c["registry.SchemaRegistry.validate_payload"], "count"),
        "registry.validate_s": (t["registry.SchemaRegistry.validate_payload"], "s"),
        "store.rollups": (rollups, "count"),
        "store.rollup_s": (t["store.ReplicaStore.rollup"], "s"),
        "store.fold_states": (fold_states, "count"),
        "store.events_folded": (c["store.FoldState.fold"], "count"),
        "store.events_per_rollup": (ratio(
            tracer.edge_count(("store.ReplicaStore.rollup", "store.ReplicaStore.fold_state"),
                              "store.FoldState.fold"),
            rollups + fold_states), "ratio"),
        "store.appends": (c["store.ReplicaStore.append_event"], "count"),
        "store.append_s": (t["store.ReplicaStore.append_event"], "s"),
        "store.missing_for_s": (t["store.PartitionLog.missing_for"], "s"),
        "store.missing_for_scan_ratio": (ratio(x["store.missing_for_scanned"], returned), "ratio"),
        "store.json_encodes": (c["store.EventRecord.to_line"], "count"),
        "store.json_decodes": (c["store.EventRecord.from_line"], "count"),
        "store.codec_s": (t["store.EventRecord.to_line"] + t["store.EventRecord.from_line"], "s"),
        "store.summarizes": (c["store.ReplicaStore.summarize"], "count"),
        "store.summarize_s": (t["store.ReplicaStore.summarize"], "s"),
        "store.events_archived": (x["store.events_archived"], "count"),
        "store.event_compares": (c["store.EventRecord.__eq__"], "count"),
        "clocks.vector_compares": (c["clocks.VersionVector.dominates"], "count"),
        "replication.resolves": (resolves, "count"),
        "replication.resolve_s": (t["replication.resolve"], "s"),
        "replication.concurrent_groups_s": (t["replication.concurrent_groups"], "s"),
        "replication.concurrent_pairs": (c["clocks.VersionVector.concurrent_with"], "count"),
        "replication.report_kept_ratio": (ratio(unit.conflict_reports, resolves), "ratio"),
        "replication.overbooking_checks": (c["replication.detect_overbooking"], "count"),
        "process.scans": (scans, "count"),
        "process.scan_s": (sum(t[n] for n in scan_names), "s"),
        "process.rollups_per_scan": (ratio(tracer.edge_count(scan_names, "store.ReplicaStore.rollup"), scans), "ratio"),
        "process.referential_plans_s": (t["process.plan_referential_resolutions"], "s"),
        "bus.consumes": (c["bus.consume_next"], "count"),
        "bus.consume_s": (t["bus.consume_next"], "s"),
        "bus.inbox_scanned": (x["bus.inbox_scanned"], "count"),
        "bus.enqueued": (x["bus.enqueued"], "count"),
        "trace.spans": (sum(1 for s in tracer.spans if s is not None), "count"),
    }
    for layer in ("scenario", "sim", "txn", "registry", "store", "replication", "process", "bus"):
        m[f"{layer}.self_s"] = (tracer.layer_self_s[layer], "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_engine()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    variants, cleanup = _prepare(args.workload, args.seed)
    if args.trace:
        variants = variants[:1]  # traced counts must repeat exactly
    problems: list[str] = []
    plain, traced, layer_runs = [], [], []
    last_tracer = None
    try:
        deadline = perf_counter() + args.seconds
        while True:
            variant = len(plain) % len(variants)
            run_unit = variants[variant]
            plain.append(run_unit())
            plain[-1].variant = variant
            if len(plain) == len(variants):
                # later units repeat this work; only the samples kept would grow it
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"unit {len(plain)}: {_ops_per_s(plain[-1:]):.1f} ops/s, "
                  f"host {statistics.median(_slowdowns(plain[-1])):.2f}x slower", file=sys.stderr)
            if args.trace:
                tracer = Tracer()
                tracer.run_id = len(traced)
                with tracer:
                    unit = run_unit()
                traced.append(unit)
                layer_runs.append(per_layer(tracer, unit))
                last_tracer = tracer
            if perf_counter() >= deadline and (args.trace or len(plain) >= MIN_UNITS * len(variants)):
                break
    finally:
        if cleanup is not None:
            cleanup()

    units = plain + traced
    for variant in range(len(variants)):
        digests = {u.digest for u in units if u.variant == variant}
        if len(digests) != 1:
            problems.append(f"determinism: variant {variant} gave {len(digests)} different output digests")
    for u in units:
        problems.extend(u.problems)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    if args.trace:
        metrics = {}
        for name, (_, unit_name) in layer_runs[0].items():
            value = statistics.median(run[name][0] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit_name}
        overhead = _ops_per_s(plain) / _ops_per_s(traced) - 1
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        # latency tails of the untraced units: too noisy on a shared host to gate
        metrics["txn.write_p99_us"] = {"value": _pct(_scaled(plain, "write_us"), 99), "unit": "us"}
        metrics["store.read_p99_us"] = {"value": _pct(_scaled(plain, "read_us"), 99), "unit": "us"}
        for name in layer_runs[0]:
            counts = {run[name][0] for run in layer_runs}
            if layer_runs[0][name][1] == "count" and len(counts) != 1:
                problems.append(f"determinism: {name} differs across traced repeats: {sorted(counts)}")
        out_dir = Path(__file__).resolve().parent / "work"
        out_dir.mkdir(exist_ok=True)
        last_tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.csv")
    else:
        metrics = end_to_end(units, peak_rss_mb)

    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} units={len(plain)}+{len(traced)} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
