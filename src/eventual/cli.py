"""Command-line front end: validate and run scenarios, sweep seeds or
crash points, and dump entity histories.

Exit codes: 0 success, 1 invariant violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ScenarioInvalid
from .scenario import load_scenario
from .sim import Fault, RunReport, run
from .store import EntityRef

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CRASH_RECOVERY_GAP = 5


def check_invariants(report: RunReport) -> list[str]:
    """Machine-readable failures; empty means the run held every invariant."""
    failures = []
    if report.max_time_exceeded:
        failures.append("MAX_TIME_EXCEEDED: run did not quiesce before max_time")
    elif not report.quiescent:
        failures.append("NOT_QUIESCENT: work remained at end of run")
    by_entity: dict[str, set[str]] = {}
    for replica, entities in report.rollups.items():
        for entity, dump in entities.items():
            by_entity.setdefault(entity, set()).add(dump)
    for entity in sorted(by_entity):
        if len(by_entity[entity]) > 1:
            failures.append(f"DIVERGED: {entity} differs across replicas")
    for key, count in sorted(report.handler_effects.items()):
        if count != 1:
            failures.append(f"EFFECT_COUNT: {key} had {count} committed handler effects")
    if report.commit_path_sends:
        failures.append(f"COMMIT_PATH_SENDS: {report.commit_path_sends} network sends during commit")
    if report.quiescent and report.locks_held_at_end:
        failures.append(f"LOCKS_HELD: {report.locks_held_at_end} logical locks never released")
    return failures


def render_report_file(report: RunReport, sim) -> str:
    """Full persisted report: stable text plus the archival event dump."""
    lines = [report.render().rstrip("\n")]
    lines.append("== events ==")
    for rid in sorted(sim.replicas):
        replica = sim.replicas[rid]
        for partition_id in replica.partitions_hosted():
            for line in replica.store.export_partition(partition_id):
                lines.append(f"event {rid} {partition_id} {line}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    from .sim import Simulator

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.config.seed = args.seed
    sim = Simulator(scenario)
    report = sim.run()
    failures = check_invariants(report)
    if args.report:
        Path(args.report).write_text(render_report_file(report, sim))
    sys.stdout.write(report.render())
    for failure in failures:
        print(f"FAIL {failure}")
    return EXIT_OK if not failures else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    if args.sweep_seeds is not None:
        return _sweep_seeds(args)
    if args.sweep_crash:
        return _sweep_crash(args)
    print("sweep requires --sweep-seeds N or --sweep-crash", file=sys.stderr)
    return EXIT_USAGE


def _sweep_seeds(args) -> int:
    violations: dict[int, list[str]] = {}
    for seed in range(args.sweep_seeds):
        report = run(load_scenario(args.scenario), seed=seed)
        failures = check_invariants(report)
        if failures:
            violations[seed] = failures
    print(f"seeds: {args.sweep_seeds}")
    print(f"violating_seeds: {sorted(violations)}")
    for seed in sorted(violations):
        for failure in violations[seed]:
            print(f"FAIL seed={seed} {failure}")
    return EXIT_OK if not violations else EXIT_VIOLATION


def crash_sweep(path, seed: int | None = None) -> tuple[int, list[tuple[str | None, int, list[str]]]]:
    """Crash each replica at each tick of the no-crash run, recovering it
    CRASH_RECOVERY_GAP ticks later. Every crashed run must hold the
    invariants and reach the no-crash run's semantic digest.

    Returns the number of crash points and the violations as
    (target, tick, reasons). A no-crash run that already fails is the one
    violation (None, 0, reasons), and no crash point is tried.
    """
    scenario = load_scenario(path)
    replicas = sorted({r for reps in scenario.config.partitions.values() for r in reps})
    baseline = run(scenario, seed=seed)
    base_failures = check_invariants(baseline)
    if base_failures:
        return 0, [(None, 0, base_failures)]
    digest = baseline.semantic_digest()
    violations = []
    points = 0
    for target in replicas:
        for tick in range(1, baseline.end_time + 1):
            points += 1
            scenario = load_scenario(path)
            scenario.faults.append(Fault(kind="crash", at=tick, target=target))
            scenario.faults.append(Fault(kind="recover", at=tick + CRASH_RECOVERY_GAP, target=target))
            report = run(scenario, seed=seed)
            failures = check_invariants(report)
            if failures or report.semantic_digest() != digest:
                reason = failures or ["STATE_MISMATCH: differs from no-crash run"]
                violations.append((target, tick, reason))
    return points, violations


def _sweep_crash(args) -> int:
    points, violations = crash_sweep(args.scenario, args.seed)
    print(f"crash_points: {points}")
    print(f"violations: {len(violations)}")
    for target, tick, reasons in violations:
        where = "baseline" if target is None else f"crash target={target} tick={tick}"
        for reason in reasons:
            print(f"FAIL {where} {reason}")
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_history(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.config.seed
    from .sim import Simulator

    sim = Simulator(scenario)
    sim.config.seed = seed
    sim.run()
    replica = sim.replicas.get(args.replica)
    if replica is None:
        print(f"UnknownEntity: replica {args.replica!r} does not exist", file=sys.stderr)
        return EXIT_VIOLATION
    ref = EntityRef.parse(args.entity)
    try:
        partition = replica.store.route(ref)
    except Exception:
        print(f"UnknownEntity: no placement for {args.entity!r}", file=sys.stderr)
        return EXIT_VIOLATION
    history = replica.store.list_history(partition, ref)
    if not history:
        print(f"UnknownEntity: {args.entity!r} has no events on {args.replica}", file=sys.stderr)
        return EXIT_VIOLATION
    checkpoint = replica.store.log(partition).checkpoints.get(ref)
    print(f"history {args.entity} on {args.replica} ({len(history)} events)")
    if checkpoint is not None:
        print(f"checkpoint covering {checkpoint.covers_up_to.to_dict()}")
    header = f"{'event_id':<10} {'op':<12} {'hint':>5}  {'txn':<18} {'key':<28} payload"
    print(header)
    for event in history:
        marker = " (deleted)" if event.op_kind == "tombstone" else ""
        payload = json.dumps(event.payload, sort_keys=True, separators=(",", ":"))
        print(
            f"{str(event.event_id):<10} {event.op_kind:<12} {event.lww_hint:>5}  "
            f"{event.origin_txn_id:<18} {event.idempotence_key:<28} {payload}{marker}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eventual")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="validate and execute one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--report", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="seed or crash-point sweeps")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--sweep-seeds", type=int, default=None, metavar="N")
    p_sweep.add_argument("--sweep-crash", action="store_true")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_hist = sub.add_parser("history", help="print an entity's canonical event history")
    p_hist.add_argument("scenario")
    p_hist.add_argument("--entity", required=True)
    p_hist.add_argument("--replica", required=True)
    p_hist.add_argument("--seed", type=int, default=None)
    p_hist.set_defaults(fn=cmd_history)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except ScenarioInvalid as exc:
        print(f"scenario invalid: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
