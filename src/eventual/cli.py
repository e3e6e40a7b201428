"""Command-line front end: validate and run scenarios, sweep seeds or
crash points, and dump entity histories.

Exit codes: 0 success, 1 invariant violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ScenarioInvalid, WrongPartition
from .scenario import load_scenario
from .sim import CRASH_RECOVERY_GAP, Fault, RunReport, Scenario, Simulator, run
from .store import EntityRef

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


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
    if report.quiescent:
        failures += _apology_failures(report) + _reference_failures(report)
    return failures


APOLOGY_CAUSES = ("overbooking", "disaster", "lost_promise")


def _apology_failures(report: RunReport) -> list[str]:
    """One apology per broken promise: every reservation whose rollup cause
    is an APOLOGY_CAUSES entry has exactly one apology, and every apology
    names such a reservation."""
    broken = set()
    for entities in report.rollups.values():
        for dump in entities.values():
            if '"reservations"' not in dump:
                continue  # no reservation ledger: skip decoding the dump
            for rid, entry in json.loads(dump)["value"].get("reservations", {}).items():
                if entry.get("cause") in APOLOGY_CAUSES:
                    broken.add(rid)
    subjects = [apology["subject"] for apology in report.apologies]
    failures = [
        f"APOLOGY_COUNT: {rid} broke a promise and has {subjects.count(rid)} apologies"
        for rid in sorted(broken)
        if subjects.count(rid) != 1
    ]
    failures += [
        f"APOLOGY_COUNT: apology for {subject}, which broke no promise"
        for subject in sorted(set(subjects) - broken)
    ]
    return failures


def _reference_failures(report: RunReport) -> list[str]:
    """No referential violation ``refviol:<child>:<parent>`` stays open on a
    replica whose rollups list the parent."""
    return [
        f"REFERENCE_OPEN: {exc_id} open on {replica}, which holds the parent"
        for replica, exceptions in sorted(report.exceptions.items())
        for exc_id in exceptions["open"]
        if exc_id.startswith("refviol:")
        and exc_id.rsplit(":", 1)[1] in report.rollups.get(replica, {})
    ]


def render_report_file(report: RunReport, sim) -> str:
    """Full persisted report: stable text plus the archival event dump.
    Replicas share their origin's record, so each is encoded once."""
    lines = [report.render().rstrip("\n")]
    lines.append("== events ==")
    encoded: dict[int, str] = {}  # id(record) -> line; the logs keep each record alive

    def encode(event) -> str:
        if id(event) not in encoded:
            encoded[id(event)] = event.to_line()
        return encoded[id(event)]

    for rid in sorted(sim.replicas):
        replica = sim.replicas[rid]
        for partition_id in replica.partitions_hosted():
            for line in replica.store.export_partition(partition_id, encode):
                lines.append(f"event {rid} {partition_id} {line}")
    return "\n".join(lines) + "\n"


def _simulate(args):
    """The scenario at ``--seed`` (else its own seed), run to the end: (simulator, report)."""
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.config.seed = args.seed
    sim = Simulator(scenario)  # seeds its generator and hashes the config here
    return sim, sim.run()


def cmd_run(args) -> int:
    sim, report = _simulate(args)
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
    scenario = load_scenario(args.scenario)
    violations: dict[int, list[str]] = {}
    for seed in range(args.sweep_seeds):
        report = run(scenario, seed=seed)
        failures = check_invariants(report)
        if failures:
            violations[seed] = failures
    print(f"seeds: {args.sweep_seeds}")
    print(f"violating_seeds: {sorted(violations)}")
    for seed in sorted(violations):
        for failure in violations[seed]:
            print(f"FAIL seed={seed} {failure}")
    return EXIT_OK if not violations else EXIT_VIOLATION


def crash_sweep(path, seed: int | None = None) -> tuple[int, list[tuple[str | None, str, list[str]]]]:
    """Crash each replica at each tick of the no-crash run, and right after
    each of its commits in that run, recovering it CRASH_RECOVERY_GAP ticks
    later. Every crashed run must hold the invariants and reach the
    no-crash run's semantic digest.

    The scenario is parsed once; each crash point runs a copy of it.

    Returns the number of crash points and the violations as
    (target, point, reasons), where a point reads ``tick=N`` or
    ``commit=K``. A no-crash run that already fails is the one violation
    (None, "baseline", reasons), and no crash point is tried.
    """
    scenario = load_scenario(path)
    baseline = run(scenario, seed=seed)
    base_failures = check_invariants(baseline)
    if base_failures:
        return 0, [(None, "baseline", base_failures)]
    points = [
        (target, "tick", tick)
        for target in sorted(baseline.commits)
        for tick in range(1, baseline.end_time + 1)
    ]
    points += commit_points(baseline)
    return len(points), crash_violations(scenario, baseline, points)


def commit_points(baseline: RunReport) -> list[tuple[str, str, int]]:
    """(replica, "commit", k) for every commit of every replica in a run."""
    return [
        (target, "commit", k)
        for target, count in sorted(baseline.commits.items())
        for k in range(1, count + 1)
    ]


def crashed_run(scenario: Scenario, target: str, kind: str, n: int) -> RunReport:
    """The scenario with ``target`` crashed at tick ``n`` (kind ``tick``) or
    right after its ``n``-th commit (kind ``commit``), recovering
    CRASH_RECOVERY_GAP ticks later."""
    if kind == "tick":
        crash = Fault(kind="crash", at=n, target=target)
        recover = Fault(kind="recover", at=n + CRASH_RECOVERY_GAP, target=target)
        return run(dataclasses.replace(scenario, faults=[*scenario.faults, crash, recover]))
    sim = Simulator(scenario)
    sim.crash_after_commit(target, n)
    return sim.run()


def crash_violations(scenario: Scenario, baseline: RunReport, points) -> list[tuple[str, str, list[str]]]:
    """(target, point, reasons) of each crash point whose run fails an
    invariant or ends in another business state than ``baseline``."""
    digest = baseline.semantic_digest()
    violations = []
    for target, kind, n in points:
        report = crashed_run(scenario, target, kind, n)
        failures = check_invariants(report)
        if failures or report.semantic_digest() != digest:
            reason = failures or ["STATE_MISMATCH: differs from no-crash run"]
            violations.append((target, f"{kind}={n}", reason))
    return violations


def _sweep_crash(args) -> int:
    points, violations = crash_sweep(args.scenario, args.seed)
    print(f"crash_points: {points}")
    print(f"violations: {len(violations)}")
    for target, point, reasons in violations:
        where = "baseline" if target is None else f"crash target={target} {point}"
        for reason in reasons:
            print(f"FAIL {where} {reason}")
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_history(args) -> int:
    sim, _ = _simulate(args)
    replica = sim.replicas.get(args.replica)
    if replica is None:
        print(f"UnknownEntity: replica {args.replica!r} does not exist", file=sys.stderr)
        return EXIT_VIOLATION
    ref = EntityRef.parse(args.entity)
    try:
        partition = replica.store.route(ref)
    except WrongPartition as exc:
        print(f"WrongPartition: {exc}", file=sys.stderr)
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
