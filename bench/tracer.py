"""Per-layer tracer, built from outside the engine.

The engine has no hooks, so the tracer wraps its public functions in
place while a traced unit runs and restores the originals afterwards.
Modules import functions by name (``from .replication import resolve``),
so a module-level function is replaced by identity in every
``eventual.*`` namespace that binds it; a method is replaced once on its
class.

Each target has a mode:

- ``SPAN``: timed, and recorded as a span (id, parent id, run id, name,
  start, end) at a layer boundary;
- ``TIMED``: timed like a span but not recorded, for calls too frequent
  to keep one record each;
- ``COUNT``: counted only. Its time stays in the caller's self time.

A call's self time is its duration minus the time of the wrapped calls
it made, so each layer's self time counts what the layer itself did.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"


def _len_result(tracer, args, result):
    return len(result)


# (module, qualified name, layer, mode, {extra counter: hook(tracer, args, result)})
TARGETS = [
    ("eventual.scenario", "load_scenario", "scenario", SPAN, {}),
    ("eventual.scenario", "parse_scenario", "scenario", SPAN, {}),
    ("yaml", "compose", "scenario", TIMED, {}),
    ("yaml", "safe_load", "scenario", TIMED, {}),
    ("yaml", "load", "scenario", TIMED, {}),
    ("eventual.sim", "run", "sim", SPAN, {}),
    ("eventual.sim", "Simulator.__init__", "sim", SPAN, {}),
    ("eventual.sim", "Simulator.run", "sim", SPAN, {}),
    ("eventual.txn", "execute_step", "txn", SPAN,
     {"txn.rolled_back": lambda t, a, r: r.status == "rolled_back"}),
    ("eventual.txn", "commit", "txn", SPAN, {}),
    ("eventual.txn", "apply_pending_actions", "txn", SPAN, {}),
    ("eventual.registry", "SchemaRegistry.validate_payload", "registry", TIMED, {}),
    ("eventual.store", "ReplicaStore.rollup", "store", SPAN, {}),
    ("eventual.store", "ReplicaStore.fold_state", "store", SPAN, {}),
    ("eventual.store", "ReplicaStore.summarize", "store", SPAN, {}),
    ("eventual.store", "ReplicaStore.append_event", "store", TIMED, {}),
    ("eventual.store", "ReplicaStore.export_partition", "store", SPAN, {}),
    ("eventual.store", "ReplicaStore.import_partition", "store", SPAN, {}),
    ("eventual.store", "PartitionLog.missing_for", "store", SPAN,
     {"store.missing_for_scanned": lambda t, a, r: len(a[0].events),
      "store.missing_for_returned": _len_result}),
    ("eventual.store", "PartitionLog.archive_covered", "store", SPAN,
     {"store.events_archived": _len_result}),
    ("eventual.store", "FoldState.fold", "store", COUNT, {}),
    ("eventual.store", "EventRecord.to_line", "store", TIMED, {}),
    ("eventual.store", "EventRecord.from_line", "store", TIMED, {}),
    ("eventual.store", "EventRecord.__eq__", "store", COUNT, {}),
    ("eventual.store", "canonical_sort", "store", TIMED, {}),
    ("eventual.clocks", "VersionVector.dominates", "clocks", COUNT, {}),
    ("eventual.clocks", "VersionVector.concurrent_with", "clocks", COUNT, {}),
    ("eventual.replication", "sync", "replication", SPAN, {}),
    ("eventual.replication", "resolve", "replication", SPAN, {}),
    ("eventual.replication", "concurrent_groups", "replication", SPAN, {}),
    ("eventual.replication", "detect_overbooking", "replication", TIMED, {}),
    ("eventual.replication", "compensation_plan", "replication", SPAN, {}),
    ("eventual.process", "scan_exceptions", "process", SPAN, {}),
    ("eventual.process", "scan_reservations", "process", SPAN, {}),
    ("eventual.process", "scan_apologies", "process", SPAN, {}),
    ("eventual.process", "check_referential", "process", SPAN, {}),
    ("eventual.process", "plan_referential_resolutions", "process", SPAN, {}),
    ("eventual.process", "plan_cleansing", "process", SPAN, {}),
    ("eventual.process", "join_ready", "process", SPAN, {}),
    ("eventual.process", "join_merged_payload", "process", SPAN, {}),
    ("eventual.bus", "consume_next", "bus", SPAN,
     {"bus.inbox_scanned": lambda t, a, r: t.inbox_before}),
    ("eventual.bus", "enqueue", "bus", TIMED,
     {"bus.enqueued": lambda t, a, r: len(a[1])}),
]

class Tracer:
    """Wraps the engine while active; collects spans and counts in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.run_id = 0
        self.inbox_before = 0
        self._stack: list[list] = []  # [name, child seconds, nearest span id]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def __enter__(self) -> Tracer:
        for module_name, qualname, layer, mode, hooks in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._wrap_method(getattr(module, cls_name), attr, f"{layer}.{qualname}", layer, mode, hooks)
            else:
                self._wrap_function(module, qualname, f"{layer}.{qualname}", layer, mode, hooks)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _namespaces(self, home):
        yield home
        for name, module in sorted(sys.modules.items()):
            if module is not home and (name == "eventual" or name.startswith("eventual.")):
                yield module

    def _wrap_function(self, module, attr, name, layer, mode, hooks) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, layer, mode, hooks)
        for namespace in self._namespaces(module):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def _wrap_method(self, cls, attr, name, layer, mode, hooks) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, layer, mode, hooks))
        else:
            wrapped = self._wrapper(raw, name, layer, mode, hooks)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    # -- the wrappers -----------------------------------------------------------

    def _wrapper(self, fn, name, layer, mode, hooks):
        tracer = self
        stack = self._stack
        calls = self.calls
        edges = self.edges

        if mode == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                edges[(stack[-1][0] if stack else None, name)] += 1
                return fn(*args, **kwargs)

            return counted

        record = mode == SPAN
        total_s = self.total_s
        layer_self_s = self.layer_self_s
        extra = self.extra
        spans = self.spans
        is_consume = name == "bus.consume_next"

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else -1
            # a frame carries the id of its nearest recorded span
            span_id = len(spans) if record else parent_id
            frame = [name, 0.0, span_id]
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            if is_consume:
                tracer.inbox_before = len(args[0].inbox.arrivals)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            else:
                for key, hook in hooks.items():
                    extra[key] += hook(tracer, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                calls[name] += 1
                total_s[name] += duration
                layer_self_s[layer] += own
                edges[(parent[0] if parent else None, name)] += 1
                if parent is not None:
                    parent[1] += duration
                if record:
                    spans[span_id] = (span_id, parent_id, tracer.run_id, name, start, end)

        return timed

    # -- results --------------------------------------------------------------------

    def outer_s(self, prefix: str) -> float:
        """Time inside calls named ``prefix*`` not nested in another one."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span is None or not span[3].startswith(prefix):
                continue
            parent = span[1]
            if parent >= 0 and spans[parent][3].startswith(prefix):
                continue
            total += span[5] - span[4]
        return total

    def edge_count(self, parents: tuple[str, ...], child: str) -> int:
        return sum(self.edges.get((p, child), 0) for p in parents)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("span_id,parent_id,run_id,name,start_s,end_s\n")
            base = min((s[4] for s in self.spans if s), default=0.0)
            for span in self.spans:
                if span is not None:
                    sid, pid, run, name, start, end = span
                    out.write(f"{sid},{pid},{run},{name},{start - base:.9f},{end - base:.9f}\n")
