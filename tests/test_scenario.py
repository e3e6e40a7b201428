"""Scenario loading: one parse per load, one load per sweep, data equal to
``yaml.safe_load``'s, and runs that leave the parsed scenario as it was."""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden
from conftest import _ReferenceLoader
from eventual import scenario as scenario_module
from eventual.cli import crash_sweep, main
from eventual.errors import ScenarioInvalid
from eventual.scenario import parse_scenario
from eventual.sim import run

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"

TEXTS = {
    **{path.name: path.read_text() for path in sorted(SCENARIOS.glob("*.yaml"))},
    **{f"test_sim.{name}": text for name, text in test_golden.inline_scenarios().items()},
}


@contextmanager
def _counted_work():
    """Logs the parse work as it happens: ``"parse"`` per pass of the event
    builder, ``"compose"`` per ``yaml.compose`` (the line map's node tree
    included), ``"construct"`` per ``SafeConstructor.construct_document``."""
    log: list[str] = []
    parse = scenario_module._event_data
    compose = yaml.compose
    construct = yaml.constructor.SafeConstructor.construct_document

    def counted_parse(text):
        log.append("parse")
        return parse(text)

    def counted_compose(*args, **kwargs):
        log.append("compose")
        return compose(*args, **kwargs)

    def counted_construct(*args, **kwargs):
        log.append("construct")
        return construct(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_event_data", counted_parse)
        patch.setattr(yaml, "compose", counted_compose)
        patch.setattr(yaml.constructor.SafeConstructor, "construct_document", counted_construct)
        yield log


@pytest.fixture
def work():
    with _counted_work() as log:
        yield log


def test_the_fast_parse_uses_libyaml_when_it_is_installed():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_module._LOADER is expected


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_one_parse_gives_the_data_and_lines_of_the_pure_python_parse(name):
    text = TEXTS[name]
    lines, data = scenario_module._compose(text)
    assert data == yaml.safe_load(text)
    reference = scenario_module._Lines(text)
    reference.node = yaml.compose(text, Loader=yaml.SafeLoader)
    paths = list(_paths(data))
    assert [lines.at(*path) for path in paths] == [reference.at(*path) for path in paths]
    assert lines.at("no such field") is None


def _paths(value, path=()):
    """Every path into ``value``: mapping keys and list indexes."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, item in items:
        yield from _paths(item, (*path, step))


@pytest.mark.parametrize(
    "text, line",
    [("schema: eventual/1\nentities: {a: {}}\ntopology: {partitions: {p0: [A]}: x}\n", 3),
     ("schema: eventual/1\nentities:\n  a: {merge: x\ntopology: {}\n", 4)],
    ids=["mapping-value", "unclosed-flow"],
)
def test_syntax_errors_keep_their_line(text, line):
    with pytest.raises(ScenarioInvalid) as caught:
        parse_scenario(text)
    assert caught.value.line == line


def test_a_seed_sweep_parses_once(work, capsys):
    assert main(["sweep", str(SCENARIOS / "gossip.yaml"), "--sweep-seeds", "15"]) == 0
    assert "violating_seeds: []" in capsys.readouterr().out
    assert work.count("parse") == 1 and "compose" not in work


def test_a_crash_sweep_parses_once(work):
    points, violations = crash_sweep(SCENARIOS / "reference.yaml")
    assert points > 0 and violations == []
    assert work.count("parse") == 1 and "compose" not in work


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_a_valid_scenario_loads_in_one_parse_with_no_compose_constructor_or_line_map(name, work):
    parse_scenario(TEXTS[name])
    assert work == ["parse"]


def test_a_merge_key_is_built_in_the_one_parse(work):
    text = TEXTS["bank.yaml"] + "x-base: &base {kind: crash}\nfaults:\n  - {<<: *base, at: 3, target: B}\n"
    with pytest.raises(ScenarioInvalid, match="unknown field 'x-base' in scenario") as caught:
        parse_scenario(text)
    assert caught.value.line == text.splitlines().index("x-base: &base {kind: crash}") + 1
    assert work == ["parse", "compose"]


def test_a_malformed_scenario_builds_the_line_map_once(work):
    text = TEXTS["bank.yaml"] + "network: {drop: lots, duplicate: lots}\n"
    with pytest.raises(ScenarioInvalid, match="'drop' in network must be a number") as caught:
        parse_scenario(text)
    assert caught.value.line == len(text.splitlines())
    assert work == ["parse", "compose"]


def test_nesting_past_the_bound_is_invalid_on_the_line_that_crosses_it():
    depth = scenario_module._MAX_DEPTH
    with pytest.raises(ScenarioInvalid, match=f"nest at most {depth} deep") as caught:
        parse_scenario("a: " + "[" * 2000 + "]" * 2000)
    assert caught.value.line == 1
    # the top mapping is one level: its value's list number ``depth`` crosses the bound
    text = "a:\n" + "".join(" " * (i + 1) + "[\n" for i in range(depth + 5)) + " " + "]" * (depth + 5) + "\n"
    with pytest.raises(ScenarioInvalid, match=f"nest at most {depth} deep") as caught:
        parse_scenario(text)
    assert caught.value.line == 1 + depth
    with pytest.raises(ScenarioInvalid, match="unknown field 'a'"):  # at the bound, it builds
        parse_scenario("a: " + "[" * (depth - 1) + "]" * (depth - 1))
    with pytest.raises(ScenarioInvalid, match="mapping values are not allowed") as caught:
        parse_scenario("a: " + "[" * 2000 + "]" * 2000 + "\nb: c: d\n")  # a parse error still wins
    assert caught.value.line == 2


def _alias_chain(n: int) -> list[str]:
    """``n`` entries, each a list holding the one before it twice: their
    expansion doubles with each entry."""
    return ["l0: &l0 [1, 1]"] + [f"l{i}: &l{i} [*l{i - 1}, *l{i - 1}]" for i in range(1, n)]


def test_an_alias_chain_is_refused_in_time_linear_in_its_lines():
    start = time.perf_counter()
    with pytest.raises(ScenarioInvalid, match="unknown field 'l0' in scenario") as caught:
        parse_scenario("\n".join(_alias_chain(24)) + "\n")
    assert caught.value.line == 1
    payload = "{" + ", ".join(_alias_chain(24)) + ", 5: x}"  # the bad key comes after the chain
    text = TEXTS["bank.yaml"] + f"  - {{at: 3, replica: A, do: emit, type: x, payload: {payload}}}\n"
    with pytest.raises(ScenarioInvalid, match="key 5 in payload must be a string") as caught:
        parse_scenario(text)
    assert caught.value.line == len(text.splitlines())
    assert time.perf_counter() - start < 2


# texts the cross-check compares with yaml.safe_load, errors and their lines
# included; none of them reaches PyYAML's constructor
PARSES = {
    "anchor-alias": "a: &x {b: 1}\nc: *x\n",
    "alias-of-a-list": "a: &x [1, {b: 2}]\nc: [*x, *x]\n",
    "merge-key": "base: &b {x: 1, y: 1}\nd:\n  <<: *b\n  y: 2\n",
    "merge-list": "b: &b {x: 1, y: 1}\nc: &c {y: 2, z: 2}\nd: {w: 0, <<: [*b, *c], x: 9}\n",
    "merge-list-alias": "l: &l [{a: 1}, {a: 2, b: 2}]\nd: {<<: *l, c: 3}\n",
    "two-merge-keys": "b: &b {x: 1}\nc: &c {x: 2, y: 2}\nd: {<<: *b, <<: *c}\n",
    "merge-inline": "d: {<<: {<<: {a: 1}, b: 2}, c: 3}\n",
    "merge-tag": "!!merge x: {a: 1}\n",
    "merged-key-overridden-twice": "b: &b {x: 1}\nc: &c {<<: *b, x: 2}\nd: {<<: *c, x: 3}\n",
    "scalar-alias": "a: &x 5\nb: *x\n",
    "octal": "a: 0755\n",
    "hex": "a: 0x1F\n",
    "underscores": "a: 1_000\n",
    "sexagesimal": "a: 1:30\n",
    "signed": "a: [-0, +7, -12]\n",
    "explicit-int": "a: !!int '12'\n",
    "yes-off": "a: yes\nb: off\n",
    "null": "a: ~\nb:\n",
    "inf": "a: [.inf, -.inf]\n",
    "nan": "a: .nan\n",
    "float": "a: [1.5, 1.0, -2.5e+3]\n",
    "int-key": "1: a\n2: b\n",
    "bool-key": "true: a\n",
    "scalar-keys": "1.5: a\n~: b\nno: c\n",
    "quoted": "a: '12'\nb: \"true\"\nc: 'null'\n",
    "non-specific-tag": "a: ! 12\nb: ! {c: 1}\nc: ! [d]\n",
    "explicit-map-and-seq": "a: !!map {b: !!seq [1]}\n",
    "empty": "",
    "empty-document": "---\n",
    # refused: a ScenarioInvalid where yaml.safe_load builds the node
    "timestamp": "a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: 1\nb: !!omap [x: 1]\n",
    "python-tag": "a: !!python/tuple [1]\n",
    "str-tag-on-mapping": "a: !!str {b: 1}\n",
    "map-tag-on-sequence": "a: !!map [1, 2]\n",
    "unknown-tag": "a: 1\nb: !thing 2\n",
    "value-tag": "=: a\n",
    "unhashable-key": "a: 1\n? [1]\n: 2\n",
    "alias-of-a-mapping-as-key": "a: &x {b: 1}\n? *x\n: 2\n",
    "recursive-alias": "a: &x [1, *x]\n",
    "recursive-alias-in-a-payload": "deltas: &d\n  balance: 1\n  x: *d\n",
    "merge-of-a-scalar": "s: &s 5\nd: {<<: *s}\n",
    "merge-list-of-a-scalar": "b: &b {x: 1}\nd:\n  <<:\n    - *b\n    - 5\n",
    "merge-as-a-value": "a: 1\nb: <<\n",
    # a repeated key is an error on the line of its repeat
    "repeated-key": "a: 1\nb: 2\na: 3\n",
    "repeated-int-key": "1: a\n0x1: b\n",
    "repeated-nested-key": "a: {x: 1, y: 2,\n    x: 3}\nb: 1\nb: 2\n",
    "repeated-key-beside-an-alias": "a: &x [1]\nb: *x\nc: {d: 1, d: 2}\n",
    "repeated-key-over-a-merge": "base: &b {x: 1}\nd: {<<: *b, y: 1, y: 2}\n",
    "repeated-alias-key": "&k a: 1\nb: 2\n*k : 3\n",
    "repeated-key-before-an-alias": "a: {d: 1, d: 2}\nb: &x [1]\nc: *x\n",
    # errors in yaml.safe_load too
    "syntax-error": "a: [1\nb: 2\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
    "undefined-alias": "a: 1\nb: *x\n",
    "second-document": "a: 1\n---\nb: 2\n",
    "int-tag-on-a-word": "a: 1\nb: !!int abc\n",
    "float-tag-on-nothing": "a: !!float ''\n",
    # several problems: a parse error wins, else the first in document order
    "repeated-key-before-a-syntax-error": "a: 1\na: 2\nb: [1\n",
    "undefined-alias-before-a-syntax-error": "a: *x\nb: [1\n",
    "two-bad-scalars": "a: {b: !!bool x}\nc: !!int y\n",
    "repeated-key-after-a-bad-scalar": "a: !!int x\nb: 1\nb: 2\n",
    "bad-scalar-before-an-undefined-alias": "a: !!int x\nb: *y\n",
    "bad-scalar-beside-an-alias": "a: &x [1]\nb: *x\nc: [!!timestamp abc]\n",
    "list-key-holding-a-bad-scalar": "? [1,\n   !!int x]\n: 1\n",
    "merge-list-of-a-list-holding-a-bad-scalar": "d:\n  <<:\n    - [a,\n       !!int x]\n",
    "refused-tag-before-a-second-document": "a: !!set {x}\n---\nb: 2\n",
    "nesting-past-the-bound": "a: {b: 1}\nc: " + "[" * 100 + "]" * 100 + "\nd: !!int x\n",
}


@pytest.mark.parametrize("to", ["self", "notify", "[B, p0]", "[A, p1]"])
def test_an_emit_goes_to_self_notify_or_a_replica_that_hosts_the_partition(to):
    text = TEXTS["bank.yaml"].replace("{p0: [A]}", "{p0: [A, B], p1: [A]}") + (
        "  - {at: 3, replica: A, do: delta, id: t1, entity: account/alice, deltas: {balance: 1},\n"
        f"     emit: [{{type: x, to: {to}}}]}}\n"
    )
    action = parse_scenario(text).actions[-1]
    assert action.params["emit"] == [{"type": "x", "to": yaml.safe_load(to)}]


def test_a_float_field_takes_an_int():
    config = parse_scenario(TEXTS["bank.yaml"] + "network: {drop: 0, duplicate: 1}\n").config
    assert (config.drop, config.duplicate) == (0.0, 1.0)
    assert type(config.drop) is float and type(config.max_time) is int


@pytest.mark.parametrize(
    "tag, message",
    [("int", "'abc' is not a valid !!int"), ("float", "'abc' is not a valid !!float"),
     ("bool", "'abc' is not a valid !!bool"), ("timestamp", "unsupported tag !!timestamp on 'abc'")],
    ids=["int", "float", "bool", "timestamp"],
)
def test_a_tagged_scalar_its_tag_cannot_hold_is_invalid_on_its_line(tag, message):
    text = TEXTS["bank.yaml"] + f"sync_interval: !!{tag} abc\n"
    with pytest.raises(ScenarioInvalid, match=message) as caught:
        parse_scenario(text)
    assert caught.value.line == len(text.splitlines())


@pytest.mark.parametrize("name", sorted(PARSES))
def test_every_parse_matches_safe_load(name, checked_compose):
    with _counted_work() as log:
        try:
            checked_compose(PARSES[name])
        except ScenarioInvalid:
            pass
    assert log == ["parse"]


def test_an_alias_is_the_object_its_anchor_names():
    data = scenario_module._compose(PARSES["alias-of-a-list"])[1]
    assert data["c"][0] is data["c"][1] is data["a"]


def _parse_outcome(text: str, checked_compose) -> tuple:
    """The data (by its repr: NaN, types and key order show) or the
    ScenarioInvalid line of one checked parse."""
    try:
        return ("data", repr(checked_compose(text)[1]))
    except ScenarioInvalid as exc:
        return ("error", exc.line)


@pytest.mark.parametrize("name", sorted(PARSES) + sorted(TEXTS))
def test_the_pure_python_loader_parses_as_libyaml_does(name, checked_compose, monkeypatch):
    text = PARSES[name] if name in PARSES else TEXTS[name]
    expected = _parse_outcome(text, checked_compose)
    monkeypatch.setattr(scenario_module, "_LOADER", yaml.SafeLoader)
    assert _parse_outcome(text, checked_compose) == expected


def _tokens(loader_class, text: str) -> tuple:
    """Every token a scanner gives for ``text`` (kind, marks, value), then
    the text of the ScannerError it stops on, if any."""
    loader = loader_class(text)
    tokens = []
    try:
        while (token := loader.get_token()) is not None:
            tokens.append((type(token).__name__, token.start_mark.index, token.end_mark.index,
                           getattr(token, "value", None)))
    except yaml.scanner.ScannerError as exc:
        return tokens, str(exc)
    finally:
        loader.dispose()
    return tokens, None


# flow levels deep, on one line and one per line; keys that go stale across a
# line or past 1024 characters, required in a block and optional in a flow
_SCANS = {
    "deep-flow": "a: " + "[" * 300 + "]" * 300 + "\n",
    "deep-flow-lines": "a:\n" + "".join(" " * (i + 1) + "[\n" for i in range(120)) + " " + "]" * 120 + "\n",
    "deep-flow-mappings": "a: " + "{b: " * 150 + "c" + "}" * 150 + "\n",
    "flow-keys-across-lines": "a: {b: [c, {d: e,\n  f: g}], h: [i,\n  j]}\n",
    "flow-collections-as-keys": "[a, [b]]: c\n{d: [e]}: f\n",
    "keys-stale-at-three-levels": "[[x\n  : y]]\n",
    "stale-flow-key": "a: {b\n  : c}\n",
    "stale-block-key": "a: 1\nb\nc: 2\n",
    "stale-key-in-deep-flow": "a: " + "[" * 50 + "b,\n" + " c" + "]" * 50 + "\n",
    "long-block-key": "a" * 1100 + ": 1\n",
    "long-flow-key": "{" + "a" * 1100 + ": 1}\n",
    "long-key-in-deep-flow": "[" * 40 + "a" * 1100 + ": 1" + "]" * 40 + "\n",
    "unclosed-flow": "a: " + "[" * 60 + "\n",
}


@pytest.mark.parametrize("name", sorted(PARSES) + sorted(TEXTS) + sorted(_SCANS))
def test_the_reference_scanner_scans_as_the_stock_one(name):
    """The cross-check's loader (``conftest._LinearKeys``) gives the stock
    scanner's tokens, and its error on the same key."""
    text = {**PARSES, **TEXTS, **_SCANS}[name]
    assert _tokens(_ReferenceLoader, text) == _tokens(yaml.SafeLoader, text)


_KEYS = st.text(max_size=8) | st.integers()
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_DATA = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


# data that holds one mapping or list in several places, which yaml.safe_dump
# writes once with an anchor and then as aliases
_SHARING = st.builds(
    lambda shared, others: {"a": shared, "b": [*others, shared], "c": {"d": shared}},
    st.lists(_DATA, max_size=3) | st.dictionaries(_KEYS, _DATA, max_size=3),
    st.lists(_DATA, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(data=_DATA | _SHARING, flow=st.booleans())
def test_dumped_data_parses_like_safe_load_without_the_constructor(data, flow, checked_compose):
    text = yaml.safe_dump(data, default_flow_style=flow)
    with _counted_work() as log:
        checked_compose(text)
    assert log == ["parse"]


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_a_run_leaves_its_scenario_as_parsed(name):
    scenario = parse_scenario(TEXTS[name])
    run(scenario, seed=scenario.config.seed + 1)
    fresh = parse_scenario(TEXTS[name])
    assert scenario.actions == fresh.actions
    assert scenario.faults == fresh.faults
    assert scenario.processes == fresh.processes
    assert dataclasses.replace(scenario.config, seed=fresh.config.seed) == fresh.config
