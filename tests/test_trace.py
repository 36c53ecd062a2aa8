"""Trace log ordering, the per-kind index and JSON Lines round-trips."""
import gc
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_trace_digests import (PINNED_ATTACKS, bench_workloads,
                                matrix_scenario)

from nakasim import params as pm
from nakasim import pivots as pv
from nakasim import trace as tr
from nakasim.sim import Simulation


def small_trace():
    t = tr.Trace()
    t.emit(0, tr.META, scenario={"sim": {"seed": 1}}, seed=1, nu=2)
    t.emit(3, tr.BPO, node=0, honest=True)
    t.emit(3, tr.BLOCK_PRODUCED, header=1, parent=0, height=1, node=0)
    t.emit(7, tr.CONTENT_FETCHED, node=1, header=1, via="request", paid=1.0)
    return t


def test_slot_order_enforced():
    t = tr.Trace()
    t.emit(5, tr.BPO, node=0)
    t.emit(5, tr.BPO, node=1)  # equal slots fine
    with pytest.raises(AssertionError):
        t.emit(4, tr.BPO, node=2)


def test_disabled_trace_records_nothing():
    t = tr.Trace(enabled=False)
    t.emit(0, tr.META, seed=0)
    assert len(t) == 0
    with pytest.raises(ValueError):
        t.meta


def test_meta_is_first_record():
    t = small_trace()
    assert t.meta["seed"] == 1
    bare = tr.Trace()
    bare.emit(0, tr.BPO, node=0)
    with pytest.raises(ValueError):
        bare.meta


def test_round_trip_is_lossless(tmp_path):
    t = small_trace()
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    back = tr.read_jsonl(str(path))
    assert [(e.slot, e.kind, e.data) for e in back] == \
           [(e.slot, e.kind, e.data) for e in t]
    # serialisation is canonical, so a second pass is byte-identical
    path2 = tmp_path / "t2.jsonl"
    tr.write_jsonl(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_read_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slot":0,"kind":"Nonsense"}\n')
    with pytest.raises(ValueError, match="unknown event kind"):
        tr.read_jsonl(str(path))


def test_read_reports_bad_json_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slot":0,"kind":"Bpo"}\n{oops\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        tr.read_jsonl(str(path))


def test_of_kind_filters():
    t = small_trace()
    assert len(t.of_kind(tr.BPO)) == 1
    assert t.of_kind(tr.BLANKED) == []


# -- simulated traces ------------------------------------------------------

def simulated(protocol, strategy, policy=pm.POLICY_LONGEST_HEADER_CHAIN,
              **extra):
    """A 600-slot run of the pinned digest matrix's 8-node scenario."""
    cfg = matrix_scenario(protocol, policy)
    cfg["sim"]["horizon_slots"] = 600
    cfg["attack"] = {"strategy": strategy, **extra.pop("attack", {})}
    cfg.update(extra)
    sim = Simulation(pm.scenario_from_dict(cfg))
    sim.run()
    return sim.trace


SIMULATED = {
    "pow-teaser": lambda: simulated(pm.PROTOCOL_POW, pm.ATTACK_TEASER),
    "pos-pos-teaser": lambda: simulated(pm.PROTOCOL_POS, pm.ATTACK_POS_TEASER),
    # a planted equivocation after every release: blanks and proofs
    "sapos-pos-teaser": lambda: simulated(
        pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER, pm.POLICY_GREEDY,
        attack={"sacrifice_every": 1}),
    "partition": lambda: simulated(pm.PROTOCOL_POW, pm.ATTACK_PARTITION),
    "txgen": lambda: simulated(pm.PROTOCOL_POW, pm.ATTACK_NONE,
                               txgen={"sigma": 3.0, "tx_size": 0.01}),
}


def records(t):
    return [(e.slot, e.kind, e.data) for e in t]


def assert_index_matches_events(t):
    for kind in tr.KINDS:
        assert t.of_kind(kind) == [e for e in t.events if e.kind == kind]


def assert_round_trips(t, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tr.write_jsonl(t, str(first))
    back = tr.read_jsonl(str(first))
    tr.write_jsonl(back, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert records(back) == records(t)
    assert_index_matches_events(back)
    return back


@pytest.mark.parametrize("name", sorted(SIMULATED))
def test_simulated_traces_round_trip(name, tmp_path):
    t = SIMULATED[name]()
    assert_index_matches_events(t)
    if name == "sapos-pos-teaser":
        assert all(t.of_kind(k) for k in (tr.PRETEND_EMPTY, tr.BLANKED,
                                          tr.PROOF_INCLUDED))
    back = assert_round_trips(t, tmp_path)

    # a trace read back keeps its index and its slot order as it grows
    last = back.events[-1].slot
    with pytest.raises(AssertionError):
        back.emit(last - 1, tr.BPO, h=1, a=0)
    for trace in (t, back):
        trace.emit(last, tr.LEAD_SAMPLE, lead=3)
        trace.emit(last + 5, tr.BPO, h=0, a=1, s=0, winners=[[9, False]])
        trace.emit(last + 5, tr.BLANKED, node=0, block=1)
    assert records(back) == records(t)
    assert_index_matches_events(back)
    assert_round_trips(back, tmp_path)


def test_of_kind_returns_a_copy():
    t = small_trace()
    t.of_kind(tr.BPO).clear()
    assert len(t.of_kind(tr.BPO)) == 1
    assert t.of_kind("NoSuchKind") == []


def test_emit_rejects_an_unknown_kind():
    t = tr.Trace()
    with pytest.raises(ValueError, match="unknown event kind 'Nonsense'"):
        t.emit(0, "Nonsense")
    assert len(t) == 0


# -- reading in batches ----------------------------------------------------

def bpo_lines(n, start_slot=0):
    return [f'{{"a":0,"h":1,"kind":"Bpo","slot":{start_slot + i}}}\n'
            for i in range(n)]


@pytest.mark.parametrize("bad_line", [1, 1024, 1025, 4096, 4097, 8193,
                                      9000])
def test_bad_json_names_its_line_across_batches(tmp_path, bad_line):
    lines = bpo_lines(9000)
    lines[bad_line - 1] = '{"slot":5,"kind":"Bpo",\n'
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"bad\.jsonl:{bad_line}: invalid JSON"):
        tr.read_jsonl(str(path))


def test_a_line_holding_two_records_is_invalid(tmp_path):
    """The joined batch would parse; the line alone does not."""
    lines = bpo_lines(10)
    lines[6] = '{"kind":"Bpo","slot":6},{"kind":"Bpo","slot":6}\n'
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"t\.jsonl:7: invalid JSON"):
        tr.read_jsonl(str(path))


def test_a_record_split_over_two_lines_is_invalid(tmp_path):
    lines = bpo_lines(10)
    lines[3:5] = ['{"kind":"Bpo","slot":3,"w":[{"x":1}\n', '{"y":2}]}\n']
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"t\.jsonl:4: invalid JSON"):
        tr.read_jsonl(str(path))


def test_unknown_kind_names_its_line(tmp_path):
    lines = bpo_lines(5000)
    lines[4099] = '{"kind":"Nonsense","slot":4099}\n'
    lines[4000:4000] = ["\n", "   \n"]     # blank lines count as lines
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError,
                       match=r"t\.jsonl:4102: unknown event kind 'Nonsense'"):
        tr.read_jsonl(str(path))


@pytest.mark.parametrize("missing", ["slot", "kind"])
def test_missing_slot_or_kind_is_a_key_error_with_its_line(tmp_path, missing):
    lines = bpo_lines(4100)
    rec = {"slot": 4098, "kind": "Bpo"}
    del rec[missing]
    lines[4097] = json.dumps(rec) + "\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(KeyError, match=rf"t\.jsonl:4098: missing '{missing}'"):
        tr.read_jsonl(str(path))


def test_blank_lines_inside_and_between_batches_are_skipped(tmp_path):
    lines = bpo_lines(8500)
    blank = ["\n", "  \t \n", "\r\n"]
    # a run of blanks that straddles the first batch boundary, scattered
    # blanks inside the second, and a batch that holds only blank lines
    with_blanks = (lines[:4094] + blank + lines[4094:5000] + ["\n"]
                   + lines[5000:6000] + blank + lines[6000:]
                   + ["\n"] * 4096 + ["  \n"])
    path = tmp_path / "t.jsonl"
    path.write_text("".join(with_blanks))
    back = tr.read_jsonl(str(path))
    assert [e.slot for e in back] == list(range(8500))
    assert len(back.of_kind(tr.BPO)) == 8500
    assert all(e.data == {"a": 0, "h": 1} for e in back)


@pytest.mark.parametrize("at", [5, 1024, 1025, 4096, 4097])
def test_slots_going_backwards_fail_as_before(tmp_path, at):
    lines = bpo_lines(5000)
    lines[at - 1] = '{"kind":"Bpo","slot":0}\n'
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(AssertionError,
                       match=rf"t\.jsonl:{at}: trace slot went backwards"):
        tr.read_jsonl(str(path))


@pytest.mark.parametrize("line", [2, 4098])
@pytest.mark.parametrize("record, what", [
    ("[1,2]", "record is not a JSON object: [1, 2]"),
    ("5", "record is not a JSON object: 5"),
    ('"Bpo"', "record is not a JSON object: 'Bpo'"),
    ('{"kind":"Bpo","slot":"5"}', "slot is not a number: '5'"),
    ('{"kind":"Bpo","slot":null}', "slot is not a number: None"),
    ('{"kind":"Bpo","slot":[5]}', "slot is not a number: [5]"),
    ('{"kind":"Bpo","slot":NaN}', "slot is not a number: nan"),
    ('{"kind":["Bpo"],"slot":5}', "unknown event kind ['Bpo']"),
], ids=["list", "int", "str", "str-slot", "null-slot", "list-slot",
        "nan-slot", "list-kind"])
def test_a_record_that_is_no_event_names_its_line(tmp_path, line, record,
                                                   what):
    lines = bpo_lines(5000)
    lines[line - 1] = record + "\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as raised:
        tr.read_jsonl(str(path))
    assert str(raised.value) == f"{path}:{line}: {what}"


def test_a_nan_slot_does_not_switch_the_order_check_off(tmp_path):
    """Every comparison with NaN is false, so a NaN slot read as in order
    would let every later slot through: 1 after 5, say."""
    path = tmp_path / "t.jsonl"
    path.write_text("".join(f'{{"kind":"Bpo","slot":{slot}}}\n'
                            for slot in ("5", "NaN", "1", "true", "2.5")))
    with pytest.raises(ValueError) as raised:
        tr.read_jsonl(str(path))
    assert str(raised.value) == f"{path}:2: slot is not a number: nan"
    t = tr.Trace()
    t.emit(5, tr.BPO)
    with pytest.raises(AssertionError, match="went backwards: nan after 5"):
        t.emit(math.nan, tr.BPO)


def test_importing_the_cli_leaves_orjson_unloaded():
    """orjson is imported on the first trace decode, so commands that read
    no trace (`simulate`, `region`) do not pay for loading it."""
    package = Path(tr.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, nakasim.cli; "
            "print(sorted(set(sys.modules) & {'nakasim.trace', 'orjson'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "['nakasim.trace']"


def counted_decoders(monkeypatch):
    """Patch both batch decoders to count their calls: orjson's and the
    reference `json.loads`.  Returns {"orjson": [...], "json": [...]}, the
    length of each decoded text."""
    calls = {"orjson": [], "json": []}
    for name, module in (("orjson", orjson), ("json", tr.json)):
        def counting(text, _loads=module.loads, _calls=calls[name]):
            _calls.append(len(text))
            return _loads(text)
        monkeypatch.setattr(module, "loads", counting)
    return calls


def lines_with_blanks():
    """10,000 Bpo records and 20 blank lines: 10 batches."""
    lines = bpo_lines(10_000)
    for i in range(0, 10_000, 500):
        lines[i] += "\n"
    assert math.ceil(10_020 / tr._READ_LINES) == 10
    return lines


def test_reading_parses_once_per_batch(tmp_path, monkeypatch):
    """Good records cost one orjson call per batch of `_READ_LINES` lines;
    blank lines do not make a batch fall back to one call a line."""
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines_with_blanks()))
    calls = counted_decoders(monkeypatch)
    assert len(tr.read_jsonl(str(path))) == 10_000
    assert len(calls["orjson"]) == 10 and calls["json"] == []


@pytest.mark.parametrize("odd", ["NaN", "18446744073709551616"])
def test_a_record_orjson_gets_wrong_sends_its_batch_to_json(tmp_path,
                                                            monkeypatch, odd):
    """NaN, which orjson rejects, and an int past 2**64, which it makes a
    float, send their batch, and only that one, to one `json.loads`."""
    lines = lines_with_blanks()
    lines[3000] = f'{{"a":{odd},"h":1,"kind":"Bpo","slot":3000}}\n'
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    calls = counted_decoders(monkeypatch)
    back = tr.read_jsonl(str(path))
    assert len(back) == 10_000
    # the one json call decodes the odd record's whole batch, not its line
    assert len(calls["json"]) == 1
    assert calls["json"][0] > 1000 * len(lines[1])
    # a batch with a long run of digits does not try orjson first
    assert len(calls["orjson"]) == (10 if odd == "NaN" else 9)
    assert repr(back.events[3000].data["a"]) == repr(json.loads(odd))


def test_a_read_event_holds_the_constant_kind(tmp_path):
    t = tr.Trace()
    for slot, kind in enumerate(tr.KINDS):
        t.emit(slot, kind, i=slot)
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    back = tr.read_jsonl(str(path))
    assert [e.kind for e in back] == list(tr.KINDS)
    assert all(e.kind is kind for e, kind in zip(back, tr.KINDS))
    assert all(e.kind is kind for kind in tr.KINDS
               for e in back.of_kind(kind))


# -- the batch decoder against json.loads ------------------------------------

# JSON number texts at the edges of orjson's ints and doubles
EDGE_INTS = [2**63 - 1, 2**63, 2**63 + 1, -2**63, -2**63 - 1, 2**64 - 1,
             2**64, 2**64 + 1, -2**64]
EDGE_FLOATS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
               "-0.0", "5e-324", "1.7976931348623157e308", "1E5", "-0"]
int_texts = st.one_of(
    st.integers(), st.sampled_from(EDGE_INTS),
    st.integers(10**19, 10**40), st.integers(-10**40, -10**19)).map(str)
float_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(EDGE_FLOATS))
string_texts = st.one_of(
    st.text(max_size=6).map(json.dumps),
    st.text(max_size=6).map(lambda v: json.dumps(v, ensure_ascii=False)),
    st.sampled_from(['"\\ud800"', '"\\udc00x"', '"\\ud83d\\ude00"', '"é日"',
                     '"\\u0000"']))
scalar_texts = st.one_of(int_texts, float_texts, string_texts,
                         st.sampled_from(["true", "false", "null"]))
# few keys, so that objects often repeat one
KEYS = ["a", "b", "é", "slot"]


def object_text(pairs):
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in pairs) + "}"


value_texts = st.recursive(
    scalar_texts,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda vs: "[" + ",".join(vs) + "]"),
        st.lists(st.tuples(st.sampled_from(KEYS), inner),
                 max_size=4).map(object_text)),
    max_leaves=12)
deep_texts = st.integers(1, 300).map(lambda d: "[" * d + "1" + "]" * d)


@st.composite
def record_lines(draw):
    """Lines of records in slot order, each with a known kind, the fields of
    its layout (for a laid-out kind) or free keys, and values drawn from the
    texts above; now and then an invalid line."""
    slots = sorted(draw(st.lists(
        st.one_of(st.integers(0, 10**6),
                  st.sampled_from([i for i in EDGE_INTS if i > 0])),
        min_size=1, max_size=12)))
    lines = []
    for slot in slots:
        kind = draw(st.sampled_from(tr.KINDS))
        keys = list(tr.LAYOUTS.get(kind, ())) or draw(
            st.lists(st.sampled_from(KEYS[:3]), max_size=4))
        pairs = [(k, draw(st.one_of(value_texts, deep_texts))) for k in keys]
        pairs += [("slot", str(slot)), ("kind", json.dumps(kind))]
        line = object_text(draw(st.permutations(pairs)))
        if draw(st.integers(0, 30)) == 0:
            line = line[:-1]                    # invalid JSON
        lines.append(line)
    return lines


def typed(value):
    """`value` with the type of every part spelled out, floats by `repr` (so
    that NaN equals NaN and -0.0 differs from 0.0) and dicts in key order."""
    if isinstance(value, dict):
        return ("dict", [(k, typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [typed(v) for v in value])
    return (type(value).__name__, repr(value))


def decoded_by_json(lines):
    """The events `read_jsonl` must return, decoding line by line with
    `json.loads`, or the number of the first line that is invalid JSON."""
    events = []
    for line_no, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return line_no
        events.append(typed((rec.pop("slot"), rec.pop("kind"), rec)))
    return events


@given(lines=record_lines(), batch=st.integers(1, 5))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_reader_decodes_as_json_loads(tmp_path, monkeypatch, lines,
                                          batch):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = decoded_by_json(lines)
    with monkeypatch.context() as m:
        m.setattr(tr, "_READ_LINES", batch)
        if isinstance(expected, int):
            with pytest.raises(ValueError,
                               match=rf"t\.jsonl:{expected}: invalid JSON"):
                tr.read_jsonl(str(path))
            return
        back = tr.read_jsonl(str(path))
    assert [typed((e.slot, e.kind, e.data)) for e in back] == expected


def test_a_record_nested_past_the_recursion_limit_reads(tmp_path):
    """The one kept difference from `json.loads`, which raises
    `RecursionError` on this record."""
    depth = sys.getrecursionlimit() + 10
    deep = "[" * depth + "]" * depth
    with pytest.raises(RecursionError):
        json.loads(deep)
    path = tmp_path / "t.jsonl"
    path.write_text(f'{{"kind":"Meta","slot":0,"x":{deep}}}\n')
    value = tr.read_jsonl(str(path)).meta["x"]
    for _ in range(depth - 1):
        value, = value
    assert value == []


class Untouchable(list):
    def __iter__(self):
        raise AssertionError("events scanned")

    def __getitem__(self, item):
        raise AssertionError("events indexed")

    def __len__(self):
        raise AssertionError("events counted")


def test_of_kind_does_not_scan_the_events():
    t = small_trace()
    expected = {k: [e for e in t.events if e.kind == k] for k in tr.KINDS}
    t.events = Untouchable()
    for kind in tr.KINDS:
        assert t.of_kind(kind) == expected[kind]


# -- rows, and the events built from them -----------------------------------

def test_emit_refuses_values_that_do_not_fit_the_kind():
    t = tr.Trace()
    t.emit(2, tr.BLANKED, 0, 1)
    for kind, values, data, what in [
            (tr.BLANKED, (0, 1), {"node": 0}, "positionally or by keyword"),
            (tr.BLANKED, (0,), {},
             r"^Blanked takes 2 values \(node, block\), got 1$"),
            (tr.BLANKED, (0, 1, 2), {}, "got 3"),
            (tr.META, (1,), {}, "^Meta takes keyword data"),
            (tr.ADVERSARY_RELEASE, ([1],), {"content": None},
             "^AdversaryRelease takes keyword data")]:
        with pytest.raises(TypeError, match=what):
            t.emit(5, kind, *values, **data)
    with pytest.raises(ValueError, match="unknown event kind 'Nonsense'"):
        t.emit(5, "Nonsense", 1)
    with pytest.raises(AssertionError, match="went backwards: 1 after 2"):
        t.emit(1, tr.BLANKED, 0, 1)
    # nothing refused was recorded, and slots still run on from 2
    assert len(t) == 1
    t.emit(2, tr.BLANKED, 0, 2)
    assert records(t) == [(2, tr.BLANKED, {"node": 0, "block": 1}),
                          (2, tr.BLANKED, {"node": 0, "block": 2})]


def test_a_keyword_emit_with_the_layouts_keys_becomes_a_row():
    t = tr.Trace()
    t.emit(1, tr.BLANKED, block=4, node=3)
    t.emit(1, tr.BLANKED, node=3)
    t.emit(1, tr.BLANKED, node=3, block=4, extra=0)
    t.emit(1, tr.META, seed=1)
    assert t._rows == [(1, tr.BLANKED, (3, 4)),
                       (1, tr.BLANKED, {"node": 3}),
                       (1, tr.BLANKED, {"node": 3, "block": 4, "extra": 0}),
                       (1, tr.META, {"seed": 1})]


@pytest.mark.parametrize("name", ["tease", "posspam", "secure-tx"])
def test_an_emitted_trace_equals_its_read_back(name, tmp_path):
    """Seed 1 of each benchmark workload at a short horizon: the events
    built from the emitted rows, in order and by kind, and the length
    equal those of the trace read back from its file."""
    config = bench_workloads()[name].config
    config["sim"].update(horizon_slots=800, seed=1)
    sim = Simulation(pm.scenario_from_dict(config))
    sim.run()
    t = sim.trace
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    back = tr.read_jsonl(str(path))
    assert len(t) == len(back) > 1000
    assert t.meta == back.meta
    assert [e.to_json() for e in t] == [e.to_json() for e in back]
    for kind in tr.KINDS:
        assert records(t.of_kind(kind)) == records(back.of_kind(kind))
    assert len(t) == len(back)


def test_an_emit_after_the_events_are_built_shows_everywhere(tmp_path,
                                                             monkeypatch):
    t = small_trace()
    t.emit(8, tr.BLANKED, 1, 2)
    built = list(t.events)
    t.emit(9, tr.BLANKED, 3, 4)
    t.emit(9, tr.ADVERSARY_RELEASE, headers=[5])
    assert len(t) == len(built) + 2
    assert t.events[:-2] == built
    assert records(t.events[-2:]) == [(9, tr.BLANKED, {"node": 3, "block": 4}),
                                      (9, tr.ADVERSARY_RELEASE,
                                       {"headers": [5]})]
    assert records(t.of_kind(tr.BLANKED)) == [
        (8, tr.BLANKED, {"node": 1, "block": 2}),
        (9, tr.BLANKED, {"node": 3, "block": 4})]
    # the same events again, not built anew
    assert all(a is b for a, b in zip(t.events, built))
    t.emit(10, tr.LEAD_SAMPLE, 1)
    body, _ = written(t, tmp_path / "t.jsonl", monkeypatch)
    assert body == joined(t.events)
    assert body.decode().splitlines()[-3:] == [
        '{"block":4,"kind":"Blanked","node":3,"slot":9}',
        '{"headers":[5],"kind":"AdversaryRelease","slot":9}',
        '{"kind":"LeadSample","lead":1,"slot":10}']


def test_simulating_and_writing_build_no_events(tmp_path, monkeypatch):
    """Events are built only when asked for: not by a run, `len`, `meta`
    or `write_jsonl`, and once for all rows when `events` is read."""
    built = []

    def counted(*args):
        built.append(args)
        return event(*args)
    event = tr.TraceEvent
    monkeypatch.setattr(tr, "TraceEvent", counted)
    sim = Simulation(pm.scenario_from_dict(PINNED_ATTACKS["pow-teaser-spv"][0]))
    sim.run()
    n, meta = len(sim.trace), sim.trace.meta
    tr.write_jsonl(sim.trace, str(tmp_path / "t.jsonl"))
    assert built == [] and len(sim.trace) == n and sim.trace.meta is meta
    # the guard sees the build when it happens
    assert len(sim.trace.events) == len(built) == n
    assert sim.trace.events[0].data is meta
    list(sim.trace)
    sim.trace.of_kind(tr.BPO)
    assert len(built) == n


# -- the shared encoder against json.dumps ---------------------------------

def dumps_oracle(ev):
    """`to_json` as it was: a new encoder per call."""
    return json.dumps({"slot": ev.slot, "kind": ev.kind, **ev.data},
                      sort_keys=True, separators=(",", ":"))


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**63, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.1 + 0.2, -0.0, 1e-300, 5e-324, 1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.text(), st.sampled_from(["ü", "日本語", " ", "\x00", '"\\']))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=20)


@given(st.integers(0, 10**6), st.sampled_from(tr.KINDS),
       st.dictionaries(st.text(max_size=8), values, max_size=6))
@settings(max_examples=150, deadline=None)
def test_to_json_matches_json_dumps(slot, kind, data):
    ev = tr.TraceEvent(slot, kind, data)
    assert ev.to_json() == dumps_oracle(ev)


def test_events_are_slotted():
    ev = tr.TraceEvent(1, tr.BPO, {})
    assert not hasattr(ev, "__dict__")


# -- the per-file writer against to_json --------------------------------------

PY_ENCODER = tr._encoder_maker(None)   # the writer without the C accelerator


def joined(events):
    return "".join(ev.to_json() + "\n" for ev in events).encode("utf-8")


class CountingFile:
    """A file whose `write` calls are counted."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        self.writes.append(len(text))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def written(events, path, monkeypatch, maker=None):
    """The bytes `write_jsonl` writes for a `Trace`, or for a one-shot
    iterator over other `events`, and the sizes of its `write` calls."""
    writes = []
    with monkeypatch.context() as m:
        if maker is not None:
            m.setattr(tr, "_new_file_encoder", maker)
        m.setattr(tr, "open", lambda *a, **kw: CountingFile(open(*a, **kw),
                                                            writes),
                  raising=False)
        tr.write_jsonl(events if isinstance(events, tr.Trace)
                       else iter(events), str(path))
    return path.read_bytes(), writes


def test_the_writer_uses_one_c_encoder_per_file():
    assert json.encoder.c_make_encoder is not None
    assert isinstance(tr._new_file_encoder(), json.encoder.c_make_encoder)
    assert tr._new_file_encoder() is not tr._new_file_encoder()


@pytest.mark.parametrize("maker", [None, PY_ENCODER], ids=["c", "python"])
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_the_writer_matches_to_json_across_batches(tmp_path, monkeypatch,
                                                   maker, n):
    events = [tr.TraceEvent(i // 3, tr.KINDS[i % len(tr.KINDS)],
                            {"i": i, "paid": i / 7, "nested": [[i, True]],
                             "text": "ü" * (i % 3)})
              for i in range(n)]
    body, writes = written(events, tmp_path / "t.jsonl", monkeypatch, maker)
    assert body == joined(events)
    assert len(writes) == math.ceil(n / tr._BATCH_LINES)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(tr.KINDS),
                          st.dictionaries(st.text(max_size=8), values,
                                          max_size=6)),
                max_size=5))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_writer_matches_to_json(tmp_path, monkeypatch, records):
    events = [tr.TraceEvent(*rec) for rec in records]
    for maker in (None, PY_ENCODER):
        body, _ = written(events, tmp_path / "t.jsonl", monkeypatch, maker)
        assert body == joined(events)


@pytest.mark.parametrize("maker", [None, PY_ENCODER], ids=["c", "python"])
def test_circular_data_still_raises(tmp_path, monkeypatch, maker):
    loop = [1]
    loop.append(loop)
    nest = {"a": {}}
    nest["a"]["b"] = nest
    bpo = {"h": 1, "a": 0, "s": 0}
    for bad in ({"bad": loop}, {"bad": nest}, {**bpo, "winners": loop}):
        events = [tr.TraceEvent(0, tr.BPO, {**bpo, "winners": [[1, True]]}),
                  tr.TraceEvent(1, tr.BPO, bad)]
        with pytest.raises(ValueError, match="Circular reference"):
            written(events, tmp_path / "t.jsonl", monkeypatch, maker)
        # the failed write leaves neither the file nor its temp file
        assert list(tmp_path.iterdir()) == []
    # the failed writes leave the next file's encoder unaffected
    events = [tr.TraceEvent(0, tr.BPO, {"x": [1, [2]]})] * 2
    assert written(events, tmp_path / "t.jsonl", monkeypatch,
                   maker)[0] == joined(events)


# -- the compiled line encoders against json.dumps -----------------------------

# layout type -> values of it, extreme ones included
FITTING = {
    "int": st.one_of(st.integers(), st.integers(2**63, 2**200)),
    "bool": st.booleans(),
    "str": st.one_of(st.text(max_size=8),
                     st.sampled_from(["request", "ü", "日本語", "\x00\x1f\x7f",
                                      '"\\', "\u2028", "\ud800"])),
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.1 + 0.2, -0.0, 5e-324, 1e300,
                                        float(2**200)])),
    "json": st.one_of(st.lists(st.lists(st.one_of(st.integers(),
                                                  st.booleans()),
                                        max_size=2), max_size=4),
                      values),
}
# layout type -> values that do not fit it: a bool for an int, an int for a
# float, non-finite floats ("json" takes any value)
MISFITTING = {
    "int": st.one_of(st.booleans(), st.floats(), st.none()),
    "bool": st.one_of(st.integers(0, 1), st.none()),
    "str": st.one_of(st.integers(), st.none()),
    "float": st.one_of(st.integers(-3, 3),
                       st.sampled_from([float("nan"), float("inf"),
                                        float("-inf")])),
}


@st.composite
def laid_out_events(draw, kind):
    """An event of a laid-out kind with the layout's keys and fitting
    values, or with one change that makes it misfit: a key missing, a key
    extra, a value of another type, or a slot that is not an int."""
    layout = tr.LAYOUTS[kind]
    data = {field: draw(FITTING[of]) for field, of in layout.items()}
    slot = draw(st.integers(0, 10**6))
    change = draw(st.sampled_from([None, None, "missing", "extra", "value",
                                   "slot"]))
    typed = sorted(f for f, of in layout.items() if of in MISFITTING)
    if change == "missing":
        del data[draw(st.sampled_from(sorted(layout)))]
    elif change == "extra":
        # `self`, `slot` and `kind` name parameters of `Trace.emit`
        extra = st.text(max_size=8).filter(
            lambda k: k not in layout and k not in ("self", "slot", "kind"))
        data[draw(extra)] = draw(values)
    elif change == "value" and typed:
        field = draw(st.sampled_from(typed))
        data[field] = draw(MISFITTING[layout[field]])
    elif change == "slot":
        slot = draw(st.sampled_from([True, 1.5, None, "3"]))
    return tr.TraceEvent(slot, kind, data)


@pytest.mark.parametrize("kind", sorted(tr.LAYOUTS))
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_line_encoders_match_json_dumps(tmp_path, monkeypatch, kind,
                                            data):
    """Each drawn event is written three ways: as a `TraceEvent`, through a
    `Trace` filled positionally and through one filled by keyword.  An
    event whose keys are not the layout's can only be emitted by keyword,
    and one whose slot does not compare with a number (None, "3") is
    refused by `emit`, so the traces leave it out."""
    events = data.draw(st.lists(laid_out_events(kind), min_size=1,
                                max_size=4))
    events.sort(key=lambda ev: ev.slot if isinstance(ev.slot, (int, float))
                else -1)
    emitted = [ev for ev in events if isinstance(ev.slot, (int, float))]
    layout = tr.LAYOUTS[kind]
    by_position, by_keyword = tr.Trace(), tr.Trace()
    for ev in emitted:
        by_keyword.emit(ev.slot, kind, **ev.data)
        if ev.data.keys() == layout.keys():
            by_position.emit(ev.slot, kind, *map(ev.data.get, layout))
        else:
            if ev.data:
                with pytest.raises(TypeError, match=f"{kind} takes"):
                    by_position.emit(ev.slot, kind, *ev.data.values())
            by_position.emit(ev.slot, kind, **ev.data)
    expected = "".join(dumps_oracle(ev) + "\n" for ev in events)
    expected_emitted = "".join(dumps_oracle(ev) + "\n" for ev in emitted)
    for maker in (None, PY_ENCODER):
        body, _ = written(events, tmp_path / "t.jsonl", monkeypatch, maker)
        assert body == expected.encode("utf-8")
        for trace in (by_position, by_keyword):
            body, _ = written(trace, tmp_path / "t.jsonl", monkeypatch, maker)
            assert body == expected_emitted.encode("utf-8")
    assert len(by_position._events) == len(by_keyword._events) == 0


@pytest.mark.parametrize("kind", sorted(tr.LAYOUTS))
def test_a_fitting_event_takes_its_line_encoder(kind):
    """Rows whose values fit the layout are written without the file's
    encoder, except for their `json` fields."""
    filler = {"int": 7, "bool": True, "str": "ü\"", "float": 0.1 + 0.2,
              "json": [[1, False]]}
    data = {field: filler[of] for field, of in tr.LAYOUTS[kind].items()}
    ev = tr.TraceEvent(3, kind, data)
    calls = []

    def encode(value, level):
        calls.append(value)
        return (tr._ENCODER.encode(value),)
    line = tr._LINE_ENCODERS[kind](ev.slot, tuple(data.values()), encode)
    assert line == dumps_oracle(ev) + "\n"
    assert calls == [[[1, False]]] * list(tr.LAYOUTS[kind].values()).count(
        "json")


# -- the collector is paused while reading and auditing ------------------------

@pytest.fixture
def collector():
    """Leave the collector as the test found it.  Inside the test, a pass
    starts after every 100 net allocations, so short bodies that do not
    pause the collector still see one."""
    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(100, *threshold[1:])
    yield
    gc.set_threshold(*threshold)
    if was:
        gc.enable()
    else:
        gc.disable()


def pow_teaser_file(tmp_path):
    t = simulated(pm.PROTOCOL_POW, pm.ATTACK_TEASER)
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    return path


def analyze(path):
    t = tr.read_jsonl(str(path))
    return pv.analyze_trace(t, t.meta["nu"], t.meta["c_tilde"], 50)


@pytest.mark.parametrize("enabled", [True, False])
def test_reading_and_auditing_restore_the_collector(tmp_path, collector,
                                                    enabled):
    path = pow_teaser_file(tmp_path)
    (gc.enable if enabled else gc.disable)()
    seen = []
    with tr.collector_paused():
        seen.append(gc.isenabled())
    t = tr.read_jsonl(str(path))
    seen.append(gc.isenabled())
    pv.analyze_trace(t, t.meta["nu"], t.meta["c_tilde"], 50)
    seen.append(gc.isenabled())
    assert seen == [False, enabled, enabled]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_read_that_raises_restores_the_collector(tmp_path, collector,
                                                   enabled):
    lines = bpo_lines(5000)
    lines[4500] = "{bad\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError, match="t.jsonl:4501: invalid JSON"):
        tr.read_jsonl(str(path))
    assert gc.isenabled() is enabled


def test_pauses_nest(collector):
    gc.enable()
    with tr.collector_paused():
        with tr.collector_paused():
            pass
        assert not gc.isenabled()
    assert gc.isenabled()


def passes_inside(fn, *args):
    """Call `fn` and return the cyclic-collector passes that started while
    the body of `fn` (the function it wraps, if any) was on the stack.
    Starts from a full collection, so that allocations made before the
    call do not set off a pass inside it."""
    code = inspect.unwrap(fn).__code__
    passes = []
    gc.collect()

    def count(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is code:
                passes.append(info["generation"])
                return
            frame = frame.f_back
    gc.callbacks.append(count)
    try:
        result = fn(*args)
    finally:
        gc.callbacks.remove(count)
    return result, passes


def test_reading_and_auditing_run_no_collector_pass(tmp_path, collector,
                                                    monkeypatch):
    gc.enable()
    path = tmp_path / "t.jsonl"
    path.write_text("".join(bpo_lines(10_000)))
    # the guard sees the passes the unpaused read makes
    _, passes = passes_inside(inspect.unwrap(tr.read_jsonl), str(path))
    assert passes
    _, passes = passes_inside(tr.read_jsonl, str(path))
    assert passes == []

    t = tr.read_jsonl(str(pow_teaser_file(tmp_path)))
    args = (t, t.meta["nu"], t.meta["c_tilde"], 50)
    _, passes = passes_inside(inspect.unwrap(pv.analyze_trace), *args)
    assert passes
    _, passes = passes_inside(pv.analyze_trace, *args)
    assert passes == []

    # simulating, likewise
    cfg = matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN)
    cfg["sim"]["horizon_slots"] = 600
    scenario = pm.scenario_from_dict(cfg)
    _, passes = passes_inside(inspect.unwrap(Simulation.run),
                              Simulation(scenario))
    assert passes
    sim = Simulation(scenario)
    _, passes = passes_inside(sim.run)
    assert passes == []

    # writing keeps nothing alive past one event, so even an unpaused
    # write makes no pass: check that the collector is off inside it
    enabled = []
    make = tr._new_file_encoder

    def new_file_encoder():
        enabled.append(gc.isenabled())
        return make()
    monkeypatch.setattr(tr, "_new_file_encoder", new_file_encoder)
    _, passes = passes_inside(tr.write_jsonl, sim.trace, str(path))
    assert passes == [] and enabled == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("name", ["pow-teaser-spv", "pos-partition-spv"])
def test_a_dropped_simulation_is_freed_without_the_collector(collector, name):
    """No reference cycle keeps a finished simulation alive, so the garbage
    a paused run leaves does not wait for a collection."""
    sim = Simulation(pm.scenario_from_dict(PINNED_ATTACKS[name][0]))
    sim.run()
    gc.collect()
    del sim
    assert gc.collect() == 0
