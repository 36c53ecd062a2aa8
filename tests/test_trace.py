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
from conftest import fields, line
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_trace_digests import (RUNS, bench_workloads, matrix_scenario,
                                write_counting_fallbacks)

from nakasim import params as pm
from nakasim import pivots as pv
from nakasim import trace as tr
from nakasim.sim import Simulation


def small_trace():
    t = tr.Trace()
    t.emit(0, tr.META, scenario={"sim": {"seed": 1}}, seed=1, nu=2)
    t.emit(3, tr.BPO, h=1, a=0, s=0, winners=[[0, True]])
    t.emit(3, tr.BLOCK_PRODUCED, producer=0, header=1, parent=0, height=1,
           bpo_slot=3, bpo_node=0, bpo_seq=0, cls="honest", private=False)
    t.emit(7, tr.CONTENT_FETCHED, node=1, header=1, via="request", paid=1.0)
    return t


def test_slot_order_enforced():
    t = tr.Trace()
    t.emit(5, tr.BLANKED, 0, 1)
    t.emit(5, tr.BLANKED, 1, 1)  # equal slots fine
    with pytest.raises(AssertionError):
        t.emit(4, tr.BLANKED, 2, 1)


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
    bare.emit(0, tr.LEAD_SAMPLE, 0)
    with pytest.raises(ValueError):
        bare.meta


def test_round_trip_is_lossless(tmp_path):
    t = small_trace()
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    back = tr.read_jsonl(str(path))
    assert list(back) == list(t)
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
    path.write_text(bpo_lines(1)[0] + "{oops\n")
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


def assert_index_matches_rows(t):
    for kind in tr.KINDS:
        assert t.of_kind(kind) == [row for row in t if row[1] == kind]


def assert_keeps_no_dict_per_event(t):
    """Every row of a laid-out kind holds its values as a tuple; only Meta
    and AdversaryRelease rows hold a dict."""
    for _, kind, values in t:
        assert type(values) is (tuple if kind in tr.LAYOUTS else dict)


def assert_round_trips(t, tmp_path):
    """Write, read and write again: the same bytes, and the same rows."""
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tr.write_jsonl(t, str(first))
    back = tr.read_jsonl(str(first))
    tr.write_jsonl(back, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert list(back) == list(t)
    assert_index_matches_rows(back)
    assert_keeps_no_dict_per_event(back)
    return back


@pytest.mark.parametrize("name", sorted(SIMULATED))
def test_simulated_traces_round_trip(name, tmp_path):
    t = SIMULATED[name]()
    assert_index_matches_rows(t)
    assert_keeps_no_dict_per_event(t)
    if name == "sapos-pos-teaser":
        assert all(t.of_kind(k) for k in (tr.PRETEND_EMPTY, tr.BLANKED,
                                          tr.PROOF_INCLUDED))
    back = assert_round_trips(t, tmp_path)

    # a trace read back keeps its index and its slot order as it grows
    last = list(back)[-1][0]
    with pytest.raises(AssertionError):
        back.emit(last - 1, tr.BPO, h=1, a=0, s=0, winners=[])
    for trace in (t, back):
        trace.emit(last, tr.LEAD_SAMPLE, lead=3)
        trace.emit(last + 5, tr.BPO, h=0, a=1, s=0, winners=[[9, False]])
        trace.emit(last + 5, tr.BLANKED, node=0, block=1)
    assert list(back) == list(t)
    assert_index_matches_rows(back)
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

def bpo_line(slot, a="0"):
    """A whole Bpo record at `slot`, its `a` field the JSON text `a`."""
    return f'{{"a":{a},"h":1,"kind":"Bpo","s":0,"slot":{slot},"winners":[]}}\n'


def bpo_lines(n, start_slot=0):
    return [bpo_line(start_slot + i) for i in range(n)]


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
def test_missing_slot_or_kind_is_a_value_error_with_its_line(tmp_path,
                                                              missing):
    lines = bpo_lines(4100)
    rec = {"slot": 4098, "kind": "Bpo"}
    del rec[missing]
    lines[4097] = json.dumps(rec) + "\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError,
                       match=rf"t\.jsonl:4098: missing '{missing}'"):
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
    assert [row[0] for row in back] == list(range(8500))
    assert len(back.of_kind(tr.BPO)) == 8500
    assert all(values == (1, 0, 0, []) for _, _, values in back)


@pytest.mark.parametrize("at", [5, 1024, 1025, 4096, 4097])
def test_slots_going_backwards_fail_as_before(tmp_path, at):
    lines = bpo_lines(5000)
    lines[at - 1] = bpo_line(0)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError,
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
    path.write_text("".join(bpo_line(slot)
                            for slot in ("5", "NaN", "1", "true", "2.5")))
    with pytest.raises(ValueError) as raised:
        tr.read_jsonl(str(path))
    assert str(raised.value) == f"{path}:2: slot is not a number: nan"
    t = tr.Trace()
    t.emit(5, tr.LEAD_SAMPLE, 0)
    with pytest.raises(AssertionError, match="went backwards: nan after 5"):
        t.emit(math.nan, tr.LEAD_SAMPLE, 0)


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
    lines[3000] = bpo_line(3000, a=odd)
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
    assert repr(fields(list(back)[3000])["a"]) == repr(json.loads(odd))


# layout type -> a value of it, made from an int
FILLER = {"int": lambda i: i, "bool": lambda i: i % 2 == 0,
          "str": lambda i: "ü" * (i % 3), "float": lambda i: i / 7,
          "json": lambda i: [[i, True]]}


def emit_filled(t, slot, kind, i):
    """Emit one event of `kind` whose values are made from `i`: a laid-out
    kind's positionally, a free-form kind's as keyword data."""
    if kind in tr.LAYOUTS:
        t.emit(slot, kind,
               *(FILLER[of](i) for of in tr.LAYOUTS[kind].values()))
    else:
        t.emit(slot, kind, i=i, paid=i / 7, nested=[[i, True]],
               text="ü" * (i % 3))


def test_a_read_event_holds_the_constant_kind(tmp_path):
    t = tr.Trace()
    for slot, kind in enumerate(tr.KINDS):
        emit_filled(t, slot, kind, slot)
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    back = tr.read_jsonl(str(path))
    assert [row[1] for row in back] == list(tr.KINDS)
    assert all(row[1] is kind for row, kind in zip(back, tr.KINDS))
    assert all(row[1] is kind for kind in tr.KINDS
               for row in back.of_kind(kind))


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
    texts above; now and then an invalid line, or a laid-out record with a
    field missing or one too many."""
    slots = sorted(draw(st.lists(
        st.one_of(st.integers(0, 10**6),
                  st.sampled_from([i for i in EDGE_INTS if i > 0])),
        min_size=1, max_size=12)))
    lines = []
    for slot in slots:
        kind = draw(st.sampled_from(tr.KINDS))
        keys = list(tr.LAYOUTS.get(kind, ())) or draw(
            st.lists(st.sampled_from(KEYS[:3]), max_size=4))
        if kind in tr.LAYOUTS and draw(st.integers(0, 30)) == 0:
            if draw(st.booleans()):
                keys.remove(draw(st.sampled_from(keys)))
            else:
                keys.append(draw(st.sampled_from(KEYS[:3])))
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
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    return (type(value).__name__, repr(value))


def decoded_by_json(lines, batch):
    """The rows `read_jsonl` must return, decoding line by line with
    `json.loads`, or the number of the first bad line and why it is bad:
    invalid JSON, or a laid-out record without exactly its layout's
    fields.  The reader decodes `batch` lines before it reads their
    records, so it names an invalid line of a batch before any record of
    that batch that lacks a field."""
    rows = []
    for first in range(0, len(lines), batch):
        recs = []
        for line_no, text in enumerate(lines[first:first + batch], first + 1):
            try:
                recs.append(json.loads(text))
            except json.JSONDecodeError:
                return line_no, "invalid JSON"
        for line_no, rec in enumerate(recs, first + 1):
            slot, kind = rec.pop("slot"), rec.pop("kind")
            if kind in tr.LAYOUTS:
                if rec.keys() != tr.LAYOUTS[kind].keys():
                    return line_no, f"{kind} takes the fields"
                rec = tuple(rec[f] for f in tr.LAYOUTS[kind])
            rows.append(typed((slot, kind, rec)))
    return rows


@given(lines=record_lines(), batch=st.integers(1, 5))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_reader_decodes_as_json_loads(tmp_path, monkeypatch, lines,
                                          batch):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    expected = decoded_by_json(lines, batch)
    with monkeypatch.context() as m:
        m.setattr(tr, "_READ_LINES", batch)
        if isinstance(expected, tuple):
            line_no, what = expected
            with pytest.raises(ValueError,
                               match=rf"t\.jsonl:{line_no}: {what}"):
                tr.read_jsonl(str(path))
            return
        back = tr.read_jsonl(str(path))
    assert [typed(row) for row in back] == expected


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


class CountedRows(list):
    """A trace's row list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_of_kind_does_not_scan_the_events(tmp_path):
    """`classify` reads seven kinds with `of_kind`: the rows are filed by
    kind in one pass over them, no later call passes over them again, and
    rows emitted after the filing are filed on the next call, each once."""
    t = tr.read_jsonl(str(pow_teaser_file(tmp_path)))
    expected = {k: [row for row in t if row[1] == k] for k in tr.KINDS}
    t._rows = CountedRows(t._rows)
    pv.classify(t, t.meta["nu"])
    assert t._rows.passes == 1
    for kind in tr.KINDS:
        assert t.of_kind(kind) == expected[kind]
    assert t._rows.passes == 1
    last = t._rows[-1][0]
    t.emit(last, tr.BLANKED, 0, 1)
    t.emit(last + 1, tr.LEAD_SAMPLE, 2)
    assert t.of_kind(tr.BLANKED) == expected[tr.BLANKED] + [
        (last, tr.BLANKED, (0, 1))]
    assert t.of_kind(tr.LEAD_SAMPLE)[-1] == (last + 1, tr.LEAD_SAMPLE, (2,))
    assert t._rows.passes == 2


# -- rows --------------------------------------------------------------------

def test_emit_refuses_values_that_do_not_fit_the_kind():
    t = tr.Trace()
    t.emit(2, tr.BLANKED, 0, 1)
    for kind, values, data, what in [
            (tr.BLANKED, (0, 1), {"node": 0}, "positionally or by keyword"),
            (tr.BLANKED, (0,), {},
             r"^Blanked takes 2 values \(node, block\), got 1$"),
            (tr.BLANKED, (0, 1, 2), {}, "got 3"),
            (tr.BLANKED, (), {"node": 0},
             r"^Blanked takes the fields node, block: missing block$"),
            (tr.BLANKED, (), {"node": 0, "block": 1, "at": 2},
             r"^Blanked takes the fields node, block: extra at$"),
            (tr.BLANKED, (), {"node": 0, "blok": 1},
             r": missing block, extra blok$"),
            (tr.BLANKED, (), {}, r": missing node, missing block$"),
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
    assert list(t) == [(2, tr.BLANKED, (0, 1)), (2, tr.BLANKED, (0, 2))]


def test_a_keyword_emit_with_the_layouts_keys_becomes_a_row():
    t = tr.Trace()
    t.emit(1, tr.BLANKED, block=4, node=3)
    t.emit(1, tr.LEAD_SAMPLE, lead=2)
    t.emit(1, tr.META, seed=1)
    t.emit(1, tr.ADVERSARY_RELEASE, headers=[5], tag="x")
    assert t._rows == [(1, tr.BLANKED, (3, 4)), (1, tr.LEAD_SAMPLE, (2,)),
                       (1, tr.META, {"seed": 1}),
                       (1, tr.ADVERSARY_RELEASE, {"headers": [5], "tag": "x"})]


@pytest.mark.parametrize("kind, change, what", [
    (tr.BLOCK_PRODUCED, "-height", "missing height"),
    (tr.CONTENT_FETCHED, "-paid", "missing paid"),
    (tr.BPO, "-s", "missing s"),
    (tr.LEDGER_OUTPUT, "-node", "missing node"),
    (tr.BLANKED, "+extra", "extra extra"),
    (tr.BLANKED, "block>blok", "missing block, extra blok"),
])
@pytest.mark.parametrize("line_no", [2, 4098])
def test_a_record_without_its_layouts_fields_names_its_line(
        tmp_path, kind, change, what, line_no):
    """A truncated or padded record is refused: no default stands in for a
    missing field, and no extra field is dropped."""
    t = tr.Trace()
    emit_filled(t, line_no - 1, kind, 7)
    record = json.loads(line(t._rows[0]))
    if change[0] == "-":
        del record[change[1:]]
    elif change[0] == "+":
        record[change[1:]] = 0
    else:
        old, new = change.split(">")
        record[new] = record.pop(old)
    lines = bpo_lines(5000)
    lines[line_no - 1] = json.dumps(record) + "\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as raised:
        tr.read_jsonl(str(path))
    fields_of = ", ".join(tr.LAYOUTS[kind])
    assert str(raised.value) == (f"{path}:{line_no}: {kind} takes the fields "
                                 f"{fields_of}: {what}")


@pytest.mark.parametrize("name", ["tease", "posspam", "secure-tx"])
def test_an_emitted_trace_equals_its_read_back(name, tmp_path):
    """Seed 1 of each benchmark workload at a short horizon: the emitted
    rows, in order and by kind, and the length equal those of the trace
    read back from its file, which keeps no dict per laid-out event, and
    writing the read trace gives the same bytes."""
    config = bench_workloads()[name].config
    config["sim"].update(horizon_slots=800, seed=1)
    sim = Simulation(pm.scenario_from_dict(config))
    sim.run()
    t = sim.trace
    back = assert_round_trips(t, tmp_path)
    assert len(t) == len(back) > 1000
    assert t.meta == back.meta
    assert [line(row) for row in t] == [line(row) for row in back]
    for kind in tr.KINDS:
        assert t.of_kind(kind) == back.of_kind(kind)


def test_an_emit_after_the_events_are_built_shows_everywhere(tmp_path,
                                                             monkeypatch):
    """Rows emitted after `of_kind` has filed the trace show in its
    iteration, its length, `of_kind` and the file."""
    t = small_trace()
    t.emit(8, tr.BLANKED, 1, 2)
    filed = t.of_kind(tr.BLANKED)
    t.emit(9, tr.BLANKED, 3, 4)
    t.emit(9, tr.ADVERSARY_RELEASE, headers=[5])
    assert len(t) == 7
    assert list(t)[-2:] == [(9, tr.BLANKED, (3, 4)),
                            (9, tr.ADVERSARY_RELEASE, {"headers": [5]})]
    assert t.of_kind(tr.BLANKED) == filed + [(9, tr.BLANKED, (3, 4))]
    t.emit(10, tr.LEAD_SAMPLE, 1)
    body, _ = written(t, tmp_path / "t.jsonl", monkeypatch)
    assert body == joined(t)
    assert body.decode().splitlines()[-3:] == [
        '{"block":4,"kind":"Blanked","node":3,"slot":9}',
        '{"headers":[5],"kind":"AdversaryRelease","slot":9}',
        '{"kind":"LeadSample","lead":1,"slot":10}']


# -- the writer against json.dumps -------------------------------------------

def dumps_oracle(slot, kind, data):
    """The line of one record, without its newline, by a new encoder."""
    return json.dumps({"slot": slot, "kind": kind, **data},
                      sort_keys=True, separators=(",", ":"))


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**63, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.1 + 0.2, -0.0, 1e-300, 5e-324, 1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.text(), st.sampled_from(["ü", "日本語", " ", "\x00", '"\\']))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=20)


def joined(t):
    return "".join(line(row) + "\n" for row in t).encode("utf-8")


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


def written(t, path, monkeypatch, maker=None):
    """The bytes `write_jsonl` writes for the trace `t`, with the file
    encoders of `maker` if given, and the sizes of its `write` calls."""
    writes = []
    with monkeypatch.context() as m:
        if maker is not None:
            m.setattr(tr, "_new_file_encoder", maker)
        m.setattr(tr, "open", lambda *a, **kw: CountingFile(open(*a, **kw),
                                                            writes),
                  raising=False)
        tr.write_jsonl(t, str(path))
    return path.read_bytes(), writes


def test_the_writer_uses_one_c_encoder_per_file():
    assert json.encoder.c_make_encoder is not None
    assert isinstance(tr._new_file_encoder(), json.encoder.c_make_encoder)
    assert tr._new_file_encoder() is not tr._new_file_encoder()


# the writer's own file encoders, the C ones
C_ENCODER = pytest.mark.parametrize("maker", [tr._new_file_encoder],
                                    ids=["c"])


@C_ENCODER
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_the_writer_matches_to_json_across_batches(tmp_path, monkeypatch,
                                                   maker, n):
    t = tr.Trace()
    for i in range(n):
        emit_filled(t, i // 3, tr.KINDS[i % len(tr.KINDS)], i)
    body, writes = written(t, tmp_path / "t.jsonl", monkeypatch, maker)
    assert body == joined(t)
    assert len(writes) == math.ceil(n / tr._BATCH_LINES)


@given(st.lists(st.tuples(st.integers(0, 10**6),
                          st.sampled_from([tr.META, tr.ADVERSARY_RELEASE]),
                          st.dictionaries(st.text(max_size=8), values,
                                          max_size=6)),
                max_size=5))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_writer_matches_to_json(tmp_path, monkeypatch, records):
    """Free-form records with any keys and values are written as
    `json.dumps` writes them."""
    records.sort(key=lambda rec: rec[0])
    t = tr.Trace()
    for slot, kind, data in records:
        # `self`, `slot` and `kind` name parameters of `Trace.emit`
        t.emit(slot, kind, **{k: v for k, v in data.items()
                              if k not in ("self", "slot", "kind")})
    body, _ = written(t, tmp_path / "t.jsonl", monkeypatch)
    assert body == "".join(dumps_oracle(slot, kind, data) + "\n"
                           for slot, kind, data in t).encode("utf-8")


@C_ENCODER
def test_circular_data_still_raises(tmp_path, monkeypatch, maker):
    loop = [1]
    loop.append(loop)
    nest = {"a": {}}
    nest["a"]["b"] = nest
    for kind, bad in ((tr.ADVERSARY_RELEASE, {"bad": loop}),
                      (tr.META, {"bad": nest}),
                      (tr.BPO, (1, 0, 0, loop))):
        t = tr.Trace()
        t.emit(0, tr.BPO, 1, 0, 0, [[1, True]])
        if type(bad) is tuple:
            t.emit(1, kind, *bad)
        else:
            t.emit(1, kind, **bad)
        with pytest.raises(ValueError, match="Circular reference"):
            written(t, tmp_path / "t.jsonl", monkeypatch, maker)
        # the failed write leaves neither the file nor its temp file
        assert list(tmp_path.iterdir()) == []
    # the failed writes leave the next file's encoder unaffected
    t = tr.Trace()
    t.emit(0, tr.ADVERSARY_RELEASE, x=[1, [2]])
    t.emit(0, tr.ADVERSARY_RELEASE, x=[1, [2]])
    assert written(t, tmp_path / "t.jsonl", monkeypatch,
                   maker)[0] == joined(t)


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
def laid_out_records(draw, kind):
    """A record `(slot, data)` of a laid-out kind with the layout's keys
    and fitting values, or with one change that makes it misfit: a key
    missing, a key extra, a value of another type, or a slot that is not
    an int."""
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
    return slot, data


@pytest.mark.parametrize("kind", sorted(tr.LAYOUTS))
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_line_encoders_match_json_dumps(tmp_path, monkeypatch, kind,
                                            data):
    """Each drawn record is written through a `Trace` filled positionally
    and through one filled by keyword, and both equal `json.dumps`, a
    misfit value or slot included.  A record whose keys are not the
    layout's is refused by both emits, and one whose slot does not compare
    with a number (None, "3") by `emit`, so the traces leave them out."""
    records = data.draw(st.lists(laid_out_records(kind), min_size=1,
                                 max_size=4))
    records.sort(key=lambda rec: rec[0] if isinstance(rec[0], (int, float))
                 else -1)
    layout = tr.LAYOUTS[kind]
    by_position, by_keyword = tr.Trace(), tr.Trace()
    expected = []
    for slot, fields_ in records:
        if not isinstance(slot, (int, float)):
            continue
        if fields_.keys() != layout.keys():
            with pytest.raises(TypeError, match=f"^{kind} takes"):
                by_keyword.emit(slot, kind, **fields_)
            with pytest.raises(TypeError, match=f"^{kind} takes"):
                by_position.emit(slot, kind, *fields_.values())
            continue
        by_keyword.emit(slot, kind, **fields_)
        by_position.emit(slot, kind, *map(fields_.get, layout))
        expected.append(dumps_oracle(slot, kind, fields_) + "\n")
    for t in (by_position, by_keyword):
        body, _ = written(t, tmp_path / "t.jsonl", monkeypatch)
        assert body == "".join(expected).encode("utf-8")


@pytest.mark.parametrize("kind, at, value", [
    (tr.BLANKED, "block", 1.5),                 # a float for an int
    (tr.BLANKED, "block", True),                # a bool for an int
    (tr.CONTENT_FETCHED, "paid", math.inf),     # a non-finite float
    (tr.CONTENT_FETCHED, "paid", math.nan),
    (tr.CONTENT_FETCHED, "paid", 1),            # an int for a float
    (tr.CONTENT_FETCHED, "slot", True),         # a slot that is no int
])
def test_a_misfit_value_takes_the_files_encoder(tmp_path, kind, at, value):
    """A row whose slot or value does not fit its layout is written whole
    by the file's C encoder, as `json.dumps` writes it."""
    data = {field: FILLER[of](3) for field, of in tr.LAYOUTS[kind].items()}
    slot = 3
    if at == "slot":
        slot = value
    else:
        data[at] = value
    t = tr.Trace()
    t.emit(slot, kind, *data.values())
    path = tmp_path / "t.jsonl"
    assert write_counting_fallbacks(t, path) == {kind: 1}
    assert path.read_text() == dumps_oracle(slot, kind, data) + "\n"


@pytest.mark.parametrize("kind", sorted(tr.LAYOUTS))
def test_a_fitting_event_takes_its_line_encoder(kind):
    """Rows whose values fit the layout are written without the file's
    encoder, except for their `json` fields."""
    filler = {"int": 7, "bool": True, "str": "ü\"", "float": 0.1 + 0.2,
              "json": [[1, False]]}
    data = {field: filler[of] for field, of in tr.LAYOUTS[kind].items()}
    calls = []

    def encode(value, level):
        calls.append(value)
        return (tr._ENCODER.encode(value),)
    line_of = tr._LINE_ENCODERS[kind](3, tuple(data.values()), encode)
    assert line_of == dumps_oracle(3, kind, data) + "\n"
    assert calls == [[[1, False]]] * list(tr.LAYOUTS[kind].values()).count(
        "json")


class Via(str):
    """A str subclass: not a `str` field's exact type."""


def test_the_memoized_field_text_is_the_encoders(tmp_path):
    """One file of ContentFetched rows whose `paid` and `via` the line
    encoders write from `_TEXT`: the two zeros after each other, the
    smallest subnormal, floats that `repr` writes in exponent form, a
    value repeated after the memo filled and was cleared, a bool in the
    float field and a str subclass in the str field.  Every line is
    `_ENCODER.encode` of its record."""
    tr._TEXT.clear()
    paid = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 5e-324, 5e-324, 1e16, 1e16,
            1e-05, 1e-05, 0.5]
    via = ["request"] * len(paid)
    # distinct values past the bound, then the first ones again
    fill = tr._TEXT_BOUND // 2 + 1
    paid += [k + 0.25 for k in range(fill)] + [0.5, 1e-05, -0.0, True, 0.5]
    via += [f"v{k}" for k in range(fill)] + ["request", "v0", "request",
                                             "request", Via("request")]
    t = tr.Trace()
    records = []
    for slot, (v, p) in enumerate(zip(via, paid)):
        t.emit(slot, tr.CONTENT_FETCHED, 1, slot, v, p)
        records.append({"slot": slot, "kind": tr.CONTENT_FETCHED, "node": 1,
                        "header": slot, "via": v, "paid": p})
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(t, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [tr._ENCODER.encode(rec) for rec in records]
    assert len(tr._TEXT) <= tr._TEXT_BOUND
    assert 0.0 not in tr._TEXT


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


def pow_scenario():
    """A 600-slot run of the pinned digest matrix's 8-node PoW scenario."""
    cfg = matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN)
    cfg["sim"]["horizon_slots"] = 600
    return pm.scenario_from_dict(cfg)


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


def generation_of(obj):
    """The collector generation that holds `obj`."""
    return next(g for g in range(3)
                if any(o is obj for o in gc.get_objects(generation=g)))


def test_pauses_nest(collector):
    """An inner pause leaves the collector off and promotes nothing."""
    gc.enable()
    gc.collect()
    with tr.collector_paused():
        with tr.collector_paused():
            young = []
        assert not gc.isenabled()
        assert generation_of(young) == 0
    assert gc.isenabled()
    assert generation_of(young) == 2


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
    scenario = pow_scenario()
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


# -- a pause promotes what it leaves alive -------------------------------------

def paused_call(name, tmp_path):
    """One of the four paused functions, and fresh arguments for it."""
    if name == "run":
        return Simulation.run, (Simulation(pow_scenario()),)
    path = str(pow_teaser_file(tmp_path))
    if name == "write_jsonl":
        return tr.write_jsonl, (tr.read_jsonl(path), str(tmp_path / "w.jsonl"))
    if name == "read_jsonl":
        return tr.read_jsonl, (path,)
    t = tr.read_jsonl(path)
    return pv.analyze_trace, (t, t.meta["nu"], t.meta["c_tilde"], 50)


def bare_paused(fn):
    """The body of `fn` between a bare `gc.disable()` and `gc.enable()`:
    the pause without its promotion."""
    body = inspect.unwrap(fn)

    def paused(*args):
        gc.disable()
        try:
            return body(*args)
        finally:
            gc.enable()
    return paused


def passes_after(fn, *args):
    """Call `fn` with the collector on and return the collector passes
    that start from the call up to the 50th container allocated after it.
    The 60 containers allocated just before the call stay below the
    fixture's threshold of 100, so they start no pass on the way in, but
    they count towards the next pass unless the call promotes them."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])
    gc.collect()
    before = [[] for _ in range(59)]
    gc.callbacks.append(count)
    try:
        fn(*args)
        after = [[] for _ in range(49)]
    finally:
        gc.callbacks.remove(count)
    del before, after
    return passes


@pytest.mark.parametrize("name", ["run", "write_jsonl", "read_jsonl",
                                  "analyze_trace"])
def test_a_pause_leaves_no_collector_pass_behind(tmp_path, collector, name):
    gc.enable()
    # the guard: turning the collector back on alone leaves a pass behind
    fn, args = paused_call(name, tmp_path)
    assert passes_after(bare_paused(fn), *args)
    fn, args = paused_call(name, tmp_path)
    assert passes_after(fn, *args) == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_pause_promotes_only_when_it_finds_the_collector_on(collector,
                                                              enabled):
    (gc.enable if enabled else gc.disable)()
    gc.collect()
    with tr.collector_paused():
        young = []
    assert gc.isenabled() is enabled
    assert generation_of(young) == (2 if enabled else 0)


def test_a_pause_leaves_the_callers_frozen_objects_frozen(collector):
    gc.enable()
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with tr.collector_paused():
            young = []
        assert gc.get_freeze_count() == frozen
        assert generation_of(young) == 0
    finally:
        gc.unfreeze()


def test_a_cycle_dropped_inside_a_pause_is_still_reclaimed(collector):
    gc.enable()
    gc.collect()
    with tr.collector_paused():
        a, b = [], []
        a.append(b)
        b.append(a)
        del a, b
    assert gc.collect() >= 2


@pytest.mark.parametrize("name", ["pow-teaser-spv", "pos-partition-spv"])
def test_a_dropped_simulation_is_freed_without_the_collector(collector, name):
    """No reference cycle keeps a finished simulation alive, so the garbage
    a paused run leaves does not wait for a collection."""
    sim = Simulation(pm.scenario_from_dict(RUNS[name]))
    sim.run()
    gc.collect()
    del sim
    assert gc.collect() == 0
