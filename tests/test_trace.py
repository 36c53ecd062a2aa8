"""Trace log ordering, the per-kind index and JSON Lines round-trips."""
import gc
import inspect
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_trace_digests import PINNED_ATTACKS, matrix_scenario

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


@pytest.mark.parametrize("bad_line", [1, 4096, 4097, 8193, 9000])
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


@pytest.mark.parametrize("at", [5, 4096, 4097])
def test_slots_going_backwards_fail_as_before(tmp_path, at):
    lines = bpo_lines(5000)
    lines[at - 1] = '{"kind":"Bpo","slot":0}\n'
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(AssertionError,
                       match=rf"t\.jsonl:{at}: trace slot went backwards"):
        tr.read_jsonl(str(path))


def test_reading_parses_once_per_batch(tmp_path, monkeypatch):
    """10,000 good records cost ceil(10000 / 4096) = 3 parse calls; blank
    lines among them do not make a batch fall back to one call a line."""
    lines = bpo_lines(10_000)
    for i in range(0, 10_000, 500):
        lines[i] += "\n"
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    calls = []
    loads = tr.json.loads

    def counting(text, *args, **kw):
        calls.append(len(text))
        return loads(text, *args, **kw)

    monkeypatch.setattr(tr.json, "loads", counting)
    back = tr.read_jsonl(str(path))
    assert len(back) == 10_000
    assert len(calls) <= math.ceil(10_000 / 4096)


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
    """The bytes `write_jsonl` writes for a one-shot iterator over `events`,
    and the sizes of its `write` calls."""
    writes = []
    with monkeypatch.context() as m:
        if maker is not None:
            m.setattr(tr, "_new_file_encoder", maker)
        m.setattr(tr, "open", lambda *a, **kw: CountingFile(open(*a, **kw),
                                                            writes),
                  raising=False)
        tr.write_jsonl(iter(events), str(path))
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
    for value in (loop, nest):
        events = [tr.TraceEvent(0, tr.BPO, {"ok": 1}),
                  tr.TraceEvent(1, tr.BPO, {"bad": value})]
        with pytest.raises(ValueError, match="Circular reference"):
            written(events, tmp_path / "t.jsonl", monkeypatch, maker)
    # the failed writes leave the next file's encoder unaffected
    events = [tr.TraceEvent(0, tr.BPO, {"x": [1, [2]]})] * 2
    assert written(events, tmp_path / "t.jsonl", monkeypatch,
                   maker)[0] == joined(events)


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
