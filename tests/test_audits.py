"""Trace audits on hand-built histories: each one has a clean pass case and
a doctored counterpart that must fail."""
import bisect
import math

import numpy as np
import pytest
from conftest import MiniRun, fields
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasim import pivots as pv
from nakasim import trace as tr


def linear_run(n_blocks=3, fetch_lag=1, switch_both=True):
    """Blocks every 8 slots, fetched and adopted inside the nu=4 window."""
    run = MiniRun(nodes=(0, 1), horizon=80)
    blocks = []
    for i in range(n_blocks):
        slot = 2 + 8 * i
        hid = run.produce(slot, producer=0)
        blocks.append(hid)
        run.fetch(slot + fetch_lag, 1, hid)
        run.switch(slot + fetch_lag, 0, hid)
        if switch_both:
            run.switch(slot + fetch_lag, 1, hid)
    return run, blocks


def tables(run):
    """The run's series with the trace tables the audits read."""
    return pv.classify(run.trace, nu=4)


def series_and_cp(run):
    """The run's series, and its combinatorial pivot flags recomputed by
    the walk, for the oracles; the audits read the flags `classify` kept."""
    series = tables(run)
    cp = pv.pivot_flags_walk(series.downloaded.astype(np.int64))
    assert series.cp.tolist() == cp.tolist()
    return series, cp


def test_chain_growth_pass():
    run, _ = linear_run()
    series, _ = series_and_cp(run)
    assert series.downloaded.all()
    res = pv.audit_chain_growth(series)
    assert res.passed and res.checked == 3


def test_chain_growth_fails_without_the_lift():
    run, _ = linear_run(switch_both=False)  # node 1 never adopts anything
    series, _ = series_and_cp(run)
    res = pv.audit_chain_growth(series)
    assert not res.passed
    assert res.violations[0]["lmin_after"] < res.violations[0]["lmin_before"] + 1


def test_stabilization_pass():
    run, _ = linear_run()
    series, cp = series_and_cp(run)
    assert cp.all()
    res = pv.audit_stabilization(series)
    assert res.passed and res.checked == 2 * 3


def test_stabilization_fails_on_late_defection():
    run, blocks = linear_run()
    fork = run.produce(40, parent=0, cls="adversary", producer=9, h=0, a=1)
    run.switch(41, 1, fork)  # node 1 abandons every pivot block
    series, _ = series_and_cp(run)
    res = pv.audit_stabilization(series)
    assert not res.passed
    assert any(v["node"] == 1 for v in res.violations)


def test_stabilization_inconclusive_without_pivots():
    run = MiniRun(nodes=(0,), horizon=20)
    run.busy(2)
    series, _ = series_and_cp(run)
    res = pv.audit_stabilization(series)
    assert res.inconclusive


def budget_run(n_young_fetches):
    """Node 1 misses the good block at slot 20 while fetching young blocks."""
    run = MiniRun(nodes=(0, 1), horizon=60)
    b1 = run.produce(2, producer=0)
    run.fetch(3, 1, b1)
    run.switch(3, 0, b1)
    run.switch(3, 1, b1)
    young = [run.produce(15 + i, parent=0, cls="adversary", producer=9,
                         h=0, a=1) for i in range(2)]
    run.produce(20, producer=0, parent=b1)
    for i in range(n_young_fetches):
        run.fetch(21 + i, 1, young[i])
    return run


def test_budget_pass_when_bandwidth_is_accounted_for():
    # the demand is floor(c_tilde) less one block of slack for partial work
    run = budget_run(2)
    series, _ = series_and_cp(run)
    res = pv.audit_budget(series, c_tilde=3.0)
    assert res.passed and res.checked == 1


def test_budget_fails_on_unexplained_miss():
    run = budget_run(1)
    series, _ = series_and_cp(run)
    res = pv.audit_budget(series, c_tilde=3.0)
    assert not res.passed
    assert res.violations[0]["fetched"] == 1


def test_budget_inconclusive_cases():
    run = budget_run(2)
    series, _ = series_and_cp(run)
    assert pv.audit_budget(series, c_tilde=None).inconclusive
    assert pv.audit_budget(series, c_tilde=0.0).inconclusive
    greedy = MiniRun(policy="greedy")
    greedy.produce(2, producer=0)
    s2, _ = series_and_cp(greedy)
    assert pv.audit_budget(s2, c_tilde=2.0).inconclusive
    clean, _ = linear_run()  # nothing ever missed
    s3, _ = series_and_cp(clean)
    assert pv.audit_budget(s3, c_tilde=2.0).inconclusive


def test_single_fetch_pass_and_per_bpo_key():
    run, blocks = linear_run()
    res = pv.audit_single_fetch(tables(run))
    assert res.passed and res.checked == 3

    # two headers spending the same opportunity: one download only
    twin_a = run.produce(40, parent=0, cls="adversary", producer=9, h=0, a=1)
    twin_b = run.produce(40, parent=0, cls="adversary", producer=9,
                         emit_bpo=False)
    run.fetch(41, 1, twin_a)
    run.fetch(42, 1, twin_b)
    assert not pv.audit_single_fetch(tables(run)).passed


def test_single_fetch_is_per_header_on_pos():
    run = MiniRun(protocol="pos")
    twin_a = run.produce(5, parent=0, producer=2)
    twin_b = run.produce(5, parent=0, producer=2, emit_bpo=False)
    run.fetch(6, 1, twin_a)
    run.fetch(7, 1, twin_b)
    assert pv.audit_single_fetch(tables(run)).passed
    run.fetch(8, 1, twin_b)  # literal re-download still flagged
    assert not pv.audit_single_fetch(tables(run)).passed


def test_capacity_pass_at_the_carry_limit():
    # rate = capacity * tau = 1.0; two whole blocks in one slot is the cap
    run = MiniRun(nodes=(0, 1))
    b = [run.produce(1 + i, parent=0, cls="adversary", producer=9, h=0, a=1)
         for i in range(5)]
    run.fetch(10, 1, b[0])
    run.fetch(10, 1, b[1])
    res = pv.audit_capacity(tables(run))
    assert res.passed and res.checked == 2


def test_capacity_fails_past_the_carry_limit():
    run = MiniRun(nodes=(0, 1))
    b = [run.produce(1 + i, parent=0, cls="adversary", producer=9, h=0, a=1)
         for i in range(5)]
    for i in range(3):
        run.fetch(10, 1, b[i])
    res = pv.audit_capacity(tables(run))
    assert not res.passed
    assert res.violations[0]["node"] == 1


def test_capacity_charges_paid_fractions_not_completions():
    # five completions in one slot, but only one block's worth was paid now
    run = MiniRun(nodes=(0, 1))
    b = [run.produce(1 + i, parent=0, cls="adversary", producer=9, h=0, a=1)
         for i in range(5)]
    for i in range(5):
        run.fetch(10, 1, b[i], paid=0.2)
    assert pv.audit_capacity(tables(run)).passed


def test_ledger_safety_pass_including_shorter_reannouncement():
    run, blocks = linear_run()
    run.ledger(30, 0, 1, blocks[0])
    run.ledger(31, 0, 2, blocks[1])
    run.ledger(32, 1, 1, blocks[0])   # shorter but consistent
    run.ledger(33, 1, 3, blocks[2])
    res = pv.audit_ledger_safety(tables(run))
    assert res.passed and res.checked == 4


def test_ledger_safety_fails_on_conflicting_prefix():
    run, blocks = linear_run()
    fork = run.produce(40, parent=blocks[0], cls="adversary", producer=9,
                       h=0, a=1)
    run.ledger(41, 0, 2, blocks[1])
    run.ledger(42, 1, 2, fork)        # same length, different block
    res = pv.audit_ledger_safety(tables(run))
    assert not res.passed


def test_blanking_pass():
    run = MiniRun(protocol="sapos", k_epf=4)
    bad = run.produce(5, parent=0, cls="adversary", producer=9, h=0, a=1)
    carrier = run.produce(10, parent=bad, producer=0)
    run.trace.emit(10, tr.PROOF_INCLUDED, node=0, carrier=carrier, target=bad,
                   other=99)
    run.trace.emit(12, tr.BLANKED, node=0, block=bad)
    res = pv.audit_blanking(tables(run))
    assert res.passed and res.checked == 1


def test_blanking_fails_on_honest_victim():
    run = MiniRun(protocol="sapos", k_epf=4)
    victim = run.produce(5, producer=0)
    carrier = run.produce(10, parent=victim, producer=0)
    run.trace.emit(10, tr.PROOF_INCLUDED, node=0, carrier=carrier,
                   target=victim, other=99)
    run.trace.emit(12, tr.BLANKED, node=0, block=victim)
    res = pv.audit_blanking(tables(run))
    assert not res.passed
    assert res.violations[0]["reason"] == "honest block blanked"


def test_blanking_fails_without_timely_proof():
    run = MiniRun(protocol="sapos", k_epf=2)
    bad = run.produce(5, parent=0, cls="adversary", producer=9, h=0, a=1)
    chain = bad
    for i in range(4):
        chain = run.produce(10 + i, parent=chain, producer=0)
    # proof four blocks above the target: past the k_epf = 2 deadline
    run.trace.emit(20, tr.PROOF_INCLUDED, node=0, carrier=chain, target=bad,
                   other=99)
    run.trace.emit(21, tr.BLANKED, node=0, block=bad)
    res = pv.audit_blanking(tables(run))
    assert not res.passed
    assert res.violations[0]["reason"] == "no timely proof"
    # and entirely missing proofs are no better
    bare = MiniRun(protocol="sapos", k_epf=2)
    b2 = bare.produce(5, parent=0, cls="adversary", producer=9, h=0, a=1)
    bare.trace.emit(6, tr.BLANKED, node=0, block=b2)
    assert not pv.audit_blanking(tables(bare)).passed


def test_blanking_keeps_at_most_ten_witnesses():
    """Twelve honest blocks blanked, each with a timely proof in its child:
    every one is checked and fails, and the witness list stays capped."""
    run = MiniRun(protocol="sapos", k_epf=4)
    blocks = [run.produce(2 + 2 * i, producer=0) for i in range(13)]
    for carrier, victim in zip(blocks[1:], blocks):
        run.trace.emit(30, tr.PROOF_INCLUDED, node=0, carrier=carrier,
                       target=victim, other=99)
    for victim in blocks[:-1]:
        run.trace.emit(31, tr.BLANKED, node=0, block=victim)
    res = pv.audit_blanking(tables(run))
    assert not res.passed and res.checked == 12
    assert len(res.violations) == 10
    assert {v["reason"] for v in res.violations} == {"honest block blanked"}


def test_blanking_inconclusive_without_blanks():
    run, _ = linear_run()
    assert pv.audit_blanking(tables(run)).inconclusive


# ---------------------------------------------------------------------------
# slow reference oracles: the per-tip and per-fetch forms of the two audits,
# on tables of their own built from every event

def header_table(run_trace):
    """Header id -> its BlockProduced values, as `classify` keeps them; the
    table counts its lookups for the cost guards below."""
    return CountingTable((fields(row)["header"], row[2]) for row in run_trace
                         if row[1] == tr.BLOCK_PRODUCED)


def stabilization_oracle(run_trace, series, cp_flags):
    """Per (node, pivot): walk every tip from the one in force at the end of
    the pivot's window onward down to the pivot's height."""
    honest = list(run_trace.meta["honest_nodes"])
    table = header_table(run_trace)
    timelines = {}
    for row in run_trace:
        if row[1] == tr.CHAIN_SWITCHED:
            d = fields(row)
            timelines.setdefault(d["node"], []).append(
                (row[0], d["new"], d["height"]))
    result = pv.AuditResult("cp-stabilization", True)
    cps = [(int(series.slots[k]) + series.nu, int(series.block[k]), k + 1)
           for k in range(len(series)) if cp_flags[k]]
    if not cps:
        result.inconclusive = True
        return result
    for p in honest:
        line = timelines.get(p, [])
        for start_slot, block, k in cps:
            height = table[block][pv._HEIGHT]
            ok = True
            witness_slot = None
            pos = bisect.bisect_right([s for s, _, _ in line], start_slot) - 1
            to_check = []
            if pos >= 0:
                to_check.append(line[pos])
            to_check.extend(line[pos + 1:])
            if not to_check:
                ok = False
                witness_slot = start_slot
            for slot, tip, tip_height in to_check:
                if tip_height < height or pv._ancestor_at(table, tip, height) != block:
                    ok = False
                    witness_slot = slot
                    break
            result.checked += 1
            if not ok:
                result.passed = False
                if len(result.violations) < pv._MAX_WITNESSES:
                    result.violations.append(
                        {"index": k, "block": block, "node": p,
                         "slot": witness_slot})
    return result


def budget_oracle(run_trace, series, cp_flags, c_tilde):
    """Per miss: scan every fetch of the node for those inside [t, t + nu]."""
    result = pv.AuditResult("download-budget", True)
    if c_tilde is None or c_tilde <= 0.0:
        result.inconclusive = True
        return result
    meta = run_trace.meta
    honest = list(meta["honest_nodes"])
    if meta.get("policy") != "longest-header-chain":
        result.inconclusive = True
        return result
    table = header_table(run_trace)
    fetches = {p: [] for p in honest}
    processed = {}
    for row in run_trace:
        slot, kind, d = row[0], row[1], fields(row)
        if kind == tr.CONTENT_FETCHED:
            node, header = d["node"], d["header"]
            if node in fetches:
                fetches[node].append((slot, header))
            processed.setdefault((node, header), slot)
        elif kind == tr.PRETEND_EMPTY:
            processed.setdefault((d["node"], d["header"]), slot)
        elif kind == tr.BLOCK_PRODUCED and d["cls"] == "honest":
            processed.setdefault((d["producer"], d["header"]), slot)
    last_cp_slot = 0
    for k in range(len(series)):
        t = int(series.slots[k])
        if series.good[k] and not series.downloaded[k]:
            deadline = t + series.nu
            b = int(series.block[k])
            for p in honest:
                if processed.get((p, b), deadline + 1) <= deadline:
                    continue
                count = 0
                for slot, header in fetches[p]:
                    if t <= slot <= deadline:
                        info = table.get(header)
                        if (info is not None
                                and last_cp_slot < info[pv._BPO_SLOT] <= t):
                            count += 1
                result.checked += 1
                if count < math.floor(c_tilde - 1e-9):
                    result.passed = False
                    if len(result.violations) < pv._MAX_WITNESSES:
                        result.violations.append(
                            {"index": k + 1, "slot": t, "node": p,
                             "fetched": count, "required": c_tilde})
        if cp_flags[k]:
            last_cp_slot = t
    if result.checked == 0:
        result.inconclusive = True
    return result


def processed_oracle(run_trace):
    """classify's old pass: the earliest slot per (node, header) at which a
    node produced, fetched or blanked a block, over every event."""
    processed = {}
    for row in run_trace:
        slot, kind, d = row[0], row[1], fields(row)
        if kind == tr.BLOCK_PRODUCED and d["cls"] == "honest":
            key = (d["producer"], d["header"])
        elif kind in (tr.CONTENT_FETCHED, tr.PRETEND_EMPTY):
            key = (d["node"], d["header"])
        else:
            continue
        if key not in processed or slot < processed[key]:
            processed[key] = slot
    return processed


def fetch_rows(run_trace):
    """(slot, node, header, paid) of every fetch, in trace order."""
    return [(row[0], d["node"], d["header"], d["paid"]) for row in run_trace
            if row[1] == tr.CONTENT_FETCHED for d in [fields(row)]]


def capacity_oracle(run_trace):
    """Per node, in node order: one pass over its fetches with a running
    sum and a running minimum."""
    meta = run_trace.meta
    rate = meta["capacity"] * meta["tau"]
    per_node = {}
    for slot, node, _, paid in fetch_rows(run_trace):
        per_node.setdefault(node, []).append((slot, float(paid)))
    result = pv.AuditResult("capacity", True)
    for node, fetches in sorted(per_node.items()):
        run_min = math.inf
        min_at = None
        cum = 0.0
        for s, w in fetches:
            b = cum - rate * s
            if b < run_min:
                run_min = b
                min_at = s
            cum += w
            if (cum - rate * s) - run_min > rate + 1.0 + 1e-9:
                result.fail({"node": node, "slot": s, "window_start": min_at})
            result.checked += 1
    return result


def single_fetch_oracle(run_trace):
    """Per fetch: its opportunity looked up in a header table of its own
    (its header on plain PoS, or when the header is unknown)."""
    table = header_table(run_trace)
    per_bpo = run_trace.meta.get("protocol") != "pos"
    seen = set()
    result = pv.AuditResult("single-fetch", True)
    for slot, node, header, _ in fetch_rows(run_trace):
        info = table.get(header) if per_bpo else None
        if info is not None:
            key = (node, info[pv._BPO_SLOT], info[pv._BPO_NODE],
                   info[pv._BPO_SEQ])
        else:
            key = (node, header)
        result.checked += 1
        if key in seen:
            result.fail({"node": node, "header": header, "slot": slot})
        seen.add(key)
    return result


def good_oracle(run_trace, nu):
    """The good flags by the definition, with one probe per slot d in
    (t, t + nu]: exactly one honest production at t, no adversary one,
    and no non-empty slot among the next nu."""
    counts, honest_at = {}, {}
    for row in run_trace:
        d = fields(row)
        if row[1] == tr.BPO:
            counts[row[0]] = (d["h"], d["a"] + d["s"])
        elif row[1] == tr.BLOCK_PRODUCED and d["cls"] == "honest":
            honest_at[d["bpo_slot"]] = honest_at.get(d["bpo_slot"], 0) + 1
    return [counts[t] == (1, 0) and honest_at.get(t) == 1
            and not any(t + d in counts for d in range(1, nu + 1))
            for t in sorted(counts)]


def assert_matches_oracles(run):
    series, cp = series_and_cp(run)
    assert series.processed == processed_oracle(run.trace)
    fast = pv.audit_stabilization(series)
    assert fast == stabilization_oracle(run.trace, series, cp)
    for c_tilde in (0.5, 1.0, 2.0, 3.0):
        assert pv.audit_budget(series, c_tilde) == \
            budget_oracle(run.trace, series, cp, c_tilde)
    assert pv.audit_capacity(series) == capacity_oracle(run.trace)
    assert pv.audit_single_fetch(series) == single_fetch_oracle(run.trace)
    return fast


# ---------------------------------------------------------------------------
# differential tests: the linear audits against the oracles

@st.composite
def histories(draw):
    """Random block trees with fetches, blanks and tip switches: honest
    blocks on the tallest tip (sometimes on an older one), adversary forks
    that nodes may fetch and adopt, late defections, busy slots, a node
    that may never switch and nodes whose first switch comes late."""
    nodes = tuple(range(draw(st.integers(1, 3))))
    run = MiniRun(nodes=nodes, horizon=400)
    silent = draw(st.sampled_from((None,) * 3 + nodes))
    wake = {p: draw(st.sampled_from((0, 0, 20, 60))) for p in nodes}
    lags = st.sampled_from((0, 1, 1, 2, 3, 4, 5, 7))
    actions = []            # (slot, method, args, kwargs), stably sorted
    height = {0: 0}
    blocks = [0]

    def switch_later(p, slot, tip):
        if p != silent and slot >= wake[p]:
            actions.append((slot, run.switch, (slot, p, tip), {}))

    slot = 0
    for _ in range(draw(st.integers(0, 30))):
        slot += draw(st.sampled_from((1, 3, 5, 6, 6, 8, 12)))
        kind = draw(st.sampled_from(("honest",) * 8 + ("adversary", "defect",
                                                       "busy")))
        if kind == "busy":
            actions.append((slot, run.busy, (slot,), {}))
            continue
        if kind == "defect":
            p = draw(st.sampled_from(nodes))
            switch_later(p, slot, draw(st.sampled_from(blocks)))
            continue
        honest = kind == "honest"
        if honest and draw(st.integers(0, 4)):
            parent = max(blocks, key=lambda b: (height[b], b))
        else:
            parent = draw(st.sampled_from(blocks))
        hid = len(blocks)
        blocks.append(hid)
        height[hid] = height[parent] + 1
        producer = draw(st.sampled_from(nodes)) if honest else 9
        kw = {} if honest else {"cls": "adversary", "h": 0, "a": 1}
        actions.append((slot, run.produce, (slot, parent),
                        {"producer": producer, **kw}))
        for p in nodes:
            if p != producer and draw(st.integers(0, 9)):
                fetch_slot = slot + draw(lags)
                actions.append((fetch_slot, run.fetch, (fetch_slot, p, hid), {}))
            if p != producer and draw(st.integers(0, 5)) == 0:
                blank_slot = slot + draw(lags)
                actions.append((blank_slot, run.blank, (blank_slot, p, hid), {}))
            adopt = (draw(st.integers(0, 5)) > 0 if honest
                     else draw(st.integers(0, 3)) == 0)
            if adopt:
                switch_later(p, slot + draw(lags), hid)
    actions.sort(key=lambda a: a[0])
    for _, method, args, kwargs in actions:
        method(*args, **kwargs)
    return run


@pytest.mark.parametrize("first,second", [("blank", "fetch"),
                                           ("fetch", "blank")])
def test_a_block_counts_as_processed_at_its_earliest_slot(first, second):
    """Node 1 has the good block at slot 3 by one kind of event and at
    slot 9, past the deadline, by the other; classify reads the kinds'
    lists one after the other and must still take slot 3."""
    run = MiniRun(nodes=(0, 1), horizon=60, protocol="sapos")
    b1 = run.produce(2, producer=0)
    getattr(run, first)(3, 1, b1)
    run.produce(8, producer=0, parent=b1)
    getattr(run, second)(9, 1, b1)
    series, cp = series_and_cp(run)
    assert series.downloaded.tolist()[0]
    assert series.processed[1, b1] == 3
    assert_matches_oracles(run)


def test_a_producer_has_its_block_from_its_production():
    """Node 0 fetches its own block's content after producing it: the
    production, read after the fetches, still holds the earlier slot."""
    run = MiniRun(nodes=(0, 1), horizon=60)
    b1 = run.produce(2, producer=0)
    run.fetch(5, 0, b1)
    run.blank(6, 0, b1)
    series, _ = series_and_cp(run)
    assert series.processed[0, b1] == 2
    assert_matches_oracles(run)


@given(histories())
@settings(max_examples=200, deadline=None)
def test_linear_audits_match_oracles(run):
    assert_matches_oracles(run)


@given(histories(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_the_gap_to_the_next_slot_decides_good_as_the_probes_do(run, nu):
    assert pv.classify(run.trace, nu).good.tolist() == good_oracle(run.trace, nu)


def test_every_good_candidate_is_good_at_nu_zero():
    """Back-to-back non-empty slots: at nu = 0 no later slot is probed, so
    every slot with one honest production is good; at nu = 1 only the ones
    followed by an empty slot are."""
    run = MiniRun(nodes=(0, 1), horizon=40)
    for slot in (2, 3, 4, 6, 9, 10):
        run.produce(slot, producer=0)
    run.busy(11)
    for nu, good in [(0, [True] * 6 + [False]),
                     (1, [False, False, True, True, False, False, False])]:
        assert good_oracle(run.trace, nu) == good
        assert pv.classify(run.trace, nu).good.tolist() == good


@st.composite
def fetch_tables(draw):
    """Fetch tables for the capacity and single-fetch audits: blocks with
    equivocating twins (one opportunity, two headers), then fetches in
    drawn slots, several to a slot, of known and unknown headers, paid an
    int, a fraction, or a non-finite amount, at a drawn rate."""
    capacity, tau = draw(st.sampled_from(
        [(10.0, 0.1), (5.0, 0.1), (3.0, 0.1), (1, 1), (2, 0.5)]))
    protocol = draw(st.sampled_from(("pow", "pos")))
    run = MiniRun(nodes=(0, 1, 2), horizon=400, capacity=capacity, tau=tau,
                  protocol=protocol)
    headers = []
    for slot in range(1, draw(st.integers(1, 6)) + 1):
        headers.append(run.produce(slot, parent=0, producer=slot % 2))
        if draw(st.booleans()):     # the same opportunity, another header
            headers.append(run.produce(slot, parent=0, producer=slot % 2,
                                       emit_bpo=False))
    unknown = [100, 101]
    paid = st.sampled_from((1.0, 1.0, 0.5, 0.25, 2.0, 0.0, 1, 3,
                            math.inf, math.nan, -math.inf))
    slot = 10
    for _ in range(draw(st.integers(0, 40))):
        slot += draw(st.sampled_from((0, 0, 0, 1, 1, 2, 5)))
        run.fetch(slot, draw(st.sampled_from((0, 1, 2))),
                  draw(st.sampled_from(headers + unknown)), paid=draw(paid))
    return run


@given(fetch_tables())
@settings(max_examples=300, deadline=None)
def test_capacity_and_single_fetch_match_their_oracles(run):
    series = tables(run)
    assert pv.audit_capacity(series) == capacity_oracle(run.trace)
    assert pv.audit_single_fetch(series) == single_fetch_oracle(run.trace)


def crowded_run(protocol="pow"):
    """Node 1 fetches each of two twins' content in all of 13 slots at
    three blocks a slot, with ties in the running minimum from the second
    slot on: 39 fetches, most of them over capacity and repeated."""
    run = MiniRun(nodes=(0, 1), capacity=10.0, tau=0.1, protocol=protocol)
    twins = [run.produce(1, parent=0, producer=0),
             run.produce(1, parent=0, producer=0, emit_bpo=False)]
    for slot in range(10, 23):
        for i in range(3):
            run.fetch(slot, 1, twins[i % 2])
    return run


@pytest.mark.parametrize("protocol", ["pow", "pos"])
def test_the_audits_keep_the_first_ten_of_many_witnesses(protocol):
    run = crowded_run(protocol)
    series = tables(run)
    capacity = pv.audit_capacity(series)
    assert capacity == capacity_oracle(run.trace)
    assert not capacity.passed and capacity.checked == 39
    assert len(capacity.violations) == 10
    # the minimum ties from slot 11 on: every window starts at slot 10
    assert {v["window_start"] for v in capacity.violations} == {10}
    single = pv.audit_single_fetch(series)
    assert single == single_fetch_oracle(run.trace)
    assert not single.passed and single.checked == 39
    assert len(single.violations) == 10
    # on PoW both twins are one opportunity; on PoS each is its own key
    assert single.violations[0]["slot"] == 10 if protocol == "pow" else 11


def reorg_run():
    """A node adopts an adversary fork off the second block, then returns."""
    run, blocks = linear_run(n_blocks=5)
    fork = run.produce(45, parent=blocks[1], cls="adversary", producer=9,
                       h=0, a=1)
    run.switch(46, 1, fork)
    tip = run.produce(60, producer=0, parent=blocks[-1])
    run.switch(61, 0, tip)
    run.switch(61, 1, tip)
    return run


def late_defection_run():
    run, blocks = linear_run(n_blocks=4)
    fork = run.produce(40, parent=0, cls="adversary", producer=9, h=0, a=1)
    run.switch(70, 1, fork)
    return run


def silent_node_run():
    """Node 2 fetches every block in time but never records a switch."""
    run = MiniRun(nodes=(0, 1, 2), horizon=80)
    for i in range(3):
        slot = 2 + 8 * i
        hid = run.produce(slot, producer=0)
        for p in (1, 2):
            run.fetch(slot + 1, p, hid)
        run.switch(slot + 1, 0, hid)
        run.switch(slot + 1, 1, hid)
    return run


def late_first_switch_run(tips):
    """Node 1 records its first switch long after the pivots' windows, to
    each of `tips` in turn: "chain" extends the pivots, "fork" leaves them
    for a fork off genesis."""
    run = MiniRun(nodes=(0, 1), horizon=80)
    blocks = []
    for i in range(3):
        slot = 2 + 8 * i
        blocks.append(run.produce(slot, producer=0))
        run.fetch(slot + 1, 1, blocks[-1])
        run.switch(slot + 1, 0, blocks[-1])
    for i, kind in enumerate(tips):
        parent = 0 if kind == "fork" else blocks[-1]
        tip = run.produce(50 + 2 * i, parent=parent, cls="adversary",
                          producer=9, h=0, a=1)
        run.switch(51 + 2 * i, 1, tip)
    return run


def late_adoption_run():
    """Node 1 fetches the second block in time but adopts it only after its
    window closed: the tip in force at the window's end fails."""
    run = MiniRun(nodes=(0, 1), horizon=60)
    for i in range(3):
        slot = 2 + 8 * i
        hid = run.produce(slot, producer=0)
        run.fetch(slot + 1, 1, hid)
        run.switch(slot + 1, 0, hid)
        run.switch(slot + (6 if i == 1 else 1), 1, hid)
    return run


def misreported_height_run():
    """Node 1 records a switch to the latest block with a doctored height
    of 1: tips are judged by the height their switch recorded."""
    run, blocks = linear_run(n_blocks=3)
    run.switch(30, 1, blocks[-1], height=1)
    return run


def mass_defection_run():
    """Both nodes leave seven pivots for a fork off genesis: 14 failures."""
    run, blocks = linear_run(n_blocks=8)
    fork = run.produce(70, parent=0, cls="adversary", producer=9, h=0, a=1)
    run.switch(71, 0, fork)
    run.switch(71, 1, fork)
    return run


@pytest.mark.parametrize("build, passed, n_violations", [
    (reorg_run, False, 1),
    (late_defection_run, False, 3),
    (silent_node_run, False, 3),
    (lambda: late_first_switch_run(["chain"]), True, 0),
    (lambda: late_first_switch_run(["fork"]), False, 2),
    (lambda: late_first_switch_run(["fork", "chain"]), False, 1),
    (late_adoption_run, False, 1),
    (misreported_height_run, False, 2),
    (mass_defection_run, False, 10),
])
def test_linear_audits_match_oracles_on_named_histories(build, passed,
                                                        n_violations):
    res = assert_matches_oracles(build())
    assert not res.inconclusive
    assert res.passed is passed and len(res.violations) == n_violations


def test_stabilization_witnesses_when_no_switch_was_recorded():
    res = assert_matches_oracles(silent_node_run())
    # node 2 has no timeline: the witness is the end of each pivot's window
    assert [(v["node"], v["slot"]) for v in res.violations] == \
        [(2, 6), (2, 14), (2, 22)]


def test_stabilization_reports_the_first_defecting_tip():
    res = assert_matches_oracles(mass_defection_run())
    assert res.checked == 14
    assert {v["slot"] for v in res.violations} == {71}


# ---------------------------------------------------------------------------
# download-budget window edges

def edge_run(fetches):
    """Pivot block at slot 2, a downloaded block at 10, then node 1 misses
    the good block at t = 20 (nu = 4) while fetching `fetches`, a list of
    (slot, name, via) with name one of: "pivot" (bpo_slot 2, the latest
    prior pivot), "young" (bpo_slot 12), "twin" (bpo_slot 20 = t)."""
    run = MiniRun(nodes=(0, 1), horizon=60)
    named = {"pivot": run.produce(2, producer=0)}
    run.fetch(3, 1, named["pivot"])
    second = run.produce(10, producer=0)
    run.fetch(11, 1, second)
    named["young"] = run.produce(12, parent=0, cls="adversary", producer=9,
                                 emit_bpo=False)

    def emit(upto):
        while fetches and fetches[0][0] < upto:
            slot, name, via = fetches.pop(0)
            run.trace.emit(slot, tr.CONTENT_FETCHED, node=1,
                           header=named[name], via=via, paid=1.0)

    fetches = sorted(fetches)
    emit(20)
    run.produce(20, producer=0, parent=second)
    named["twin"] = run.produce(20, parent=second, cls="adversary",
                                producer=9, emit_bpo=False)
    emit(math.inf)
    return run


@pytest.mark.parametrize("fetches, counted", [
    ([(20, "young", "request")], 1),             # at t
    ([(24, "young", "request")], 1),             # at t + nu
    ([(19, "young", "request")], 0),             # at t - 1
    ([(25, "young", "request")], 0),             # at t + nu + 1
    ([(21, "pivot", "request")], 0),             # bpo_slot == last_cp_slot
    ([(21, "twin", "request")], 1),              # bpo_slot == t
    ([(19, "young", "request"), (20, "young", "request"),
      (24, "twin", "request"), (24, "pivot", "request"),
      (25, "young", "request")], 2),
])
def test_budget_window_edges(fetches, counted):
    run = edge_run(fetches)
    series, cp = series_and_cp(run)
    assert series.good.tolist() == [True, True, True]
    assert series.downloaded.tolist() == [True, True, False]
    assert cp.tolist() == [True, False, False]
    res = pv.audit_budget(series, c_tilde=100.0)
    assert res == budget_oracle(run.trace, series, cp, c_tilde=100.0)
    assert res.checked == 1
    assert res.violations[0]["fetched"] == counted


# ---------------------------------------------------------------------------
# cost guards: operation counts, not times

class CountingTable(dict):
    """Header table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        CountingTable.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        CountingTable.lookups += 1
        return super().get(key, default)


class CountingSlot(int):
    """Slot number that counts the comparisons made against it."""

    compares = 0

    def _count(op):
        def compare(self, other):
            CountingSlot.compares += 1
            return op(int(self), other)
        return compare

    __lt__ = _count(int.__lt__)
    __le__ = _count(int.__le__)
    __gt__ = _count(int.__gt__)
    __ge__ = _count(int.__ge__)
    del _count


@pytest.fixture
def counted():
    def count(audit, run, *args):
        """Table lookups and slot compares of one audit call: an audit's on
        the header table `classify` shares, an oracle's on its own table.
        An oracle also takes the recomputed pivot flags."""
        series, cp = series_and_cp(run)
        series.headers = CountingTable(series.headers)
        CountingTable.lookups = CountingSlot.compares = 0
        if audit in (stabilization_oracle, budget_oracle):
            audit(run.trace, series, cp, *args)
        else:
            audit(series, *args)
        return CountingTable.lookups + CountingSlot.compares
    return count


def pivot_chain(n):
    """n blocks, 8 slots apart, all of them combinatorial pivots."""
    run = MiniRun(nodes=(0, 1), horizon=8 * n + 10)
    for i in range(n):
        slot = 2 + 8 * i
        hid = run.produce(slot, producer=0)
        run.fetch(slot + 1, 1, hid)
        run.switch(slot + 1, 0, hid)
        run.switch(slot + 1, 1, hid)
    return run


def missed_chain(n):
    """n good blocks, each fetched by node 1 one slot after its window."""
    run = MiniRun(nodes=(0, 1), horizon=8 * n + 10)
    for i in range(n):
        slot = 2 + 8 * i
        hid = run.produce(slot, producer=0)
        run.fetch(CountingSlot(slot + 5), 1, hid)
    return run


def growth(count, audit, build, n, *args):
    return count(audit, build(2 * n), *args) / count(audit, build(n), *args)


def test_stabilization_cost_is_linear(counted):
    assert growth(counted, pv.audit_stabilization, pivot_chain, 60) <= 2.5
    # the per-tip oracle grows faster than the guard allows
    assert growth(counted, stabilization_oracle, pivot_chain, 60) > 3.0


def test_budget_cost_is_linear(counted):
    # the quadratic scan makes no table lookups outside the window, so the
    # guard also counts comparisons against fetch slots
    assert growth(counted, pv.audit_budget, missed_chain, 200, 1.0) <= 2.5
    assert growth(counted, budget_oracle, missed_chain, 200, 1.0) > 3.0
