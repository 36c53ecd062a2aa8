"""Pivot detection on indicator series and slot classification from traces."""
from collections import Counter
from itertools import product

import numpy as np
import pytest
from conftest import MiniRun, margin_check, pivot_flags_interval
from test_trace_digests import attack_scenario, matrix_scenario

from nakasim import params as pm
from nakasim import pivots as pv
from nakasim import trace as tr
from nakasim.sim import Simulation


def test_walk_flags_examples():
    assert pv.pivot_flags_walk([1, 1, 0, 1]).tolist() == [True, False, False, False]
    assert pv.pivot_flags_walk([1, 0, 1]).tolist() == [False, False, False]
    assert pv.pivot_flags_walk([1, 1, 1]).tolist() == [True, True, True]
    assert pv.pivot_flags_walk([0, 1, 1]).tolist() == [False, False, True]
    assert pv.pivot_flags_walk([]).tolist() == []


def test_single_index_forms_agree():
    good = [1, 1, 0, 1]
    assert pv.pivot_flags_walk(good).tolist() == pivot_flags_interval(good)
    assert pivot_flags_interval(good) == [True, False, False, False]


def test_interval_oracle_matches_walk_exhaustively():
    for n in range(1, 11):
        for bits in product((0, 1), repeat=n):
            assert pv.pivot_flags_walk(bits).tolist() == \
                pivot_flags_interval(bits), bits


def test_download_failure_clears_pivots():
    # both indices good, but the second download failed: no pivot survives
    assert not pv.pivot_flags_walk([1, 0]).any()


def test_cp_subset_of_pp_small_exhaustive():
    for n in range(1, 8):
        for good in product((0, 1), repeat=n):
            g = np.array(good)
            ones = [i for i in range(n) if good[i]]
            for pick in product((0, 1), repeat=len(ones)):
                d = np.zeros(n, dtype=np.int64)
                for i, keep in zip(ones, pick):
                    d[i] = keep
                cp = pv.pivot_flags_walk(d)
                pp = pv.pivot_flags_walk(g)
                assert not (cp & ~pp).any(), (good, d.tolist())


def test_margin_covers_pivots():
    good = np.array([1, 1, 0, 1, 1])
    # every interval that contains a pivot has margin >= pivot count
    n = len(good)
    found = 0
    for i in range(n):
        for j in range(i + 1, n + 1):
            margin, pivots = margin_check(good, i, j)
            if pivots > 0:
                found += 1
                assert margin >= pivots
    assert found > 0
    margin, pivots = margin_check(good, 0, 5)
    assert (margin, pivots) == (3, pv.pivot_flags_walk(good).sum())


def test_cp_recurrence_window_counts():
    flags = np.zeros(20, dtype=bool)
    stats = pv.cp_recurrence(flags, k_cp=3)
    # interior is [3, 17): four tumbling windows of 3, nine sliding of 6
    assert (stats.tumbling_total, stats.tumbling_hit) == (4, 0)
    assert (stats.sliding_total, stats.sliding_hit) == (9, 0)
    assert pv.cp_recurrence(np.zeros(4, dtype=bool), 3).sliding_total == 0

    dense = np.ones(20, dtype=bool)
    stats = pv.cp_recurrence(dense, k_cp=3)
    assert stats.tumbling_hit == stats.tumbling_total == 4
    assert stats.sliding_hit == stats.sliding_total > 0

    one = np.zeros(20, dtype=bool)
    one[8] = True
    stats = pv.cp_recurrence(one, k_cp=3)
    assert stats.tumbling_hit == 1
    assert 0 < stats.sliding_hit < stats.sliding_total


# ---------------------------------------------------------------------------
# classification from traces

def test_classify_requires_quiet_window():
    run = MiniRun(nodes=(0,), horizon=40)
    b1 = run.produce(2)          # slots 3..6 silent, good
    b2 = run.produce(8)          # next production at 10, too close for nu=4
    b3 = run.produce(10, parent=b2)
    series = pv.classify(run.trace, nu=4)
    assert series.slots.tolist() == [2, 8, 10]
    assert series.good.tolist() == [True, False, True]
    assert series.block.tolist() == [b1, -1, b3]
    # the producer itself counts as processed, so good implies downloaded here
    assert series.downloaded.tolist() == [True, False, True]


def test_classify_rejects_contested_slots():
    run = MiniRun(nodes=(0,), horizon=40)
    run.produce(2, h=2)                 # two honest wins share the slot
    run.busy(9, h=1, a=1)               # adversary win alongside
    run.produce(20, h=1, a=0)
    series = pv.classify(run.trace, nu=4)
    assert series.good.tolist() == [False, False, True]


def test_classify_download_deadline_is_nu_slots():
    run = MiniRun(nodes=(0, 1), horizon=60)
    b1 = run.produce(2, producer=0)
    run.fetch(6, 1, b1)                  # within nu = 4
    b2 = run.produce(12, producer=0)
    run.fetch(17, 1, b2)                 # one slot late
    series = pv.classify(run.trace, nu=4)
    assert series.good.tolist() == [True, True]
    assert series.downloaded.tolist() == [True, False]
    # the pivot flags of both come with the series
    assert series.pp.tolist() == [True, True]
    assert series.cp.tolist() == [False, False]


def test_classify_pretend_empty_counts_as_processed():
    run = MiniRun(nodes=(0, 1), horizon=60, protocol="sapos")
    b1 = run.produce(2, producer=0)
    run.trace.emit(4, tr.PRETEND_EMPTY, node=1, header=b1)
    series = pv.classify(run.trace, nu=4)
    assert series.downloaded.tolist() == [True]


def test_report_round_trip(tmp_path):
    run = MiniRun(nodes=(0, 1), horizon=60)
    chain = []
    for slot in (2, 10, 18, 26):
        hid = run.produce(slot, producer=0)
        chain.append(hid)
        run.fetch(slot + 1, 1, hid)
        for node in (0, 1):
            run.switch(slot + 1, node, hid)
    report, series = pv.analyze_trace(run.trace, nu=4, c_tilde=2.0, k_cp=1)
    assert report.n_indices == 4
    assert report.n_good == report.n_downloaded == 4
    assert report.cp_indices == [1, 2, 3, 4]
    assert report.passed

    jp, cp = tmp_path / "report.json", tmp_path / "series.csv"
    pv.write_report(report, series, str(jp), str(cp))
    import csv as csvmod
    import json as jsonmod
    with open(jp) as fh:
        data = jsonmod.load(fh)
    assert data["passed"] is True and data["cp_count"] == 4
    with open(cp) as fh:
        rows = list(csvmod.reader(fh))
    assert len(rows) == 1 + len(series)
    assert rows[0][:4] == ["k", "slot", "good", "downloaded"]


@pytest.mark.parametrize("config", [
    matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN),
    attack_scenario(pm.PROTOCOL_SAPOS, strategy=pm.ATTACK_POS_TEASER,
                    sacrifice_every=1),
], ids=["pow-teaser", "sapos-sacrifice"])
def test_an_analysis_reads_each_kind_once(monkeypatch, config):
    """`classify` reads each kind's events once, and every audit reads the
    tables it built: on a teaser run, and on a SaPoS sacrifice run, whose
    analysis includes the blanking audit."""
    sim = Simulation(pm.scenario_from_dict(config))
    sim.run()
    reads = Counter()
    real = tr.Trace.of_kind

    def of_kind(self, kind):
        reads[kind] += 1
        return real(self, kind)
    monkeypatch.setattr(tr.Trace, "of_kind", of_kind)
    meta = sim.trace.meta
    report, _ = pv.analyze_trace(sim.trace, meta["nu"], meta["c_tilde"], 50)
    if meta["protocol"] == pm.PROTOCOL_SAPOS:
        blanking = next(a for a in report.audits if a.name == "blanking")
        assert blanking.checked > 0
    assert reads[tr.BLOCK_PRODUCED] == 1
    assert max(reads.values()) == 1
