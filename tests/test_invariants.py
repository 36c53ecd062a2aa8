"""Property-based invariants and end-to-end run audits, including doctored
negative controls that the audits must catch."""
import numpy as np
import pytest
from conftest import fields, line, margin_check, pivot_flags_interval
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasim import cli
from nakasim import params as pm
from nakasim import pivots as pv
from nakasim import sim
from nakasim import trace as tr
from nakasim.netenv import CapacityMeter

indicators = st.lists(st.integers(0, 1), min_size=1, max_size=60)


@given(indicators)
@settings(max_examples=300)
def test_walk_and_interval_pivots_agree(good):
    assert pv.pivot_flags_walk(good).tolist() == pivot_flags_interval(good)


@given(indicators, st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_cp_implies_pp(good, rnd):
    down = [g if rnd.random() < 0.7 else 0 for g in good]
    cp = pv.pivot_flags_walk(down)
    pp = pv.pivot_flags_walk(good)
    assert not (cp & ~pp).any()


@given(indicators)
@settings(max_examples=200)
def test_pivot_intervals_have_honest_margin(good):
    n = len(good)
    for i in range(n):
        for j in range(i + 1, n + 1):
            margin, pivots = margin_check(np.array(good), i, j)
            if pivots > 0:
                assert margin >= pivots


@given(indicators, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_non_pivot_intervals_balance_downloads(good, rnd):
    """On any interval where downloads do not outnumber misses, the missing
    good blocks cover at least half of the honest margin."""
    down = [g if rnd.random() < 0.6 else 0 for g in good]
    g = np.asarray(good)
    d = np.asarray(down)
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n + 1):
            length = j - i
            gc, dc = int(g[i:j].sum()), int(d[i:j].sum())
            if 2 * dc - length <= 0:
                assert (length - dc) >= dc
                assert 2 * (gc - dc) >= 2 * gc - length


@given(st.floats(0.05, 2.0), st.lists(
    st.tuples(st.integers(0, 5), st.floats(0.0, 1.0)), max_size=40))
@settings(max_examples=200)
def test_capacity_meter_never_overdraws_or_hoards(rate, ops):
    m = CapacityMeter(rate, 1_000)
    slot = 0
    for dt, frac in ops:
        slot += dt
        tokens = m.peek(slot)
        assert 0.0 <= tokens <= CapacityMeter.CARRY_CAP + rate + 1e-9
        m.draw(tokens * frac, slot)
        assert m.tokens >= 0.0


@given(st.floats(0.0, 5.0), st.floats(0.01, 1.0), st.integers(1, 30))
@settings(max_examples=200)
def test_parse_grid_range_covers_endpoints(lo, step, n):
    hi = lo + n * step
    grid = cli.parse_grid(f"{lo}:{hi}:{step}")
    assert grid[0] == pytest.approx(lo)
    assert grid[-1] == pytest.approx(hi, abs=1e-9)
    assert len(grid) == n + 1


# ---------------------------------------------------------------------------
# end-to-end runs in the secure regime

def secure_scenario(attack=pm.ATTACK_NONE, beta=0.0, horizon=2500):
    return pm.ScenarioConfig(
        sim=pm.SimParams(n_nodes=20, beta=beta, rho=0.005, tau=0.1,
                         delta_h=0.2, capacity=10.0, c_tilde=2.0,
                         horizon_slots=horizon),
        attack=pm.AttackConfig(strategy=attack),
    )


def run_and_analyze(scenario, seed):
    metrics, run_trace = sim.run_scenario(scenario, seed=seed)
    report, _ = pv.analyze_trace(run_trace, scenario.sim.nu,
                                 scenario.sim.c_tilde, scenario.sapos.k_cp)
    return metrics, run_trace, report


@pytest.mark.parametrize("attack,beta", [
    (pm.ATTACK_NONE, 0.0),
    (pm.ATTACK_PRIVATE, 0.2),
    (pm.ATTACK_TEASER, 0.2),
])
def test_secure_runs_pass_all_audits(attack, beta):
    metrics, _, report = run_and_analyze(secure_scenario(attack, beta), seed=3)
    assert metrics.audits["clean"], metrics.audits
    assert report.passed, report.to_dict()["audits"]
    assert metrics.growth_blocks > 0


@pytest.mark.parametrize("attack,beta", [
    (pm.ATTACK_NONE, 0.0),
    (pm.ATTACK_TEASER, 0.2),
])
def test_lead_metrics_are_the_last_and_largest_sample(attack, beta):
    """A lead that is never recorded does not count: with no attack every
    recorded lead is negative, and so is max_lead."""
    metrics, run_trace = sim.run_scenario(secure_scenario(attack, beta), seed=3)
    leads = [lead for _, _, (lead,) in run_trace.of_kind(tr.LEAD_SAMPLE)]
    assert leads
    assert (metrics.final_lead, metrics.max_lead) == (leads[-1], max(leads))
    if attack == pm.ATTACK_NONE:
        assert metrics.max_lead < 0


def test_half_horizon_is_a_prefix():
    """Stopping earlier replays the identical event stream."""
    long = secure_scenario(horizon=2000)
    import dataclasses
    short = dataclasses.replace(
        long, sim=dataclasses.replace(long.sim, horizon_slots=1000))
    _, t_long = sim.run_scenario(long, seed=11)
    _, t_short = sim.run_scenario(short, seed=11)
    long_events = [line(row) for row in t_long
                   if row[0] < 1000 and row[1] != tr.META]
    short_events = [line(row) for row in t_short
                    if row[0] < 1000 and row[1] != tr.META]
    # the shorter run may emit final bookkeeping at its last slot
    assert short_events[:len(long_events)] == long_events or \
        long_events[:len(short_events)] == short_events


def _rebuilt(rows):
    t2 = tr.Trace()
    for row in rows:
        t2.emit(row[0], row[1], **fields(row))
    return t2


def _audit_by_name(report, name):
    return next(a for a in report.audits if a.name == name)


def test_doctored_traces_fail_their_audits():
    scenario = secure_scenario()
    _, clean_trace = sim.run_scenario(scenario, seed=9)
    last = list(clean_trace)[-1][0]
    fetches = [fields(row) for row in clean_trace.of_kind(tr.CONTENT_FETCHED)
               if fields(row)["via"] == "request"]
    assert fetches

    def analyzed(trace):
        report, _ = pv.analyze_trace(trace, scenario.sim.nu,
                                     scenario.sim.c_tilde,
                                     scenario.sapos.k_cp)
        return report

    assert analyzed(clean_trace).passed

    # a replayed download breaks the single-fetch discipline
    dup = _rebuilt(clean_trace)
    src = fetches[0]
    dup.emit(last, tr.CONTENT_FETCHED, **src)
    report = analyzed(dup)
    assert not _audit_by_name(report, "single-fetch").passed

    # a burst of paid downloads breaks the capacity envelope
    burst = _rebuilt(clean_trace)
    for _ in range(4):
        burst.emit(last, tr.CONTENT_FETCHED, node=src["node"],
                   header=src["header"] + 1, via="request", paid=1.0)
    report = analyzed(burst)
    assert not _audit_by_name(report, "capacity").passed

    # erasing one node's adoptions breaks chain growth
    victim = scenario.sim.honest_nodes[-1]
    pruned = _rebuilt(row for row in clean_trace
                      if not (row[1] == tr.CHAIN_SWITCHED
                              and fields(row)["node"] == victim))
    report = analyzed(pruned)
    assert not _audit_by_name(report, "chain-growth").passed


def test_lamed_scheduler_is_flagged_idle():
    """A node that sits on a full budget while work is pending violates the
    non-idleness invariant; the in-run sink must notice."""
    sim_obj = sim.Simulation(secure_scenario(horizon=1500), seed=4)
    sim_obj.nodes[0].process_step = lambda slot: None
    metrics = sim_obj.run()
    assert metrics.audits["idle_violations"] > 0
    assert not metrics.audits["clean"]
