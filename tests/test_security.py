"""Closed-form security quantities: frozen values, identities, and small
Monte Carlo cross-checks."""
import math

import numpy as np
import pytest

from nakasim import security as sec
from nakasim.lottery import SlotSampler


def mc_good_fraction(beta, rho, nu, n_slots, seed=0):
    """Fraction of non-empty slots that are good, straight from the lottery."""
    s = SlotSampler(seed, beta, rho, honest_nodes=range(8),
                    adversary_nodes=range(8, 10) if beta > 0 else [])
    h, a, _ = s.counts(0, n_slots + nu)
    total = h + a
    silent = (total == 0).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(silent)])
    window_ok = (cs[1 + nu:] - cs[1:len(cs) - nu]) == nu if nu > 0 else \
        np.ones(n_slots, dtype=bool)
    good = (h[:n_slots] == 1) & (a[:n_slots] == 0) & window_ok[:n_slots]
    nonempty = total[:n_slots] >= 1
    return good.sum() / nonempty.sum(), nonempty.sum()


def test_p_good_frozen_value():
    assert sec.p_good(0.25, 0.1, 4) == pytest.approx(0.4779, abs=5e-4)


def test_p_good_limits():
    assert sec.p_good(0.0, 1e-9, 0) == pytest.approx(1.0, abs=1e-6)
    assert sec.p_good(0.3, 1e-9, 0) == pytest.approx(0.7, abs=1e-6)
    with pytest.raises(ValueError):
        sec.p_good(0.1, 0.0, 3)


def test_p_good_matches_lottery():
    beta, rho, nu = 0.25, 0.1, 4
    freq, n = mc_good_fraction(beta, rho, nu, 100_000, seed=5)
    p = sec.p_good(beta, rho, nu)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) < 4 * se


def p_good_limit(beta, lam, delta_h, c_tilde, capacity):
    """Small-slot limit of p_good with the window tied to physical time:
    (1 - beta) * exp(-lam * (delta_h + c_tilde / capacity))."""
    return (1.0 - beta) * math.exp(-lam * (delta_h + c_tilde / capacity))


def test_p_good_limit_is_the_small_slot_limit():
    beta, lam, delta_h, c_tilde, capacity = 0.2, 0.8, 0.2, 2.0, 4.0
    limit = p_good_limit(beta, lam, delta_h, c_tilde, capacity)
    tau = 1e-4
    nu = round((delta_h + c_tilde / capacity) / tau) - 1
    assert sec.p_good(beta, lam * tau, nu) == pytest.approx(limit, abs=1e-3)
    assert p_good_limit(0.3, 0.0, 1.0, 1.0, 1.0) == pytest.approx(0.7)


def test_p_pp_values():
    assert sec.p_pp(1.0) == pytest.approx(1.0)
    assert sec.p_pp(0.75) == pytest.approx(1.0 / 3.0)
    assert sec.p_pp(0.5) == 0.0
    with pytest.raises(ValueError):
        sec.p_pp(0.49)


def test_concentration_rates():
    assert sec.alpha_walk(0.75) == pytest.approx(0.125)
    assert sec.alpha_pivot(0.75) == pytest.approx(2.0 / 9.0)


def test_hoeffding_tail_bounds_the_walk():
    p_g, delta, length, trials = 0.7, 0.5, 200, 100_000
    rng = np.random.Generator(np.random.Philox(17))
    wins = rng.binomial(length, p_g, size=trials)
    x_sum = 2 * wins - length
    threshold = (1 - delta) * 2 * (p_g - 0.5) * length
    freq = float((x_sum <= threshold).mean())
    # Hoeffding: P[sum <= (1 - delta) E[sum]] <= exp(-alpha_walk delta^2 n)
    bound = math.exp(-sec.alpha_walk(p_g) * delta ** 2 * length)
    assert freq <= bound + 3e-3


def test_pp_tail_shrinks_with_window():
    # k1 large enough that the union-bound term is negligible
    p_g, delta, horizon = 0.9, 0.5, 1000
    vals = [sec.pp_tail(p_g, 400, k2, delta, horizon) for k2 in (10, 20, 40)]
    assert vals[0] > vals[1] > vals[2]
    assert sec.pp_tail(p_g, 400, 4000, delta, horizon) < 1e-12


def test_cp_condition_boundary():
    # p_pp(0.75) = 1/3, so the window budget must exceed 48
    assert sec.cp_condition(49.0, 0.75)
    assert not sec.cp_condition(48.0, 0.75)
    assert not sec.cp_condition(1e9, 0.5)


def test_choose_k_cp():
    assert sec.choose_k_cp(sec.p_good(0.0, 0.005, 3)) == 4
    # the smallest k with exp(-alpha_pivot * k) at most K_CP_TAIL_TOL
    for p_g in (sec.p_good(0.0, 0.005, 3), 0.6, 0.9, 0.99):
        k, a = sec.choose_k_cp(p_g), sec.alpha_pivot(p_g)
        assert k >= 1
        assert math.exp(-a * k) <= sec.K_CP_TAIL_TOL
        assert k == 1 or math.exp(-a * (k - 1)) > sec.K_CP_TAIL_TOL


def test_max_rate_agrees_with_fine_grid():
    got = sec.max_rate(0.0, 1.0, 0.0)
    grid = np.arange(1.0, 400.0, 0.25)
    vals = sec.rate_at(0.0, 1.0, 0.0, grid)
    assert got.lambda_max >= vals.max() - 1e-6
    assert abs(got.lambda_max - vals.max()) < 1e-3


def test_max_rate_monotone_in_beta():
    rates = [sec.max_rate(b, 1.0, 0.0).lambda_max for b in (0.0, 0.2, 0.4)]
    assert rates[0] > rates[1] > rates[2] > 0


def test_max_rate_insecure_at_half():
    with pytest.raises(sec.InsecureRegime):
        sec.max_rate(0.5, 1.0, 0.0)


def test_capacity_scales_rate_without_header_delay():
    one = sec.max_rate(0.3, 1.0, 0.0)
    two = sec.max_rate(0.3, 2.0, 0.0)
    assert two.lambda_max == pytest.approx(2 * one.lambda_max, rel=1e-6)
    assert two.c_tilde_star == pytest.approx(one.c_tilde_star, rel=1e-4)


def test_frontier_sits_on_the_pivot_root():
    """At the frontier rate the good-slot probability solves
    (2p - 1)^2 / p == 16 / c_tilde exactly."""
    checked = 0
    for beta in (0.0, 0.25, 0.4):
        star = sec.max_rate(beta, 1.0, 0.0).c_tilde_star
        for c_tilde in (0.8 * star, star, 2.0 * star):
            lam = float(sec.rate_at(beta, 1.0, 0.0, c_tilde))
            if not math.isfinite(lam):
                continue
            p = p_good_limit(beta, lam, 0.0, c_tilde, 1.0)
            assert abs((2 * p - 1) ** 2 / p - 16.0 / c_tilde) < 1e-9
            checked += 1
    assert checked >= 7


def test_beta_threshold():
    assert sec.beta_threshold(1.0, 1.0) == pytest.approx(0.5)
    assert sec.beta_threshold(0.5, 1.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        sec.beta_threshold(1.0, 0.0)


def test_index_time_tail_bounds_production_gaps():
    """k non-empty slots should rarely stretch past k / (rho (1 - delta)) slots."""
    rho, k, delta, trials = 0.01, 200, 0.3, 20_000
    p_nonempty = -math.expm1(-rho)
    rng = np.random.Generator(np.random.Philox(23))
    slots_needed = rng.negative_binomial(k, p_nonempty, size=trials) + k
    freq = float((slots_needed >= k / (rho * (1 - delta))).mean())
    # Chernoff bound on the index-to-time stretch
    assert freq <= math.exp(-k * delta ** 2 / (2.0 * (1.0 + delta))) + 3e-3


def test_liveness_latencies():
    # max(T_tput, 2 k_cp / s) + (4 k_cp + 2) / s, s = rho (1 - LIVENESS_DELTA)
    stretch = 0.01 * (1.0 - sec.LIVENESS_DELTA)
    # no queue to drain: (6 k_cp + 2) / s slots
    assert sec.liveness_latency_refined(10, 0.01, 0.0) == pytest.approx(
        62.0 / stretch, rel=1e-12)
    # a dominant throughput drain adds on top of the index-count term
    assert 20.0 / stretch < 10_000.0
    assert sec.liveness_latency_refined(10, 0.01, 10_000.0) == pytest.approx(
        10_000.0 + 42.0 / stretch, rel=1e-12)


def test_bounded_delay_reference():
    assert sec.bounded_delay_reference_rate(0.0, 1.0) == math.inf
    assert sec.bounded_delay_reference_rate(0.5, 1.0) == 0.0
    assert sec.bounded_delay_reference_rate(0.25, 1.0) == \
        pytest.approx((1 - 0.5) / (0.25 * 0.75))


def test_security_region_rows():
    betas = [0.0, 0.25, 0.5]
    rows = sec.security_region(betas, 1.0, 0.0)
    assert len(rows) == 2 * len(betas)
    ours = [r for r in rows if r.model == "bounded-capacity"]
    assert ours[0].lambda_max > ours[1].lambda_max > ours[2].lambda_max == 0.0
    ref = [r for r in rows if r.model == "bounded-delay-reference"]
    assert math.isinf(ref[0].lambda_max) and ref[2].lambda_max == 0.0
