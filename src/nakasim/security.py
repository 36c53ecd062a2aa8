"""Closed-form security calculations for longest-chain consensus under
bounded per-node processing capacity.

Conventions: `beta` is the adversary share of production, `rho` the expected
block productions per slot, `nu` the number of quiet slots a good slot needs
after it, `lam` the production rate in blocks per second, `capacity` the
per-node processing rate in blocks per second, and `c_tilde` the block budget
a node can clear inside one analysis window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InsecureRegime(ValueError):
    """No parameter choice yields a positive secure rate at this beta."""


def p_good(beta: float, rho: float, nu: int) -> float:
    """Probability that a non-empty slot is good: exactly one honest win,
    no adversary win, and the next nu slots silent.  SPV wins are not
    counted: an SPV win makes a slot bad, so with `attack.spv_rate` > 0
    this overstates the good fraction."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return (1.0 - beta) * rho * math.exp(-rho * (nu + 1)) / -math.expm1(-rho)


def p_pp(p_g: float) -> float:
    """Per-index probability of a probabilistic pivot, (2 p_g - 1)^2 / p_g.
    The analysis uses it as a lower bound, but it is the exact pivot
    probability of a two-sided walk: away from the ends of a run it is the
    pp density itself (8 seeds of 200,000 slots read .474 +- .008 s.e.
    against .465 at p_g = .806).  One short run strays further (a
    766-index run read .448), so a check on one run must use `pp_tail`,
    not this mean.  Needs a good-slot majority; the boundary p_g = 1/2
    degenerates to zero."""
    if not (0.5 <= p_g <= 1.0):
        raise ValueError("p_pp needs p_g in [1/2, 1]")
    return (2.0 * p_g - 1.0) ** 2 / p_g


def alpha_walk(p_g: float) -> float:
    """Hoeffding rate for the good-minus-bad walk: 2 * (p_g - 1/2)^2."""
    return 2.0 * (p_g - 0.5) ** 2


def alpha_pivot(p_g: float) -> float:
    """Hoeffding rate for pivot counts in disjoint groups: 2 * p_pp^2."""
    return 2.0 * p_pp(p_g) ** 2


def pp_tail(p_g: float, k1: int, k2: int, delta: float, k_horizon: int) -> float:
    """Two-term bound on P[pivot count in a window of 2*k1*k2 indices falls
    below (1 - delta) * p_pp * 2 * k1 * k2]."""
    a_p = alpha_pivot(p_g)
    a_x = alpha_walk(p_g)
    return (2.0 * k1 * math.exp(-a_p * delta ** 2 * k2)
            + k_horizon ** 2 * math.exp(-a_x * k1))


def cp_condition(c_tilde: float, p_g: float) -> bool:
    """Sufficient condition for combinatorial pivots to recur:
    (c_tilde / 16) * (2 p_g - 1)^2 / p_g > 1."""
    if p_g <= 0.5:
        return False
    return (c_tilde / 16.0) * (2.0 * p_g - 1.0) ** 2 / p_g > 1.0


def _log_arg(beta: float, c_tilde) -> np.ndarray:
    return (2.0 * (1.0 - beta) * c_tilde
            / (c_tilde + 4.0 + np.sqrt(8.0 * c_tilde + 16.0)))


def rate_at(beta: float, capacity: float, delta_h: float, c_tilde) -> np.ndarray:
    """Secure production rate for a fixed window budget c_tilde (the inner
    expression of the frontier before maximising)."""
    arg = _log_arg(beta, np.asarray(c_tilde, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.log(arg) / (delta_h + np.asarray(c_tilde, dtype=float) / capacity)
    return np.where(arg > 1.0, lam, -np.inf)


@dataclass(frozen=True)
class MaxRateResult:
    lambda_max: float
    c_tilde_star: float


C_TILDE_LO = 1.0
C_TILDE_HI = 1e5
GRID_POINTS = 512
REFINE_TOL = 1e-10
K_CP_TAIL_TOL = 1e-3    # the pivot-count tail `choose_k_cp` stays below
LIVENESS_DELTA = 0.1    # index-to-slot slack of `liveness_latency_refined`


def max_rate(beta: float, capacity: float, delta_h: float) -> MaxRateResult:
    """Maximise the secure rate over the window budget c_tilde in
    [1, 1e5], treated as continuous: a scan of GRID_POINTS log-spaced
    values, then golden-section refinement around the best grid point
    until the bracket is narrower than REFINE_TOL relative to its top.

    Raises InsecureRegime when the log argument stays <= 1 everywhere.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    grid = np.logspace(math.log10(C_TILDE_LO), math.log10(C_TILDE_HI), GRID_POINTS)
    vals = rate_at(beta, capacity, delta_h, grid)
    best = int(np.argmax(vals))
    if not np.isfinite(vals[best]) or vals[best] <= 0.0:
        raise InsecureRegime(f"no secure rate at beta={beta:g}")
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_POINTS - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    f = lambda c: float(rate_at(beta, capacity, delta_h, c))
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REFINE_TOL * max(1.0, b):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    c_star = (a + b) / 2.0
    return MaxRateResult(f(c_star), c_star)


def beta_threshold(lambda_growth: float, lambda_honest: float) -> float:
    """Adversary share needed to outpace the measured honest chain growth:
    the attack wins once beta exceeds lambda_growth / (lambda_growth + lambda_honest)."""
    if lambda_growth < 0.0 or lambda_honest <= 0.0:
        raise ValueError("rates must be non-negative, honest rate positive")
    return lambda_growth / (lambda_growth + lambda_honest)


def liveness_latency_refined(k_cp: int, rho: float,
                             t_tput_slots: float) -> float:
    """Latency in slots accounting for queue drain and index-to-time slack
    (delta = LIVENESS_DELTA):
    max(T_tput, 2 k_cp / (rho (1 - delta))) + (4 k_cp + 2) / (rho (1 - delta))."""
    stretch = rho * (1.0 - LIVENESS_DELTA)
    return (max(t_tput_slots, 2.0 * k_cp / stretch)
            + (4.0 * k_cp + 2.0) / stretch)


def choose_k_cp(p_g: float) -> int:
    """Desk-scale recurrence distance: the smallest k with
    exp(-alpha_pivot * k) < K_CP_TAIL_TOL, i.e. the dominant concentration
    factor of the pivot-count tail at full depletion, without union-bound
    terms.  The full two-term bound needs horizons far beyond desk runs.
    A tumbling window of this k misses a pp far more often than
    K_CP_TAIL_TOL: at p_g = .806, k = 16 and a window holds no pp with
    probability about 2.5e-2 (i.i.d. good flags, 2e6 indices)."""
    return max(1, math.ceil(math.log(1.0 / K_CP_TAIL_TOL) / alpha_pivot(p_g)))


def bounded_delay_reference_rate(beta: float, delay: float) -> float:
    """Reference frontier for the classic bounded-delay model: the rate at
    which adversary production matches worst-case honest growth
    (1 - beta) * lam / (1 + (1 - beta) * lam * delay).  Used only for
    side-by-side comparison plots."""
    if beta <= 0.0:
        return math.inf
    if beta >= 0.5:
        return 0.0
    return (1.0 - 2.0 * beta) / (beta * (1.0 - beta) * delay)


@dataclass(frozen=True)
class RegionRow:
    beta: float
    lambda_max: float
    c_tilde_star: float
    model: str


def security_region(betas, capacity: float, delta_h: float) -> list[RegionRow]:
    """Frontier rows for this model plus the bounded-delay reference curve
    evaluated at delay = 1 / capacity."""
    rows: list[RegionRow] = []
    for b in betas:
        try:
            r = max_rate(b, capacity, delta_h)
            rows.append(RegionRow(b, r.lambda_max, r.c_tilde_star, "bounded-capacity"))
        except InsecureRegime:
            rows.append(RegionRow(b, 0.0, float("nan"), "bounded-capacity"))
    for b in betas:
        rows.append(RegionRow(b, bounded_delay_reference_rate(b, 1.0 / capacity),
                              float("nan"), "bounded-delay-reference"))
    return rows
