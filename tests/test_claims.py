"""The paper's claims checked on fixed-seed runs at smoke scale: Fact 1 of
Bentov, Pass and Shi (every probabilistic pivot is a combinatorial one)
holds when capacity is ample and fails when it is scarce, and the download
policies order as the teasing attacks predict."""
import numpy as np
import pytest

from nakasim import params as pm
from nakasim import pivots as pv
from nakasim.sim import Simulation

TEASERS = [(pm.PROTOCOL_POW, pm.ATTACK_TEASER),
           (pm.PROTOCOL_POS, pm.ATTACK_POS_TEASER),
           (pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER)]


def scenario(protocol, attack, policy, capacity, horizon, seed, **sim):
    """10 nodes, tau .1, delta_h .2, under the teasing `attack`."""
    return pm.scenario_from_dict({
        "sim": {"n_nodes": 10, "tau": 0.1, "delta_h": 0.2,
                "capacity": capacity, "horizon_slots": horizon, "seed": seed,
                **sim},
        "attack": {"strategy": attack},
        "protocol": protocol, "policy": policy})


# -- Fact 1 ------------------------------------------------------------------

def fact1_series(protocol, attack, policy, capacity):
    """nu 5, beta .1, rho .02, 20,000 slots, seed 1: 166 pps."""
    config = scenario(protocol, attack, policy, capacity, 20_000, 1,
                      nu=5, beta=0.1, rho=0.02)
    sim = Simulation(config)
    sim.run()
    return pv.classify(sim.trace, config.sim.nu)


@pytest.mark.parametrize("policy", pm.POLICIES)
@pytest.mark.parametrize("protocol,attack", TEASERS)
def test_every_pp_is_a_cp_when_capacity_is_ample(protocol, attack, policy):
    """At C = 5 every good block reaches every honest node within nu
    slots, so the downloaded flags are the good flags."""
    series = fact1_series(protocol, attack, policy, 5.0)
    assert series.pp.sum() == 166
    assert np.array_equal(series.cp, series.pp)


@pytest.mark.parametrize("policy", pm.POLICIES)
@pytest.mark.parametrize("protocol,attack", TEASERS)
def test_some_pp_is_not_a_cp_when_capacity_is_scarce(protocol, attack,
                                                      policy):
    """At C = .5 most good blocks miss their deadline somewhere, but some
    pps are still cps (6 on pow and sapos, 4 on pos)."""
    series = fact1_series(protocol, attack, policy, 0.5)
    assert 0 < series.cp.sum() < series.pp.sum()


# -- the download rule -------------------------------------------------------

SEEDS = (1, 2, 3)


def growth(protocol, attack, policy, capacity, horizon, seed):
    """Chain growth over the honest rate at beta .3, rho .12, c~ .5."""
    config = scenario(protocol, attack, policy, capacity, horizon, seed,
                      c_tilde=0.5, beta=0.3, rho=0.12)
    return Simulation(config, record_trace=False).run().growth_normalized


def test_greedy_outgrows_longest_header_chain_under_the_teaser():
    """At C = .5 on PoW, greedy keeps about .38 of the honest rate and
    longest-header-chain about .26, on every seed."""
    for seed in SEEDS:
        assert (growth(pm.PROTOCOL_POW, pm.ATTACK_TEASER, pm.POLICY_GREEDY,
                       0.5, 2000, seed)
                > growth(pm.PROTOCOL_POW, pm.ATTACK_TEASER,
                         pm.POLICY_LONGEST_HEADER_CHAIN, 0.5, 2000, seed))


def test_the_equivocating_tease_halves_longest_header_chain():
    """At C = 4 on plain PoS, longest-header-chain grows at less than half
    greedy's rate (.379 against .848 over three seeds).  The claim is on
    the means: one seed can read closer (.411 against .813)."""
    def mean_growth(policy):
        return np.mean([growth(pm.PROTOCOL_POS, pm.ATTACK_POS_TEASER, policy,
                               4.0, 4000, seed) for seed in SEEDS])
    assert (mean_growth(pm.POLICY_LONGEST_HEADER_CHAIN)
            < mean_growth(pm.POLICY_GREEDY) / 2)
