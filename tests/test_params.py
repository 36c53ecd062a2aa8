"""Config validation, the nu/c_tilde link, and JSON round-trips."""
import dataclasses

import pytest

from nakasim import params as pm


def test_nu_derived_from_c_tilde():
    p = pm.SimParams(tau=0.1, delta_h=0.2, capacity=10.0, c_tilde=2.0).resolved()
    # (nu+1) * 0.1 == 0.2 + 2/10
    assert p.nu == 3
    assert p.c_tilde == pytest.approx(2.0)


def test_c_tilde_derived_from_nu():
    p = pm.SimParams(tau=0.1, delta_h=0.2, capacity=1.0, nu=6).resolved()
    assert p.c_tilde == pytest.approx((6 + 1) * 0.1 - 0.2)


def test_nu_c_tilde_disagreement_rejected():
    p = pm.SimParams(tau=0.1, delta_h=0.0, capacity=1.0, nu=2, c_tilde=5.0)
    with pytest.raises(pm.ConfigError, match="sim.nu"):
        p.resolved()


def test_one_of_nu_c_tilde_required():
    with pytest.raises(pm.ConfigError, match="sim.nu"):
        pm.SimParams().resolved()


def test_delay_slots_rounds_up_in_whole_slots():
    assert pm.SimParams(tau=0.1, delta_h=0.0).delay_slots == 0
    assert pm.SimParams(tau=0.1, delta_h=0.05).delay_slots == 1
    assert pm.SimParams(tau=0.1, delta_h=0.2).delay_slots == 2
    assert pm.SimParams(tau=0.1, delta_h=0.21).delay_slots == 3


def test_adversary_node_split():
    p = pm.SimParams(n_nodes=20, beta=0.25)
    assert p.n_adversary == 5
    assert p.honest_nodes == tuple(range(15))
    assert p.adversary_nodes == tuple(range(15, 20))
    assert pm.SimParams(n_nodes=20, beta=0.01).n_adversary == 1
    assert pm.SimParams(n_nodes=20, beta=0.0).n_adversary == 0


@pytest.mark.parametrize("field,value,path", [
    ("beta", 0.5, "sim.beta"),
    ("beta", -0.1, "sim.beta"),
    ("rho", 0.0, "sim.rho"),
    ("tau", -1.0, "sim.tau"),
    ("capacity", 0.0, "sim.capacity"),
    ("horizon_slots", 0, "sim.horizon_slots"),
    ("n_nodes", 0, "sim.n_nodes"),
])
def test_sim_validation_names_the_field(field, value, path):
    p = dataclasses.replace(pm.SimParams(c_tilde=1.0), **{field: value})
    with pytest.raises(pm.ConfigError, match=path):
        p.resolved()


def test_sapos_depths_follow_k_cp():
    s = pm.SaPoSParams(k_cp=3).resolved()
    assert (s.k_conf, s.k_epf) == (19, 12)
    with pytest.raises(pm.ConfigError, match="sapos.k_conf"):
        pm.SaPoSParams(k_cp=3, k_conf=10).resolved()
    with pytest.raises(pm.ConfigError, match="sapos.k_epf"):
        pm.SaPoSParams(k_cp=3, k_epf=11).resolved()


def test_scenario_defaults_k_conf_by_protocol():
    base = {"sim": {"c_tilde": 1.0}, "sapos": {"k_cp": 3}}
    pow_cfg = pm.scenario_from_dict(base)
    assert pow_cfg.k_conf == 7
    sapos_cfg = pm.scenario_from_dict({**base, "protocol": "sapos"})
    assert sapos_cfg.k_conf == 19


def test_unknown_field_path_reported():
    with pytest.raises(pm.ConfigError, match="sim.bogus"):
        pm.scenario_from_dict({"sim": {"bogus": 1, "c_tilde": 1.0}})
    with pytest.raises(pm.ConfigError, match="attack.strategy"):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0},
                               "attack": {"strategy": "meteor"}})
    with pytest.raises(pm.ConfigError, match="policy"):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0}, "policy": "tallest"})


def test_the_pos_teaser_needs_a_pos_lottery():
    """Its copies re-spend opportunities, which the PoW rule refuses."""
    with pytest.raises(pm.ConfigError, match="attack.strategy"):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0},
                               "attack": {"strategy": "pos-teaser"}})
    for protocol in (pm.PROTOCOL_POS, pm.PROTOCOL_SAPOS):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0}, "protocol": protocol,
                               "attack": {"strategy": "pos-teaser"}})


def test_dict_round_trip(tmp_path):
    cfg = pm.scenario_from_dict({
        "sim": {"n_nodes": 5, "beta": 0.2, "rho": 0.05, "tau": 0.1,
                "delta_h": 0.2, "capacity": 2.0, "c_tilde": 1.0,
                "horizon_slots": 50, "seed": 3},
        "attack": {"strategy": "teaser", "spv_rate": 0.01},
        "policy": "greedy",
        "repeat": 2,
    })
    again = pm.scenario_from_dict(pm.scenario_to_dict(cfg))
    assert again == cfg
    path = tmp_path / "cfg.json"
    import json
    path.write_text(json.dumps(pm.scenario_to_dict(cfg)))
    assert pm.scenario_from_json(str(path)) == cfg


def test_json_error_carries_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(pm.ConfigError, match="invalid JSON"):
        pm.scenario_from_json(str(path))
