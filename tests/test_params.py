"""Config validation, the nu/c_tilde link, and JSON round-trips."""
import dataclasses

import pytest

from nakasim import params as pm
from nakasim.sim import Simulation


def test_nu_derived_from_c_tilde():
    p = pm.SimParams(tau=0.1, delta_h=0.2, capacity=10.0, c_tilde=2.0)
    # (nu+1) * 0.1 == 0.2 + 2/10
    assert p.nu == 3
    assert p.c_tilde == pytest.approx(2.0)


def test_c_tilde_derived_from_nu():
    p = pm.SimParams(tau=0.1, delta_h=0.2, capacity=1.0, nu=6)
    assert p.c_tilde == pytest.approx((6 + 1) * 0.1 - 0.2)


def test_nu_c_tilde_disagreement_rejected():
    with pytest.raises(pm.ConfigError, match="sim.nu"):
        pm.SimParams(tau=0.1, delta_h=0.0, capacity=1.0, nu=2, c_tilde=5.0)


def test_one_of_nu_c_tilde_required():
    with pytest.raises(pm.ConfigError, match="sim.nu"):
        pm.SimParams()


def test_negative_nu_rejected_given_or_derived():
    # given: named as nu, though the c_tilde it derives is negative too
    with pytest.raises(pm.ConfigError, match="sim.nu: must be >= 0"):
        pm.SimParams(tau=0.1, delta_h=0.2, nu=-1)
    # derived: (delta_h + c_tilde/capacity) / tau rounds to 0
    with pytest.raises(pm.ConfigError, match="sim.nu: must be >= 0"):
        pm.SimParams(tau=0.1, delta_h=0.0, c_tilde=0.01)


def test_negative_c_tilde_rejected_given_or_derived():
    # derived: the window (nu+1)*tau = 0.1 is shorter than delta_h
    with pytest.raises(pm.ConfigError, match="sim.c_tilde"):
        pm.scenario_from_dict({"sim": {"nu": 0, "delta_h": 0.2, "tau": 0.1}})
    with pytest.raises(pm.ConfigError, match="sim.c_tilde"):
        pm.scenario_from_dict({"sim": {"c_tilde": -0.05, "delta_h": 0.5}})
    # a window that just covers delta_h leaves a zero budget
    assert pm.SimParams(nu=1, delta_h=0.2, tau=0.1).c_tilde == 0.0


def test_delay_slots_rounds_up_in_whole_slots():
    p = pm.SimParams(tau=0.1, delta_h=0.2, c_tilde=1.0)
    assert [p.slots(s) for s in (0.0, 0.05, 0.2, 0.21)] == [0, 1, 2, 3]


def test_a_split_lasts_as_many_slots_as_a_delay_of_its_seconds():
    """One seconds-to-slots rule (`SimParams.slots`): at tau 0.3, 2.1 s is
    7 slots (the float quotient is 7.000000000000001), as a header delay
    and as the length of a partition."""
    cfg = pm.scenario_from_dict({
        "sim": {"n_nodes": 4, "tau": 0.3, "delta_h": 2.1, "c_tilde": 0.5,
                "horizon_slots": 20},
        "attack": {"strategy": pm.ATTACK_PARTITION,
                   "partition_duration": 2.1}})
    env = Simulation(cfg).env
    assert env.partition.heal_slot == env.delay_slots == 7


def test_adversary_node_split():
    p = pm.SimParams(n_nodes=20, beta=0.25, c_tilde=1.0)
    assert p.n_adversary == 5
    assert p.honest_nodes == tuple(range(15))
    assert p.adversary_nodes == tuple(range(15, 20))
    assert pm.SimParams(n_nodes=20, beta=0.01, c_tilde=1.0).n_adversary == 1
    assert pm.SimParams(n_nodes=20, beta=0.0, c_tilde=1.0).n_adversary == 0


@pytest.mark.parametrize("field,value,path", [
    ("beta", 0.5, "sim.beta"),
    ("beta", -0.1, "sim.beta"),
    ("rho", 0.0, "sim.rho"),
    ("tau", -1.0, "sim.tau"),
    ("capacity", 0.0, "sim.capacity"),
    ("horizon_slots", 0, "sim.horizon_slots"),
    ("n_nodes", 0, "sim.n_nodes"),
    ("delta_h", -0.1, "sim.delta_h"),
])
def test_sim_validation_names_the_field(field, value, path):
    with pytest.raises(pm.ConfigError, match=path):
        pm.SimParams(c_tilde=1.0, **{field: value})


def test_sapos_depths_follow_k_cp():
    s = pm.SaPoSParams(k_cp=3)
    assert (s.k_conf, s.k_epf) == (19, 12)
    with pytest.raises(pm.ConfigError, match="sapos.k_conf"):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0},
                               "sapos": {"k_cp": 3, "k_conf": 10}})
    with pytest.raises(pm.ConfigError, match="sapos.k_epf"):
        pm.scenario_from_dict({"sim": {"c_tilde": 1.0},
                               "sapos": {"k_cp": 3, "k_epf": 11}})


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


BASE = {"sim": {"c_tilde": 1.0}}
NAN, INF = float("nan"), float("inf")   # what JSON's NaN and Infinity parse to


@pytest.mark.parametrize("data,path", [
    ({**BASE, "sapos": {"k_cp": 0}}, "sapos.k_cp"),
    ({**BASE, "attack": {"spv_rate": -1.0}}, "attack.spv_rate"),
    ({**BASE, "attack": {"partition_duration": -1.0}},
     "attack.partition_duration"),
    ({**BASE, "attack": {"run_after": -1.0}}, "attack.run_after"),
    ({**BASE, "attack": {"sacrifice_every": -1}}, "attack.sacrifice_every"),
    ({**BASE, "txgen": {"sigma": -0.5}}, "txgen.sigma"),
    ({**BASE, "txgen": {"tx_size": 0.0}}, "txgen.tx_size"),
    ({**BASE, "txgen": {"tx_size": 1.5}}, "txgen.tx_size"),
    ({**BASE, "txgen": {"burst_window": -1.0}}, "txgen.burst_window"),
    ({**BASE, "protocol": "pop"}, "protocol"),
    ({**BASE, "repeat": 0}, "repeat"),
    ({**BASE, "seed_stride": 0}, "seed_stride"),
    ({**BASE, "k_conf": -1}, "k_conf"),
    ({**BASE, "bogus": 1}, "bogus"),
    ({"sim": []}, "sim"),
    ({}, "sim.nu"),
    ({**BASE, "protocol": "sapos", "k_conf": 3}, "k_conf"),
    ({**BASE, "attack": {"strategy": "teaser", "sacrifice_every": 1}},
     "attack.sacrifice_every"),
    ({**BASE, "protocol": "pos",
      "attack": {"strategy": "pos-teaser", "sacrifice_every": 1}},
     "attack.sacrifice_every"),
    ({"sim": {"n_nodes": 1, "beta": 0.1, "c_tilde": 0.5}}, "sim.beta"),
    # a NaN or an infinity in any field, before it can reach a run
    ({"sim": {"capacity": NAN, "nu": 5, "n_nodes": 4, "horizon_slots": 200}},
     "sim.capacity"),
    ({"sim": {"capacity": INF, "nu": 5}}, "sim.capacity"),
    ({"sim": {"tau": NAN, "nu": 5}}, "sim.tau"),
    ({"sim": {"rho": NAN, "nu": 5}}, "sim.rho"),
    ({"sim": {"rho": INF, "nu": 5}}, "sim.rho"),
    ({"sim": {"delta_h": NAN, "nu": 5}}, "sim.delta_h"),
    ({"sim": {"c_tilde": INF}}, "sim.c_tilde"),
    ({"sim": {"n_nodes": INF, "nu": 5}}, "sim.n_nodes"),
    ({**BASE, "attack": {"spv_rate": NAN}}, "attack.spv_rate"),
    ({**BASE, "attack": {"partition_duration": INF}},
     "attack.partition_duration"),
    ({**BASE, "txgen": {"sigma": NAN}}, "txgen.sigma"),
    ({**BASE, "txgen": {"sigma": INF}}, "txgen.sigma"),
    ({**BASE, "sapos": {"k_cp": INF}}, "sapos.k_cp"),
    ({**BASE, "repeat": INF}, "repeat"),
])
def test_each_config_error_is_raised_while_parsing(data, path):
    """Every check runs as the config is built, and names its field."""
    with pytest.raises(pm.ConfigError) as info:
        pm.scenario_from_dict(data)
    assert info.value.path == path


def test_a_config_built_directly_is_checked_and_complete():
    cfg = pm.ScenarioConfig(sim=pm.SimParams(nu=9, capacity=2.0),
                            protocol=pm.PROTOCOL_SAPOS,
                            sapos=pm.SaPoSParams(k_cp=2))
    assert (cfg.sim.c_tilde, cfg.sapos.k_conf, cfg.sapos.k_epf,
            cfg.k_conf) == (2.0, 13, 8, 13)
    for build, path in (
            (lambda: pm.AttackConfig(spv_rate=-1.0), "attack.spv_rate"),
            (lambda: pm.TxGenConfig(sigma=-1.0), "txgen.sigma"),
            (lambda: pm.ScenarioConfig(sim=cfg.sim, repeat=0), "repeat")):
        with pytest.raises(pm.ConfigError) as info:
            build()
        assert info.value.path == path


def test_parse_and_setup_check_the_scenario_once(monkeypatch):
    """A bench-shaped config is checked as it is parsed, and the simulation
    takes it as it is: one SimParams check, and no copy of any config."""
    from nakasim.sim import Simulation
    config = {
        "sim": {"n_nodes": 20, "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
                "beta": 0.45, "rho": 0.1, "capacity": 1.0,
                "horizon_slots": 200},
        "attack": {"strategy": "teaser"},
        "protocol": "pow",
        "policy": "longest-header-chain",
    }
    calls = {"check": 0, "replace": 0}
    check, replace = pm.SimParams.__post_init__, dataclasses.replace

    def counted_check(self):
        calls["check"] += 1
        check(self)

    def counted_replace(*args, **kwargs):
        calls["replace"] += 1
        return replace(*args, **kwargs)

    monkeypatch.setattr(pm.SimParams, "__post_init__", counted_check)
    monkeypatch.setattr(dataclasses, "replace", counted_replace)
    scenario = pm.scenario_from_dict(config)
    simulation = Simulation(scenario, seed=1)
    assert calls == {"check": 1, "replace": 0}
    assert simulation.scenario is scenario
    assert (scenario.sim.nu, scenario.k_conf) == (6, 7)


PROTOCOL_CONFIGS = [{"sim": {"c_tilde": 1.0}, "protocol": protocol}
                    for protocol in pm.PROTOCOLS]


@pytest.mark.parametrize("data", PROTOCOL_CONFIGS, ids=pm.PROTOCOLS)
def test_replace_recomputes_the_depths(data):
    """`replace` passes inputs only: the depths follow the new k_cp, and a
    computed field cannot be given."""
    cfg = pm.scenario_from_dict(data)
    deeper = dataclasses.replace(cfg, sapos=pm.SaPoSParams(k_cp=5))
    assert deeper.k_conf == (31 if cfg.protocol == pm.PROTOCOL_SAPOS else 11)
    assert deeper == pm.scenario_from_dict({**data, "sapos": {"k_cp": 5}})
    sapos = dataclasses.replace(cfg.sapos, k_cp=5)
    assert (sapos.k_conf, sapos.k_epf) == (31, 20)
    with pytest.raises(ValueError, match="k_conf"):
        dataclasses.replace(cfg, k_conf=9)


def test_replace_on_sim_derives_nu_only_when_asked():
    """A config written with `c_tilde` holds a `nu` that a new capacity
    contradicts: `replace` refuses it unless `nu` is cleared."""
    sim = pm.scenario_from_dict({"sim": {"c_tilde": 0.5, "capacity": 1.0,
                                         "tau": 0.1, "delta_h": 0.2}}).sim
    with pytest.raises(pm.ConfigError, match="sim.nu"):
        dataclasses.replace(sim, capacity=4.0)
    assert dataclasses.replace(sim, capacity=4.0, nu=None).nu == 2


COMPUTED = [("k_conf",), ("sapos", "k_conf"), ("sapos", "k_epf"),
            ("attack", "run_after"), ("txgen", "burst_window")]


@pytest.mark.parametrize("data", PROTOCOL_CONFIGS, ids=pm.PROTOCOLS)
@pytest.mark.parametrize("keys", COMPUTED, ids=".".join)
def test_a_computed_field_is_written_only_with_its_value(data, keys):
    """The completed form, as Meta holds it, parses back to an equal config;
    with one computed field changed, it names that field."""
    cfg = pm.scenario_from_dict(data)
    completed = pm.scenario_to_dict(cfg)
    assert pm.scenario_from_dict(completed) == cfg
    *outer, key = keys
    table = completed
    for name in outer:
        table = table[name]
    table[key] += 1
    with pytest.raises(pm.ConfigError) as info:
        pm.scenario_from_dict(completed)
    assert info.value.path == ".".join(keys)
