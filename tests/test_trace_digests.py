"""Byte identity of the pinned runs.  Every pin lives in one ledger,
tests/pins.json, keyed by run name.  Each run of `RUNS` is simulated once,
and its entry (the sha256 of its JSONL trace as `write_jsonl` writes it
and of its block contents, its `RunMetrics`, its pp and cp counts and its
sacrifices) must equal the ledger's, so a change to the simulator's
internals that claims to keep its behaviour must reproduce them exactly.
The ledger also holds the series.csv digests of the benchmark's oracle
runs and the attack-frontier CSV digest that tests/test_cli.py checks.

A mismatch prints the computed entry as sorted JSON.  A deliberate change
is re-recorded by copying that entry into the ledger, where its diff shows
what moved.  Every event of a kind with a layout must take that kind's
compiled line encoder."""
import dataclasses
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from nakasim import params as pm
from nakasim import pivots
from nakasim import trace as tr
from nakasim.sim import RunMetrics, Simulation


def matrix_scenario(protocol: str, policy: str) -> dict:
    """8 nodes, 2,000 slots: the PoW teaser, or equivocation spam on PoS,
    fast enough that the 100-tip scheduler cap is reached."""
    if protocol == pm.PROTOCOL_POW:
        attack, beta, rho = pm.ATTACK_TEASER, 0.45, 0.1
    else:
        attack, beta, rho = pm.ATTACK_POS_TEASER, 0.4, 0.2
    return {"sim": {"n_nodes": 8, "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
                    "beta": beta, "rho": rho, "capacity": 1.0,
                    "horizon_slots": 2000, "seed": 1},
            "attack": {"strategy": attack},
            "protocol": protocol, "policy": policy}


def attack_scenario(protocol: str, **attack) -> dict:
    """`matrix_scenario`'s run under longest-header-chain with another
    attack block."""
    out = matrix_scenario(protocol, pm.POLICY_LONGEST_HEADER_CHAIN)
    out["attack"] = attack
    return out


def feed_scenario(protocol: str, strategy: str) -> dict:
    """`attack_scenario` with a transaction feed of 0.5 transactions per
    slot, each 0.15 of a block, so that some blocks fill up."""
    out = attack_scenario(protocol, strategy=strategy)
    out["txgen"] = {"sigma": 5.0, "tx_size": 0.15}
    return out


def load_bench(name: str):
    """The benchmark's module bench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # for its dataclasses
    spec.loader.exec_module(module)
    return module


def bench_workloads() -> dict:
    """The benchmark's named workloads (bench/workloads.py)."""
    return load_bench("workloads").WORKLOADS


def secure_tx_scenario(protocol: str, strategy: str, beta: float) -> dict:
    """The benchmark's secure-tx workload (PoW, no attack, beta 0, a
    transaction feed) at 2,000 slots, seed 1, under `protocol` and the
    attack `strategy` with adversarial share `beta`."""
    config = bench_workloads()["secure-tx"].config
    config["sim"].update(horizon_slots=2000, seed=1, beta=beta)
    config["attack"] = {"strategy": strategy}
    config["protocol"] = protocol
    return config


# The attacked matrix, protocol x policy, each run named
# "<protocol>-<policy>".
MATRIX = [f"{protocol}-{policy}"
          for protocol in pm.PROTOCOLS for policy in pm.POLICIES]
# The runs that hold pps.
PIVOT_RUNS = ("secure-tx", "secure-tx-pow-teaser", "secure-tx-pos-teaser",
              "secure-tx-sapos-teaser")

# name -> scenario of every pinned run
RUNS = {
    **{name: matrix_scenario(*name.split("-", 1)) for name in MATRIX},
    # Adversary paths the matrix never takes: the sacrifice plant and its
    # equivocated twin, header-only (SPV) miners grafting onto the teaser's
    # private chain, the pure private attack, and the partition with SPV
    # miners, whose heal clears the memos of content uploaded across the
    # split.
    "sapos-sacrifice": attack_scenario(
        pm.PROTOCOL_SAPOS, strategy=pm.ATTACK_POS_TEASER, sacrifice_every=1),
    "pow-teaser-spv": attack_scenario(
        pm.PROTOCOL_POW, strategy=pm.ATTACK_TEASER, spv_rate=0.2),
    "pos-private": attack_scenario(pm.PROTOCOL_POS,
                                   strategy=pm.ATTACK_PRIVATE),
    "pos-partition-spv": attack_scenario(
        pm.PROTOCOL_POS, strategy=pm.ATTACK_PARTITION,
        partition_duration=30.0, spv_rate=0.3),
    # The transaction feed: producing blocks while a download sleeps.
    "pow-teaser-txgen": feed_scenario(pm.PROTOCOL_POW, pm.ATTACK_TEASER),
    "sapos-pos-teaser-txgen": feed_scenario(pm.PROTOCOL_SAPOS,
                                            pm.ATTACK_POS_TEASER),
    # The secure region with no attack, and with a tease at beta 0.1 on
    # each protocol (at beta 0 the protocols run alike).
    "secure-tx": secure_tx_scenario(pm.PROTOCOL_POW, pm.ATTACK_NONE, 0.0),
    "secure-tx-pow-teaser": secure_tx_scenario(pm.PROTOCOL_POW,
                                               pm.ATTACK_TEASER, 0.1),
    "secure-tx-pos-teaser": secure_tx_scenario(pm.PROTOCOL_POS,
                                               pm.ATTACK_POS_TEASER, 0.1),
    "secure-tx-sapos-teaser": secure_tx_scenario(pm.PROTOCOL_SAPOS,
                                                 pm.ATTACK_POS_TEASER, 0.1),
}

# The ledger's other entries: workload -> the entry holding the sha256 of
# the series.csv that `write_report` writes for seed 1 of the benchmark
# workload, which bench/expected.json does not record; and the entry of the
# attack-frontier CSV.
BENCH_PINS = {name: f"bench-{name}" for name in ("tease", "posspam",
                                                 "secure-tx")}
FRONTIER_PIN = "attack-frontier"

PINS = json.loads(Path(__file__).with_name("pins.json").read_text("utf-8"))


# Kinds without a layout, whose events `write_jsonl` writes through the
# file's encoder: kind -> why it has no fixed layout.
FREE_FORM = {
    tr.META: "holds the nested scenario config",
    tr.ADVERSARY_RELEASE: "carries free-form tags, and a content that is "
                          "None or an int",
}


def test_every_kind_has_a_layout_or_is_free_form():
    assert sorted([*tr.LAYOUTS, *FREE_FORM]) == sorted(tr.KINDS)
    assert not tr.LAYOUTS.keys() & FREE_FORM.keys()


def write_counting_fallbacks(trace, path) -> Counter:
    """Write `trace` to `path` with `write_jsonl`; return the kinds of the
    events it wrote through the file's encoder instead of a compiled line
    encoder, with their counts."""
    fallbacks = Counter()
    make = tr._new_file_encoder

    def new_file_encoder():
        encode = make()

        def counting(value, level):
            if type(value) is dict:     # a whole record, not a json field
                fallbacks[value["kind"]] += 1
            return encode(value, level)
        return counting
    with mock.patch.object(tr, "_new_file_encoder", new_file_encoder):
        tr.write_jsonl(trace, str(path))
    return fallbacks


def trace_digest(sim: Simulation) -> str:
    """sha256 of the trace as `write_jsonl` writes it.  Only free-form
    events may take the file's encoder."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        fallbacks = write_counting_fallbacks(sim.trace, path)
        body = path.read_bytes()
    assert fallbacks.keys() <= FREE_FORM.keys(), fallbacks
    assert fallbacks[tr.META] == 1
    return hashlib.sha256(body).hexdigest()


def contents_digest(sim: Simulation) -> str:
    """sha256 of every block's (commitment, txs), which the trace does not
    record."""
    body = json.dumps([[c.commitment, [list(tx) for tx in c.txs]]
                       for c in sim.store.contents.values()],
                      separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_digest_is_pinned(name):
    """The run's entry equals the ledger's.  Every downloaded index is a
    good one, so every cp must be a pp."""
    config = pm.scenario_from_dict(RUNS[name])
    sim = Simulation(config)
    metrics = sim.run()
    series = pivots.classify(sim.trace, sim.trace.meta["nu"])
    entry = {
        "trace_sha256": trace_digest(sim),
        "contents_sha256": contents_digest(sim),
        "metrics": metrics.to_dict(),
        "pp": int(series.pp.sum()),
        "cp": int(series.cp.sum()),
        "sacrifices": sum(1 for _, _, data
                          in sim.trace.of_kind(tr.ADVERSARY_RELEASE)
                          if data.get("sacrifice")),
    }
    assert entry == PINS[name], json.dumps({name: entry}, indent=2,
                                           sort_keys=True)
    assert metrics.audits["clean"]
    assert not (series.cp & ~series.pp).any()
    if config.txgen.sigma:  # a feed fills some blocks to the size cap
        cap = int(1 / config.txgen.tx_size)
        assert any(len(c.txs) >= cap for c in sim.store.contents.values())


def test_the_idle_audit_changes_no_run(monkeypatch):
    """The in-run idle audit only reads the meters: on the pinned run whose
    meter floats it once moved, a no-op audit writes the same trace bytes
    as the real one."""
    def digest():
        sim = Simulation(pm.scenario_from_dict(RUNS["pow-teaser-spv"]))
        sim.run()
        return trace_digest(sim)
    audited = digest()
    monkeypatch.setattr(Simulation, "_check_non_idleness",
                        lambda self, node, slot: None)
    assert digest() == audited


def test_every_ledger_entry_is_read_and_every_run_has_one():
    assert sorted(PINS) == sorted([*RUNS, *BENCH_PINS.values(), FRONTIER_PIN])


def test_the_matrix_reaches_the_tip_cap():
    assert any(PINS[name]["metrics"]["tip_evictions"] for name in MATRIX)


@pytest.mark.parametrize("policy", [pm.POLICY_FRESHEST_BLOCK,
                                    pm.POLICY_GREEDY])
def test_run_metrics_of_an_evicting_run_are_pinned(policy):
    """The PoS matrix runs under these policies evict tips, and the ledger
    pins every field of their `RunMetrics`, which `test_trace_digest_is_pinned`
    checks in the run's one simulation."""
    metrics = PINS[f"{pm.PROTOCOL_POS}-{policy}"]["metrics"]
    assert sorted(metrics) == sorted(f.name for f in
                                     dataclasses.fields(RunMetrics))
    assert metrics["tip_evictions"] > 0


def test_every_cp_is_a_pp_and_not_every_pp_a_cp():
    """Fact 1 of Bentov, Pass and Shi (every pp is a cp under bounded
    delay) fails under bounded capacity, where only the converse holds.
    Every pinned run checks the converse, but the attacked matrix runs
    hold no pp in 2,000 slots.  The secure-region runs give the check pps
    on every protocol, and on each of them some pp is not a cp."""
    assert {RUNS[name]["protocol"] for name in PIVOT_RUNS} == set(
        pm.PROTOCOLS)
    for name in PIVOT_RUNS:
        assert 0 < PINS[name]["cp"] < PINS[name]["pp"], name


def test_the_partition_heal_clears_memos():
    """The pinned partition run reaches its heal with nodes that memoised
    content uploaded across the split as unavailable: the heal, once,
    clears every memo of content in the cloud, and keeps only memos of
    content not yet uploaded."""
    sim = Simulation(pm.scenario_from_dict(RUNS["pos-partition-spv"]))
    heal = sim._heal_slot
    healed, cleared = [], []

    def watched(slot, inner=sim._heal):
        before = [set(node.unavailable) for node in sim.nodes]
        inner(slot)
        cloud = sim.env.cloud
        for node, memo in zip(sim.nodes, before):
            assert node.unavailable == memo - cloud
            cleared.extend((node.id, c) for c in memo & cloud)
        healed.append(slot)
    sim._heal = watched
    sim.run()
    assert healed == [heal]
    assert cleared


@pytest.mark.parametrize("name", list(BENCH_PINS))
def test_seed_one_of_each_workload_writes_its_recorded_outputs(
        name, tmp_path, monkeypatch):
    """The benchmark's oracle, run here: seed 1 of each workload goes
    through bench/run.py's `run_seed`, as the benchmark runs it, and its
    trace and report sha256, audit verdicts and sink state equal those
    recorded in bench/expected.json, and its series.csv sha256 the one
    in the ledger.  Loading run.py sets up its search path and
    environment, which are put back afterwards."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setattr(os, "environ", dict(os.environ))
    run = load_bench("run")
    got = run.run_seed(bench_workloads()[name], 1, tmp_path)
    assert got.outputs() == run.load_expected()[name]["seeds"]["1"]
    series = hashlib.sha256((tmp_path / "series.csv").read_bytes())
    assert series.hexdigest() == PINS[BENCH_PINS[name]]["series_csv_sha256"]


@pytest.mark.parametrize("name", ["tease", "posspam", "secure-tx"])
def test_only_free_form_events_take_the_files_encoder(name, tmp_path):
    """The benchmark's workloads at a short horizon: every event but Meta
    and AdversaryRelease is written by its kind's compiled line encoder."""
    config = bench_workloads()[name].config
    config["sim"].update(horizon_slots=1500, seed=1)
    sim = Simulation(pm.scenario_from_dict(config))
    sim.run()
    fallbacks = write_counting_fallbacks(sim.trace, tmp_path / "t.jsonl")
    assert fallbacks == Counter(kind for _, kind, _ in sim.trace
                                if kind in FREE_FORM)
