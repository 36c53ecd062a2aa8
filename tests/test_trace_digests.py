"""Byte-identity of short attacked runs: the sha256 of each JSONL trace over
protocol x policy is pinned, so a change to the simulator's internals that
claims to keep its behaviour must reproduce these traces exactly.  Every
trace is hashed as `write_jsonl` writes it, and every event of a kind with
a layout must take that kind's compiled line encoder."""
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
from nakasim.sim import Simulation


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


# (protocol, policy) -> (trace sha256, tip evictions summed over nodes)
PINNED = {
    ("pow", "longest-header-chain"):
        ("f3f02809a2a2c00d0f3703978da5112b2ef9f0781b4281cd0d36424feae512d9", 0),
    ("pow", "greedy"):
        ("c4aaeb1000091a4a774cb2238f89992ae656ee5bd426931b72a9cec46c6bd847", 0),
    ("pow", "freshest-block"):
        ("c833714cff112c570730409b280abef1be0502431c808166ea665de8d11d4b96", 0),
    ("pos", "longest-header-chain"):
        ("a5187ed1235b33b0e6dab12d935cc359e9f4ff2bc5d0e5c76e457c395c630885", 0),
    ("pos", "greedy"):
        ("3fe9952b5797a88664bdabfa382e83fc7ee0082a5da454f1032d2b2537c31b18", 660),
    ("pos", "freshest-block"):
        ("f0cd28cbc0b5584b170fbfbc425f056db5c84b301fe2145cc1b20c61641b4ffd", 139),
    ("sapos", "longest-header-chain"):
        ("9fec24da29929f12699e1f6d61bdb7e7ff193138790e90e9fca3eb1f4f25dba4", 0),
    ("sapos", "greedy"):
        ("0e6764bdf268dba1de25a060de4aac5bdad8123d5ec5a5ea9add3930358ea9af", 0),
    ("sapos", "freshest-block"):
        ("7893aa6bd1b13c340cc2085bb3ec89162c23c809366414e5f7003e78524e1f14", 0),
}


def pivot_series(sim: Simulation) -> pivots.IndexSeries:
    """The run's indices as `analyze` classifies them.  Every downloaded
    index is a good one, so every cp must be a pp."""
    return pivots.classify(sim.trace, sim.trace.meta["nu"])


@pytest.mark.parametrize("protocol,policy", sorted(PINNED))
def test_trace_digest_is_pinned(protocol, policy):
    sim = Simulation(pm.scenario_from_dict(matrix_scenario(protocol, policy)))
    metrics = sim.run()
    assert metrics.audits["clean"]
    assert (trace_digest(sim), metrics.tip_evictions) == PINNED[protocol, policy]
    series = pivot_series(sim)
    assert not (series.cp & ~series.pp).any()


def test_the_matrix_reaches_the_tip_cap():
    assert any(evictions for _, evictions in PINNED.values())


# The matrix runs that evict tips: every RunMetrics field, which the trace
# digests do not all cover (tip_evictions is in no trace record).
_SHARED_METRICS = {
    "seed": 1, "horizon_slots": 2000, "tau": 0.1, "lambda_honest": 1.2,
    "honest_blocks": 257, "spv_blocks": 0, "scheduler_blanked": 0,
    "invalid_headers": 0,
    "audits": {"blank_conflicts": 0, "missing_content": 0,
               "honest_blanked": 0, "idle_violations": 0, "clean": True},
}
PINNED_METRICS = {
    "greedy": {
        **_SHARED_METRICS, "growth_blocks": 114, "lambda_grwth": 0.57,
        "growth_normalized": 0.475, "adversary_blocks": 6407,
        "max_tip_height": 117, "agreed_height": 113, "final_lead": 80,
        "max_lead": 81, "releases": 109, "giveups": 3, "fetches": 970,
        "tip_evictions": 660, "utilization_mean": 0.995599999999965},
    "freshest-block": {
        **_SHARED_METRICS, "growth_blocks": 96, "lambda_grwth": 0.48,
        "growth_normalized": 0.4, "adversary_blocks": 4661,
        "max_tip_height": 99, "agreed_height": 94, "final_lead": 97,
        "max_lead": 98, "releases": 94, "giveups": 2, "fetches": 945,
        "tip_evictions": 139, "utilization_mean": 0.9969999999999649},
}


@pytest.mark.parametrize("policy", sorted(PINNED_METRICS))
def test_run_metrics_of_an_evicting_run_are_pinned(policy):
    config = matrix_scenario(pm.PROTOCOL_POS, policy)
    metrics = Simulation(pm.scenario_from_dict(config)).run()
    assert metrics.to_dict() == PINNED_METRICS[policy]


def attack_scenario(protocol: str, **attack) -> dict:
    """`matrix_scenario`'s run under longest-header-chain with another
    attack block."""
    out = matrix_scenario(protocol, pm.POLICY_LONGEST_HEADER_CHAIN)
    out["attack"] = attack
    return out


# Adversary paths the matrix above never takes: the sacrifice plant and its
# equivocated twin, header-only (SPV) miners grafting onto the teaser's
# private chain, the pure private attack, and the partition with SPV miners,
# whose heal clears the memos of content uploaded across the split.
# name -> (scenario, trace sha256, tip evictions, sacrifices, SPV blocks)
PINNED_ATTACKS = {
    "sapos-sacrifice": (
        attack_scenario(pm.PROTOCOL_SAPOS, strategy=pm.ATTACK_POS_TEASER,
                        sacrifice_every=1),
        "412f60a85c20e6c647c4fa7f312fe4dcad842efd324b38aede1f275c5931e6bf",
        97, 39, 0),
    "pow-teaser-spv": (
        attack_scenario(pm.PROTOCOL_POW, strategy=pm.ATTACK_TEASER,
                        spv_rate=0.2),
        "0936ad63651ecd1666982fa991fbdd71790e0f09008059f1b5da89379d6149a9",
        0, 0, 48),
    "pos-private": (
        attack_scenario(pm.PROTOCOL_POS, strategy=pm.ATTACK_PRIVATE),
        "1f24b97d531b1119482bf25167b51b623289eb3ab82a679ee4e298f3a6733d0d",
        0, 0, 0),
    "pos-partition-spv": (
        attack_scenario(pm.PROTOCOL_POS, strategy=pm.ATTACK_PARTITION,
                        partition_duration=30.0, spv_rate=0.3),
        "45f46d0fd2ebad8b024836068ac7f24cc29d34392ef4efd1ab9dbd13e2c8f42d",
        0, 0, 71),
}


@pytest.mark.parametrize("name", sorted(PINNED_ATTACKS))
def test_attack_trace_digest_is_pinned(name):
    config, digest, evictions, sacrifices, spv = PINNED_ATTACKS[name]
    sim = Simulation(pm.scenario_from_dict(config))
    metrics = sim.run()
    assert metrics.audits["clean"]
    planted = sum(1 for _, _, data in sim.trace.of_kind(tr.ADVERSARY_RELEASE)
                  if data.get("sacrifice"))
    assert (trace_digest(sim), metrics.tip_evictions, planted,
            metrics.spv_blocks) == (digest, evictions, sacrifices, spv)


def test_the_partition_heal_clears_memos():
    """The pinned partition run reaches its heal with nodes that memoised
    content uploaded across the split as unavailable: the heal clears
    those memos, once per node, and keeps only memos of content not yet
    in the cloud."""
    sim = Simulation(pm.scenario_from_dict(PINNED_ATTACKS["pos-partition-spv"][0]))
    heal = sim._heal_slot
    healed, cleared = [], []
    for node in sim.nodes.values():
        def partition_healed(slot, node=node, inner=node.partition_healed):
            before = set(node.unavailable)
            inner(slot)
            after = set(node.unavailable)
            assert not after & sim.env.cloud.keys()
            healed.append((slot, node.id))
            cleared.extend((node.id, c) for c in before - after)
        node.partition_healed = partition_healed
    sim.run()
    assert sorted(healed) == [(heal, n) for n in sim.honest_ids]
    assert cleared


def feed_scenario(protocol: str, strategy: str) -> dict:
    """`attack_scenario` with a transaction feed of 0.5 transactions per
    slot, each 0.15 of a block, so that some blocks fill up."""
    out = attack_scenario(protocol, strategy=strategy)
    out["txgen"] = {"sigma": 5.0, "tx_size": 0.15}
    return out


def contents_digest(sim: Simulation) -> str:
    """sha256 of every block's (commitment, producer, txs), which the trace
    does not record."""
    body = json.dumps([[c.commitment, c.producer, [list(tx) for tx in c.txs]]
                       for c in sim.store.contents.values()],
                      separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# Runs with the transaction feed: producing blocks while a download sleeps.
# name -> (scenario, trace sha256, contents sha256)
PINNED_FEEDS = {
    "pow-teaser-txgen": (
        feed_scenario(pm.PROTOCOL_POW, pm.ATTACK_TEASER),
        "78d4637f81593f97883745917b02d714f01052df49ab4384210cf1c13dcbef25",
        "6f2259555c638fa4692e78c3483e4236fc3ee87aa19f735ace0329e52ac1b21f"),
    "sapos-pos-teaser-txgen": (
        feed_scenario(pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER),
        "d78bca14ddc1b6b18c77953cde75bfbe06afbbd83d19cb96820735d8ab209855",
        "26d82fee816e9e76995d70bf3e433eb9330124af971b7cfcc0b00c2ba2243de9"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FEEDS))
def test_feed_trace_and_contents_digests_are_pinned(name):
    config, digest, contents = PINNED_FEEDS[name]
    sim = Simulation(pm.scenario_from_dict(config))
    metrics = sim.run()
    assert metrics.audits["clean"]
    assert (trace_digest(sim), contents_digest(sim)) == (digest, contents)
    # the feed fills some blocks to the size cap
    assert any(len(c.txs) >= 6 for c in sim.store.contents.values())


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


# workload -> sha256 of the series.csv that `write_report` writes for seed 1,
# which bench/expected.json does not record
SERIES_CSV = {
    "tease": "89d5b9772a704be1f4336651c563bcd1235e7030de3bc208114a9ecbc7a14128",
    "posspam": "ee7ba0985f6bc3ef23f105d7239685b0f1229e4cd2ad93ec98789fa250ea2a71",
    "secure-tx":
        "7735796964dcc15d690a0df32dbff01c49b7a490a522f9df6b3fcb696dfbd730",
}


@pytest.mark.parametrize("name", ["tease", "posspam", "secure-tx"])
def test_seed_one_of_each_workload_writes_its_recorded_outputs(
        name, tmp_path, monkeypatch):
    """The benchmark's oracle, run here: seed 1 of each workload goes
    through bench/run.py's `run_seed`, as the benchmark runs it, and its
    trace and report sha256, audit verdicts and sink state equal those
    recorded in bench/expected.json, and its series.csv sha256 the one
    pinned above.  Loading run.py sets up its search path and environment,
    which are put back afterwards."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setattr(os, "environ", dict(os.environ))
    run = load_bench("run")
    got = run.run_seed(bench_workloads()[name], 1, tmp_path)
    assert got.outputs() == run.load_expected()[name]["seeds"]["1"]
    series = hashlib.sha256((tmp_path / "series.csv").read_bytes())
    assert series.hexdigest() == SERIES_CSV[name]


def test_every_cp_is_a_pp_and_not_every_pp_a_cp():
    """Fact 1 of Bentov, Pass and Shi (every pp is a cp under bounded
    delay) fails under bounded capacity, where only the converse holds.
    The attacked matrix runs above have no pp in 2,000 slots, so the
    benchmark's secure-tx workload shows both: at 2,000 slots, seed 1, 10
    of its 57 pps are not cps, and each of its 47 cps is a pp."""
    config = bench_workloads()["secure-tx"].config
    config["sim"].update(horizon_slots=2000, seed=1)
    sim = Simulation(pm.scenario_from_dict(config))
    sim.run()
    series = pivot_series(sim)
    assert (int(series.pp.sum()), int(series.cp.sum())) == (57, 47)
    assert not (series.cp & ~series.pp).any()


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
