"""Byte-identity of short attacked runs: the sha256 of each JSONL trace over
protocol x policy is pinned, so a change to the simulator's internals that
claims to keep its behaviour must reproduce these traces exactly."""
import hashlib
import json

import pytest

from nakasim import params as pm
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


def trace_digest(sim: Simulation) -> str:
    """sha256 of the trace as `write_jsonl` writes it."""
    body = "".join(ev.to_json() + "\n" for ev in sim.trace)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


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


@pytest.mark.parametrize("protocol,policy", sorted(PINNED))
def test_trace_digest_is_pinned(protocol, policy):
    sim = Simulation(pm.scenario_from_dict(matrix_scenario(protocol, policy)))
    metrics = sim.run()
    assert metrics.audits["clean"]
    assert (trace_digest(sim), metrics.tip_evictions) == PINNED[protocol, policy]


def test_the_matrix_reaches_the_tip_cap():
    assert any(evictions for _, evictions in PINNED.values())


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
    planted = sum(1 for ev in sim.trace.of_kind(tr.ADVERSARY_RELEASE)
                  if ev.data.get("sacrifice"))
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
            before = set(node._unavailable_by_commitment)
            inner(slot)
            after = set(node._unavailable_by_commitment)
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
