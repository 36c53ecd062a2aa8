"""The benchmark's named workloads: scenario configs, sweep sizes and the
audit verdicts each is expected to reach.

A run of a workload is a sweep of `sweep` simulation seeds derived from the
benchmark seed, because the cost of one seed varies with its lottery draw
(see README.md): the sweep's mean is what a researcher pays per seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# Seed i of the sweep for benchmark seed s is s + SEED_STRIDE * i, so seed 1
# runs simulation seed 1 first and sweeps of seeds below the stride never
# share a simulation seed.
SEED_STRIDE = 1000
DEFAULT_SEED = 1

PASS, FAIL, INCONCLUSIVE = "pass", "FAIL", "inconclusive"
AUDITS = ("chain-growth", "cp-stabilization", "download-budget",
          "single-fetch", "capacity", "ledger-safety")


def _scenario(horizon: int, beta: float, rho: float, capacity: float,
              strategy: str, protocol: str, sigma: float = 0.0) -> dict:
    cfg = {
        "sim": {"n_nodes": 20, "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
                "beta": beta, "rho": rho, "capacity": capacity,
                "horizon_slots": horizon},
        "attack": {"strategy": strategy},
        "protocol": protocol,
        "policy": "longest-header-chain",
    }
    if sigma:
        cfg["txgen"] = {"sigma": sigma}
    return cfg


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    sweep: int
    # audit name -> verdicts allowed on any seed; the recorded seeds in
    # expected.json must reproduce their exact verdicts
    verdicts: dict = field(default_factory=dict)
    reason: str = ""

    def seeds(self, seed: int) -> list[int]:
        return [seed + SEED_STRIDE * i for i in range(self.sweep)]


def _all_pass(**overrides) -> dict:
    out = {a: {PASS} for a in AUDITS}
    out.update(overrides)
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tease",
        why="PoW teaser at C=1: throttled nodes are re-polled every slot, so "
            "process_step polling dominates simulate; audit_budget leads "
            "analyze",
        config=_scenario(20_000, beta=0.45, rho=0.1, capacity=1.0,
                         strategy="teaser", protocol="pow"),
        sweep=8,
        verdicts=_all_pass(**{"cp-stabilization": {INCONCLUSIVE}}),
    ),
    Workload(
        name="posspam",
        why="PoS equivocation spam fills the 100-tip scheduler: header "
            "intake, tip ordering and audit_budget carry the cost",
        config=_scenario(10_000, beta=0.3, rho=0.1, capacity=2.0,
                         strategy="pos-teaser", protocol="pos"),
        sweep=9,
        # at this horizon the attack has not broken safety on every seed yet
        # (seed 1001 of the default sweep passes); recorded seeds pin it
        verdicts=_all_pass(**{"cp-stabilization": {INCONCLUSIVE},
                              "ledger-safety": {FAIL, PASS}}),
        reason="plain PoS loses ledger safety to the equivocating tease: "
               "conflicting confirmed prefixes end in released adversary "
               "copies (expected attack outcome, ROADMAP open item 5b)",
    ),
    Workload(
        name="secure-tx",
        why="no attack inside the secure region with txgen: every slot is "
            "visited and recurring pivots make audit_stabilization lead "
            "analyze",
        config=_scenario(5_000, beta=0.0, rho=0.04, capacity=2.0,
                         strategy="none", protocol="pow", sigma=0.3),
        sweep=20,
        verdicts=_all_pass(),
    ),
)}
