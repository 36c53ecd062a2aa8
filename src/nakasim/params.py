"""Configuration dataclasses for simulation scenarios and analysis runs.

All scenario inputs are plain dataclasses so configs can round-trip through
JSON.  A config is checked and completed when it is built: `__post_init__`
rejects a bad field with a ConfigError that carries the field's path, and
fills in the fields that the config computes (`init=False`): `k_conf` by
protocol, the SaPoS depths from `sapos.k_cp`, and the defaults of the unread
`attack.run_after` and `txgen.burst_window`.  `dataclasses.replace` passes
inputs only, so it recomputes them, and a config may write one only with
its computed value, as Meta does.  `sim.nu` and `sim.c_tilde` are inputs,
either derived when left out: `replace(cfg.sim, capacity=4.0)` on a config
written with `c_tilde` raises `sim.nu` rather than keep a stale `nu`, and
`replace(cfg.sim, capacity=4.0, nu=None)` derives it anew.  A NaN or an
infinity in any field is a bad field.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional


class ConfigError(ValueError):
    """Raised for invalid configuration; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


POLICY_LONGEST_HEADER_CHAIN = "longest-header-chain"
POLICY_GREEDY = "greedy"
POLICY_FRESHEST_BLOCK = "freshest-block"
POLICIES = (POLICY_LONGEST_HEADER_CHAIN, POLICY_GREEDY, POLICY_FRESHEST_BLOCK)

PROTOCOL_POW = "pow"
PROTOCOL_POS = "pos"
PROTOCOL_SAPOS = "sapos"
PROTOCOLS = (PROTOCOL_POW, PROTOCOL_POS, PROTOCOL_SAPOS)

ATTACK_NONE = "none"
ATTACK_PRIVATE = "private"
ATTACK_TEASER = "teaser"
ATTACK_POS_TEASER = "pos-teaser"
ATTACK_PARTITION = "partition"
ATTACKS = (ATTACK_NONE, ATTACK_PRIVATE, ATTACK_TEASER, ATTACK_POS_TEASER,
           ATTACK_PARTITION)


def _check_finite(cfg, prefix: str) -> None:
    """Refuse a NaN or an infinity in a field of `cfg`: run first in
    `__post_init__`, it sees every input."""
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(prefix + name, "must be finite")


@dataclass(frozen=True)
class SimParams:
    """Physical and clock parameters of one simulated execution.

    Rates are in blocks per second; the slot clock has period `tau` seconds.
    `nu` and `c_tilde` are the analysis companions tied to the network
    parameters by (nu + 1) * tau == delta_h + c_tilde / capacity; either may
    be omitted and is then derived from the other.  Neither may be negative.
    """

    n_nodes: int = 20
    beta: float = 0.0
    rho: float = 0.01
    tau: float = 0.1
    delta_h: float = 0.0
    capacity: float = 1.0
    nu: Optional[int] = None
    c_tilde: Optional[float] = None
    horizon_slots: int = 10_000
    seed: int = 0

    @property
    def n_adversary(self) -> int:
        if self.beta <= 0.0:
            return 0
        return max(1, round(self.beta * self.n_nodes))

    @property
    def honest_nodes(self) -> tuple[int, ...]:
        return tuple(range(self.n_nodes - self.n_adversary))

    @property
    def adversary_nodes(self) -> tuple[int, ...]:
        return tuple(range(self.n_nodes - self.n_adversary, self.n_nodes))

    def slots(self, seconds: float) -> int:
        """`seconds` rounded up to whole slots; a float error adds no slot."""
        return math.ceil(seconds / self.tau - 1e-12)

    def __post_init__(self) -> None:
        _check_finite(self, "sim.")
        if self.n_nodes < 1:
            raise ConfigError("sim.n_nodes", "must be >= 1")
        if not (0.0 <= self.beta < 0.5):
            raise ConfigError("sim.beta", "must lie in [0, 0.5)")
        if self.rho <= 0.0:
            raise ConfigError("sim.rho", "must be positive")
        if self.tau <= 0.0:
            raise ConfigError("sim.tau", "must be positive")
        if self.delta_h < 0.0:
            raise ConfigError("sim.delta_h", "must be non-negative")
        if self.capacity <= 0.0:
            raise ConfigError("sim.capacity", "must be positive")
        if self.horizon_slots < 1:
            raise ConfigError("sim.horizon_slots", "must be >= 1")
        if not self.honest_nodes:
            raise ConfigError("sim.beta", f"leaves no honest node of {self.n_nodes}")
        # a negative nu given is named as such, before it derives a c_tilde
        if self.nu is not None and self.nu < 0:
            raise ConfigError("sim.nu", "must be >= 0")
        nu, c_tilde = self.nu, self.c_tilde
        if nu is None and c_tilde is None:
            raise ConfigError("sim.nu", "one of nu or c_tilde is required")
        if nu is None:
            nu = round((self.delta_h + c_tilde / self.capacity) / self.tau) - 1
        if c_tilde is None:
            c_tilde = ((nu + 1) * self.tau - self.delta_h) * self.capacity
        else:
            # The analysis window and the bandwidth budget must describe the
            # same physical interval, up to one slot of rounding.
            lhs = (nu + 1) * self.tau
            rhs = self.delta_h + c_tilde / self.capacity
            if abs(lhs - rhs) > self.tau + 1e-9:
                raise ConfigError(
                    "sim.nu",
                    f"(nu+1)*tau = {lhs:g} disagrees with "
                    f"delta_h + c_tilde/capacity = {rhs:g} by more than one slot")
        if c_tilde < 0.0:
            raise ConfigError("sim.c_tilde", "must be non-negative: the window "
                              "(nu+1)*tau must cover delta_h")
        if nu < 0:
            raise ConfigError("sim.nu", "must be >= 0")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "c_tilde", c_tilde)


@dataclass(frozen=True)
class AttackConfig:
    """Adversary strategy selection and its knobs."""

    strategy: str = ATTACK_NONE
    spv_rate: float = 0.0
    partition_duration: float = 15.0   # seconds the network stays split
    run_after: float = field(init=False, default=4000.0)   # read by no run
    sacrifice_every: int = 0           # pos-teaser on SaPoS only: plant an
                                       # equivocation pair after every n-th
                                       # content release

    def __post_init__(self) -> None:
        _check_finite(self, "attack.")
        if self.strategy not in ATTACKS:
            raise ConfigError("attack.strategy", f"unknown strategy {self.strategy!r}")
        if self.spv_rate < 0.0:
            raise ConfigError("attack.spv_rate", "must be non-negative")
        if self.partition_duration < 0.0:
            raise ConfigError("attack.partition_duration", "must be non-negative")
        if self.sacrifice_every < 0:
            raise ConfigError("attack.sacrifice_every", "must be non-negative")


@dataclass(frozen=True)
class SaPoSParams:
    """Confirmation and proof-inclusion depths for the equivocation-blanking
    protocol, tied to the recurrence distance k_cp."""

    k_cp: int = 3
    k_conf: int = field(init=False)    # 6*k_cp + 1
    k_epf: int = field(init=False)     # 4*k_cp

    def __post_init__(self) -> None:
        _check_finite(self, "sapos.")
        if self.k_cp < 1:
            raise ConfigError("sapos.k_cp", "must be >= 1")
        object.__setattr__(self, "k_conf", 6 * self.k_cp + 1)
        object.__setattr__(self, "k_epf", 4 * self.k_cp)


@dataclass(frozen=True)
class TxGenConfig:
    """Deterministic transaction feed: `sigma` block-units per second arriving
    as fixed-size transactions, aggregated over a burst window."""

    sigma: float = 0.0
    burst_window: float = field(init=False, default=0.0)   # read by no run
    tx_size: float = 0.25       # fraction of one block

    def __post_init__(self) -> None:
        _check_finite(self, "txgen.")
        if self.sigma < 0.0:
            raise ConfigError("txgen.sigma", "must be non-negative")
        if not (0.0 < self.tx_size <= 1.0):
            raise ConfigError("txgen.tx_size", "must lie in (0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment family."""

    sim: SimParams = field(default_factory=SimParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    policy: str = POLICY_LONGEST_HEADER_CHAIN
    protocol: str = PROTOCOL_POW
    sapos: SaPoSParams = field(default_factory=SaPoSParams)
    txgen: TxGenConfig = field(default_factory=TxGenConfig)
    k_conf: int = field(init=False)  # confirmation depth: 2*k_cp+1 on
                                     # PoW/PoS, sapos.k_conf on SaPoS
    repeat: int = 1
    seed_stride: int = 1

    def __post_init__(self) -> None:
        _check_finite(self, "")
        if self.policy not in POLICIES:
            raise ConfigError("policy", f"unknown policy {self.policy!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError("protocol", f"unknown protocol {self.protocol!r}")
        if self.attack.strategy == ATTACK_POS_TEASER and self.protocol == PROTOCOL_POW:
            raise ConfigError("attack.strategy", "pos-teaser needs a PoS protocol")
        if self.repeat < 1:
            raise ConfigError("repeat", "must be >= 1")
        if self.seed_stride < 1:
            raise ConfigError("seed_stride", "must be >= 1")
        # SaPoS confirms at the depth Meta reports: a lower one could
        # confirm a block before its proof can land
        object.__setattr__(self, "k_conf",
                           self.sapos.k_conf if self.protocol == PROTOCOL_SAPOS
                           else 2 * self.sapos.k_cp + 1)
        if self.attack.sacrifice_every > 0 and not (
                self.attack.strategy == ATTACK_POS_TEASER
                and self.protocol == PROTOCOL_SAPOS):
            raise ConfigError("attack.sacrifice_every",
                              "only the pos-teaser on sapos plants sacrifices")


def _build(cls, data: Any, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path or "config", "expected a JSON object")
    inputs = {f.name: f.init for f in dataclasses.fields(cls)}
    written = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in inputs:
            raise ConfigError(where, "unknown field")
        sub = _NESTED.get((cls, key))
        written[key] = _build(sub, value, where) if sub else value
    try:
        built = cls(**{k: v for k, v in written.items() if inputs[k]})
    except TypeError as exc:
        raise ConfigError(path or "config", str(exc)) from exc
    for key, value in written.items():
        if not inputs[key] and value != getattr(built, key):
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"is computed as {getattr(built, key)!r}, not {value!r}")
    return built


_NESTED = {
    (ScenarioConfig, "sim"): SimParams,
    (ScenarioConfig, "attack"): AttackConfig,
    (ScenarioConfig, "sapos"): SaPoSParams,
    (ScenarioConfig, "txgen"): TxGenConfig,
}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse a ScenarioConfig from JSON-shaped data."""
    return _build(ScenarioConfig, data, "")


def read_config(path: str) -> dict:
    """The JSON object of the scenario config file at `path`, unparsed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a JSON object")
    return data


def scenario_from_json(path: str) -> ScenarioConfig:
    return scenario_from_dict(read_config(path))


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)
