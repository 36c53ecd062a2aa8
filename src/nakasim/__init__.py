"""Discrete-slot simulator and security calculator for longest-chain
consensus when every node can process at most C blocks per second.

The package has three layers: the execution model (`lottery`, `netenv`,
`node`, `adversary`, `sim`), the trace analysis (`trace`, `pivots`), and
the closed-form calculations (`security`).  `cli` glues them into
scenario runs and CSV/JSONL artifacts.
"""
from .params import (
    AttackConfig,
    ConfigError,
    SaPoSParams,
    ScenarioConfig,
    SimParams,
    TxGenConfig,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
)
from .lottery import (
    BlockHeader,
    BpoId,
    Content,
    EquivocationProof,
    HeaderStore,
    ReusedBpo,
    SlotSampler,
)
from .sim import RunMetrics, Simulation, run_scenario
from .security import (
    InsecureRegime,
    MaxRateResult,
    beta_threshold,
    max_rate,
    p_good,
    security_region,
)
from .pivots import PivotReport, analyze_trace

__all__ = [
    "AttackConfig", "ConfigError", "SaPoSParams", "ScenarioConfig",
    "SimParams", "TxGenConfig", "scenario_from_dict", "scenario_from_json",
    "scenario_to_dict",
    "BlockHeader", "BpoId", "Content", "EquivocationProof", "HeaderStore",
    "ReusedBpo", "SlotSampler",
    "RunMetrics", "Simulation", "run_scenario",
    "InsecureRegime", "MaxRateResult", "beta_threshold", "max_rate",
    "p_good", "security_region",
    "PivotReport", "analyze_trace",
]

__version__ = "0.1.0"
