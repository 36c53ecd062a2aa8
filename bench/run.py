"""Benchmark for `nakasim simulate` + `nakasim analyze`, one seed at a time.

    python3 bench/run.py --workload tease --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src. A run
sweeps the workload's simulation seeds (see workloads.py) through the same
library calls the CLI makes: scenario_from_dict -> Simulation -> run ->
write_jsonl, then read_jsonl -> analyze_trace -> write_report. Every seed's
trace and report are checked (expected.json, README.md).

Times are reported in seconds at a reference host speed (speed.py); the
table also prints the wall times. --trace 0 reports the end-to-end metrics
of untraced runs. --trace 1 runs the sweep's first seed untraced and then
traced with spans from layers.py, and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH / "expected.json"
WORK_DIR = ROOT / ".bench_work"

# one single-threaded process, whatever numpy was built with
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if (SRC / "nakasim" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))

# Simulation constructions per seed in untraced runs; setup_s is their median
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "simulate_s": "s", "analyze_s": "s",
                    "seed_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    """Import nakasim from this checkout's src/, never from elsewhere."""
    if not (SRC / "nakasim" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'nakasim'}; "
                         "run from a full checkout")
    import nakasim
    if Path(nakasim.__file__).resolve().parent != SRC / "nakasim":
        raise SystemExit(f"error: imported nakasim from {nakasim.__file__}, "
                         f"not {SRC}")


@dataclass
class SeedRun:
    seed: int
    setup_s: list = field(default_factory=list)
    simulate_s: float = 0.0
    analyze_s: float = 0.0
    trace_sha256: str = ""
    report_sha256: str = ""
    verdicts: dict = field(default_factory=dict)
    sink_clean: bool = False
    events: int = 0
    trace_bytes: int = 0

    @property
    def seed_s(self) -> float:
        return statistics.median(self.setup_s) + self.simulate_s + self.analyze_s

    def outputs(self) -> dict:
        return {"trace_sha256": self.trace_sha256,
                "report_sha256": self.report_sha256,
                "verdicts": self.verdicts, "sink_clean": self.sink_clean}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _verdict(audit) -> str:
    return ("inconclusive" if audit.inconclusive
            else "pass" if audit.passed else "FAIL")


def run_seed(workload, seed: int, workdir: Path,
             setup_repeats: int = 1, horizon: int | None = None) -> SeedRun:
    """One seed through simulate and analyze, as the CLI runs them."""
    from nakasim import params as pm
    from nakasim import pivots
    from nakasim import trace as tr
    from nakasim.sim import Simulation

    config = copy.deepcopy(workload.config)
    if horizon is not None:
        config["sim"]["horizon_slots"] = horizon
    trace_path = workdir / "trace.jsonl"
    report_path = workdir / "report.json"
    out = SeedRun(seed)
    gc.collect()

    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        scenario = pm.scenario_from_dict(config)
        simulation = Simulation(scenario, seed=seed)
        out.setup_s.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    simulation.run()
    tr.write_jsonl(simulation.trace, str(trace_path))
    out.simulate_s = time.perf_counter() - t0
    out.events = len(simulation.trace)
    out.sink_clean = simulation.sink.clean
    del simulation
    gc.collect()

    t0 = time.perf_counter()
    run_trace = tr.read_jsonl(str(trace_path))
    meta = run_trace.meta
    report, series = pivots.analyze_trace(run_trace, meta["nu"],
                                          meta["c_tilde"], scenario.sapos.k_cp)
    pivots.write_report(report, series, str(report_path),
                        str(workdir / "series.csv"))
    out.analyze_s = time.perf_counter() - t0

    out.verdicts = {a.name: _verdict(a) for a in report.audits}
    out.trace_sha256 = _sha256(trace_path)
    out.report_sha256 = _sha256(report_path)
    out.trace_bytes = trace_path.stat().st_size
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, run: SeedRun, expected: dict | None,
          full_horizon: bool = True) -> list[str]:
    """Problems with one seed's outputs; `expected` is its recorded entry.
    The workload's verdicts hold at its own horizon, not at a shortened one."""
    problems = []
    for name, state in run.verdicts.items():
        allowed = workload.verdicts.get(name)
        if full_horizon and allowed is not None and state not in allowed:
            problems.append(f"audit {name} is {state}, expected one of "
                            f"{sorted(allowed)}")
    if not run.sink_clean:
        problems.append("AuditSink is not clean")
    if expected is not None:
        for key, want in expected.items():
            got = run.outputs()[key]
            if got != want:
                problems.append(f"{key} {got} differs from recorded {want}")
    return problems


class Sweep:
    """Runs seeds, checks each, and keeps the runs that passed."""

    def __init__(self, workload, workdir: Path, horizon: int | None):
        self.workload = workload
        self.workdir = workdir
        self.horizon = horizon
        recorded = (load_expected().get(workload.name, {}).get("seeds", {})
                    if horizon is None else {})
        self.recorded = {int(s): v for s, v in recorded.items()}
        self.first: dict[int, SeedRun] = {}
        self.runs: dict[int, list[SeedRun]] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, seed: int, setup_repeats: int = 1, label: str = "") -> SeedRun | None:
        self.attempted += 1
        try:
            run = run_seed(self.workload, seed, self.workdir, setup_repeats,
                           self.horizon)
        except Exception:   # a raising seed is a failed operation, not a crash
            traceback.print_exc()
            print(f"seed {seed}{label}: FAILED with an exception")
            self.failed += 1
            return None
        problems = check(self.workload, run, self.recorded.get(seed),
                         full_horizon=self.horizon is None)
        first = self.first.setdefault(seed, run)
        if run.outputs() != first.outputs():
            problems.append("outputs differ from this seed's first run")
        status = ("recorded, matches" if seed in self.recorded
                  else "not recorded")
        print(f"seed {seed}{label}: setup {statistics.median(run.setup_s):.4f}s "
              f"simulate {run.simulate_s:.3f}s analyze {run.analyze_s:.3f}s "
              f"events {run.events} trace {run.trace_sha256[:16]} "
              f"report {run.report_sha256[:16]} "
              f"verdicts {','.join(f'{k}={v}' for k, v in run.verdicts.items())} "
              f"[{status if not problems else 'FAILED: ' + '; '.join(problems)}]")
        if problems:
            self.failed += 1
            return None
        self.runs.setdefault(seed, []).append(run)
        return run


def _sweep_mean(runs: dict[int, list[SeedRun]], attr: str) -> float:
    """Mean over the sweep's seeds of each seed's median over its repeats."""
    return statistics.fmean(statistics.median(getattr(r, attr) for r in rs)
                            for rs in runs.values())


def measure_end_to_end(workload, seed: int, seconds: float, workdir: Path,
                       horizon: int | None = None) -> tuple[Sweep, dict]:
    """Untraced: one pass over the sweep, then repeats while time is left."""
    sweep = Sweep(workload, workdir, horizon)
    seeds = workload.seeds(seed)
    start = time.perf_counter()
    cost: dict[int, float] = {}
    for s in seeds:
        t0 = time.perf_counter()
        sweep.run(s, SETUP_REPEATS)
        cost[s] = time.perf_counter() - t0
    i = 0
    while time.perf_counter() - start + cost[seeds[i]] <= seconds:
        sweep.run(seeds[i], SETUP_REPEATS, label=" (repeat)")
        i = (i + 1) % len(seeds)
    if not sweep.runs:
        return sweep, {}
    setups = [x for rs in sweep.runs.values() for r in rs for x in r.setup_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "simulate_s": _sweep_mean(sweep.runs, "simulate_s"),
        "analyze_s": _sweep_mean(sweep.runs, "analyze_s"),
        "seed_s": _sweep_mean(sweep.runs, "seed_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return sweep, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.bytes":
        return "bytes"
    if name.endswith(("_ratio", "_per_fetch")):
        return "ratio"
    return "count"


def measure_layers(workload, seed: int, seconds: float, workdir: Path,
                   horizon: int | None = None) -> tuple[Sweep, dict]:
    """Traced: the sweep's first seed untraced then traced, repeated while
    time is left; per-layer times are medians, counts must repeat exactly."""
    import layers

    sweep = Sweep(workload, workdir, horizon)
    s = workload.seeds(seed)[0]
    plain, traced, samples = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        a = sweep.run(s, label=" (untraced)")
        tracer = layers.Tracer()
        with layers.instrumented(tracer):
            b = sweep.run(s, label=" (traced)")
        if a is None or b is None:
            break
        tracer.counts["trace.events"] = b.events
        tracer.counts["trace.bytes"] = b.trace_bytes
        sample = tracer.metrics()
        counts = {k: v for k, v in sample.items() if layer_unit(k) != "s"}
        if samples and counts != {k: samples[0][k] for k in counts}:
            print(f"seed {s} (traced): FAILED: per-layer counts differ "
                  "between repeats")
            sweep.failed += 1
            break
        plain.append(a)
        traced.append(b)
        samples.append(sample)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    if not samples:
        return sweep, {}
    metrics = {k: statistics.median(x[k] for x in samples) for k in samples[0]}
    for phase in ("simulate_s", "analyze_s"):
        metrics[f"trace_overhead.{phase}"] = (
            statistics.median(getattr(r, phase) for r in traced)
            - statistics.median(getattr(r, phase) for r in plain))
    return sweep, {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in metrics.items()}


def rescale(metrics: dict, scale: float) -> dict:
    """Times in seconds at the reference speed (speed.py); others as they are."""
    return {k: {"value": m["value"] * scale if m["unit"] == "s" else m["value"],
                "unit": m["unit"]} for k, m in metrics.items()}


def print_table(metrics: dict, wall: dict, sweep: Sweep) -> None:
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        raw = f"  (wall {wall[name]['value']:.6g})" if m["unit"] == "s" else ""
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}{raw}")
    print(f"  {'failed_frac':<{width}}  {sweep.failed / sweep.attempted:.6g} "
          f"({sweep.failed} of {sweep.attempted} seed runs)")


def main(argv=None) -> int:
    import workloads
    from speed import SpeedProbe

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    _import_package()
    workload = workloads.WORKLOADS[args.workload]

    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        print(f"workload {workload.name}: sweep {workload.seeds(args.seed)}, "
              f"{'traced' if args.trace else 'untraced'}, {args.seconds:g}s")
        if workload.reason:
            print(f"expected FAIL verdicts: {workload.reason}")
        with SpeedProbe() as probe:
            sweep, wall = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    if not wall:
        print("error: no seed ran cleanly; no metrics", file=sys.stderr)
        return 1
    metrics = rescale(wall, probe.scale())
    print(f"speed probe: one round {probe.round_s() * 1e3:.4f} ms, times "
          f"scaled by {probe.scale():.4f} to the reference speed")
    print_table(metrics, wall, sweep)
    print(json.dumps({"correct": sweep.failed == 0,
                      "attempted": sweep.attempted, "failed": sweep.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
