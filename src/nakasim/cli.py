"""Command-line front end: run seeded scenarios, audit traces, and emit
CSV/JSONL artifacts.

Exit codes: 0 all audits pass, 2 an audit failed, 1 usage or config error.
Independent (config, seed) runs execute in parallel worker processes;
NAKASIM_THREADS caps the pool size.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import params as pm
from . import pivots
from . import security
from . import trace as tr
from .sim import RunMetrics, run_scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; keep 2 reserved for audit failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _workers(n_jobs: int) -> int:
    cap = os.environ.get("NAKASIM_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(n_jobs, limit))


def parse_grid(spec: str) -> list[float]:
    """Accept either a comma list '0.5,1,2' or a range 'lo:hi:step'
    (inclusive of hi up to float fuzz)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {spec!r}: want lo:hi:step")
        lo, hi, step = (float(x) for x in parts)
        if step <= 0 or hi < lo:
            raise ValueError(f"grid {spec!r}: need step > 0 and hi >= lo")
        n = int(round((hi - lo) / step))
        vals = [lo + k * step for k in range(n + 1)]
        if vals[-1] > hi + 1e-12:
            vals.pop()
        return vals
    try:
        return [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"grid {spec!r}: {exc}") from exc


BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_LEVEL = 0.95
BOOTSTRAP_SEED = 0


def bootstrap_ci(values) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of `values`: the central
    BOOTSTRAP_LEVEL of the means of BOOTSTRAP_RESAMPLES resamples, drawn
    from a generator seeded with BOOTSTRAP_SEED."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        return (float("nan"), float("nan"))
    if len(arr) == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    idx = rng.integers(0, len(arr), size=(BOOTSTRAP_RESAMPLES, len(arr)))
    means = arr[idx].mean(axis=1)
    tail = (1.0 - BOOTSTRAP_LEVEL) / 2.0
    return (float(np.quantile(means, tail)),
            float(np.quantile(means, 1.0 - tail)))


def _write_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    """Write `header` and `rows` to the file `out`, replaced atomically, or
    to stdout when `out` is not given."""
    tmp = f"{out}.tmp"
    with (open(tmp, "w", encoding="utf-8", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    if out:
        os.replace(tmp, out)


# ---------------------------------------------------------------------------
# workers (top level so they pickle)

def _run_job(job: tuple) -> dict:
    scenario, seed, trace_path = job
    metrics, run_trace = run_scenario(scenario, seed=seed,
                                      record_trace=trace_path is not None)
    if trace_path is not None:
        tr.write_jsonl(run_trace, trace_path)
    return metrics.to_dict()


def _run_jobs(jobs: list[tuple]) -> list[dict]:
    n = _workers(len(jobs))
    if n <= 1 or len(jobs) <= 1:
        return [_run_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(_run_job, jobs))


# ---------------------------------------------------------------------------
# subcommands

# metrics.csv columns: RunMetrics in field order, with the audits dict
# reported as its `clean` flag in a last column
_METRIC_FIELDS = [f.name for f in dataclasses.fields(RunMetrics)
                  if f.name != "audits"]


def _seeds(scenario: pm.ScenarioConfig, base: int | None) -> list[int]:
    """A scenario's `repeat` seeds, `seed_stride` apart from `base`, or from
    its `sim.seed` when `base` is None."""
    base = scenario.sim.seed if base is None else base
    return [base + i * scenario.seed_stride for i in range(scenario.repeat)]


def cmd_simulate(args) -> int:
    data = pm.read_config(args.config)
    scenario = pm.scenario_from_dict(data)
    seeds = _seeds(scenario, args.seed)
    os.makedirs(args.out, exist_ok=True)
    jobs = [(scenario, s,
             os.path.join(args.out, f"trace_seed{s}.jsonl")
             if not args.no_trace else None)
            for s in seeds]
    results = _run_jobs(jobs)

    rows = [[m[f] for f in _METRIC_FIELDS] + [m["audits"]["clean"]]
            for m in results]
    _write_csv(os.path.join(args.out, "metrics.csv"),
               _METRIC_FIELDS + ["audits_clean"], rows)

    growth = [m["lambda_grwth"] for m in results]
    lo, hi = bootstrap_ci(growth)
    summary = {
        "config": data,
        "seeds": seeds,
        "lambda_grwth_mean": float(np.mean(growth)),
        "lambda_grwth_ci95": [lo, hi],
        "audits_clean": all(m["audits"]["clean"] for m in results),
    }
    with open(os.path.join(args.out, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(seeds)} run(s), growth mean {summary['lambda_grwth_mean']:.4f} "
          f"ci95 [{lo:.4f}, {hi:.4f}], audits "
          f"{'clean' if summary['audits_clean'] else 'VIOLATED'}")
    return 0 if summary["audits_clean"] else 2


def _flag_or_meta(value, meta: dict, flag: str, *path: str):
    """An analyze flag's value, defaulting to the trace's Meta record."""
    if value is not None:
        return value
    value = meta
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    if value is None:
        raise ValueError(f"trace Meta has no {'.'.join(path)}; pass {flag}")
    return value


def cmd_analyze(args) -> int:
    run_trace = tr.read_jsonl(args.trace)
    meta = run_trace.meta
    nu = _flag_or_meta(args.nu, meta, "--nu", "nu")
    c_tilde = _flag_or_meta(args.c_tilde, meta, "--c-tilde", "c_tilde")
    kcp = _flag_or_meta(args.kcp, meta, "--kcp", "scenario", "sapos", "k_cp")
    report, series = pivots.analyze_trace(run_trace, nu, c_tilde, kcp)
    out = args.out or os.path.dirname(os.path.abspath(args.trace))
    os.makedirs(out, exist_ok=True)
    pivots.write_report(report, series,
                        os.path.join(out, "report.json"),
                        os.path.join(out, "series.csv"))
    w = report.windows
    print(f"indices={report.n_indices} good={report.n_good} "
          f"downloaded={report.n_downloaded} pp={len(report.pp_indices)} "
          f"cp={len(report.cp_indices)} "
          f"sliding={w.sliding_hit}/{w.sliding_total}")
    for a in report.audits:
        state = ("inconclusive" if a.inconclusive
                 else "pass" if a.passed else "FAIL")
        print(f"audit {a.name}: {state} ({a.checked} checked)")
    return 0 if report.passed else 2


def cmd_region(args) -> int:
    betas = parse_grid(args.beta_grid)
    rows = security.security_region(betas, args.capacity, args.delta_h)
    out_rows = [[r.beta, r.lambda_max, r.c_tilde_star, r.model,
                 r.lambda_max > 0.0] for r in rows]
    header = ["beta", "lambda_max", "c_tilde_star", "model", "secure"]
    _write_csv(args.out, header, out_rows)
    return 0


def _at_capacity(data: dict, capacity: float) -> pm.ScenarioConfig:
    """The scenario of the config object `data` with `sim.capacity` set to
    `capacity`; whichever of `nu` and `c_tilde` it fixes stays fixed."""
    sim = data.get("sim", {})
    if not isinstance(sim, dict):
        raise pm.ConfigError("sim", "expected a JSON object")
    return pm.scenario_from_dict({**data, "sim": {**sim, "capacity": capacity}})


def cmd_attack_frontier(args) -> int:
    data = pm.read_config(args.config)
    scenarios = [_at_capacity(data, cap)
                 for cap in parse_grid(args.capacity_grid)]
    jobs = [(scenario, s, None)
            for scenario in scenarios for s in _seeds(scenario, None)]
    runs = iter(_run_jobs(jobs))

    header = ["capacity", "attack", "spv_rate", "seeds", "lambda_grwth",
              "ci_lo", "ci_hi", "beta_threshold"]
    rows = []
    clean = True
    for scenario in scenarios:
        chunk = [next(runs) for _ in range(scenario.repeat)]
        growth = [m["lambda_grwth"] for m in chunk]
        clean = clean and all(m["audits"]["clean"] for m in chunk)
        mean = float(np.mean(growth))
        lo, hi = bootstrap_ci(growth)
        rows.append([scenario.sim.capacity, scenario.attack.strategy,
                     scenario.attack.spv_rate, scenario.repeat, mean, lo, hi,
                     security.beta_threshold(mean, chunk[0]["lambda_honest"])])
    _write_csv(args.out, header, rows)
    return 0 if clean else 2


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nakasim",
                description="Capacity-bounded longest-chain simulator")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run a scenario config")
    s.add_argument("--config", required=True, help="scenario JSON path")
    s.add_argument("--seed", type=int, default=None,
                   help="override the base seed")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--no-trace", action="store_true",
                   help="skip JSONL traces, metrics only")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("analyze", help="pivot/audit report for a trace")
    a.add_argument("--trace", required=True, help="trace JSONL path")
    a.add_argument("--nu", type=int, default=None,
                   help="default: the trace's Meta nu")
    a.add_argument("--c-tilde", type=float, default=None,
                   help="default: the trace's Meta c_tilde")
    a.add_argument("--kcp", type=int, default=None,
                   help="default: the trace's Meta scenario.sapos.k_cp")
    a.add_argument("--out", default=None, help="report directory")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("region", help="secure-rate frontier CSV")
    r.add_argument("--capacity", type=float, required=True)
    r.add_argument("--delta-h", type=float, required=True)
    r.add_argument("--beta-grid", required=True,
                   help="comma list or lo:hi:step")
    r.add_argument("--out", default=None, help="CSV path (default stdout)")
    r.set_defaults(func=cmd_region)

    f = sub.add_parser("attack-frontier",
                       help="measured growth and implied threshold per capacity")
    f.add_argument("--config", required=True,
                   help="scenario JSON path; its sim.capacity is replaced "
                        "by each grid value")
    f.add_argument("--capacity-grid", required=True,
                   help="comma list or lo:hi:step")
    f.add_argument("--out", default=None, help="CSV path (default stdout)")
    f.set_defaults(func=cmd_attack_frontier)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        print(exc.code, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (pm.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
