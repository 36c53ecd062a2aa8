"""Smoke test: every workload runs at a tiny horizon, untraced and traced,
and reports every metric BENCHMARK.json names.

    python3 -m pytest -q bench/test_smoke.py

Kept beside the benchmark, outside the package's test suite, because it
takes tens of seconds and times nothing.
"""
from __future__ import annotations

import json
import os
import shutil

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, as the benchmark uses."""
    path = run.WORK_DIR / f"smoke-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK_DIR.iterdir()):
        run.WORK_DIR.rmdir()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, traced, workdir):
    run._import_package()
    workload = workloads.WORKLOADS[name]
    measure = run.measure_layers if traced else run.measure_end_to_end
    sweep, metrics = measure(workload, workloads.DEFAULT_SEED, 0.0, workdir,
                             horizon=300)
    assert sweep.failed == 0
    assert sweep.attempted == (2 if traced else workload.sweep)
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_recorded_seeds_cover_each_default_sweep():
    expected = run.load_expected()
    for name, workload in workloads.WORKLOADS.items():
        seeds = workload.seeds(workloads.DEFAULT_SEED)
        assert sorted(map(int, expected[name]["seeds"])) == sorted(seeds)
