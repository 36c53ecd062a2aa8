"""Command-line behaviors: exit codes, artifact layout, and determinism."""
import csv
import dataclasses
import hashlib
import json

import pytest
from conftest import MiniRun
from test_trace_digests import FRONTIER_PIN, PINS

from nakasim import cli
from nakasim import params as pm
from nakasim import pivots
from nakasim import trace as tr
from nakasim.sim import RunMetrics, run_scenario


BASE_CONFIG = {
    "sim": {"n_nodes": 3, "beta": 0.0, "rho": 0.05, "tau": 0.1,
            "delta_h": 0.2, "capacity": 10.0, "c_tilde": 2.0,
            "horizon_slots": 400, "seed": 7},
    "repeat": 2,
}


def write_config(tmp_path, **overrides):
    cfg = {**BASE_CONFIG, **overrides}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_grid_forms():
    assert cli.parse_grid("0.5,1,2") == [0.5, 1.0, 2.0]
    assert cli.parse_grid("0:0.2:0.1") == pytest.approx([0.0, 0.1, 0.2])
    assert cli.parse_grid("1:1:1") == [1.0]
    with pytest.raises(ValueError):
        cli.parse_grid("1:2")
    with pytest.raises(ValueError):
        cli.parse_grid("2:1:0.5")
    with pytest.raises(ValueError):
        cli.parse_grid("a,b")


def test_bootstrap_ci():
    import math
    lo, hi = cli.bootstrap_ci([])
    assert math.isnan(lo) and math.isnan(hi)
    assert cli.bootstrap_ci([3.5]) == (3.5, 3.5)
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    lo, hi = cli.bootstrap_ci(values)
    assert lo < 3.0 < hi
    assert cli.bootstrap_ci(values) == (lo, hi)


def test_simulate_writes_artifacts_and_replays_bit_identically(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0

    t1, t2 = out1 / "trace_seed7.jsonl", out2 / "trace_seed7.jsonl"
    assert t1.exists() and (out1 / "trace_seed8.jsonl").exists()
    assert t1.read_bytes() == t2.read_bytes()

    with open(out1 / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [r["seed"] for r in rows] == ["7", "8"]
    assert all(r["audits_clean"] == "True" for r in rows)
    assert all(r["tip_evictions"].isdigit() for r in rows)

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["audits_clean"] is True
    assert summary["seeds"] == [7, 8]
    lo, hi = summary["lambda_grwth_ci95"]
    assert lo <= summary["lambda_grwth_mean"] <= hi


def test_summary_holds_the_config_as_written(tmp_path):
    """The summary's config, fed back to a command that sets the capacity,
    describes the same runs as the file: only the fields the file fixes."""
    written = {"sim": {"n_nodes": 8, "tau": 0.1, "delta_h": 0.2,
                       "c_tilde": 0.5, "beta": 0.45, "rho": 0.1,
                       "capacity": 1.0, "horizon_slots": 400, "seed": 1},
               "attack": {"strategy": "teaser"},
               "protocol": "pow", "policy": "longest-header-chain"}
    original = tmp_path / "scenario.json"
    original.write_text(json.dumps(written))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(original), "--out", str(run),
                     "--no-trace"]) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["config"] == written
    again = tmp_path / "again.json"
    again.write_text(json.dumps(summary["config"]))
    outputs = []
    for cfg in (original, again):
        out = tmp_path / f"{cfg.stem}.csv"
        assert cli.main(["attack-frontier", "--config", str(cfg),
                         "--capacity-grid", "1,2", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3


def test_worker_pool_writes_what_one_process_writes(tmp_path, monkeypatch):
    """Jobs carry their scenario to the worker processes: two workers write
    the bytes that one writes, for both commands that fan out."""
    cfg = write_config(tmp_path, attack={"strategy": "teaser"},
                       sim={**BASE_CONFIG["sim"], "beta": 0.3})
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("NAKASIM_THREADS", threads)
        run = tmp_path / f"run{threads}"
        assert cli.main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        frontier = run / "frontier.csv"
        assert cli.main(["attack-frontier", "--config", cfg,
                         "--capacity-grid", "0.5,1,2",
                         "--out", str(frontier)]) == 0
        outputs[threads] = {p.name: p.read_bytes()
                            for p in sorted(run.iterdir())}
    assert sorted(outputs["1"]) == [
        "frontier.csv", "metrics.csv", "summary.json",
        "trace_seed7.jsonl", "trace_seed8.jsonl"]
    assert outputs["1"] == outputs["2"]


def test_simulate_no_trace(tmp_path):
    cfg = write_config(tmp_path, repeat=1)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--no-trace"]) == 0
    assert not list(out.glob("trace_*.jsonl"))
    assert (out / "metrics.csv").exists()


def test_metrics_csv_has_a_column_per_run_metric(tmp_path):
    """The header is RunMetrics' fields in order, with the audits dict
    reported as audits_clean, and the row holds the seed's metrics."""
    cfg = write_config(tmp_path, repeat=1)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--no-trace"]) == 0
    with open(out / "metrics.csv") as fh:
        header, row = list(csv.reader(fh))
    names = [f.name for f in dataclasses.fields(RunMetrics)
             if f.name != "audits"]
    assert header == names + ["audits_clean"]
    metrics, _ = run_scenario(pm.scenario_from_json(cfg), record_trace=False)
    assert row == ([str(getattr(metrics, n)) for n in names]
                   + [str(metrics.audits["clean"])])


def test_analyze_reports_and_exits_clean(tmp_path):
    cfg = write_config(tmp_path, repeat=1)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rc = cli.main(["analyze", "--trace", str(out / "trace_seed7.jsonl"),
                   "--nu", "3", "--c-tilde", "2.0", "--kcp", "2",
                   "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    with open(out / "series.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + report["indices"]


def test_analyze_defaults_from_meta(tmp_path):
    cfg = write_config(tmp_path, repeat=1)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = str(out / "trace_seed7.jsonl")
    meta = tr.read_jsonl(trace).meta
    explicit, defaulted, override = (tmp_path / d for d in ("e", "d", "o"))
    assert cli.main(["analyze", "--trace", trace, "--nu", str(meta["nu"]),
                     "--c-tilde", str(meta["c_tilde"]), "--kcp", "3",
                     "--out", str(explicit)]) == 0
    assert cli.main(["analyze", "--trace", trace, "--out", str(defaulted)]) == 0
    assert (defaulted / "report.json").read_bytes() == \
        (explicit / "report.json").read_bytes()
    # an explicit flag still wins over its default
    assert cli.main(["analyze", "--trace", trace, "--kcp", "5",
                     "--out", str(override)]) == 0
    report = json.loads((override / "report.json").read_text())
    assert (report["nu"], report["c_tilde"], report["k_cp"]) == \
        (meta["nu"], meta["c_tilde"], 5)


def test_analyze_exits_one_when_meta_lacks_a_default(tmp_path, capsys):
    run = MiniRun(nodes=(0, 1), horizon=40)   # Meta: nu 4, no c_tilde/k_cp
    run.produce(2, producer=0)
    path = str(tmp_path / "mini.jsonl")
    tr.write_jsonl(run.trace, path)
    out = ["--out", str(tmp_path)]
    assert cli.main(["analyze", "--trace", path, *out]) == 1
    assert "c_tilde; pass --c-tilde" in capsys.readouterr().err
    assert cli.main(["analyze", "--trace", path, "--c-tilde", "2", *out]) == 1
    assert "scenario.sapos.k_cp; pass --kcp" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # node 1 missed the block without spending its budget elsewhere
    assert cli.main(["analyze", "--trace", path, "--c-tilde", "2",
                     "--kcp", "1", *out]) == 2
    assert json.loads((tmp_path / "report.json").read_text())["nu"] == 4


def test_analyze_flags_doctored_trace(tmp_path):
    run = MiniRun(nodes=(0, 1), horizon=40)
    hid = run.produce(2, producer=0)
    run.fetch(3, 1, hid)
    run.switch(3, 0, hid)   # node 1 never adopts: chain growth fails
    path = tmp_path / "bad.jsonl"
    tr.write_jsonl(run.trace, str(path))
    rc = cli.main(["analyze", "--trace", str(path), "--nu", "4",
                   "--c-tilde", "2.0", "--kcp", "1", "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {a["name"] for a in report["audits"] if not a["passed"]
              and not a["inconclusive"]}
    assert "chain-growth" in failed


@pytest.mark.parametrize("kind, field", [
    (tr.BLOCK_PRODUCED, "height"), (tr.CONTENT_FETCHED, "paid"),
    (tr.BPO, "s"), (tr.LEDGER_OUTPUT, "node"),
    (tr.META, "horizon_slots"), (tr.META, "honest_nodes"),
    (tr.META, "capacity"), (tr.META, "tau")])
def test_analyze_names_a_missing_field_in_one_error_line(tmp_path, capsys,
                                                         kind, field):
    """A trace edited by hand to drop a field that the analysis needs
    exits 1 with one `error:` line naming the line or the Meta field; no
    default stands in for the field."""
    run = MiniRun(nodes=(0, 1), horizon=40)
    hid = run.produce(2, producer=0)
    run.fetch(3, 1, hid)
    run.ledger(4, 0, 1, hid)
    path = tmp_path / "edited.jsonl"
    tr.write_jsonl(run.trace, str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines)
              if json.loads(text)["kind"] == kind)
    record = json.loads(lines[at])
    del record[field]
    lines[at] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["analyze", "--trace", str(path), "--c-tilde", "2",
                     "--kcp", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    if kind == tr.META:
        assert err == f"error: trace Meta has no {field}\n"
    else:
        assert err.startswith(f"error: {path}:{at + 1}: {kind} takes the "
                              f"fields ")
        assert err.endswith(f": missing {field}\n") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("edit, message", [
    ("drop slot", "missing 'slot'"),
    ("drop kind", "missing 'kind'"),
    ("rewind", "trace slot went backwards: 1 after 3")])
def test_analyze_names_an_unreadable_record_in_one_error_line(
        tmp_path, capsys, edit, message):
    """A record without its slot or kind, or with a slot before the one of
    the record above it, exits 1 with one `error:` line naming the line,
    not with the reader's traceback."""
    run = MiniRun(nodes=(0, 1), horizon=40)
    hid = run.produce(2, producer=0)
    run.fetch(3, 1, hid)
    path = tmp_path / "edited.jsonl"
    tr.write_jsonl(run.trace, str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[-1])      # the fetch, at slot 3
    if edit == "rewind":
        lines.append(json.dumps({**record, "slot": 1}))
    else:
        del record[edit.split()[1]]
        lines[-1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["analyze", "--trace", str(path), "--c-tilde", "2",
                     "--kcp", "1", "--out", str(tmp_path)]) == 1
    at = len(lines)
    assert capsys.readouterr().err == f"error: {path}:{at}: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--kcp", "0"], "k_cp must be >= 1, got 0"),
    (["--kcp", "-2"], "k_cp must be >= 1, got -2"),
    (["--nu", "-5"], "nu must be >= 0, got -5"),
    (["--c-tilde", "-1"], "c_tilde must be >= 0, got -1.0")])
def test_analyze_rejects_parameters_out_of_bounds(tmp_path, capsys,
                                                  monkeypatch, flags,
                                                  message):
    """The analysis parameters are held to the bounds a config enforces
    before any pass over the trace: k_cp 0 would step the recurrence's
    windows by nothing and never return, and k_cp -2 indexed out of
    range.  Each exits 1 with one `error:` line."""
    run = MiniRun(nodes=(0, 1, 2), horizon=400)
    hid = run.produce(2, producer=0)
    run.fetch(3, 1, hid)
    path = str(tmp_path / "mini.jsonl")
    tr.write_jsonl(run.trace, path)

    def classify(*args):
        pytest.fail("the trace was classified")
    monkeypatch.setattr(pivots, "classify", classify)
    args = {"--nu": "4", "--c-tilde": "2", "--kcp": "1"}
    args.update(zip(flags[::2], flags[1::2]))
    argv = [x for pair in args.items() for x in pair]
    assert cli.main(["analyze", "--trace", path, *argv,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_region_csv(tmp_path, capsys):
    out = tmp_path / "region.csv"
    rc = cli.main(["region", "--capacity", "1.0", "--delta-h", "0.0",
                   "--beta-grid", "0,0.25,0.5", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # two models per beta
    ours = [r for r in rows if r["model"] == "bounded-capacity"]
    assert [r["secure"] for r in ours] == ["True", "True", "False"]

    assert cli.main(["region", "--capacity", "1.0", "--delta-h", "0.0",
                     "--beta-grid", "0.1"]) == 0
    assert "beta,lambda_max" in capsys.readouterr().out


def test_attack_frontier_smoke(tmp_path):
    cfg = write_config(tmp_path, attack={"strategy": "private"},
                       sim={**BASE_CONFIG["sim"], "beta": 0.3,
                            "horizon_slots": 600})
    out = tmp_path / "frontier.csv"
    rc = cli.main(["attack-frontier", "--config", cfg,
                   "--capacity-grid", "1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert (rows[0]["capacity"], rows[0]["attack"], rows[0]["seeds"]) == \
        ("1.0", "private", "2")
    assert float(rows[0]["beta_threshold"]) > 0.0


# The frontier's scenario before it was read from a config: PoW,
# longest-header-chain, lambda_h = 1 (rho = lambda_h * tau / (1 - beta)),
# seeds 0, 1 and 2.
FRONTIER_DEFAULTS = {
    "sim": {"n_nodes": 20, "beta": 0.45, "rho": 0.18181818181818182,
            "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
            "horizon_slots": 2000, "seed": 0},
    "attack": {"strategy": "teaser", "spv_rate": 0.0},
    "repeat": 3,
}


def test_attack_frontier_output_is_pinned(tmp_path):
    """The teaser frontier of the former defaults, as the command wrote it
    when it took the scenario as flags."""
    path = tmp_path / "frontier.json"
    path.write_text(json.dumps(FRONTIER_DEFAULTS))
    out = tmp_path / "frontier.csv"
    assert cli.main(["attack-frontier", "--config", str(path),
                     "--capacity-grid", "0.5,1,2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0.5,teaser,0.0,3,0.21,0.205,0.215,0.17355371900826447"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        PINS[FRONTIER_PIN]["csv_sha256"]


def test_equivocating_teases_slow_plain_pos_more_than_sapos(tmp_path):
    """Half of the paper's PoS claim: at C = 2 the equivocating tease
    holds plain PoS to a lower mean growth than the blanking protocol."""
    growth = {}
    for protocol in (pm.PROTOCOL_POS, pm.PROTOCOL_SAPOS):
        cfg = write_config(
            tmp_path, protocol=protocol, repeat=3,
            attack={"strategy": pm.ATTACK_POS_TEASER},
            sim={"n_nodes": 20, "beta": 0.3, "rho": 0.1, "tau": 0.1,
                 "delta_h": 0.2, "c_tilde": 0.5, "horizon_slots": 3000,
                 "seed": 1})
        out = tmp_path / f"{protocol}.csv"
        assert cli.main(["attack-frontier", "--config", cfg,
                         "--capacity-grid", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            growth[protocol] = float(next(csv.DictReader(fh))["lambda_grwth"])
    assert growth[pm.PROTOCOL_POS] < growth[pm.PROTOCOL_SAPOS]


def test_attack_frontier_config_errors_exit_one(tmp_path, capsys):
    # nu and c_tilde both fixed agree at C = 1 but not at C = 0.1
    cfg = write_config(tmp_path, sim={"tau": 0.1, "delta_h": 0.2, "nu": 5,
                                      "c_tilde": 0.5})
    assert cli.main(["attack-frontier", "--config", cfg,
                     "--capacity-grid", "1,0.1"]) == 1
    assert "sim.nu" in capsys.readouterr().err
    cfg = write_config(tmp_path, attack={"strategy": pm.ATTACK_POS_TEASER})
    assert cli.main(["attack-frontier", "--config", cfg,
                     "--capacity-grid", "1"]) == 1
    assert "attack.strategy" in capsys.readouterr().err
    # the capacity is set on the file's objects, so both must be objects
    path = tmp_path / "scenario.json"
    for data, name in (([1], str(path)), ({"sim": 3}, "sim")):
        path.write_text(json.dumps(data))
        assert cli.main(["attack-frontier", "--config", str(path),
                         "--capacity-grid", "1"]) == 1
        assert f"{name}: expected a JSON object" in capsys.readouterr().err


def test_usage_and_config_errors_exit_one(tmp_path, capsys):
    assert cli.main(["simulate", "--config"]) == 1       # missing value
    assert cli.main(["analyze", "--nope"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sim": {"beta": 0.7, "c_tilde": 1.0}}))
    assert cli.main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "sim.beta" in err
