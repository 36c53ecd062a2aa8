"""The benchmark's per-layer spans (bench/layers.py) patch package methods
by name for one traced run.  A change that renames or inlines a spanned
method blanks a per-layer metric without failing the run, so a short
traced run here checks that every simulate span and every pivots step
still fires, that each step counts what it checked, that the request
outcomes add up to the requests and the fetches to the environment's
count, and that every patched attribute is put back."""
from nakasim import adversary, lottery, netenv, node, pivots, sim
from nakasim import params as pm
from nakasim import trace as tr
from test_trace_digests import bench_workloads, load_bench

# the spans a simulate run enters, by name in layers.py
SIMULATE_SPANS = ("lottery.counts", "lottery.assign", "sim.run",
                  "netenv.delivery", "netenv.request", "netenv.broadcast",
                  "node.process_step", "node.on_header", "node.schedule",
                  "node.produce", "adversary.hooks", "trace.emit")


def patched_owners() -> list:
    """Every class and module that layers.py patches."""
    strategies = [cls for cls in vars(adversary).values()
                  if isinstance(cls, type)
                  and issubclass(cls, adversary.Strategy)]
    return [lottery.SlotSampler, sim.Simulation, netenv.Environment,
            node.Node, tr, tr.Trace, pivots, *strategies]


def attributes() -> dict:
    return {(owner, name): value for owner in patched_owners()
            for name, value in vars(owner).items()}


# pivots step -> the name of the audit whose `checked` it counts
AUDIT_OF_STEP = {
    "audit_chain_growth": "chain-growth",
    "audit_stabilization": "cp-stabilization",
    "audit_budget": "download-budget",
    "audit_single_fetch": "single-fetch",
    "audit_capacity": "capacity",
    "audit_ledger_safety": "ledger-safety",
}


def test_the_bench_spans_see_a_posspam_run_and_are_undone(tmp_path):
    layers = load_bench("layers")
    config = bench_workloads()["posspam"].config
    config["sim"].update(horizon_slots=200, seed=1)
    before = attributes()
    tracer = layers.Tracer()
    with layers.instrumented(tracer):
        during = attributes()
        simulation = sim.Simulation(pm.scenario_from_dict(config))
        simulation.run()
        meta = simulation.trace.meta
        report, series = pivots.analyze_trace(simulation.trace, meta["nu"],
                                              meta["c_tilde"], 3)
        pivots.write_report(report, series, str(tmp_path / "report.json"),
                            str(tmp_path / "series.csv"))
    assert attributes() == before
    patched = {key for key, value in during.items() if value is not before[key]}
    assert (node.Node, "on_header") in patched
    assert (netenv.Environment, "request_content") in patched
    metrics = tracer.metrics()
    for name in ("netenv.requests", "node.on_header_calls",
                 "sim.slots_visited"):
        assert metrics[name] > 0, name
    assert {span: tracer.calls[span] for span in SIMULATE_SPANS
            if not tracer.calls[span]} == {}
    # every request is decided inside the spanned `request_content`, and
    # the nodes count each fetch it returns
    assert (metrics["netenv.fetched"] + metrics["netenv.throttled"]
            + metrics["netenv.unavailable"]) == metrics["netenv.requests"]
    assert metrics["netenv.fetched"] == sum(
        n.fetches for n in simulation.nodes)

    # every pivots step ran once and counted what it checked
    assert set(layers._PIVOT_STEPS) == {"classify", "write_report",
                                        *AUDIT_OF_STEP}
    assert {stem: tracer.calls[stem] for stem in layers._PIVOT_STEPS.values()
            if tracer.calls[stem] != 1} == {}
    checked = {a.name: a.checked for a in report.audits}
    rows = len((tmp_path / "series.csv").read_text().splitlines()) - 1
    want = {"classify": len(series), "write_report": rows,
            **{step: checked[name] for step, name in AUDIT_OF_STEP.items()}}
    assert {step: metrics[f"{stem}_checked"]
            for step, stem in layers._PIVOT_STEPS.items()} == want
    assert len(series) > 0 and checked["single-fetch"] > 0
