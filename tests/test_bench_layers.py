"""The benchmark's per-layer spans (bench/layers.py) patch package methods
by name for one traced run.  A change that renames or inlines a spanned
method blanks a per-layer metric without failing the run, so a short
traced run here checks that every simulate span still fires and that
every patched attribute is put back."""
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


def test_the_bench_spans_see_a_posspam_run_and_are_undone():
    layers = load_bench("layers")
    config = bench_workloads()["posspam"].config
    config["sim"].update(horizon_slots=200, seed=1)
    before = attributes()
    tracer = layers.Tracer()
    with layers.instrumented(tracer):
        during = attributes()
        sim.Simulation(pm.scenario_from_dict(config)).run()
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
