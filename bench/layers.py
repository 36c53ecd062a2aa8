"""Per-layer timing from outside the package: spans around calls into each
module's public functions, installed by patching class and module attributes
for the duration of one traced run and restored afterwards.

Spans nest. A span's self time is its duration minus the time of the spans
it encloses; a span nested in one of the same name (a hook calling another
hook) adds to neither the total time nor the call count of that name.
"""
from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

from nakasim import adversary, lottery, netenv, node, pivots, sim
from nakasim import trace as tr

ADVERSARY_HOOKS = ("on_adversary_bpo", "on_honest_block", "lead")

# metric name -> (kind, span name); kind "total" is inclusive seconds,
# "self" is self seconds, "calls" is outermost call count
_SPAN_METRICS = {
    "lottery.counts_s": ("total", "lottery.counts"),
    "lottery.assign_s": ("total", "lottery.assign"),
    "lottery.assign_calls": ("calls", "lottery.assign"),
    "sim.slots_visited": ("calls", "netenv.delivery"),
    "sim.loop_self_s": ("self", "sim.run"),
    "node.process_step_calls": ("calls", "node.process_step"),
    "node.process_step_self_s": ("self", "node.process_step"),
    "node.on_header_s": ("total", "node.on_header"),
    "node.on_header_calls": ("calls", "node.on_header"),
    "node.schedule_s": ("total", "node.schedule"),
    "node.schedule_calls": ("calls", "node.schedule"),
    "node.produce_s": ("total", "node.produce"),
    "netenv.request_s": ("total", "netenv.request"),
    "netenv.requests": ("calls", "netenv.request"),
    "netenv.delivery_s": ("total", "netenv.delivery"),
    "netenv.broadcast_s": ("total", "netenv.broadcast"),
    "adversary.hooks_s": ("total", "adversary.hooks"),
    "adversary.hook_calls": ("calls", "adversary.hooks"),
    "trace.emit_s": ("total", "trace.emit"),
    "trace.write_s": ("total", "trace.write"),
    "trace.read_s": ("total", "trace.read"),
}

# audit function -> metric stem; each gets <stem>_s and <stem>_checked
_PIVOT_STEPS = {
    "classify": "pivots.classify",
    "audit_chain_growth": "pivots.chain_growth",
    "audit_stabilization": "pivots.stabilization",
    "audit_budget": "pivots.budget",
    "audit_single_fetch": "pivots.single_fetch",
    "audit_capacity": "pivots.capacity",
    "audit_ledger_safety": "pivots.ledger_safety",
    "write_report": "pivots.report_write",
}


# every per-layer metric, in reporting order
PER_LAYER = (
    "lottery.counts_s", "lottery.assign_s", "lottery.assign_calls",
    "sim.slots_visited", "sim.loop_self_s",
    "node.process_step_calls", "node.process_step_self_s",
    "node.steps_per_fetch", "node.on_header_s", "node.on_header_calls",
    "node.schedule_s", "node.schedule_calls", "node.produce_s",
    "netenv.request_s", "netenv.requests", "netenv.fetched",
    "netenv.throttled", "netenv.unavailable", "netenv.fetch_ratio",
    "netenv.delivery_s", "netenv.broadcast_s",
    "adversary.hooks_s", "adversary.hook_calls",
    "trace.emit_s", "trace.events", "trace.write_s", "trace.read_s",
    "trace.bytes",
    *(f"{stem}_{x}" for stem in _PIVOT_STEPS.values()
      for x in ("s", "checked")),
)


class Tracer:
    """Accumulates span times (ns) and counts for one traced run."""

    def __init__(self):
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [name, start_ns, child_ns]
        self._depth: Counter = Counter()

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = perf_counter_ns() - start
        self.self_ns[name] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_ns[name] += dur
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out = {}
        for metric, (kind, span) in _SPAN_METRICS.items():
            if kind == "calls":
                out[metric] = self.calls[span]
            else:
                ns = self.total_ns if kind == "total" else self.self_ns
                out[metric] = ns[span] / 1e9
        for stem in _PIVOT_STEPS.values():
            out[f"{stem}_s"] = self.total_ns[stem] / 1e9
            out[f"{stem}_checked"] = self.counts[f"{stem}_checked"]
        requests = self.calls["netenv.request"]
        fetched = self.counts["netenv.fetched"]
        for outcome in netenv.RequestOutcome:
            out[f"netenv.{outcome.value}"] = self.counts[f"netenv.{outcome.value}"]
        out["netenv.fetch_ratio"] = fetched / requests if requests else 0.0
        out["node.steps_per_fetch"] = (self.calls["node.process_step"] / fetched
                                       if fetched else 0.0)
        out["trace.events"] = self.counts["trace.events"]
        out["trace.bytes"] = self.counts["trace.bytes"]
        return {k: out[k] for k in PER_LAYER}


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args)
        return result
    return wrapper


def _emit_spanned(tracer: Tracer, fn):
    # read_jsonl rebuilds a trace through emit; that time belongs to the read
    def wrapper(*args, **kwargs):
        if tracer.inside("trace.read"):
            return fn(*args, **kwargs)
        tracer.enter("trace.emit")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch span wrappers into the package while the block runs."""
    def count_outcome(result, _args):
        tracer.counts[f"netenv.{result[0].value}"] += 1

    def count_checked(stem):
        def after(result, args):
            if stem == "pivots.classify":
                checked = len(result)
            elif stem == "pivots.report_write":
                checked = len(args[1])      # series rows written
            else:
                checked = result.checked
            tracer.counts[f"{stem}_checked"] += checked
        return after

    patches = [
        (lottery.SlotSampler, "counts", "lottery.counts", None),
        (lottery.SlotSampler, "assign", "lottery.assign", None),
        (sim.Simulation, "run", "sim.run", None),
        (netenv.Environment, "deliveries_due", "netenv.delivery", None),
        (netenv.Environment, "request_content", "netenv.request", count_outcome),
        (netenv.Environment, "broadcast_header", "netenv.broadcast", None),
        (node.Node, "process_step", "node.process_step", None),
        (node.Node, "on_header", "node.on_header", None),
        (node.Node, "schedule_target", "node.schedule", None),
        (node.Node, "try_produce", "node.produce", None),
        (tr, "write_jsonl", "trace.write", None),
        (tr, "read_jsonl", "trace.read", None),
    ]
    for cls in vars(adversary).values():
        if isinstance(cls, type) and issubclass(cls, adversary.Strategy):
            patches += [(cls, hook, "adversary.hooks", None)
                        for hook in ADVERSARY_HOOKS if hook in vars(cls)]
    patches += [(pivots, fn, stem, count_checked(stem))
                for fn, stem in _PIVOT_STEPS.items()]

    saved = []
    try:
        for owner, attr, name, after in patches:
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _spanned(tracer, name, fn, after))
        fn = vars(tr.Trace)["emit"]
        saved.append((tr.Trace, "emit", fn))
        tr.Trace.emit = _emit_spanned(tracer, fn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
