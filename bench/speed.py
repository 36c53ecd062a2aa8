"""Host speed probe: rescales a run's times to a reference speed.

On a shared host the speed of a core drifts by up to 1.7x for minutes at a
time (other tenants), which moves every timing between runs far more than
the bounds the benchmark keeps. While a run measures, a SIGPROF handler runs
one of four fixed probes every 10 ms of CPU time and times it. The probes
resemble the package's work (dict and list traffic, small objects on a heap,
JSON round trips, numpy calls from Python) but no code under src/ runs in
them, so a change to the package cannot change their speed. `scale()` is
REF_ROUND_S over the time of one round of the four probes averaged over the
run: a time multiplied by it is in seconds at the reference speed. The
handler takes about 3% of the run, in traced and untraced runs alike.
"""
from __future__ import annotations

import heapq
import json
import signal
import time

import numpy as np

REF_ROUND_S = 0.001     # one round of the four probes at the reference speed
INTERVAL_S = 0.01       # CPU time between probes


def _dicts() -> int:
    table: dict[int, int] = {}
    queue: list[tuple[int, int]] = []
    for i in range(1500):
        key = i % 61
        table[key] = table.get(key, 0) + 1
        queue.append((i, key))
        if len(queue) > 32:
            queue.pop(0)
    return len(table)


class _Item:
    __slots__ = ("key", "order")


def _objects() -> int:
    items = [_Item() for _ in range(150)]
    for i, item in enumerate(items):
        item.key = i
        item.order = ((i * 7919) % 151, i)
    heap: list[tuple[int, int]] = []
    for item in items:
        heapq.heappush(heap, item.order)
    seen = set()
    while heap:
        seen.add(heapq.heappop(heap)[0])
    return len(seen)


def _json() -> int:
    records = [{"slot": i, "kind": "HeaderDelivered", "node": i % 20,
                "header": i * 7, "pushed": False} for i in range(25)]
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
             for r in records]
    return len([json.loads(line) for line in lines])


_SORTED = np.arange(0, 20_000, 3)


def _numpy() -> int:
    return sum(int(np.searchsorted(_SORTED, i * 97)) for i in range(150))


PROBES = (_dicts, _objects, _json, _numpy)


class SpeedProbe:
    """Context manager: samples the probes while the block runs."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in PROBES]
        self._next = 0

    def _run(self, k: int) -> None:
        t0 = time.perf_counter()
        PROBES[k]()
        self.samples[k].append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        self._run(self._next)
        self._next = (self._next + 1) % len(PROBES)

    def __enter__(self) -> "SpeedProbe":
        for k in range(len(PROBES)):    # every probe has a sample, however short the run
            self._run(k)
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def round_s(self) -> float:
        """Mean time of one round of the probes over the run."""
        return sum(sum(s) / len(s) for s in self.samples)

    def scale(self) -> float:
        return REF_ROUND_S / self.round_s()
