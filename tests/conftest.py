"""Shared builders: a single honest node wired to its own store, network
environment, and trace, plus small header-tree helpers; a trace row's
record and JSON line; and the slow pivot oracles that the walk form is
checked against."""
from __future__ import annotations

import json
import os

import numpy as np

from nakasim import netenv
from nakasim import node as nd
from nakasim import params as pm
from nakasim import pivots as pv
from nakasim import trace as tr
from nakasim.lottery import BpoId, HeaderStore
from nakasim.sim import AuditSink

# keep worker pools out of unit tests regardless of the host machine
os.environ.setdefault("NAKASIM_THREADS", "1")


_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def record(row) -> dict:
    """A trace row `(slot, kind, values)` as the record its JSON line
    holds: its fields by name, with its slot and kind."""
    slot, kind, values = row
    if type(values) is tuple:
        values = dict(zip(tr.LAYOUTS[kind], values))
    return {"slot": slot, "kind": kind, **values}


def fields(row) -> dict:
    """A trace row's fields by name, without its slot and kind."""
    data = record(row)
    del data["slot"], data["kind"]
    return data


def line(row) -> str:
    """A trace row's JSON line, without the newline: its record with
    sorted keys and no spaces, the form `trace.write_jsonl` writes."""
    return _LINE_ENCODER.encode(record(row))


def bpo(slot: int, node: int = 1, honest: bool = True, seq: int = 0) -> BpoId:
    return BpoId(slot, node, honest, seq)


class Rig:
    """One honest node under test, reporting to its own audit sink. Headers
    are minted straight into the shared store; tests deliver them and drive
    process_step by hand."""

    def __init__(self, rate=1.0, delay_slots=0,
                 policy=pm.POLICY_LONGEST_HEADER_CHAIN,
                 protocol=pm.PROTOCOL_POW, k_conf=2, k_epf=4, partition=None):
        self.store = HeaderStore(protocol, k_epf)
        self.env = netenv.Environment([0], rate, delay_slots,
                                      horizon_slots=10_000,
                                      partition=partition)
        self.trace = tr.Trace()
        self.sink = AuditSink(self.store)
        self.node = nd.Node(0, self.store, self.env, self.trace,
                            policy, k_conf, self.sink, nd.HonestFront())

    def grow(self, parent, slot, node_id=1, seq=0, txs=(), upload=True,
             honest=True, proofs=()):
        """Mint one child of `parent` under the store's protocol and (by
        default) upload its content."""
        content = self.store.make_content(txs=txs)
        header = self.store.extend(BpoId(slot, node_id, honest, seq),
                                   parent.id, content.commitment, proofs)
        if upload:
            self.env.upload_content(header, content)
        return header, content

    def chain(self, length, start_slot=1, parent=None, slot_step=1, **kw):
        """A straight chain of `length` blocks; returns the header list."""
        parent = parent if parent is not None else self.store.genesis
        out = []
        slot = start_slot
        for _ in range(length):
            header, _ = self.grow(parent, slot, **kw)
            out.append(header)
            parent = header
            slot += slot_step
        return out

    def deliver(self, headers, slot):
        for h in headers if isinstance(headers, (list, tuple)) else [headers]:
            self.node.on_header(h, slot)

    def step(self, slot, times=1):
        for _ in range(times):
            self.node.process_step(slot)


class MiniRun:
    """Hand-built trace with full control over productions and fetches; used
    to exercise the audits on known-good and doctored histories.  Every
    record it emits has all the fields of its kind's layout."""

    def __init__(self, nodes=(0, 1), horizon=60, capacity=10.0, tau=0.1,
                 policy=pm.POLICY_LONGEST_HEADER_CHAIN, protocol=pm.PROTOCOL_POW,
                 k_epf=None):
        self.trace = tr.Trace()
        self.trace.emit(0, tr.META, scenario={}, seed=0, nu=4, c_tilde=None,
                        tau=tau, capacity=capacity, horizon_slots=horizon,
                        honest_nodes=list(nodes), protocol=protocol,
                        policy=policy, k_epf=k_epf)
        self.next_id = 1
        self.height = {0: 0}
        self.tip: dict[int, int] = {}      # node -> its last recorded tip

    def produce(self, slot, parent=None, cls="honest", producer=0, h=1, a=0,
                bpo_seq=0, emit_bpo=True):
        """One production in `slot`; returns the new header id."""
        if parent is None:
            parent = self.next_id - 1 if self.next_id > 1 else 0
        if emit_bpo:
            self.busy(slot, h, a)
        hid = self.next_id
        self.next_id += 1
        self.height[hid] = self.height[parent] + 1
        self.trace.emit(slot, tr.BLOCK_PRODUCED, cls=cls, producer=producer,
                        header=hid, parent=parent, height=self.height[hid],
                        bpo_slot=slot, bpo_node=producer, bpo_seq=bpo_seq,
                        private=False)
        return hid

    def busy(self, slot, h=0, a=1):
        self.trace.emit(slot, tr.BPO, h=h, a=a, s=0, winners=[])

    def fetch(self, slot, node, header, paid=1.0):
        self.trace.emit(slot, tr.CONTENT_FETCHED, node=node, header=header,
                        via="request", paid=paid)

    def blank(self, slot, node, header):
        self.trace.emit(slot, tr.PRETEND_EMPTY, node=node, header=header)

    def switch(self, slot, node, tip, height=None):
        """Node `node` adopts `tip`, recorded at `height` (the tip's own
        height by default)."""
        old, self.tip[node] = self.tip.get(node, 0), tip
        self.trace.emit(slot, tr.CHAIN_SWITCHED, node=node, old=old, new=tip,
                        height=self.height[tip] if height is None else height,
                        switch=False)

    def ledger(self, slot, node, length, tip):
        self.trace.emit(slot, tr.LEDGER_OUTPUT, node=node, len=length, tip=tip)


def pivot_flags_interval(indicator) -> list[bool]:
    """Direct interval-form pivot test, O(n^3): the slow oracle that
    `pivots.pivot_flags_walk` is cross-checked against."""
    ind = list(indicator)
    n = len(ind)
    s = [0]
    for v in ind:
        s.append(s[-1] + (1 if v else -1))
    flags = []
    for k in range(1, n + 1):
        ok = ind[k - 1] == 1
        if ok:
            for i in range(0, k):
                for j in range(k, n + 1):
                    if s[j] - s[i] <= 0:
                        ok = False
                        break
                if not ok:
                    break
        flags.append(ok)
    return flags


def margin_check(good, i: int, j: int) -> tuple[int, int]:
    """For the index interval (i, j], return (good - bad, pivot count); the
    honest margin must cover the pivots whenever any pivot lies inside."""
    g = np.asarray(good, dtype=np.int64)
    flags = pv.pivot_flags_walk(g)
    gsum = int(g[i:j].sum())
    bad = (j - i) - gsum
    return gsum - bad, int(flags[i:j].sum())
