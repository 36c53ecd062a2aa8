"""Deterministic slot-driven event loop tying lottery, network, nodes and
adversary together.

Slot order: due header deliveries, lottery draws and block production,
adversary reactions, then node processing against this slot's budget.
A slot's wins go to three producers: honest nodes (`_honest_produce`),
the adversary strategy (`Strategy.on_adversary_bpo`) and header-only SPV
miners (`_spv_produce`).  All three mint through `HeaderStore.extend`: the
store is built with the run's protocol and k_epf, and owns its header
rules.  A block's class (`producer_class`) is read from its header.
The loop visits only slots where something happens: a lottery win, a queued
delivery, the partition heal, or a node's wake slot.  The lottery is drawn
before the run, which walks its busy slots with a cursor.  A node is
stepped only in slots where it is due; the `node` module docstring gives
the events that make it due (`Node.wake`).  The slots a throttled node
slept through are settled just before its next step and at the horizon.
Transactions come from one feed shared by every node, so they do not pin
the loop to every slot either.

`nodes` lists the honest nodes, a node's id its index, each with its own
meter; the heal, at the partition's `heal_slot`, notifies them (`_notify`).

The simulation's object graph holds no reference cycle (the adversary
reaches the simulation through a weak proxy), so a dropped simulation is
freed by reference counting.  `run` makes no cyclic collector pass, and
leaves none for the next allocation either (`trace.collector_paused`).
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import adversary as adv
from . import params as pm
from . import trace as tr
from .lottery import BpoId, HeaderStore, SlotSampler, _slot_gen, STREAM_ANALYSIS
from .netenv import CapacityMeter, Environment, Partition
from .node import HonestFront, Node

SPV_NODE = -2   # the producer of header-only blocks


def producer_class(bpo: BpoId) -> str:
    """The class of the producer of a block minted on `bpo`."""
    if bpo.honest:
        return tr.CLS_HONEST
    return tr.CLS_SPV if bpo.node == SPV_NODE else tr.CLS_ADVERSARY


class AuditSink:
    """In-run invariant checks that need live node state rather than the
    trace: ledger blanking consistency across nodes, missing confirmed
    content, honest-content immunity, and scheduler non-idleness."""

    def __init__(self, store: HeaderStore):
        self.store = store
        self.blank_status: dict[int, bool] = {}
        self.blank_conflicts: list[tuple] = []
        self.missing_content: list[tuple] = []
        self.honest_blanked: list[tuple] = []
        self.idle_violations: list[tuple] = []

    def note_blank_status(self, node: int, block: int, blanked: bool,
                          slot: int) -> None:
        prev = self.blank_status.get(block)
        if prev is None:
            self.blank_status[block] = blanked
        elif prev != blanked:
            self.blank_conflicts.append((block, node, slot))
        if blanked and self.store.headers[block].bpo.honest:
            self.honest_blanked.append((block, node, slot))

    def note_missing_content(self, node: int, block: int, slot: int) -> None:
        self.missing_content.append((block, node, slot))

    def note_idle(self, node: int, slot: int) -> None:
        self.idle_violations.append((node, slot))

    @property
    def clean(self) -> bool:
        return not (self.blank_conflicts or self.missing_content
                    or self.honest_blanked or self.idle_violations)

    def to_dict(self) -> dict:
        return {
            "blank_conflicts": len(self.blank_conflicts),
            "missing_content": len(self.missing_content),
            "honest_blanked": len(self.honest_blanked),
            "idle_violations": len(self.idle_violations),
            "clean": self.clean,
        }


@dataclass
class RunMetrics:
    seed: int
    horizon_slots: int
    tau: float
    lambda_honest: float
    growth_blocks: int = 0
    lambda_grwth: float = 0.0
    growth_normalized: float = 0.0
    honest_blocks: int = 0
    adversary_blocks: int = 0
    spv_blocks: int = 0
    max_tip_height: int = 0
    agreed_height: int = 0
    final_lead: int = 0
    max_lead: int = 0
    releases: int = 0
    giveups: int = 0
    fetches: int = 0
    scheduler_blanked: int = 0
    invalid_headers: int = 0
    tip_evictions: int = 0
    utilization_mean: float = 0.0
    audits: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Simulation:
    def __init__(self, scenario: pm.ScenarioConfig, seed: int | None = None,
                 record_trace: bool = True):
        self.scenario = scenario
        self.params = scenario.sim
        self.seed = self.params.seed if seed is None else seed
        p = self.params

        self.store = HeaderStore(scenario.protocol, scenario.sapos.k_epf)
        self.trace = tr.Trace(enabled=record_trace)
        self.trace.emit(0, tr.META, scenario=pm.scenario_to_dict(scenario),
                        seed=self.seed, nu=p.nu, c_tilde=p.c_tilde, tau=p.tau,
                        capacity=p.capacity, horizon_slots=p.horizon_slots,
                        honest_nodes=list(p.honest_nodes),
                        protocol=scenario.protocol, policy=scenario.policy,
                        k_epf=scenario.sapos.k_epf)

        partition = None
        attack = scenario.attack
        if attack.strategy == pm.ATTACK_PARTITION:
            n_h = len(p.honest_nodes)
            half = {n: (0 if n < n_h // 2 else 1) for n in p.honest_nodes}
            partition = Partition(half, p.slots(attack.partition_duration))

        self.env = Environment(p.honest_nodes, p.slots(p.delta_h), partition)
        self.sink = AuditSink(self.store)
        self.front = HonestFront()
        # the honest ids are 0..n_h-1
        self.nodes = [Node(n, self.store, self.env,
                           CapacityMeter(p.capacity * p.tau, p.horizon_slots),
                           self.trace, scenario.policy, scenario.k_conf,
                           self.sink, self.front)
                      for n in p.honest_nodes]

        spv_rate_slot = attack.spv_rate * p.tau
        self.sampler = SlotSampler(self.seed, p.beta, p.rho, p.honest_nodes,
                                   p.adversary_nodes, spv_rate_slot)
        self.strategy = adv.make_strategy(self, attack)

        self._announced = (0, self.store.genesis.id)
        self._last_lead = 0
        self._max_lead: int | None = None   # None until a lead is recorded
        self._tx_counts = None
        self._precompute_lottery()

    # -- strategy facade -------------------------------------------------

    def honest_height(self) -> int:
        return self.front.height

    def honest_tip(self) -> int:
        return max(self.nodes, key=attrgetter("dchain_height")).dchain_tip

    def min_honest_height(self) -> int:
        return min(n.dchain_height for n in self.nodes)

    def _update_announced(self, header) -> None:
        if header.height > self._announced[0]:
            self._announced = (header.height, header.id)

    def upload(self, header, content, slot: int) -> None:
        """Store the content in the cloud and, if it was new, notify."""
        commitment = content.commitment
        if self.env.upload_content(header, content):
            self._notify(commitment, slot)
            self.trace.emit(slot, tr.CONTENT_UPLOADED, commitment, header.id)

    def _notify(self, commitment: int, slot: int) -> None:
        """The notice that the cloud shows `commitment`, sent to the nodes
        whose memo holds it: no other node waits for it."""
        for node in self.nodes:
            if commitment in node.unavailable:
                node.content_uploaded(commitment, slot)

    def _heal(self, slot: int) -> None:
        """At the partition heal, content uploaded across the split becomes
        visible: the notice of each commitment that the cloud and some
        node's memo hold.  Memos of content not yet uploaded stay."""
        memos = set().union(*(node.unavailable for node in self.nodes))
        for commitment in memos & self.env.cloud:
            self._notify(commitment, slot)

    def _publish(self, header, content, slot: int) -> None:
        """Trace an open block, upload its content and broadcast its header."""
        self.record_block(header, slot)
        self.upload(header, content, slot)
        self.env.broadcast_header(header, slot)
        self._update_announced(header)

    def record_block(self, header, slot: int, private: bool = False) -> None:
        """Trace one production: every field but whether the block is
        withheld is read from the header."""
        bpo = header.bpo
        self.trace.emit(slot, tr.BLOCK_PRODUCED, bpo.node, header.id,
                        header.parent_id, header.height, bpo.slot, bpo.node,
                        bpo.seq, producer_class(bpo), private)

    def push_to_honest(self, header, slot: int) -> None:
        for node in self.nodes:
            self._deliver(node, header, slot, True)
        self._update_announced(header)

    def _deliver(self, node: Node, header, slot: int, pushed: bool) -> None:
        """Hand `header` to one honest node, and trace the delivery if the
        node inserted it."""
        if header.id in node.on_header(header, slot):
            self.trace.emit(slot, tr.HEADER_DELIVERED, node.id, header.id,
                            pushed)

    # -- lottery precomputation -------------------------------------------

    def _precompute_lottery(self) -> None:
        p = self.params
        h, a, s = self.sampler.counts(0, p.horizon_slots)
        busy = (h + a + s) > 0
        self._busy_slots = np.nonzero(busy)[0]
        self._h = h[self._busy_slots]
        self._a = a[self._busy_slots]
        self._s = s[self._busy_slots]
        sigma = self.scenario.txgen.sigma if self.scenario.txgen else 0.0
        if sigma > 0:
            mu = sigma * p.tau
            gen = _slot_gen(self.seed, STREAM_ANALYSIS, 0)
            self._tx_counts = gen.poisson(mu, size=p.horizon_slots)

    # -- event loop -------------------------------------------------------

    def _tx_log(self) -> list[tuple[int, tuple]]:
        """The transaction feed as (slot generated, (txid, size)), in order.
        Generation stops at the first slot that begins with at least
        `horizon_slots` transactions generated."""
        log: list[tuple[int, tuple]] = []
        if self._tx_counts is None:
            return log
        horizon = self.params.horizon_slots
        size = self.scenario.txgen.tx_size
        for slot in np.nonzero(self._tx_counts)[0].tolist():
            if len(log) >= horizon:
                break
            for _ in range(int(self._tx_counts[slot])):
                log.append((slot, (f"tx{slot}_{len(log)}", size)))
        return log

    @tr.collector_paused()
    def run(self) -> RunMetrics:
        horizon = self.params.horizon_slots
        # the busy slots as a list ending with the horizon, and each one's
        # counts; `_cursor` indexes the first busy slot not yet visited
        self._busy = busy = self._busy_slots.tolist() + [horizon]
        counts = list(zip(self._h.tolist(), self._a.tolist(),
                          self._s.tolist()))
        self._cursor = 0
        tx_log = self._tx_log()
        nodes = self.nodes
        for node in nodes:
            node.tx_log = tx_log
        part = self.env.partition
        slot = 0
        while slot < horizon:
            if part is not None and slot == part.heal_slot:
                self._heal(slot)

            for node_id, header in self.env.deliveries_due(slot):
                self._deliver(nodes[node_id], header, slot, False)

            # `_advance` never passes a busy slot, so the cursor's slot is
            # this one or a later one
            if busy[self._cursor] == slot:
                h_cnt, a_cnt, s_cnt = counts[self._cursor]
                self._cursor += 1
                bpos = self.sampler.assign(slot, h_cnt, a_cnt)
                self.trace.emit(slot, tr.BPO, h_cnt, a_cnt, s_cnt,
                                [[b.node, b.honest] for b in bpos])
                for bpo in bpos:
                    if bpo.honest:
                        self._honest_produce(bpo, slot)
                    else:
                        self.strategy.on_adversary_bpo(bpo, slot)
                for k in range(s_cnt):
                    self._spv_produce(
                        BpoId(slot, SPV_NODE, False, h_cnt + a_cnt + k), slot)

            # in id order: the order of a slot's events in the trace depends
            # on it
            for node in nodes:
                if node.wake <= slot:
                    node.settle(slot)
                    node.process_step(slot)
                    self._check_non_idleness(node, slot)

            lead = self.strategy.lead()
            if lead != self._last_lead:
                self._last_lead = lead
                if self._max_lead is None or lead > self._max_lead:
                    self._max_lead = lead
                self.trace.emit(slot, tr.LEAD_SAMPLE, lead)

            slot = self._advance(slot)

        for node in nodes:
            node.settle(horizon)
        return self._finalize()

    def _honest_produce(self, bpo: BpoId, slot: int) -> None:
        header, content = self.nodes[bpo.node].try_produce(bpo, slot)
        self._publish(header, content, slot)
        self.strategy.on_honest_block(header, slot)

    def _spv_produce(self, bpo: BpoId, slot: int) -> None:
        """A header-only miner extends the longest announced header chain
        with an empty block, available at once; SPV wins never count as
        honest, and the strategy sees them graft onto its private chain."""
        content = self.store.make_content()
        header = self.store.extend(bpo, self._announced[1], content.commitment)
        self._publish(header, content, slot)
        self.strategy.on_external_block(header)

    def _check_non_idleness(self, node: Node, slot: int) -> None:
        # a step that leaves tokens for a whole block must also leave no
        # target; `fetches_block` stores nothing, so the audit changes no
        # meter state
        if (node.meter.fetches_block(slot)
                and node.schedule_target(slot) is not None):
            self.sink.note_idle(node.id, slot)

    def _advance(self, slot: int) -> int:
        nxt = slot + 1
        candidates = [self._busy[self._cursor],
                      min(map(attrgetter("wake"), self.nodes))]
        nd = self.env.next_delivery_slot()
        if nd is not None:
            candidates.append(nd)
        part = self.env.partition
        if part is not None and part.heal_slot > slot:
            candidates.append(part.heal_slot)
        return max(nxt, min(candidates))

    # -- metrics ------------------------------------------------------------

    def agreed_height(self) -> int:
        common = functools.reduce(self.store.common_ancestor,
                                  [node.dchain_tip for node in self.nodes])
        return self.store.headers[common].height

    def _finalize(self) -> RunMetrics:
        p = self.params
        elapsed = p.horizon_slots * p.tau
        lam_hon = (1.0 - p.beta) * p.rho / p.tau
        l_min = self.min_honest_height()
        growth = l_min / elapsed
        blocks = Counter(producer_class(hdr.bpo)
                         for hdr in self.store.headers.values())
        nodes = self.nodes
        util = [n.meter.spent_total / (n.meter.rate * p.horizon_slots)
                for n in nodes if n.meter.rate > 0]
        return RunMetrics(
            seed=self.seed,
            horizon_slots=p.horizon_slots,
            tau=p.tau,
            lambda_honest=lam_hon,
            growth_blocks=l_min,
            lambda_grwth=growth,
            growth_normalized=growth / lam_hon if lam_hon > 0 else 0.0,
            honest_blocks=blocks[tr.CLS_HONEST],
            adversary_blocks=blocks[tr.CLS_ADVERSARY],
            spv_blocks=blocks[tr.CLS_SPV],
            max_tip_height=self._announced[0],
            agreed_height=self.agreed_height(),
            final_lead=self._last_lead,
            max_lead=0 if self._max_lead is None else self._max_lead,
            releases=self.strategy.releases,
            giveups=self.strategy.giveups,
            fetches=sum(n.fetches for n in nodes),
            scheduler_blanked=sum(len(n.blanked) for n in nodes),
            invalid_headers=sum(len(n.invalid) for n in nodes),
            tip_evictions=sum(n.tip_evictions for n in nodes),
            utilization_mean=float(np.mean(util)) if util else 0.0,
            audits=self.sink.to_dict(),
        )


def run_scenario(scenario: pm.ScenarioConfig, seed: int | None = None,
                 record_trace: bool = True) -> tuple[RunMetrics, tr.Trace]:
    sim = Simulation(scenario, seed, record_trace)
    metrics = sim.run()
    return metrics, sim.trace
