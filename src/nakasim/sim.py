"""Deterministic slot-driven event loop tying lottery, network, nodes and
adversary together.

Slot order: due header deliveries, lottery draws and block production,
adversary reactions, then node processing against this slot's budget.
The loop visits only slots where something happens: a lottery win, a queued
delivery, the partition heal, or a node's wake slot.  The lottery is drawn
before the run, which walks its busy slots with a cursor.  A node is
stepped only in slots where it is due (see `Node.wake`); a throttled node
keeps its plan and sleeps until its download completes or an event that
can change the plan reaches it: a header that drops, evicts or outranks
the tip it serves, a twin of a queued block under SaPoS, or the upload
of content it found unavailable.  The slots it slept through are settled
just before its next step and at the horizon.  Transactions come from one
feed shared by every node, so they do not pin the loop to every slot
either.

The simulation's object graph holds no reference cycle (the adversary
reaches the simulation through a weak proxy), so a dropped simulation is
freed by reference counting, and `run` makes no cyclic collector pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import adversary as adv
from . import params as pm
from . import trace as tr
from .lottery import BpoId, HeaderStore, SlotSampler, _slot_gen, STREAM_ANALYSIS
from .netenv import Environment, Partition
from .node import HonestFront, Node


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
        if blanked and self.store.get(block).bpo.honest:
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
        self.scenario = scenario = scenario.resolved()
        self.params = scenario.sim
        self.seed = self.params.seed if seed is None else seed
        self.protocol = scenario.protocol
        p = self.params

        self.store = HeaderStore()
        self.trace = tr.Trace(enabled=record_trace)
        self.trace.emit(0, tr.META, scenario=pm.scenario_to_dict(scenario),
                        seed=self.seed, nu=p.nu, c_tilde=p.c_tilde, tau=p.tau,
                        capacity=p.capacity, horizon_slots=p.horizon_slots,
                        honest_nodes=list(p.honest_nodes),
                        protocol=scenario.protocol, policy=scenario.policy,
                        k_epf=scenario.sapos.k_epf)

        self.honest_ids = list(p.honest_nodes)
        partition = None
        attack = scenario.attack
        self._heal_slot = None
        if attack.strategy == pm.ATTACK_PARTITION:
            half = {n: (0 if i < len(self.honest_ids) // 2 else 1)
                    for i, n in enumerate(self.honest_ids)}
            self._heal_slot = math.ceil(attack.partition_duration / p.tau)
            partition = Partition(half, self._heal_slot)

        self.env = Environment(self.honest_ids, p.capacity * p.tau,
                               p.delay_slots, partition)
        k_conf = scenario.k_conf
        k_epf = scenario.sapos.k_epf
        self.sink = AuditSink(self.store)
        self.front = HonestFront()
        self.nodes = {
            n: Node(n, self.store, self.env, self.trace, scenario.policy,
                    scenario.protocol, k_conf, k_epf, audit_sink=self.sink,
                    front=self.front)
            for n in self.honest_ids}

        spv_rate_slot = attack.spv_rate * p.tau
        self.sampler = SlotSampler(self.seed, p.beta, p.rho, p.honest_nodes,
                                   p.adversary_nodes, spv_rate_slot)
        self.strategy = adv.make_strategy(self, attack)
        self.spv = adv.SpvMiner(self) if attack.spv_rate > 0 else None

        self._announced = (0, self.store.genesis.id)
        self._lead_series: list[tuple[int, int]] = []
        self._last_lead = 0
        self._tx_counts = None
        self._precompute_lottery()

    # -- strategy/miner facade ------------------------------------------

    def honest_height(self) -> int:
        return self.front.height

    def honest_tip(self) -> int:
        best = max(self.nodes.values(), key=lambda n: n.dchain_height)
        return best.dchain_tip

    def min_honest_height(self) -> int:
        return min(n.dchain_height for n in self.nodes.values())

    def announced_tip(self) -> int:
        return self._announced[1]

    def _update_announced(self, header) -> None:
        if header.height > self._announced[0]:
            self._announced = (header.height, header.id)

    def upload(self, header, content, slot: int, origin: int = -1) -> None:
        if self.env.upload_content(header, content, origin=origin, slot=slot):
            for node in self.nodes.values():
                node.content_uploaded(content.commitment, slot)
            self.trace.emit(slot, tr.CONTENT_UPLOADED,
                            commitment=content.commitment,
                            header=None if header is None else header.id)

    def broadcast(self, header, slot: int, origin: int = -1) -> None:
        self.env.broadcast_header(header, origin, slot)
        self._update_announced(header)

    def record_block(self, header, slot: int, cls: str,
                     private: bool = False) -> None:
        """Trace one production: every field but the producer's class and
        whether the block is withheld is read from the header."""
        bpo = header.bpo
        self.trace.emit(slot, tr.BLOCK_PRODUCED, producer=bpo.node,
                        header=header.id, parent=header.parent_id,
                        height=header.height, bpo_slot=bpo.slot,
                        bpo_node=bpo.node, bpo_seq=bpo.seq, cls=cls,
                        private=private)

    def push_to_honest(self, header, slot: int) -> None:
        for n in self.honest_ids:
            inserted = self.nodes[n].on_header(header, slot)
            if header.id in inserted:
                self.trace.emit(slot, tr.HEADER_DELIVERED, node=n,
                                header=header.id, pushed=True)
        self._update_announced(header)

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
        for node in self.nodes.values():
            node.tx_log = tx_log
        slot = 0
        while slot < horizon:
            if self._heal_slot is not None and slot >= self._heal_slot:
                for node in self.nodes.values():
                    node.partition_healed(slot)
                self._heal_slot = None

            for node_id, header in self.env.deliveries_due(slot):
                inserted = self.nodes[node_id].on_header(header, slot)
                if header.id in inserted:
                    self.trace.emit(slot, tr.HEADER_DELIVERED, node=node_id,
                                    header=header.id, pushed=False)

            # `_advance` never passes a busy slot, so the cursor's slot is
            # this one or a later one
            if busy[self._cursor] == slot:
                h_cnt, a_cnt, s_cnt = counts[self._cursor]
                self._cursor += 1
                bpos = self.sampler.assign(slot, h_cnt, a_cnt)
                self.trace.emit(slot, tr.BPO, h=h_cnt, a=a_cnt, s=s_cnt,
                                winners=[[b.node, b.honest] for b in bpos])
                for bpo in bpos:
                    if bpo.honest:
                        self._honest_produce(bpo, slot)
                    else:
                        self.strategy.on_adversary_bpo(bpo, slot)
                if self.spv is not None:
                    for k in range(s_cnt):
                        self.spv.on_spv_bpo(
                            BpoId(slot, adv.SPV_NODE, False,
                                  h_cnt + a_cnt + k), slot)

            # in honest_ids order: the order of a slot's events in the trace
            # depends on it
            for n in self.honest_ids:
                node = self.nodes[n]
                if node.wake <= slot:
                    node.settle(slot)
                    node.process_step(slot)
                    self._check_non_idleness(node, slot)

            lead = self.strategy.lead()
            if lead != self._last_lead:
                self._last_lead = lead
                self._lead_series.append((slot, lead))
                self.trace.emit(slot, tr.LEAD_SAMPLE, lead=lead)

            slot = self._advance(slot)

        for node in self.nodes.values():
            node.settle(horizon)
        return self._finalize()

    def _honest_produce(self, bpo: BpoId, slot: int) -> None:
        node = self.nodes[bpo.node]
        header, content = node.try_produce(bpo, slot)
        self.record_block(header, slot, "honest")
        self.upload(header, content, slot, origin=bpo.node)
        self.broadcast(header, slot, origin=bpo.node)
        self.strategy.on_honest_block(header, slot)

    def _check_non_idleness(self, node: Node, slot: int) -> None:
        meter = self.env.meters[node.id]
        if meter.sync(slot) < 1.0 - 1e-9:
            return
        if node.schedule_target(slot) is not None:
            self.sink.note_idle(node.id, slot)

    def _advance(self, slot: int) -> int:
        nxt = slot + 1
        candidates = [self._busy[self._cursor],
                      min(node.wake for node in self.nodes.values())]
        nd = self.env.next_delivery_slot()
        if nd is not None:
            candidates.append(nd)
        if self._heal_slot is not None:
            candidates.append(self._heal_slot)
        return max(nxt, min(candidates))

    # -- metrics ------------------------------------------------------------

    def agreed_height(self) -> int:
        tips = [self.nodes[n].dchain_tip for n in self.honest_ids]
        common = tips[0]
        for t in tips[1:]:
            common = self.store.common_ancestor(common, t)
        return self.store.get(common).height

    def _finalize(self) -> RunMetrics:
        p = self.params
        elapsed = p.horizon_slots * p.tau
        lam_hon = (1.0 - p.beta) * p.rho / p.tau
        l_min = min(self.nodes[n].dchain_height for n in self.honest_ids)
        growth = l_min / elapsed
        leads = [x[1] for x in self._lead_series] or [0]
        honest_blocks = sum(1 for hdr in self.store.headers.values()
                            if hdr.bpo.honest)
        adv_blocks = sum(1 for hdr in self.store.headers.values()
                         if not hdr.bpo.honest and hdr.bpo.node != adv.SPV_NODE)
        spv_blocks = sum(1 for hdr in self.store.headers.values()
                         if hdr.bpo.node == adv.SPV_NODE)
        util = [m.spent_total / (m.rate * p.horizon_slots)
                for m in self.env.meters.values() if m.rate > 0]
        return RunMetrics(
            seed=self.seed,
            horizon_slots=p.horizon_slots,
            tau=p.tau,
            lambda_honest=lam_hon,
            growth_blocks=l_min,
            lambda_grwth=growth,
            growth_normalized=growth / lam_hon if lam_hon > 0 else 0.0,
            honest_blocks=honest_blocks,
            adversary_blocks=adv_blocks,
            spv_blocks=spv_blocks,
            max_tip_height=self._announced[0],
            agreed_height=self.agreed_height(),
            final_lead=leads[-1],
            max_lead=max(leads),
            releases=self.strategy.releases,
            giveups=self.strategy.giveups,
            fetches=sum(self.env.fetch_count.values()),
            scheduler_blanked=sum(len(self.nodes[n].blanked)
                                  for n in self.honest_ids),
            invalid_headers=sum(len(self.nodes[n].invalid)
                                for n in self.honest_ids),
            tip_evictions=sum(self.nodes[n].tip_evictions
                              for n in self.honest_ids),
            utilization_mean=float(np.mean(util)) if util else 0.0,
            audits=self.sink.to_dict(),
        )


def run_scenario(scenario: pm.ScenarioConfig, seed: int | None = None,
                 record_trace: bool = True) -> tuple[RunMetrics, tr.Trace]:
    sim = Simulation(scenario, seed, record_trace)
    metrics = sim.run()
    return metrics, sim.trace
