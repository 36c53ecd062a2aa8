"""Wake slots and kept plans against per-slot polling.

`PollingSimulation` keeps the loop the simulator had before nodes slept:
every active node is stepped in every slot and re-plans from its tips in
each step, nothing is settled, the lottery's busy slots are looked up by
binary search, and a transaction feed generated slot by slot keeps the loop
on every slot.  Runs with wake slots and kept plans must produce the same
trace bytes and the same metrics.

The Tier-1 tests run a covering subset of the differential matrix; the
whole matrix (288 configurations) runs with

    PYTHONPATH=src python tests/test_wakeups.py
"""
import heapq
import sys

import numpy as np
import pytest

from nakasim import params as pm
from nakasim import trace as tr
from nakasim.lottery import BpoId
from nakasim.node import IDLE, MAX_SCHEDULER_TIPS
from nakasim.sim import Simulation
from test_trace_digests import matrix_scenario

TAU = 0.1


class PollingSimulation(Simulation):
    """The reference loop: poll every active node in every slot, dropping
    the plan its last step kept so that each step walks the tips."""

    def run(self):
        p = self.params
        horizon = p.horizon_slots
        tx_log = []
        for node in self.nodes.values():
            node.tx_log = tx_log
        slot = 0
        tx_seq = 0
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

            h_cnt, a_cnt, s_cnt = self._counts_at(slot)
            if h_cnt or a_cnt or s_cnt:
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
                            BpoId(slot, -2, False, h_cnt + a_cnt + k), slot)

            if self._tx_counts is not None and tx_seq < horizon:
                for _ in range(int(self._tx_counts[slot])):
                    tx = (f"tx{slot}_{tx_seq}", self.scenario.txgen.tx_size)
                    tx_seq += 1
                    tx_log.append((slot, tx))

            for n in self.honest_ids:
                node = self.nodes[n]
                if node.active:
                    node._kept = None
                    node.process_step(slot)
                    self._check_non_idleness(node, slot)

            lead = self.strategy.lead()
            if lead != self._last_lead:
                self._last_lead = lead
                self._lead_series.append((slot, lead))
                self.trace.emit(slot, tr.LEAD_SAMPLE, lead=lead)

            slot = self._advance(slot)

        return self._finalize()

    def _counts_at(self, slot):
        i = np.searchsorted(self._busy_slots, slot)
        if i < len(self._busy_slots) and self._busy_slots[i] == slot:
            return int(self._h[i]), int(self._a[i]), int(self._s[i])
        return 0, 0, 0

    def _next_busy_slot(self, after):
        i = np.searchsorted(self._busy_slots, after)
        if i < len(self._busy_slots):
            return int(self._busy_slots[i])
        return self.params.horizon_slots

    def _advance(self, slot):
        nxt = slot + 1
        if any(self.nodes[n].active for n in self.honest_ids) \
                or self._tx_counts is not None:
            return nxt
        candidates = [self.params.horizon_slots, self._next_busy_slot(nxt)]
        nd = self.env.next_delivery_slot()
        if nd is not None:
            candidates.append(nd)
        if self._heal_slot is not None:
            candidates.append(self._heal_slot)
        return max(nxt, min(candidates))


def trace_bytes(sim):
    return "".join(ev.to_json() + "\n" for ev in sim.trace).encode("utf-8")


def contents(sim):
    """Block contents, which the trace does not record: the transactions
    each block carries."""
    return [(c.commitment, c.producer, c.txs)
            for c in sim.store.contents.values()]


def record_steps(sim):
    """Record (slot, node) of every process_step call, and every slot the
    loop visits."""
    steps, visited = [], []
    for n, node in sim.nodes.items():
        def step(slot, n=n, inner=node.process_step):
            steps.append((slot, n))
            inner(slot)
        node.process_step = step
    deliveries_due = sim.env.deliveries_due

    def due(slot):
        visited.append(slot)
        return deliveries_due(slot)
    sim.env.deliveries_due = due
    return steps, visited


# -- the differential matrix ------------------------------------------------

RATES = (0.07, 0.1, 0.33, 1.2)   # C * tau: blocks a node fetches per slot


def attacks_for(protocol):
    tease = pm.ATTACK_TEASER if protocol == pm.PROTOCOL_POW \
        else pm.ATTACK_POS_TEASER
    return (pm.ATTACK_NONE, pm.ATTACK_PRIVATE, tease, pm.ATTACK_PARTITION)


MATRIX = [(protocol, attack, policy, rate, txgen)
          for protocol in pm.PROTOCOLS for attack in attacks_for(protocol)
          for policy in pm.POLICIES for rate in RATES
          for txgen in (False, True)]


def matrix_dict(protocol, attack, policy, rate, txgen, seed=7):
    """6 nodes, 1,500 slots. The feed's 1.2 transactions per slot reach
    its cutoff of `horizon_slots` transactions before the horizon, and
    are small enough that blocks keep up: a block takes them the slot
    after they arrive."""
    cfg = {"sim": {"n_nodes": 6, "tau": TAU, "delta_h": 0.2, "c_tilde": 0.5,
                   "beta": 0.0 if attack == pm.ATTACK_NONE else 0.3,
                   "rho": 0.15, "capacity": rate / TAU,
                   "horizon_slots": 1500, "seed": seed},
           "attack": {"strategy": attack, "run_after": 100.0},
           "protocol": protocol, "policy": policy}
    if txgen:
        cfg["txgen"] = {"sigma": 12.0, "tx_size": 0.01}
    return cfg


def matrix_config(*args, **kw):
    return pm.scenario_from_dict(matrix_dict(*args, **kw))


def assert_same_run(scenario):
    sim, ref = Simulation(scenario), PollingSimulation(scenario)
    metrics, ref_metrics = sim.run(), ref.run()
    assert trace_bytes(sim) == trace_bytes(ref)
    assert contents(sim) == contents(ref)
    assert metrics.to_dict() == ref_metrics.to_dict()
    return sim, ref


def covering_subset():
    """Each (protocol, attack) pair once, with the policies, the rates and
    the feed cycled so that every value of each is met, and each policy
    and rate both with and without the feed."""
    pairs = [(pr, at) for pr in pm.PROTOCOLS for at in attacks_for(pr)]
    return [(protocol, attack, pm.POLICIES[i % 3], RATES[i % 4],
             bool((i + i // 4) % 2))
            for i, (protocol, attack) in enumerate(pairs)]


@pytest.mark.parametrize("protocol,attack,policy,rate,txgen",
                         covering_subset())
def test_wake_slots_match_per_slot_polling(protocol, attack, policy, rate,
                                           txgen):
    assert_same_run(matrix_config(protocol, attack, policy, rate, txgen))


def test_wake_slots_match_per_slot_polling_at_the_tip_cap():
    """Equivocation spam on plain PoS fills the 100-tip scheduler, so a
    node's own production evicts tips while it sleeps on a download."""
    sim, _ = assert_same_run(pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POS, pm.POLICY_FRESHEST_BLOCK)))
    assert sum(n.tip_evictions for n in sim.nodes.values()) > 0


# -- cost guards --------------------------------------------------------------

def test_throttled_nodes_are_not_polled():
    """On the pinned 8-node, 2,000-slot PoW teaser, under 40% of the polled
    steps remain."""
    scenario = pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN))
    sim, ref = Simulation(scenario), PollingSimulation(scenario)
    steps, _ = record_steps(sim)
    ref_steps, _ = record_steps(ref)
    sim.run()
    ref.run()
    assert trace_bytes(sim) == trace_bytes(ref)
    assert len(steps) < 0.4 * len(ref_steps)


def noop_steps(sim):
    """Record every step that ends throttled on the download it began on
    and emits nothing: a step that a kept plan makes unnecessary."""
    noops, steps = [], []
    for n, node in sim.nodes.items():
        def step(slot, n=n, node=node, inner=node.process_step):
            before = (node.throttled, len(sim.trace))
            inner(slot)
            steps.append((slot, n))
            if node.throttled is not None and \
                    (node.throttled, len(sim.trace)) == before:
                noops.append((slot, n))
        node.process_step = step
    return noops, steps


def test_throttled_nodes_sleep_through_events_that_keep_their_plan():
    """On the pinned PoW teaser, fewer than 2% of the steps end throttled
    on the download they began on and emit nothing (185 of 1,038 did when
    every inserted header woke the node).  The polling loop, which steps a
    throttled node in every slot, shows that the count sees such steps."""
    scenario = pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN))
    sim, ref = Simulation(scenario), PollingSimulation(scenario)
    noops, steps = noop_steps(sim)
    ref_noops, _ = noop_steps(ref)
    sim.run()
    ref.run()
    assert trace_bytes(sim) == trace_bytes(ref)
    assert len(noops) < 0.02 * len(steps)
    assert len(ref_noops) > 0.2 * len(steps)


def test_a_kept_plan_is_reused_without_walking_the_tips():
    """A step that starts with a kept plan returns its target without
    touching a pending queue."""
    sim = Simulation(pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POW, pm.POLICY_LONGEST_HEADER_CHAIN)))
    walked = [0]
    reuses = []
    for node in sim.nodes.values():
        def pending_for(tip_id, inner=node._pending_for):
            walked[0] += 1
            return inner(tip_id)

        def schedule_target(slot, node=node, inner=node.schedule_target):
            kept, before = node._kept, walked[0]
            target = inner(slot)
            if kept is not None:
                assert target is kept
                reuses.append(walked[0] - before)
            return target
        node._pending_for = pending_for
        node.schedule_target = schedule_target
    sim.run()
    assert walked[0] > 0
    assert reuses and set(reuses) == {0}


def test_the_feed_does_not_pin_the_loop_to_every_slot():
    scenario = matrix_config(pm.PROTOCOL_POW, pm.ATTACK_NONE,
                             pm.POLICY_LONGEST_HEADER_CHAIN, 1.2, True)
    sim, ref = Simulation(scenario), PollingSimulation(scenario)
    _, visited = record_steps(sim)
    _, ref_visited = record_steps(ref)
    sim.run()
    ref.run()
    assert trace_bytes(sim) == trace_bytes(ref)
    assert len(ref_visited) == scenario.sim.horizon_slots
    assert len(visited) < scenario.sim.horizon_slots
    assert any(n.included_txids for n in sim.nodes.values())


# -- scripted edges -----------------------------------------------------------

def scripted(cls, rate, horizon, attack=pm.ATTACK_NONE, duration=15.0,
             protocol=pm.PROTOCOL_POW, policy=pm.POLICY_LONGEST_HEADER_CHAIN):
    """A run with no lottery wins to speak of (rho is tiny): every header
    comes from the script, queued for delivery before the run starts."""
    return cls(pm.scenario_from_dict({
        "sim": {"n_nodes": 4, "tau": TAU, "delta_h": 0.2, "c_tilde": 0.5,
                "beta": 0.0, "rho": 1e-9, "capacity": rate / TAU,
                "horizon_slots": horizon, "seed": 1},
        "attack": {"strategy": attack, "partition_duration": duration},
        "protocol": protocol, "policy": policy}))


def mint(sim, parent, slot, origin=9, bpo=None, upload=True):
    """One child of `parent` with its content uploaded by `origin`, unless
    `upload` is False; under proof of stake, passing another header's
    `bpo` mints its twin."""
    content = sim.store.make_content(producer=origin)
    extend = (sim.store.pow_extend if sim.protocol == pm.PROTOCOL_POW
              else sim.store.pos_extend)
    header = extend(bpo or BpoId(slot, 100 + origin, False, 0), parent.id,
                    content.commitment)
    if upload:
        sim.env.upload_content(header, content, origin=origin, slot=0)
    return header


def push(sim, header, node, slot):
    """Queue `header` for delivery to `node` at `slot`."""
    env = sim.env
    heapq.heappush(env._queue, (slot, env._seq, node, header))
    env._seq += 1


def chain(sim, length, slot, origin=9, upload=True):
    out, parent = [], sim.store.genesis
    for k in range(length):
        parent = mint(sim, parent, slot + k, origin, upload=upload)
        out.append(parent)
    return out


def win(sim, node, slot):
    """Give `node` the only lottery win of `slot`."""
    i = np.searchsorted(sim._busy_slots, slot)
    assert slot not in sim._busy_slots
    sim._busy_slots = np.insert(sim._busy_slots, i, slot)
    for name, won in (("_h", 1), ("_a", 0), ("_s", 0)):
        setattr(sim, name, np.insert(getattr(sim, name), i, won))
    assign = sim.sampler.assign
    sim.sampler.assign = lambda s, h, a: (
        [BpoId(s, node, True, 0)] if s == slot else assign(s, h, a))


def at_slot(sim, slot, action):
    """Run `action(slot)` at the start of `slot`, before its deliveries;
    the script must make the loop visit that slot."""
    due = sim.env.deliveries_due

    def deliveries_due(now):
        if now == slot:
            action(now)
        return due(now)
    sim.env.deliveries_due = deliveries_due


def run_both(script, **kw):
    """Run the scripted scenario with wake slots and with polling; both
    must agree. Returns the two simulations and their step records."""
    sims = [scripted(Simulation, **kw), scripted(PollingSimulation, **kw)]
    records, metrics = [], []
    for sim in sims:
        script(sim)
        records.append(record_steps(sim)[0])
        metrics.append(sim.run().to_dict())
    sim, ref = sims
    assert trace_bytes(sim) == trace_bytes(ref)
    assert metrics[0] == metrics[1]
    for n in sim.honest_ids:
        assert sim.env.meters[n].spent_total == ref.env.meters[n].spent_total
        assert sim.nodes[n].partial == ref.nodes[n].partial
    return sims, records


def test_a_node_throttled_at_the_horizon_pays_every_slot():
    def script(sim):
        block = chain(sim, 1, slot=0)[0]
        push(sim, block, 0, 1)

    (sim, ref), (steps, ref_steps) = run_both(script, rate=0.1, horizon=6)
    node = sim.nodes[0]
    assert node.throttled is not None and node.wake >= 6
    assert [s for s, n in steps if n == 0] == [1]
    assert [s for s, n in ref_steps if n == 0] == [1, 2, 3, 4, 5]
    assert sim.env.meters[0].spent_total > 0.5


def test_a_header_mid_stretch_preempts_with_the_polled_payment():
    def script(sim):
        first = chain(sim, 1, slot=0)[0]
        longer = chain(sim, 2, slot=0, origin=8)
        push(sim, first, 0, 1)
        push(sim, longer[-1], 0, 8)
        script.first = first.id

    (sim, ref), (steps, _) = run_both(script, rate=0.1, horizon=12)
    assert [s for s, n in steps if n == 0] == [1, 8]
    # 0.2 paid in slot 1, then six slept slots of 0.1, added one at a time
    paid = sim.nodes[0].partial[script.first]
    expected = 0.2
    for _ in range(6):
        expected += 0.1
    assert paid == expected
    assert paid != 0.2 + 6 * 0.1


def test_partition_heal_wakes_a_sleeping_waiter():
    heal = 10

    def script(sim):
        # the longer chain's content was uploaded across the split
        far = chain(sim, 2, slot=0, origin=3)
        near = chain(sim, 1, slot=0, origin=0)[0]
        push(sim, far[-1], 0, 1)
        push(sim, near, 0, 1)
        script.far, script.near = far, near

    (sim, ref), (steps, _) = run_both(script, rate=0.04, horizon=20,
                                      attack=pm.ATTACK_PARTITION,
                                      duration=heal * TAU)
    assert sim.env.partition.heal_slot == heal
    # throttled on the near block at slot 1 until the heal
    assert [s for s, n in steps if n == 0] == [1, heal]
    node = sim.nodes[0]
    assert script.near.id in node.partial
    assert node.throttled == script.far[0].id


def test_a_throttle_above_one_block_per_slot_wakes_next_slot():
    def script(sim):
        blocks = chain(sim, 4, slot=0)
        push(sim, blocks[-1], 0, 1)
        node = sim.nodes[0]
        inner = node.process_step
        sim.wakes = []

        def step(slot):
            inner(slot)
            sim.wakes.append((slot, node.throttled is not None, node.wake))
        node.process_step = step

    (sim, _), _ = run_both(script, rate=1.2, horizon=8)
    # two fetches at slot 1 leave 0.2 for the third block
    assert sim.wakes == [(1, True, 2), (2, True, 3), (3, False, IDLE)]


def test_a_pass_that_blanks_and_reorders_tips_replans_next_slot():
    """Greedy under SaPoS: the pass that ends throttled on a1 first blanks
    the equivocated top chain, which lifts the processed prefix of two
    lower tips above a1's tip.  Polling serves one of them next slot, so
    the node must not sleep until a1's download completes."""
    def script(sim):
        top = chain(sim, 4, slot=0)
        twins = [mint(sim, sim.store.get(h.parent_id), 0, bpo=h.bpo)
                 for h in top]
        a = chain(sim, 3, slot=0, origin=8)
        c = mint(sim, top[0], 5, origin=7)
        for h in [top[-1], *twins, a[-1], c]:
            push(sim, h, 0, 1)
        script.a1, script.c = a[0], c

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=8,
                                    protocol=pm.PROTOCOL_SAPOS,
                                    policy=pm.POLICY_GREEDY)
    assert [s for s, n in steps if n == 0] == [1, 2]
    assert any(ev.slot == 2 for ev in sim.trace.of_kind(tr.PRETEND_EMPTY))
    node = sim.nodes[0]
    assert node.partial[script.a1.id] == 0.2
    assert node.throttled == script.c.id


# -- what wakes a throttled node ----------------------------------------------
#
# Node 0 is throttled on the first block of a two-block chain from slot 1
# until about slot 9 (0.1 blocks per slot); in slot 3 something reaches it.

def served_chain(sim):
    served = chain(sim, 2, slot=0)
    push(sim, served[-1], 0, 1)
    return served


def steps_of_node_0(steps):
    return [s for s, n in steps if n == 0]


def test_a_header_ranked_below_the_served_tip_keeps_the_node_asleep():
    def script(sim):
        script.served = served_chain(sim)
        script.low = chain(sim, 1, slot=0, origin=8)[0]
        push(sim, script.low, 0, 3)

    (sim, _), (steps, ref_steps) = run_both(script, rate=0.1, horizon=12)
    assert any(ev.slot == 3 and ev.data["header"] == script.low.id
               for ev in sim.trace.of_kind(tr.HEADER_DELIVERED))
    assert 3 not in steps_of_node_0(steps)
    assert 3 in steps_of_node_0(ref_steps)
    assert sim.nodes[0].throttled == script.served[1].id


def test_a_header_ranked_above_the_served_tip_wakes_the_node():
    def script(sim):
        script.served = served_chain(sim)
        script.high = chain(sim, 3, slot=0, origin=8)
        push(sim, script.high[-1], 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12)
    assert steps_of_node_0(steps)[:2] == [1, 3]
    node = sim.nodes[0]
    assert script.served[0].id in node.partial
    assert node.throttled == script.high[0].id


def test_evicting_the_served_tip_at_the_cap_wakes_the_node():
    """The served tip is the lowest of 100, above it 99 tips whose content
    is withheld; one more withheld tip evicts it."""
    def script(sim):
        script.served = chain(sim, 1, slot=0)[0]
        flood = [chain(sim, 2, slot=0, origin=20 + i, upload=False)[-1]
                 for i in range(MAX_SCHEDULER_TIPS)]
        for h in [script.served, *flood[:-1]]:
            push(sim, h, 0, 1)
        push(sim, flood[-1], 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12)
    node = sim.nodes[0]
    assert steps_of_node_0(steps) == [1, 3]
    # the last chain's first block ranks below the served tip and goes
    # first; its child then evicts the served tip
    assert node.tip_evictions == 2
    assert script.served.id not in node.tips
    assert script.served.id in node.partial
    assert not node.active


def test_a_sapos_twin_of_the_target_wakes_the_node():
    """The twin of the block being downloaded ranks below the served tip,
    but makes the target equivocated: the node blanks it at once."""
    def script(sim):
        script.served = served_chain(sim)
        twin = mint(sim, sim.store.genesis, 0, origin=8,
                    bpo=script.served[0].bpo)
        push(sim, twin, 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12,
                                    protocol=pm.PROTOCOL_SAPOS)
    assert steps_of_node_0(steps)[:2] == [1, 3]
    assert [(ev.slot, ev.data["header"])
            for ev in sim.trace.of_kind(tr.PRETEND_EMPTY)
            if ev.data["node"] == 0] == [(3, script.served[0].id)]
    assert sim.nodes[0].throttled == script.served[1].id


def test_an_own_block_ranked_below_the_served_tip_keeps_the_node_asleep():
    def script(sim):
        script.served = served_chain(sim)
        win(sim, 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12)
    node = sim.nodes[0]
    own = [ev.data["header"] for ev in sim.trace.of_kind(tr.BLOCK_PRODUCED)]
    assert len(own) == 1 and node.dchain[0] == own[0]
    assert 3 not in steps_of_node_0(steps)
    assert node.throttled == script.served[1].id


def test_a_cleared_memo_wakes_the_node():
    """The tip above the served one has a withheld front, which the node
    memoised as unavailable in slot 1; its upload in slot 3 wakes it."""
    def script(sim):
        script.high = chain(sim, 2, slot=0, origin=8, upload=False)
        script.low = chain(sim, 1, slot=0)[0]
        for h in (script.high[-1], script.low):
            push(sim, h, 0, 1)
        push(sim, script.low, 1, 3)   # makes the loop visit slot 3
        front = script.high[0]
        at_slot(sim, 3, lambda slot: sim.upload(
            front, sim.store.contents[front.commitment], slot, origin=8))

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12)
    node = sim.nodes[0]
    assert steps_of_node_0(steps)[:2] == [1, 3]
    assert script.low.id in node.partial
    assert node.throttled == script.high[0].id


# -- chain bookkeeping --------------------------------------------------------

def rebuilt_chain_state(node):
    """Proof targets and included transactions recomputed from the whole
    chain, as every chain switch used to."""
    proofed, txids = set(), set()
    for hid in node.dchain:
        h = node.store.get(hid)
        proofed.update(proof.target for proof in h.proofs)
        if hid in node.processed:
            content = node._content_of(h)
            if content is not None:
                txids.update(t[0] for t in content.txs)
    return proofed, txids


@pytest.mark.parametrize("protocol,attack,policy", [
    (pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER, pm.POLICY_GREEDY),
    (pm.PROTOCOL_POW, pm.ATTACK_TEASER, pm.POLICY_LONGEST_HEADER_CHAIN),
    (pm.PROTOCOL_POS, pm.ATTACK_PARTITION, pm.POLICY_FRESHEST_BLOCK),
])
def test_chain_counts_match_a_rebuild_after_every_switch(protocol, attack,
                                                         policy):
    cfg = matrix_dict(protocol, attack, policy, 0.33, True, seed=3)
    cfg["attack"]["sacrifice_every"] = 1
    sim = Simulation(pm.scenario_from_dict(cfg))
    switches = 0
    for node in sim.nodes.values():
        def after(header_id, slot, node=node, inner=node._after_processed):
            nonlocal switches
            tip = node.dchain_tip
            inner(header_id, slot)
            if node.dchain_tip != tip:
                switches += node.store.get(header_id).parent_id != tip
                assert (set(node.proofed_targets),
                        set(node.included_txids)) == rebuilt_chain_state(node)
        node._after_processed = after
    sim.run()
    assert switches > 0
    assert any(n.included_txids for n in sim.nodes.values())
    if protocol == pm.PROTOCOL_SAPOS:
        assert any(n.proofed_targets for n in sim.nodes.values())


@pytest.mark.parametrize("protocol,attack,policy,rate,txgen",
                         covering_subset())
def test_honest_height_is_the_max_over_the_nodes(protocol, attack, policy,
                                                 rate, txgen):
    """The running height the nodes raise as their dchains grow equals the
    max over the nodes at the end of every visited slot and at every call
    the adversary makes.  (The polling loop reads the same height through
    the adversary's lead, which the tests above compare.)"""
    sim = Simulation(matrix_config(protocol, attack, policy, rate, txgen))
    checks = []

    def check():
        highest = max(n.dchain_height for n in sim.nodes.values())
        assert sim.front.height == highest
        checks.append(highest)

    def honest_height(inner=sim.honest_height):
        check()
        return inner()

    def advance(slot, inner=sim._advance):
        check()
        return inner(slot)
    sim.honest_height = honest_height
    sim._advance = advance
    sim.run()
    assert checks and checks[-1] > 0


if __name__ == "__main__":
    same = 0
    for i, config in enumerate(MATRIX):
        assert_same_run(matrix_config(*config))
        same += 1
        print(f"{i + 1}/{len(MATRIX)} {config} same", flush=True)
    print(f"{same}/{len(MATRIX)} same", flush=True)
    sys.exit(0)
