"""Wake slots and kept plans against per-slot polling, run whole on the
reference stack.

`PollingSimulation` (tests/reference.py) keeps the loop the simulator had
before nodes slept, on the reference node, meter, delivery queue and
request path: every active node is stepped in every slot and walks its
tips in each step, nothing is settled, the lottery's busy slots are looked
up by binary search, and a transaction feed generated slot by slot keeps
the loop on every slot.  Runs with wake slots, kept plans and every other
fast mechanism must produce the same trace bytes, the same block contents
and the same metrics; the stack itself must run with each fast mechanism
raising if called.

The Tier-1 tests run a covering subset of the differential matrix, a run
at the tip cap, the pinned `sapos-sacrifice` run, the one that blanks,
and the pinned `pos-partition-spv` run, whose heal clears a memo;
the whole matrix (288 configurations) and every pinned run of
tests/test_trace_digests.py run with

    PYTHONPATH=src python tests/test_wakeups.py
"""
import sys
from types import MethodType

import numpy as np
import pytest
from conftest import fields, line

from nakasim import params as pm
from nakasim import trace as tr
from nakasim.lottery import BpoId
from nakasim.netenv import CapacityMeter, Environment
from nakasim.node import IDLE, MAX_SCHEDULER_TIPS, Node
from nakasim.sim import Simulation
from reference import PollingSimulation
from test_trace_digests import RUNS, matrix_scenario

TAU = 0.1


def trace_bytes(sim):
    return "".join(line(row) + "\n" for row in sim.trace).encode("utf-8")


def contents(sim):
    """Block contents, which the trace does not record: the transactions
    each block carries."""
    return [(c.commitment, c.txs)
            for c in sim.store.contents.values()]


def record_steps(sim):
    """Record (slot, node) of every process_step call, and every slot the
    loop visits."""
    steps, visited = [], []
    for n, node in enumerate(sim.nodes):
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
           "attack": {"strategy": attack},
           "protocol": protocol, "policy": policy}
    if txgen:
        cfg["txgen"] = {"sigma": 12.0, "tx_size": 0.01}
    return cfg


def matrix_config(*args, **kw):
    return pm.scenario_from_dict(matrix_dict(*args, **kw))


def assert_same_run(scenario, watch=None):
    """Run `scenario` on both sides, `watch(sim)` first called on the fast
    one if given; both must agree."""
    sim, ref = Simulation(scenario), PollingSimulation(scenario)
    if watch is not None:
        watch(sim)
    metrics, ref_metrics = sim.run(), ref.run()
    assert trace_bytes(sim) == trace_bytes(ref)
    assert contents(sim) == contents(ref)
    assert metrics.to_dict() == ref_metrics.to_dict()
    return sim, metrics


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


TIP_CAP_RUN = matrix_scenario(pm.PROTOCOL_POS, pm.POLICY_FRESHEST_BLOCK)


def test_wake_slots_match_per_slot_polling_at_the_tip_cap():
    """Equivocation spam on plain PoS fills the 100-tip scheduler, so a
    node's own production evicts tips while it sleeps on a download."""
    sim, _ = assert_same_run(pm.scenario_from_dict(TIP_CAP_RUN))
    assert sum(n.tip_evictions for n in sim.nodes) > 0


def test_wake_slots_match_per_slot_polling_when_blanking():
    """The one pinned run that blanks: a SaPoS teaser that sacrifices after
    every release makes honest nodes blank blocks and evict tips."""
    _, metrics = assert_same_run(pm.scenario_from_dict(RUNS["sapos-sacrifice"]))
    assert metrics.scheduler_blanked > 0


# the pinned partition run: its heal clears memos of content uploaded
# across the split, which no matrix config's heal does
PARTITION_RUN = RUNS["pos-partition-spv"]


def test_wake_slots_match_per_slot_polling_at_the_heal():
    """The pinned partition run with SPV miners: at the heal the fast side
    sends the notice of content uploaded across the split, the polling
    side has each node scan its memo, and some memo is cleared."""
    cleared = []

    def watch(sim):
        def heal(slot, inner=sim._heal):
            memos = sum(len(node.unavailable) for node in sim.nodes)
            inner(slot)
            cleared.append(memos - sum(len(node.unavailable)
                                       for node in sim.nodes))
        sim._heal = heal
    assert_same_run(pm.scenario_from_dict(PARTITION_RUN), watch)
    assert len(cleared) == 1 and cleared[0] > 0


@pytest.mark.parametrize("seconds,heals", [(0.0, [0]), (200.0, []),
                                           (250.0, [])],
                         ids=["at-slot-0", "at-the-horizon", "past-it"])
def test_the_heal_at_its_edge_slots(seconds, heals):
    """The pinned partition run, its 2,000 slots of 0.1 s split for 0 s,
    for the whole horizon, or longer: a split of 0 s heals once, at slot
    0, one that lasts to the horizon or past it never heals, and the loop
    still ends at the horizon; the polling side agrees."""
    config = {**PARTITION_RUN,
              "attack": {**PARTITION_RUN["attack"],
                         "partition_duration": seconds}}
    healed, advanced = [], []

    def watch(sim):
        def heal(slot, inner=sim._heal):
            healed.append(slot)
            inner(slot)

        def advance(slot, inner=sim._advance):
            advanced.append(inner(slot))
            return advanced[-1]
        sim._heal, sim._advance = heal, advance
    sim, _ = assert_same_run(pm.scenario_from_dict(config), watch)
    assert healed == heals
    assert advanced[-1] == sim.params.horizon_slots == 2000


# -- the stack shares no fast mechanism --------------------------------------

# The fast mechanisms, by the class that holds them: the stack has its own
# version of each or never reaches it.
FAST_PATHS = {
    Simulation: ("run", "_advance", "_heal"),
    Node: ("schedule_target", "_insert_chain", "_admit_at_cap",
           "_rekey_greedy", "_replans", "settle"),
    CapacityMeter: ("draw", "completion_slot", "spend_refills",
                    "fetches_block"),
    Environment: ("broadcast_header", "deliveries_due", "queue_header",
                  "request_content"),
}


class FastPathCalled(Exception):
    """A fast mechanism was reached while the guard was on."""


def trip(monkeypatch, cls, name):
    """Make `cls.name` raise if called."""
    def tripped(*args, **kwargs):
        raise FastPathCalled(f"{cls.__name__}.{name}")
    monkeypatch.setattr(cls, name, tripped)


def take_fast_layer(ref, cls):
    """Give the stack `ref`, not yet run, the fast simulator's layer that
    `cls` holds: its loop, its nodes, its meters, or its delivery queue
    and request path."""
    env, p = ref.env, ref.params
    if cls is Simulation:
        for name in FAST_PATHS[Simulation]:
            setattr(ref, name, MethodType(getattr(Simulation, name), ref))
    elif cls is Node:
        ref.nodes = [Node(n, ref.store, env, ref.nodes[n].meter, ref.trace,
                          ref.scenario.policy, ref.scenario.k_conf, ref.sink,
                          ref.front)
                     for n in p.honest_nodes]
    elif cls is CapacityMeter:
        for node in ref.nodes:
            node.meter = CapacityMeter(p.capacity * p.tau, p.horizon_slots)
    else:
        for name in FAST_PATHS[Environment] + ("next_delivery_slot",):
            delattr(env, name)


@pytest.mark.parametrize("config", [
    matrix_dict(pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER, pm.POLICY_GREEDY,
                0.33, False),
    TIP_CAP_RUN, PARTITION_RUN], ids=["covering", "tip-cap", "partition"])
def test_the_stack_runs_with_every_fast_mechanism_raising(config,
                                                          monkeypatch):
    """On the covering config with SaPoS, the tease and greedy, on the run
    that reaches the tip cap, and on a partition with its heal, the stack
    writes the simulator's run with every fast mechanism raising if
    called."""
    scenario = pm.scenario_from_dict(config)
    sim = Simulation(scenario)
    metrics = sim.run()
    for cls, names in FAST_PATHS.items():
        for name in names:
            trip(monkeypatch, cls, name)
    ref = PollingSimulation(scenario)
    assert ref.run().to_dict() == metrics.to_dict()
    assert trace_bytes(ref) == trace_bytes(sim)


# a stack reaches these only through the fast layers named
REACHED_THROUGH = {"settle": (Simulation,),
                   "spend_refills": (Simulation, CapacityMeter)}
# the run that reaches a name, where it is not the tip-cap run: only a
# partition heals
RUN_OF = {"_heal": PARTITION_RUN}


@pytest.mark.parametrize("cls,name", [(cls, name) for cls, names
                                      in FAST_PATHS.items()
                                      for name in names])
def test_a_stack_that_inherits_a_fast_mechanism_trips_the_guard(
        cls, name, monkeypatch):
    trip(monkeypatch, cls, name)
    ref = PollingSimulation(pm.scenario_from_dict(RUN_OF.get(name,
                                                             TIP_CAP_RUN)))
    for layer in REACHED_THROUGH.get(name, (cls,)):
        take_fast_layer(ref, layer)
    with pytest.raises(FastPathCalled, match=f"^{cls.__name__}.{name}$"):
        ref.run()


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
    for n, node in enumerate(sim.nodes):
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
    for node in sim.nodes:
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
    assert any(n.included_txids for n in sim.nodes)


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


def mint(sim, parent, slot, producer=9, bpo=None, upload=True):
    """One child of `parent` minted on a win of `producer`, its content
    uploaded unless `upload` is False; under proof of stake, passing
    another header's `bpo` mints its twin."""
    content = sim.store.make_content()
    header = sim.store.extend(bpo or BpoId(slot, producer, False, 0),
                              parent.id, content.commitment)
    if upload:
        sim.env.upload_content(header, content)
    return header


def push(sim, header, node, slot):
    """Queue `header` for delivery to `node` at `slot`."""
    sim.env.queue_header(header, (node,), slot)


def chain(sim, length, slot, producer=9, upload=True):
    out, parent = [], sim.store.genesis
    for k in range(length):
        parent = mint(sim, parent, slot + k, producer, upload=upload)
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
    for node, ref_node in zip(sim.nodes, ref.nodes):
        assert node.meter.spent_total == ref_node.meter.spent_total
        assert node.partial == ref_node.partial
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
    assert sim.nodes[0].meter.spent_total > 0.5


def test_a_header_mid_stretch_preempts_with_the_polled_payment():
    def script(sim):
        first = chain(sim, 1, slot=0)[0]
        longer = chain(sim, 2, slot=0, producer=8)
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
        far = chain(sim, 2, slot=0, producer=3)
        near = chain(sim, 1, slot=0, producer=0)[0]
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


def test_a_pass_that_blanks_and_reorders_tips_rewalks_in_the_same_slot():
    """Greedy under SaPoS: the first pass blanks the equivocated top chain
    and ends on a1, but its blanks lift the processed prefix of c's tip
    above a1's.  The walk re-keys and walks again in the same slot, so the
    node serves c from slot 1 and sleeps until c's download completes,
    past the horizon, with nothing paid on a1."""
    def script(sim):
        top = chain(sim, 4, slot=0)
        twins = [mint(sim, sim.store.headers[h.parent_id], 0, bpo=h.bpo)
                 for h in top]
        a = chain(sim, 3, slot=0, producer=8)
        c = mint(sim, top[0], 5, producer=7)
        for h in [top[-1], *twins, a[-1], c]:
            push(sim, h, 0, 1)
        script.a1, script.c = a[0], c

    (sim, _), (steps, ref_steps) = run_both(script, rate=0.1, horizon=8,
                                            protocol=pm.PROTOCOL_SAPOS,
                                            policy=pm.POLICY_GREEDY)
    assert steps_of_node_0(steps) == [1]
    assert steps_of_node_0(ref_steps) == list(range(1, 8))
    assert {row[0] for row in sim.trace.of_kind(tr.PRETEND_EMPTY)} == {1}
    node = sim.nodes[0]
    assert script.a1.id not in node.partial
    assert node.throttled == script.c.id
    assert node.wake == 8     # the horizon


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
        script.low = chain(sim, 1, slot=0, producer=8)[0]
        push(sim, script.low, 0, 3)

    (sim, _), (steps, ref_steps) = run_both(script, rate=0.1, horizon=12)
    assert any(row[0] == 3 and fields(row)["header"] == script.low.id
               for row in sim.trace.of_kind(tr.HEADER_DELIVERED))
    assert 3 not in steps_of_node_0(steps)
    assert 3 in steps_of_node_0(ref_steps)
    assert sim.nodes[0].throttled == script.served[1].id


def test_a_header_ranked_above_the_served_tip_wakes_the_node():
    def script(sim):
        script.served = served_chain(sim)
        script.high = chain(sim, 3, slot=0, producer=8)
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
        flood = [chain(sim, 2, slot=0, producer=20 + i, upload=False)[-1]
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
        twin = mint(sim, sim.store.genesis, 0, producer=8,
                    bpo=script.served[0].bpo)
        push(sim, twin, 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12,
                                    protocol=pm.PROTOCOL_SAPOS)
    assert steps_of_node_0(steps)[:2] == [1, 3]
    assert [(row[0], fields(row)["header"])
            for row in sim.trace.of_kind(tr.PRETEND_EMPTY)
            if fields(row)["node"] == 0] == [(3, script.served[0].id)]
    assert sim.nodes[0].throttled == script.served[1].id


def test_an_own_block_ranked_below_the_served_tip_keeps_the_node_asleep():
    def script(sim):
        script.served = served_chain(sim)
        win(sim, 0, 3)

    (sim, _), (steps, _) = run_both(script, rate=0.1, horizon=12)
    node = sim.nodes[0]
    own = [fields(row)["header"]
           for row in sim.trace.of_kind(tr.BLOCK_PRODUCED)]
    assert len(own) == 1 and node.dchain[0] == own[0]
    assert 3 not in steps_of_node_0(steps)
    assert node.throttled == script.served[1].id


def test_a_cleared_memo_wakes_the_node():
    """The tip above the served one has a withheld front, which the node
    memoised as unavailable in slot 1; its upload in slot 3 wakes it."""
    def script(sim):
        script.high = chain(sim, 2, slot=0, producer=8, upload=False)
        script.low = chain(sim, 1, slot=0)[0]
        for h in (script.high[-1], script.low):
            push(sim, h, 0, 1)
        push(sim, script.low, 1, 3)   # makes the loop visit slot 3
        front = script.high[0]
        at_slot(sim, 3, lambda slot: sim.upload(
            front, sim.store.contents[front.commitment], slot))

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
        h = node.store.headers[hid]
        proofed.update(proof.target for proof in h.proofs)
        if hid not in node.blanked:
            txids.update(t[0] for t in node.store.contents[h.commitment].txs)
    return proofed, txids


@pytest.mark.parametrize("protocol,attack,policy", [
    (pm.PROTOCOL_SAPOS, pm.ATTACK_POS_TEASER, pm.POLICY_GREEDY),
    (pm.PROTOCOL_POW, pm.ATTACK_TEASER, pm.POLICY_LONGEST_HEADER_CHAIN),
    (pm.PROTOCOL_POS, pm.ATTACK_PARTITION, pm.POLICY_FRESHEST_BLOCK),
])
def test_chain_counts_match_a_rebuild_after_every_switch(protocol, attack,
                                                         policy):
    cfg = matrix_dict(protocol, attack, policy, 0.33, True, seed=3)
    if protocol == pm.PROTOCOL_SAPOS:   # the one case that plants
        cfg["attack"]["sacrifice_every"] = 1
    sim = Simulation(pm.scenario_from_dict(cfg))
    switches = 0
    for node in sim.nodes:
        def after(header_id, slot, node=node, inner=node._after_processed):
            nonlocal switches
            tip = node.dchain_tip
            inner(header_id, slot)
            if node.dchain_tip != tip:
                switches += node.store.headers[header_id].parent_id != tip
                assert (set(node.proofed_targets),
                        set(node.included_txids)) == rebuilt_chain_state(node)
        node._after_processed = after
    sim.run()
    assert switches > 0
    assert any(n.included_txids for n in sim.nodes)
    if protocol == pm.PROTOCOL_SAPOS:
        assert any(n.proofed_targets for n in sim.nodes)


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
        highest = max(n.dchain_height for n in sim.nodes)
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


def same_runs(configs):
    """Run each configuration on both sides, printing a line per run, and
    return how many were the same."""
    same = 0
    for i, (name, config) in enumerate(configs):
        assert_same_run(config)
        same += 1
        print(f"{i + 1}/{len(configs)} {name} same", flush=True)
    return same


if __name__ == "__main__":
    matrix = same_runs([(c, matrix_config(*c)) for c in MATRIX])
    pinned = same_runs([(name, pm.scenario_from_dict(RUNS[name]))
                        for name in sorted(RUNS)])
    print(f"{matrix}/{len(MATRIX)} same", flush=True)
    print(f"{pinned}/{len(RUNS)} same", flush=True)
    sys.exit(0)
