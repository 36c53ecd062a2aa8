"""Delivery deadlines, the content cloud, and token-bucket budgets.  The
grouped delivery queue, the request path, the one-call draw and the
memoized replays are held against their references, `PerRecipientQueue`,
`request_oracle` and `ReferenceMeter`, which live in tests/reference.py."""
import copy
import math
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakasim import netenv
from nakasim import params as pm
from nakasim.lottery import BlockHeader, BpoId, HeaderStore
from nakasim.netenv import (FETCH_SLACK, CapacityMeter, CommitmentMismatch,
                            Environment, Partition, RequestOutcome)
from nakasim.sim import Simulation
from reference import PerRecipientQueue, ReferenceMeter, request_oracle
from test_trace_digests import attack_scenario


def mk_header(store, slot=1, parent=None, producer=0):
    """A header minted on a win of `producer` in `slot`, and its content."""
    parent = parent if parent is not None else store.genesis.id
    c = store.make_content()
    return store.extend(BpoId(slot, producer, True, 0), parent,
                        c.commitment), c


def test_meter_carry_over_is_one_block():
    m = CapacityMeter(0.3, 200)
    assert m.peek(100) == pytest.approx(1.0 + 0.3)
    m.draw(1.3, 100)
    assert m.peek(101) == pytest.approx(0.3)
    assert m.peek(104) == pytest.approx(min(0.3 + 3 * 0.3, 1.3))


def test_meter_overdraw_is_a_bug():
    m = CapacityMeter(1.0, 100)
    m.draw(1.0, 1)
    m.tokens = -5.0     # what a spend of 5.0 would have left
    with pytest.raises(AssertionError, match="overdrawn"):
        m.draw(1.0, 1)


def test_broadcast_delivers_at_deadline():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=2, horizon_slots=100)
    h, _ = mk_header(store)
    env.broadcast_header(h, slot=5)
    assert env.deliveries_due(6) == []
    assert env.deliveries_due(7) == [(1, h)]
    assert env.deliveries_due(8) == []


def test_zero_delay_delivers_same_slot():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=0, horizon_slots=100)
    h, _ = mk_header(store, producer=1)
    env.broadcast_header(h, slot=3)
    assert env.deliveries_due(3) == [(0, h)]


EVERY_SENDER = {
    # honest producers and header-only (SPV) miners both broadcast
    "pow-teaser-spv": attack_scenario(pm.PROTOCOL_POW,
                                      strategy=pm.ATTACK_TEASER, spv_rate=0.2),
    # the split delays cross-half deliveries to the heal slot
    "pow-partition": attack_scenario(pm.PROTOCOL_POW,
                                     strategy=pm.ATTACK_PARTITION,
                                     partition_duration=50.0),
    "sapos-pos-teaser": attack_scenario(pm.PROTOCOL_SAPOS,
                                        strategy=pm.ATTACK_POS_TEASER),
}


@pytest.mark.parametrize("name", sorted(EVERY_SENDER))
def test_each_broadcast_header_reaches_each_node_once(name):
    """Every broadcast enqueues a freshly minted header, so the queue needs
    no de-duplication: each (header, node) pair other than the producer's
    is delivered exactly once, or is still queued at the horizon."""
    sim = Simulation(pm.scenario_from_dict(EVERY_SENDER[name]))
    env = sim.env
    sent, delivered = Counter(), Counter()
    broadcast, due = env.broadcast_header, env.deliveries_due

    def broadcast_header(header, slot):
        sent.update((header.id, p) for p in env.node_ids
                    if p != header.bpo.node)
        broadcast(header, slot)

    def deliveries_due(slot):
        out = due(slot)
        delivered.update((header.id, p) for p, header in out)
        return out
    env.broadcast_header = broadcast_header
    env.deliveries_due = deliveries_due
    sim.run()

    queued = Counter((header.id, p) for p, header in due(sys.maxsize))
    assert sent and delivered
    assert max(sent.values()) == 1
    assert delivered + queued == sent


def test_upload_rejects_mismatched_content():
    store = HeaderStore()
    env = Environment([0], 1.0, 0, 100)
    h, _ = mk_header(store)
    wrong = store.make_content()
    with pytest.raises(CommitmentMismatch):
        env.upload_content(h, wrong)
    assert env.cloud == set()


def test_upload_is_insert_only():
    store = HeaderStore()
    env = Environment([0], 1.0, 0, 100)
    h, c = mk_header(store)
    assert env.upload_content(h, c) is True
    assert env.upload_content(h, c) is False
    assert env.cloud == {c.commitment}


def test_unavailable_request_is_free():
    store = HeaderStore()
    env = Environment([0], 1.0, 0, 100)
    h, c = mk_header(store)
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.UNAVAILABLE and paid == 0.0
    assert env.meters[0].spent_total == 0.0
    env.upload_content(h, c)
    assert env.request_content(0, h, 0.0, slot=1)[0] is RequestOutcome.FETCHED


def test_half_rate_fetch_completes_over_two_slots():
    """rate 0.5/slot: first request banks a partial, the next slot finishes."""
    store = HeaderStore()
    env = Environment([0], 0.5, 0, 100)
    h, c = mk_header(store)
    env.upload_content(h, c)
    env.meters[0].tokens = 0.5  # start without the initial carry-over
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.THROTTLED and paid == pytest.approx(0.5)
    outcome, paid = env.request_content(0, h, 0.5, slot=1)
    assert outcome is RequestOutcome.FETCHED and paid == pytest.approx(0.5)


def test_throttled_at_zero_budget_pays_nothing():
    store = HeaderStore()
    env = Environment([0], 0.5, 0, 100)
    h, c = mk_header(store)
    env.upload_content(h, c)
    env.meters[0].tokens = 0.0
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.THROTTLED and paid == 0.0


def test_partition_withholds_until_heal():
    store = HeaderStore()
    part = Partition(half_of={0: 0, 1: 1}, heal_slot=10)
    env = Environment([0, 1], 1.0, delay_slots=1, horizon_slots=100,
                      partition=part)
    h, c = mk_header(store)
    env.broadcast_header(h, slot=2)
    assert env.deliveries_due(5) == []
    assert env.deliveries_due(10) == [(1, h)]
    env.upload_content(h, c)
    assert env.request_content(1, h, 0.0, 5) == (RequestOutcome.UNAVAILABLE,
                                                 0.0)
    assert env.request_content(0, h, 0.0, 5)[0] is RequestOutcome.FETCHED
    assert env.request_content(1, h, 0.0, 10)[0] is RequestOutcome.FETCHED


def small_sim(**attack):
    """Four honest nodes, not run: the tests below mint headers by hand
    and deliver them straight to the nodes."""
    return Simulation(pm.scenario_from_dict({
        "sim": {"n_nodes": 6, "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
                "beta": 0.3, "rho": 0.1, "capacity": 1.0,
                "horizon_slots": 100, "seed": 1},
        "attack": attack}))


def memoise_unavailable(sim, node_ids, header, slot):
    """Deliver `header` to each node and step it: the request finds the
    content unavailable, and the node memoises that."""
    for n in node_ids:
        node = sim.nodes[n]
        node.on_header(header, slot)
        node.process_step(slot)
        assert header.commitment in node.unavailable
        assert not node.active


def test_an_upload_wakes_exactly_the_nodes_that_memoised_it():
    sim = small_sim()
    assert [node.id for node in sim.nodes] == [0, 1, 2, 3]
    # a spare content first: header ids and commitments then differ, so a
    # memo keyed by header id would wake node 2 on a's upload
    sim.store.make_content()
    a, content_a = mk_header(sim.store, slot=1)
    b, _ = mk_header(sim.store, slot=2)
    memoise_unavailable(sim, [0, 1], a, 3)
    memoise_unavailable(sim, [2], b, 3)
    sim.upload(a, content_a, slot=5)
    for n in (0, 1):
        node = sim.nodes[n]
        assert node.wake == 5
        assert a.commitment not in node.unavailable
    for n in (2, 3):
        assert not sim.nodes[n].active
    assert sim.nodes[2].unavailable == {b.commitment}
    # a second upload of the same content is rejected and wakes nobody
    sim.nodes[0].wake = 9
    sim.upload(a, content_a, slot=6)
    assert sim.nodes[0].wake == 9 and not sim.nodes[3].active


def test_a_memoised_commitment_is_not_requested_again():
    """Availability depends on the commitment alone: once a node found it
    unavailable, another header carrying it is skipped without a request."""
    sim = small_sim()
    a, _ = mk_header(sim.store, slot=1)
    memoise_unavailable(sim, [0], a, 3)
    b = sim.store.extend(BpoId(4, 4, True, 0), a.parent_id, a.commitment)
    requests = []
    real = sim.env.request_content
    sim.env.request_content = lambda *args: requests.append(args) or real(*args)
    node = sim.nodes[0]
    node.on_header(b, 4)
    node.process_step(4)
    assert requests == [] and not node.active
    assert node.unavailable == {a.commitment}


def test_the_heal_clears_only_memos_of_content_in_the_cloud():
    sim = small_sim(strategy=pm.ATTACK_PARTITION, partition_duration=3.0)
    heal = sim._heal_slot
    far, near = sim.nodes[-1].id, sim.nodes[0].id
    assert sim.env.partition.blocks(near, far, heal - 1)
    sim.store.make_content()   # header ids and commitments differ
    across, content_across = mk_header(sim.store, slot=1, producer=near)
    withheld, _ = mk_header(sim.store, slot=2)
    sim.upload(across, content_across, slot=2)
    memoise_unavailable(sim, [far], across, 3)
    memoise_unavailable(sim, [far], withheld, 3)
    outcome, _ = sim.env.request_content(far, across, 0.0, heal - 1)
    assert outcome is RequestOutcome.UNAVAILABLE
    sim._heal(heal)
    node = sim.nodes[far]
    assert node.wake == heal
    assert node.unavailable == {withheld.commitment}
    assert not any(n.active for n in sim.nodes if n is not node)
    node.process_step(heal)
    assert across.id in node.processed


# rates a hair under 1/n put the fetch test right at its 1e-9 tolerance,
# where a closed form drifts from the per-slot float sums
@pytest.mark.parametrize("rate", [(1 - 1e-9) / n for n in range(3, 13)]
                         + [0.07, 0.1, 0.33])
@pytest.mark.parametrize("paid", [0.0, 0.05])
def test_throttled_slots_paid_late_match_per_slot_requests(rate, paid):
    store = HeaderStore()
    h, c = mk_header(store)
    polled, lazy = (Environment([0], rate, delay_slots=0, horizon_slots=100)
                    for _ in range(2))
    for env in (polled, lazy):
        env.upload_content(h, c)
        outcome, newly = env.request_content(0, h, paid, 1)
        assert outcome is RequestOutcome.THROTTLED
    paid += newly
    done = polled.meters[0].completion_slot(paid, 1)
    lazy_paid = paid
    for slot in range(2, done):
        outcome, newly = polled.request_content(0, h, paid, slot)
        assert outcome is RequestOutcome.THROTTLED
        paid += newly
    slept, lazy_paid = lazy.meters[0].spend_refills(done - 1, lazy_paid)
    assert slept == done - 2
    assert lazy_paid == paid
    assert lazy.meters[0].spent_total == polled.meters[0].spent_total
    for env, p in ((polled, paid), (lazy, lazy_paid)):
        assert env.request_content(0, h, p, done)[0] is RequestOutcome.FETCHED


# -- the grouped delivery queue -----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(n_nodes=st.integers(1, 6), delay=st.integers(0, 4),
       halves=st.none() | st.tuples(st.lists(st.integers(0, 1), min_size=6,
                                             max_size=6),
                                    st.integers(0, 25)),
       sends=st.lists(st.tuples(st.integers(0, 30), st.integers(-1, 5)),
                      max_size=25))
def test_grouped_queue_delivers_as_per_recipient_entries(n_nodes, delay,
                                                         halves, sends):
    """Random broadcasts from random producers (-1 is the adversary or an
    SPV miner, and producers may be outside the node set), with or without a
    partition and its heal: at every slot the grouped queue returns the
    deliveries and the next delivery slot of a per-recipient heap, and
    each broadcast adds one entry per delivery slot."""
    node_ids = [2 * i + 1 for i in range(n_nodes)]    # not 0..n-1
    partition = None
    if halves is not None:
        half_of = {p: halves[0][i] for i, p in enumerate(node_ids)}
        partition = Partition(half_of, heal_slot=halves[1])
    env = Environment(node_ids, 1.0, delay, 100, partition)
    ref = PerRecipientQueue(node_ids, delay, partition)
    by_slot = {}
    for k, (slot, producer) in enumerate(sends):
        by_slot.setdefault(slot, []).append(BlockHeader(
            k + 1, 0, BpoId(slot, 2 * producer + 1, False, k), 1, k + 1))
    for slot in range(31 + delay + 26):
        assert env.deliveries_due(slot) == ref.deliveries_due(slot)
        for header in by_slot.get(slot, ()):
            before = len(env._queue)
            env.broadcast_header(header, slot)
            ref.broadcast_header(header, slot)
            slots = {deliver for deliver, _, _, h in ref._queue
                     if h == header}
            assert len(env._queue) - before == len(slots)
        assert env.next_delivery_slot() == ref.next_delivery_slot()
    assert env.next_delivery_slot() is None and not ref._queue


# -- the meter's memoized replays ---------------------------------------------

REPLAY_HORIZON = 1_000   # past every wait asked below


def throttled_paid(rate, slots):
    """What a download banks after `slots` throttled slots from nothing."""
    return ReferenceMeter(rate, REPLAY_HORIZON).spend_refills(slots, 0.0)[1]


@settings(max_examples=300, deadline=None)
@given(rate=st.sampled_from([0.1, 0.2, 0.3, 0.07, 1.0, 2.0, 1 / 3])
       | st.integers(3, 12).map(lambda n: (1 - 1e-9) / n)
       | st.floats(0.01, 2.0),
       data=st.data())
def test_memoized_replays_equal_slot_by_slot_replays(rate, data):
    """`completion_slot` on one meter, asked in turn about paid values that
    real throttles leave (sums of whole refills from 0.0, the partial of a
    request) and others, each input asked again after other inputs, and
    `spend_refills` banking the same values over the same slots: every
    answer equals the reference meter's slot-by-slot replays bit for bit.
    0.1 and 0.2 are rates whose sums round, and rates a hair under 1/n put
    the fetch test at its tolerance."""
    meter = CapacityMeter(rate, REPLAY_HORIZON)
    ref = ReferenceMeter(rate, REPLAY_HORIZON)
    whole = max(1, int(1.0 / rate))
    paids = data.draw(st.lists(
        st.just(0.0)
        | st.integers(0, whole).map(lambda k: throttled_paid(rate, k))
        | st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=5))
    asks = data.draw(st.lists(st.tuples(
        st.integers(0, len(paids) - 1), st.integers(0, 40),
        st.integers(0, 30)), min_size=1, max_size=30))
    for i, slot, slots in asks + asks:
        paid = paids[i]
        assert meter.completion_slot(paid, slot) == ref.completion_slot(
            paid, slot)
        sleeper = CapacityMeter(rate, REPLAY_HORIZON)
        ref_sleeper = ReferenceMeter(rate, REPLAY_HORIZON)
        for m in (sleeper, ref_sleeper):
            m.draw(0.0, slot)     # advances the clock, spends nothing
        got = sleeper.spend_refills(slot + slots, paid)
        want = ref_sleeper.spend_refills(slot + slots, paid)
        assert got[0] == want[0] == slots and got[1].hex() == want[1].hex()
        assert sleeper.spent_total.hex() == ref_sleeper.spent_total.hex()


def test_a_wait_past_the_horizon_returns_the_horizon_unmemoized():
    """At 0.1 blocks per slot a download throttled with nothing paid is
    fetched ten slots later.  Asked at slot 5, with the horizon at 12,
    the replay stops at the horizon, returns it and memoizes nothing; so
    the same payment asked at slot 1, where the horizon is farther off
    than the wait, gets the true slot, the reference's."""
    meter = CapacityMeter(0.1, 12)
    assert meter.completion_slot(0.0, 5) == 12
    assert meter._steps == {}
    assert meter.completion_slot(0.0, 1) == 11
    assert ReferenceMeter(0.1, 12).completion_slot(0.0, 1) == 11
    assert meter._steps == {0.0: 9}


def test_a_wait_at_a_tiny_capacity_replays_no_further_than_the_horizon():
    """At C = 1e-6 a throttled download would wait ten million slots.  The
    replay of each wait stops at the 200-slot horizon, so the run takes
    milliseconds, and every node ends throttled with the horizon as its
    wake."""
    sim = Simulation(pm.scenario_from_dict({
        "sim": {"n_nodes": 3, "tau": 0.1, "nu": 5, "rho": 0.1,
                "capacity": 1e-6, "horizon_slots": 200, "seed": 1},
        "protocol": pm.PROTOCOL_POW}))
    start = time.perf_counter()
    sim.run()
    assert time.perf_counter() - start < 1.0
    assert all(n.throttled is not None and n.wake == 200
               for n in sim.nodes)


# -- the request path ---------------------------------------------------------

def at_the_edge(meter, slot):
    """An already-paid fraction whose remainder equals the tokens the meter
    holds at `slot` plus FETCH_SLACK exactly, where one exists near it, so
    that the fetch test is decided by its equality case."""
    probe = copy.copy(meter)
    edge = probe.sync(slot) + FETCH_SLACK
    paid = 1.0 - edge
    if paid < 0.0:
        return 0.0
    for candidate in (paid, math.nextafter(paid, 0.0),
                      math.nextafter(paid, 1.0)):
        if 0.0 <= candidate < 1.0 and 1.0 - candidate == edge:
            return candidate
    return paid


def meter_state(env):
    return {p: (m.tokens.hex(), m.spent_total.hex(), m._slot)
            for p, m in env.meters.items()}


NODES = (0, 1, 2)

request_steps = st.lists(
    st.one_of(
        st.tuples(st.just("upload"), st.integers(0, 3)),
        st.tuples(st.just("request"), st.sampled_from(NODES),
                  st.integers(0, 3), st.integers(0, 4),
                  st.sampled_from(("zero", "edge"))
                  | st.floats(0.0, 1.0, exclude_max=True))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(rate=st.sampled_from([0.3333333333333333, 0.1, 0.5, 1.0, 1.5, 2.0])
       | st.floats(0.01, 3.0),
       halves=st.none() | st.tuples(st.lists(st.integers(0, 1), min_size=3,
                                             max_size=3),
                                    st.integers(0, 15)),
       producers=st.lists(st.sampled_from((-1, *NODES)), min_size=4,
                          max_size=4),
       steps=request_steps)
# the fetch test decided by its equality case, and a request across the
# split in the last slot before the heal and in the heal slot
@example(rate=0.3333333333333333, halves=None, producers=[-1, 0, 1, 2],
         steps=[("upload", 0), ("request", 0, 0, 0, "edge")])
@example(rate=0.5, halves=([0, 0, 1], 5), producers=[0, 0, 1, 2],
         steps=[("upload", 0), ("request", 2, 0, 4, "zero"),
                ("request", 2, 0, 1, "zero")])
def test_request_content_equals_the_composed_request(rate, halves, producers,
                                                     steps):
    """Two environments driven through the same uploads and requests, by
    random nodes at rising slots, of blocks by random producers (-1 is
    the adversary or an SPV miner), with and without a partition and its
    heal: `request_content` on one and `request_oracle` on the other, with
    reference meters, give the same (outcome, paid) bit for bit, and
    meters whose tokens, spent totals and slots are bit-equal."""
    partition = None
    if halves is not None:
        partition = Partition(dict(zip(NODES, halves[0])), heal_slot=halves[1])
    env, ref = (Environment(NODES, rate, 0, 100, partition) for _ in range(2))
    ref.meters = {p: ReferenceMeter(rate, 100) for p in NODES}
    store = HeaderStore()
    store.make_content()   # header ids and commitments differ
    blocks = [mk_header(store, slot=k + 1, producer=producer)
              for k, producer in enumerate(producers)]
    slot = 0
    for step in steps:
        if step[0] == "upload":
            header, content = blocks[step[1]]
            assert (env.upload_content(header, content)
                    == ref.upload_content(header, content))
            continue
        _, node, k, gap, paid = step
        slot += gap
        if paid == "zero":
            paid = 0.0
        elif paid == "edge":
            paid = at_the_edge(ref.meters[node], slot)
        header = blocks[k][0]
        got = env.request_content(node, header, paid, slot)
        want = request_oracle(ref, node, header, paid, slot)
        assert (got[0], got[1].hex()) == (want[0], want[1].hex())
        assert meter_state(env) == meter_state(ref)


@settings(max_examples=300, deadline=None)
@given(rate=st.sampled_from([0.1, 0.2, 0.3333333333333333])
       | st.floats(0.01, 3.0),
       steps=st.lists(st.tuples(st.integers(0, 4),
                                st.sampled_from(("zero", "edge"))
                                | st.floats(0.0, 1.0, exclude_max=True)),
                      max_size=40))
@example(rate=0.3333333333333333, steps=[(0, "edge"), (1, "edge")])
@example(rate=0.1, steps=[(1, "edge"), (0, "edge"), (3, 0.5)])
@example(rate=0.2, steps=[(2, "edge"), (0, "zero"), (4, "edge")])
def test_draw_equals_sync_fetch_test_and_spend(rate, steps):
    """`draw` on one meter and on a `ReferenceMeter`, which composes `sync`,
    the fetch test and `spend`, driven through the same requests at rising
    slots, some decided by the equality case of the fetch test: the
    outcome, the paid amount, the tokens, the spent total and the slot are
    bit-equal after every request."""
    meter, ref = CapacityMeter(rate, 1_000), ReferenceMeter(rate, 1_000)
    slot = 0
    for gap, paid in steps:
        slot += gap
        if paid == "zero":
            paid = 0.0
        elif paid == "edge":
            paid = at_the_edge(ref, slot)
        outcome, got = meter.draw(1.0 - paid, slot)
        want = ref.draw(1.0 - paid, slot)
        assert (outcome, got.hex()) == (want[0], want[1].hex())
        assert ((meter.tokens.hex(), meter.spent_total.hex(), meter._slot)
                == (ref.tokens.hex(), ref.spent_total.hex(), ref._slot))
