"""Delivery deadlines, the content cloud, and token-bucket budgets."""
import pytest

from nakasim import netenv
from nakasim.lottery import BpoId, Content, HeaderStore
from nakasim.netenv import (CapacityMeter, CommitmentMismatch, Environment,
                            Partition, RequestOutcome)


def mk_header(store, slot=1, parent=None):
    parent = parent if parent is not None else store.genesis.id
    c = store.make_content()
    return store.pow_extend(BpoId(slot, slot, True, 0), parent,
                            c.commitment), c


def test_meter_carry_over_is_one_block():
    m = CapacityMeter(0.3)
    assert m.sync(100) == pytest.approx(1.0 + 0.3)
    m.spend(1.3)
    assert m.sync(101) == pytest.approx(0.3)
    assert m.sync(104) == pytest.approx(min(0.3 + 3 * 0.3, 1.3))


def test_meter_overdraw_is_a_bug():
    m = CapacityMeter(1.0)
    m.sync(1)
    with pytest.raises(AssertionError):
        m.spend(5.0)


def test_broadcast_delivers_at_deadline():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=2)
    h, _ = mk_header(store)
    env.broadcast_header(h, origin=0, slot=5)
    assert env.deliveries_due(6) == []
    assert env.deliveries_due(7) == [(1, h)]
    assert env.deliveries_due(8) == []


def test_zero_delay_delivers_same_slot():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=0)
    h, _ = mk_header(store)
    env.broadcast_header(h, origin=1, slot=3)
    assert env.deliveries_due(3) == [(0, h)]


def test_push_beats_deadline_and_dedups():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=4)
    h, _ = mk_header(store)
    env.push_header(h, node=1, slot=2)
    env.broadcast_header(h, origin=0, slot=2)  # pair already enqueued
    assert env.deliveries_due(2) == [(1, h)]
    assert env.deliveries_due(6) == []


def test_broadcast_once_per_pair():
    store = HeaderStore()
    env = Environment([0, 1], 1.0, delay_slots=1)
    h, _ = mk_header(store)
    env.broadcast_header(h, origin=0, slot=1)
    env.broadcast_header(h, origin=0, slot=1)
    assert env.deliveries_due(2) == [(1, h)]


def test_upload_rejects_mismatched_content():
    store = HeaderStore()
    env = Environment([0], 1.0, 0)
    h, _ = mk_header(store)
    wrong = store.make_content()
    with pytest.raises(CommitmentMismatch):
        env.upload_content(h, wrong, origin=0, slot=0)
    assert env.cloud == {}


def test_upload_is_insert_only():
    store = HeaderStore()
    env = Environment([0], 1.0, 0)
    h, c = mk_header(store)
    assert env.upload_content(h, c, origin=0, slot=0) is True
    assert env.upload_content(h, c, origin=0, slot=1) is False
    assert env.uploader[c.commitment] == 0


def test_unavailable_request_is_free_and_registers_waiter():
    store = HeaderStore()
    env = Environment([0], 1.0, 0)
    h, c = mk_header(store)
    woken = []
    env.on_upload = lambda node, commitment: woken.append((node, commitment))
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.UNAVAILABLE and paid == 0.0
    assert env.meters[0].spent_total == 0.0
    env.upload_content(h, c, origin=0, slot=1)
    assert woken == [(0, c.commitment)]


def test_half_rate_fetch_completes_over_two_slots():
    """rate 0.5/slot: first request banks a partial, the next slot finishes."""
    store = HeaderStore()
    env = Environment([0], 0.5, 0)
    h, c = mk_header(store)
    env.upload_content(h, c, origin=0, slot=0)
    env.meters[0].tokens = 0.5  # start without the initial carry-over
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.THROTTLED and paid == pytest.approx(0.5)
    outcome, paid = env.request_content(0, h, 0.5, slot=1)
    assert outcome is RequestOutcome.FETCHED and paid == pytest.approx(0.5)
    assert env.fetch_count[0] == 1


def test_throttled_at_zero_budget_pays_nothing():
    store = HeaderStore()
    env = Environment([0], 0.5, 0)
    h, c = mk_header(store)
    env.upload_content(h, c, origin=0, slot=0)
    env.meters[0].tokens = 0.0
    outcome, paid = env.request_content(0, h, 0.0, slot=0)
    assert outcome is RequestOutcome.THROTTLED and paid == 0.0


def test_partition_withholds_until_heal():
    store = HeaderStore()
    part = Partition(half_of={0: 0, 1: 1}, heal_slot=10)
    env = Environment([0, 1], 1.0, delay_slots=1, partition=part)
    h, c = mk_header(store)
    env.broadcast_header(h, origin=0, slot=2)
    assert env.deliveries_due(5) == []
    assert env.deliveries_due(10) == [(1, h)]
    env.upload_content(h, c, origin=0, slot=2)
    assert not env.content_visible(1, c.commitment, 5)
    assert env.content_visible(0, c.commitment, 5)
    assert env.content_visible(1, c.commitment, 10)


def test_heal_notify_wakes_cross_half_waiters():
    store = HeaderStore()
    part = Partition(half_of={0: 0, 1: 1}, heal_slot=4)
    env = Environment([0, 1], 1.0, 0, partition=part)
    h, c = mk_header(store)
    env.upload_content(h, c, origin=0, slot=1)
    woken = []
    env.on_upload = lambda node, commitment: woken.append(node)
    outcome, _ = env.request_content(1, h, 0.0, slot=1)
    assert outcome is RequestOutcome.UNAVAILABLE
    env.heal_notify_all()
    assert woken == [1]



# rates a hair under 1/n put the fetch test right at its 1e-9 tolerance,
# where a closed form drifts from the per-slot float sums
@pytest.mark.parametrize("rate", [(1 - 1e-9) / n for n in range(3, 13)]
                         + [0.07, 0.1, 0.33])
@pytest.mark.parametrize("paid", [0.0, 0.05])
def test_throttled_slots_paid_late_match_per_slot_requests(rate, paid):
    store = HeaderStore()
    h, c = mk_header(store)
    polled, lazy = (Environment([0], rate, delay_slots=0) for _ in range(2))
    for env in (polled, lazy):
        env.upload_content(h, c, origin=0, slot=0)
        outcome, newly = env.request_content(0, h, paid, 1)
        assert outcome is RequestOutcome.THROTTLED
    paid += newly
    done = polled.meters[0].completion_slot(paid, 1)
    lazy_paid = paid
    for slot in range(2, done):
        outcome, newly = polled.request_content(0, h, paid, slot)
        assert outcome is RequestOutcome.THROTTLED
        paid += newly
    assert lazy.meters[0].spend_refills(done - 1) == done - 2
    for _ in range(done - 2):
        lazy_paid += rate
    assert lazy_paid == paid
    assert lazy.meters[0].spent_total == polled.meters[0].spent_total
    for env, p in ((polled, paid), (lazy, lazy_paid)):
        assert env.request_content(0, h, p, done)[0] is RequestOutcome.FETCHED
