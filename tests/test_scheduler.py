"""The download scheduler's sorted tip index and chain intake: equal to the
sorted()/min() scheduler with per-header inserts that they replaced
(`ReferenceNode`, which lives in tests/reference.py) on generated header
trees, their cost per poll and per delivered chain, and their behaviour at
the 100-tip cap."""
import math

import pytest
from conftest import Rig, line
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakasim import node as nd
from nakasim import params as pm
from nakasim.lottery import BpoId
from reference import ReferenceNode


# -- a recorded rig ----------------------------------------------------------

class Driven:
    """A Rig whose node records every schedule_target pick and every tip
    evicted by a chain insert: the tips it found that it evicted, and the
    members that evicted themselves.  Since keys rise along a chain, those
    members lead it, and the node's eviction count says how many there
    are."""

    def __init__(self, node_cls, rate, policy, protocol):
        self.rig = rig = Rig(rate=rate, policy=policy, protocol=protocol,
                             k_conf=3, k_epf=4)
        if node_cls is not nd.Node:
            rig.node = node_cls(0, rig.store, rig.env, rig.trace, policy,
                                3, rig.sink, nd.HonestFront())
        self.node = node = rig.node
        self.picks: list = []
        self.victims: list = []
        self.on_evict = None
        pick, insert = node.schedule_target, node._insert_chain

        def schedule_target(slot):
            target = pick(slot)
            self.picks.append(None if target is None else target.id)
            return target

        def _insert_chain(chain, slot):
            before, evictions = set(node.tips), node.tip_evictions
            ids = insert(chain, slot)
            parent = chain[0].parent_id
            evicted = before - set(node.tips) - {parent}
            selves = node.tip_evictions - evictions - len(evicted)
            gone = sorted(evicted) + ids[:selves]
            self.victims += gone
            if gone and self.on_evict is not None:
                self.on_evict(before | {ids[-1]}, parent)
            return ids

        node.schedule_target = schedule_target
        node._insert_chain = _insert_chain


class TreeDriver:
    """Replays one generated operation list on a rig: minting headers into
    its store, delivering them, withholding and uploading content, minting
    equivocating twins, producing, and stepping the scheduler."""

    def __init__(self, driven: Driven):
        self.d = driven
        self.rig = driven.rig
        # only PoS and SaPoS stores mint equivocating twins
        self.pos = driven.rig.store.protocol != pm.PROTOCOL_POW
        self.slot = 0
        self.minted = [self.rig.store.genesis]
        self.withheld: dict[int, object] = {}

    def _pick(self, sel):
        return self.minted[sel % len(self.minted)]

    def _mint(self, parent, withhold, bpo=None):
        self.slot += 1
        content = self.rig.store.make_content()
        bpo = bpo or BpoId(self.slot, 7, False, 0)
        header = self.rig.store.extend(bpo, parent.id, content.commitment)
        if withhold:
            self.withheld[header.id] = content
        else:
            self.rig.env.upload_content(header, content)
        self.minted.append(header)
        return header

    def apply(self, op):
        kind, sel, n, bits = op
        node = self.d.node
        if kind == "fan":
            parent = self._pick(sel)
            for i in range(n):
                h = self._mint(parent, withhold=bits >> (i % 16) & 1)
                node.on_header(h, self.slot)
        elif kind == "chain":
            h = self._pick(sel)
            for i in range(n):
                h = self._mint(h, withhold=i >= bits % (n + 1))
            if bits & 16:
                node.on_header(h, self.slot)
        elif kind == "twin" and self.pos:
            orig = self._pick(sel)
            if orig.parent_id is not None:
                twin = self._mint(self.rig.store.headers[orig.parent_id],
                                  withhold=bits & 1, bpo=orig.bpo)
                node.on_header(twin, self.slot)
                if bits & 2:
                    node.on_header(orig, self.slot)
        elif kind == "deliver":
            node.on_header(self._pick(sel), self.slot)
        elif kind == "upload":
            h = self._pick(sel)
            content = self.withheld.pop(h.id, None)
            if content is not None:
                self.rig.env.upload_content(h, content)
                node.content_uploaded(content.commitment, self.slot)
        elif kind == "produce":
            self.slot += 1
            header, content = node.try_produce(
                BpoId(self.slot, 0, True, 0), self.slot)
            self.minted.append(header)
            self.rig.env.upload_content(header, content)
        elif kind == "step":
            for _ in range(n):
                self.slot += 1
                node.process_step(self.slot)


# (kind, header selector, width or length or steps, withholding bits)
small_ops = st.tuples(
    st.sampled_from(("fan", "chain", "twin", "deliver", "upload", "produce",
                     "step")),
    st.integers(0, 10_000), st.integers(1, 12), st.integers(0, 1 << 16))


@st.composite
def tree_ops(draw):
    """Random operations around one fan wide enough to pass the tip cap."""
    before = draw(st.lists(small_ops, max_size=25))
    flood = ("fan", draw(st.integers(0, 10_000)),
             draw(st.integers(nd.MAX_SCHEDULER_TIPS + 1, 120)),
             draw(st.integers(0, 1 << 16)))
    after = draw(st.lists(small_ops, min_size=5, max_size=25))
    return before + [flood] + after


POLICY_PROTOCOLS = [(policy, protocol) for policy in pm.POLICIES
                    for protocol in (pm.PROTOCOL_POW, pm.PROTOCOL_SAPOS)]


@pytest.mark.parametrize("policy,protocol", POLICY_PROTOCOLS)
@given(ops=tree_ops(), rate=st.sampled_from([0.3, 1.0, 2.5]))
# greedy under SaPoS: a blank lifts a lower tip's processed prefix above the
# top tip, whose withheld front is uploaded before the throttled node polls
@example(ops=[("chain", 0, 1, 17), ("step", 0, 3, 0), ("chain", 1, 4, 20),
              ("fan", 1, 1, 1), ("chain", 6, 1, 17), ("chain", 0, 3, 19),
              ("step", 0, 1, 0), ("twin", 6, 1, 0), ("step", 0, 1, 0),
              ("upload", 2, 1, 0), ("step", 0, 1, 0), ("fan", 0, 101, 0)],
         rate=0.3)
# greedy: the node produces while at the cap, and its block, whose insert
# evicts a tip, is keyed as processed at once; then it polls again
@example(ops=[("fan", 0, 101, 0), ("fan", 0, 1, 0), ("fan", 1, 1, 0),
              ("step", 0, 1, 0), ("produce", 0, 1, 0), ("step", 0, 1, 0)],
         rate=0.3)
# a three-header chain forking at genesis, delivered at the cap below 100
# tips of height 6 minted after it: every member evicts itself
@example(ops=[("chain", 0, 3, 0), ("chain", 0, 5, 16), ("fan", 8, 100, 0),
              ("deliver", 3, 1, 0), ("step", 0, 2, 0)],
         rate=1.0)
# a chain forking at genesis, delivered at the cap among 100 tips of height
# 1: its first member, minted before them, evicts itself, and the second
# outranks the lowest tip, which it evicts
@example(ops=[("chain", 0, 1, 0), ("fan", 0, 100, 0), ("chain", 1, 2, 16),
              ("step", 0, 2, 0)],
         rate=1.0)
@settings(max_examples=25, deadline=None)
def test_index_matches_the_reference_scheduler(policy, protocol, ops, rate):
    new = Driven(nd.Node, rate, policy, protocol)
    ref = Driven(ReferenceNode, rate, policy, protocol)
    new_tree, ref_tree = TreeDriver(new), TreeDriver(ref)
    for op in ops:
        new_tree.apply(op)
        ref_tree.apply(op)
        assert new.picks == ref.picks
        assert sorted(new.victims) == sorted(ref.victims)
        new.victims.clear()
        ref.victims.clear()
        assert set(new.node.tips) == set(ref.node.tips)
        assert new.node._pending.keys() == new.node.tips.keys()
        if policy == pm.POLICY_GREEDY:
            # greedy keys read the queues' lengths
            assert ({t: list(new.node._pending_for(t)) for t in new.node.tips}
                    == {t: list(ref.node._pending_for(t))
                        for t in ref.node.tips})
    assert ref.node.tip_evictions > 0
    assert new.node.tip_evictions == ref.node.tip_evictions
    assert new.node.dchain == ref.node.dchain
    assert new.node.partial == ref.node.partial
    assert ([line(row) for row in new.rig.trace]
            == [line(row) for row in ref.rig.trace])


# -- cost ------------------------------------------------------------------

class CountingKey(tuple):
    """A policy key that counts the ordering comparisons made on it."""
    lt = 0

    def __lt__(self, other):
        CountingKey.lt += 1
        return tuple.__lt__(self, other)


def _flooded(node_cls, n_tips):
    """A node holding `n_tips` withheld single-block tips."""
    d = Driven(node_cls, 1.0, pm.POLICY_LONGEST_HEADER_CHAIN, pm.PROTOCOL_POW)
    tree = TreeDriver(d)
    tree.apply(("fan", 0, n_tips, (1 << 16) - 1))
    return d, tree


def test_polls_and_inserts_compute_no_more_than_they_must(monkeypatch):
    calls = {"key": 0, "sorted": 0}
    key = nd.Node._key

    def counted_key(self, tip_id):
        calls["key"] += 1
        return CountingKey(key(self, tip_id))

    def counted_sorted(*args, **kwargs):
        calls["sorted"] += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(nd.Node, "_key", counted_key)
    # a module global shadows the builtin for calls made in node.py
    monkeypatch.setattr(nd, "sorted", counted_sorted, raising=False)
    d, tree = _flooded(nd.Node, 60)
    calls["key"] = 0
    for slot in range(20, 25):                 # polls with unchanged tips
        d.node.schedule_target(slot)
    assert calls == {"key": 0, "sorted": 0}

    # at the cap, an insert keys only the new tip and bisects the index
    tree.apply(("fan", 0, nd.MAX_SCHEDULER_TIPS - 60 + 1, (1 << 16) - 1))
    assert d.node.tip_evictions == 1
    calls["key"] = CountingKey.lt = 0
    tree.apply(("fan", 0, 1, 1))
    assert len(d.node.tips) == nd.MAX_SCHEDULER_TIPS
    assert d.node.tip_evictions == 2
    assert calls == {"key": 1, "sorted": 0}
    # one insort, one bisect to drop the evicted tip
    assert CountingKey.lt <= 2 * math.ceil(math.log2(nd.MAX_SCHEDULER_TIPS + 2))
    # the next poll reorders nothing
    d.node.schedule_target(tree.slot)
    assert calls["sorted"] == 0

    # a delivered chain that extends a tip keys only its top, drops the
    # parent with one bisect and adds the top with one insort, however long
    for length in (2, 12):
        extended = next(i for i, h in enumerate(tree.minted)
                        if h.id in d.node.tips)
        calls["key"] = CountingKey.lt = 0
        tree.apply(("chain", extended, length, 16))
        assert tree.minted[-1].id in d.node.tips
        assert len(d.node.tips) == nd.MAX_SCHEDULER_TIPS
        assert d.node.tip_evictions == 2
        assert calls == {"key": 1, "sorted": 0}
        assert CountingKey.lt <= 2 * math.ceil(
            math.log2(nd.MAX_SCHEDULER_TIPS + 2))


def test_reference_scans_every_tip_per_insert_at_the_cap(monkeypatch):
    """The cost the index removes: the reference keys every tip for the
    eviction min() and re-sorts on the next poll."""
    d, tree = _flooded(ReferenceNode, nd.MAX_SCHEDULER_TIPS)
    calls = {"key": 0}
    key = ReferenceNode._policy_key

    def counted(self, tip_id):
        calls["key"] += 1
        return key(self, tip_id)

    monkeypatch.setattr(ReferenceNode, "_policy_key", counted)
    tree.apply(("fan", 0, 1, 1))
    assert d.node.tip_evictions == 1
    assert calls["key"] == nd.MAX_SCHEDULER_TIPS + 1


# -- the tip cap -----------------------------------------------------------

def _front(node, tip_id):
    """The first block of the tip's chain that is not processed (blanked
    blocks count as processed), or None when the whole chain is done."""
    front, cur = None, tip_id
    while cur not in node.processed:
        front, cur = cur, node.store.headers[cur].parent_id
    return front


def _policy_rank(node, tip_id):
    """The policy's priority, recomputed from the node's state."""
    h = node.store.headers[tip_id]
    order = -node.seen_order[tip_id]
    if node.policy == pm.POLICY_FRESHEST_BLOCK:
        return (h.bpo.slot, h.height, order)
    if node.policy == pm.POLICY_GREEDY:
        front = _front(node, tip_id)
        done = (h.height if front is None
                else node.store.headers[front].height - 1)
        return (done, h.height, order)
    return (h.height, order)


@pytest.mark.parametrize("policy", pm.POLICIES)
@given(ops=tree_ops(), rate=st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=20, deadline=None)
def test_tip_cap_keeps_the_best_processable_tip(policy, ops, rate):
    d = Driven(nd.Node, rate, policy, pm.PROTOCOL_POS)
    node, cloud = d.node, d.rig.env.cloud

    def check(candidates, parent):
        processable = [t for t in candidates - {parent}
                       if (f := _front(node, t)) is not None
                       and node.store.headers[f].commitment in cloud]
        if len(processable) >= 2:
            best = max(processable, key=lambda t: _policy_rank(node, t))
            assert best in node.tips

    d.on_evict = check
    tree = TreeDriver(d)
    for op in ops:
        tree.apply(op)
        assert len(node.tips) <= nd.MAX_SCHEDULER_TIPS
    assert node.tip_evictions > 0


@pytest.mark.parametrize("policy", pm.POLICIES)
def test_withheld_tip_flood_evicts_the_only_processable_tip(policy):
    """Pinned current behaviour, not a property of the model: a flood of
    withheld tips ranked above the honest tip pushes it out of the
    scheduler, which then serves only withheld headers and idles."""
    rig = Rig(rate=1.0, policy=policy)
    honest = rig.chain(1, start_slot=1, node_id=1)[0]
    rig.deliver(honest, 3)
    flood = [rig.chain(2, start_slot=2, node_id=100 + i, upload=False)[-1]
             for i in range(nd.MAX_SCHEDULER_TIPS)]
    rig.deliver(flood, 3)
    node = rig.node
    assert len(node.tips) == nd.MAX_SCHEDULER_TIPS
    assert node.tip_evictions >= 1
    assert honest.id not in node.tips
    target = node.schedule_target(3)
    assert target.commitment not in rig.env.cloud
    rig.step(3)
    assert honest.id not in node.processed
    assert not node.active
    assert node.schedule_target(4) is None


def test_an_own_block_that_evicts_is_keyed_as_processed_at_once():
    """Greedy: the node's own block, whose insert at the cap evicts a tip,
    leads its key with its own height, as every done block does, not with
    its parent's, the height it had while unprocessed."""
    rig = Rig(rate=1.0, policy=pm.POLICY_GREEDY)
    node = rig.node
    rig.deliver(rig.chain(1, start_slot=1), 1)
    rig.step(1)
    assert node.dchain_height == 1 and not node.tips
    rig.deliver([rig.chain(1, start_slot=2, node_id=100 + i, upload=False)[0]
                 for i in range(nd.MAX_SCHEDULER_TIPS)], 2)
    rig.step(2)
    header, _ = node.try_produce(BpoId(3, 0, True, 0), 3)
    assert node.tip_evictions == 1
    assert node.tips[header.id] == (2, 2, -node.seen_order[header.id])
