"""The download scheduler's sorted tip index: equal to the sorted()/min()
scheduler it replaced on generated header trees, its cost per poll and per
insert, and its behaviour at the 100-tip cap."""
import math
from collections import OrderedDict

import pytest
from conftest import Rig
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakasim import node as nd
from nakasim import params as pm
from nakasim import sapos as sp
from nakasim import trace as tr
from nakasim.lottery import BpoId


class ReferenceNode(nd.Node):
    """The scheduler before the sorted tip index: a static key per tip, a
    full sorted() whenever the tips or the processed blocks change, greedy
    keys cached per processed-block version, and a min() over every tip for
    each eviction at the cap.  Kept as the reference the index must equal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tips = OrderedDict()
        self._tip_key = {}
        self._done_version = 0
        self._greedy_cache = {}
        self._tips_version = 0
        self._sorted_cache = (-1, -1, [])

    def _insert(self, h, slot):
        self.known.add(h.id)
        self.seen_order[h.id] = self._seen_counter
        self._seen_counter += 1

        seen = self.bpo_seen.setdefault(h.bpo.key(), [])
        seen.append(h.id)
        if len(seen) == 2:
            self.trace.emit(slot, tr.EQUIVOCATION_SEEN, node=self.id,
                            bpo_slot=h.bpo.slot, bpo_node=h.bpo.node,
                            bpo_seq=h.bpo.seq, headers=list(seen))

        self._tips_version += 1
        if h.parent_id in self.tips:
            del self.tips[h.parent_id]
            self._tip_key.pop(h.parent_id, None)
            self._greedy_cache.pop(h.parent_id, None)
            dq = self._pending.pop(h.parent_id, None)
            if dq is not None:
                dq.append(h.id)
            self._pending[h.id] = dq
        else:
            self._pending[h.id] = None
        self.tips[h.id] = None
        order = -self.seen_order[h.id]
        if self.policy == pm.POLICY_FRESHEST_BLOCK:
            self._tip_key[h.id] = (h.bpo.slot, h.height, order)
        else:
            self._tip_key[h.id] = (h.height, order)
        if len(self.tips) > nd.MAX_SCHEDULER_TIPS:
            self.tip_evictions += 1
            worst = min(self.tips, key=self._policy_key)
            self._drop_tips([worst])

    def _policy_key(self, tip_id):
        base = self._tip_key[tip_id]
        if self.policy == pm.POLICY_GREEDY:
            hit = self._greedy_cache.get(tip_id)
            if hit is not None and hit[0] == self._done_version:
                return hit[1]
            dq = self._pending_for(tip_id)
            full = (base[0] - len(dq),) + base
            self._greedy_cache[tip_id] = (self._done_version, full)
            return full
        return base

    def schedule_target(self, slot):
        key = (self._tip_key.__getitem__
               if self.policy != pm.POLICY_GREEDY else self._policy_key)
        while True:
            acted = False
            finished = []
            done_v, tips_v, ordered = self._sorted_cache
            if done_v != self._done_version or tips_v != self._tips_version:
                ordered = sorted(self.tips, key=key, reverse=True)
                self._sorted_cache = (self._done_version, self._tips_version,
                                      ordered)
            for tip_id in ordered:
                dq = self._pending_for(tip_id)
                while dq:
                    front = dq[0]
                    if self.is_done(front):
                        dq.popleft()
                    elif self.sapos and sp.equivocated_in_view(
                            self, self.store.get(front)):
                        self._mark_blanked(front, slot)
                        dq.popleft()
                        acted = True
                    else:
                        break
                if not dq:
                    finished.append(tip_id)
                    continue
                if dq[0] in self.unavailable:
                    continue
                self._drop_tips(finished)
                return self.store.get(dq[0])
            self._drop_tips(finished)
            if not acted:
                return None

    def _drop_tips(self, tip_ids):
        if tip_ids:
            self._tips_version += 1
        for t in tip_ids:
            self.tips.pop(t, None)
            self._pending.pop(t, None)
            self._tip_key.pop(t, None)
            self._greedy_cache.pop(t, None)

    def _mark_blanked(self, header_id, slot):
        self.blanked.add(header_id)
        self._done_version += 1
        self.trace.emit(slot, tr.PRETEND_EMPTY, node=self.id, header=header_id)
        self._after_processed(header_id, slot)

    def _mark_processed(self, header_id, slot):
        self.processed.add(header_id)
        self._done_version += 1
        self._after_processed(header_id, slot)

    def try_produce(self, bpo, slot):
        txs = self._take_txs(slot)
        proofs = sp.attach_proofs(self, slot) if self.sapos else ()
        content = self.store.make_content(txs, producer=self.id)
        extend = (self.store.pow_extend if self.protocol == pm.PROTOCOL_POW
                  else self.store.pos_extend)
        header = extend(bpo, self.dchain_tip, content.commitment, proofs)
        for proof in proofs:
            self.trace.emit(slot, tr.PROOF_INCLUDED, node=self.id,
                            carrier=header.id, target=proof.target,
                            other=proof.header_b)
        self._insert(header, slot)
        self.processed.add(header.id)
        self._after_processed(header.id, slot)
        return header, content


# -- a recorded rig ----------------------------------------------------------

class Driven:
    """A Rig whose node records every schedule_target pick and every tip
    evicted by an insert."""

    def __init__(self, node_cls, rate, policy, protocol):
        self.rig = rig = Rig(rate=rate, policy=policy, protocol=protocol,
                             k_conf=3, k_epf=4)
        if node_cls is not nd.Node:
            rig.node = node_cls(0, rig.store, rig.env, rig.trace, policy,
                                protocol, 3, 4)
        self.node = node = rig.node
        self.picks: list = []
        self.victims: list = []
        self.on_evict = None
        pick, insert = node.schedule_target, node._insert

        def schedule_target(slot):
            target = pick(slot)
            self.picks.append(None if target is None else target.id)
            return target

        def _insert(h, slot):
            before = set(node.tips)
            insert(h, slot)
            gone = sorted((before | {h.id}) - set(node.tips) - {h.parent_id})
            self.victims += gone
            if gone and self.on_evict is not None:
                self.on_evict(before | {h.id}, h)

        node.schedule_target = schedule_target
        node._insert = _insert


class TreeDriver:
    """Replays one generated operation list on a rig: minting headers into
    its store, delivering them, withholding and uploading content, minting
    equivocating twins, producing, and stepping the scheduler."""

    def __init__(self, driven: Driven, pos: bool):
        self.d = driven
        self.rig = driven.rig
        self.pos = pos
        self.slot = 0
        self.minted = [self.rig.store.genesis]
        self.withheld: dict[int, object] = {}

    def _pick(self, sel):
        return self.minted[sel % len(self.minted)]

    def _mint(self, parent, withhold, bpo=None):
        self.slot += 1
        content = self.rig.store.make_content(producer=7)
        bpo = bpo or BpoId(self.slot, 7, False, 0)
        mint = self.rig.store.pos_extend if self.pos else self.rig.store.pow_extend
        header = mint(bpo, parent.id, content.commitment, ())
        if withhold:
            self.withheld[header.id] = content
        else:
            self.rig.env.upload_content(header, content, origin=7,
                                        slot=self.slot)
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
                twin = self._mint(self.rig.store.get(orig.parent_id),
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
                self.rig.env.upload_content(h, content, origin=7,
                                            slot=self.slot)
                node.content_uploaded(content.commitment, self.slot)
        elif kind == "produce":
            self.slot += 1
            header, content = node.try_produce(
                BpoId(self.slot, 0, True, 0), self.slot)
            self.minted.append(header)
            self.rig.env.upload_content(header, content, origin=0,
                                        slot=self.slot)
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
# greedy: the node produces while at the cap, then polls again
@example(ops=[("fan", 0, 101, 0), ("fan", 0, 1, 0), ("fan", 1, 1, 0),
              ("step", 0, 1, 0), ("produce", 0, 1, 0), ("step", 0, 1, 0)],
         rate=0.3)
@settings(max_examples=25, deadline=None)
def test_index_matches_the_reference_scheduler(policy, protocol, ops, rate):
    pos = protocol != pm.PROTOCOL_POW
    new = Driven(nd.Node, rate, policy, protocol)
    ref = Driven(ReferenceNode, rate, policy, protocol)
    new_tree, ref_tree = TreeDriver(new, pos), TreeDriver(ref, pos)
    for op in ops:
        new_tree.apply(op)
        ref_tree.apply(op)
        assert new.picks == ref.picks
        assert new.victims == ref.victims
        assert set(new.node.tips) == set(ref.node.tips)
    assert ref.node.tip_evictions > 0
    assert new.node.tip_evictions == ref.node.tip_evictions
    assert new.node.dchain == ref.node.dchain
    assert new.node.partial == ref.node.partial
    assert ([e.to_json() for e in new.rig.trace]
            == [e.to_json() for e in ref.rig.trace])


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
    tree = TreeDriver(d, pos=False)
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
    """The first block of the tip's chain that is neither processed nor
    blanked, or None when the whole chain is done."""
    front, cur = None, tip_id
    while not node.is_done(cur):
        front, cur = cur, node.store.get(cur).parent_id
    return front


def _policy_rank(node, tip_id):
    """The policy's priority, recomputed from the node's state."""
    h = node.store.get(tip_id)
    order = -node.seen_order[tip_id]
    if node.policy == pm.POLICY_FRESHEST_BLOCK:
        return (h.bpo.slot, h.height, order)
    if node.policy == pm.POLICY_GREEDY:
        front = _front(node, tip_id)
        done = h.height if front is None else node.store.get(front).height - 1
        return (done, h.height, order)
    return (h.height, order)


@pytest.mark.parametrize("policy", pm.POLICIES)
@given(ops=tree_ops(), rate=st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=20, deadline=None)
def test_tip_cap_keeps_the_best_processable_tip(policy, ops, rate):
    d = Driven(nd.Node, rate, policy, pm.PROTOCOL_POS)
    node, cloud = d.node, d.rig.env.cloud

    def check(candidates, h):
        processable = [t for t in candidates - {h.parent_id}
                       if (f := _front(node, t)) is not None
                       and node.store.get(f).commitment in cloud]
        if len(processable) >= 2:
            best = max(processable, key=lambda t: _policy_rank(node, t))
            assert best in node.tips

    d.on_evict = check
    tree = TreeDriver(d, pos=True)
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
