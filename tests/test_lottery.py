"""Lottery determinism and the header store's minting discipline."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasim.lottery import (STREAM_ASSIGN, BpoId, EquivocationProof,
                             HeaderStore, ReusedBpo, SlotSampler, _slot_gen)
from nakasim.params import (PROTOCOL_POS, PROTOCOL_POW, PROTOCOL_SAPOS,
                             PROTOCOLS)


def make_sampler(seed=7, beta=0.25, rho=0.1, spv=0.0):
    return SlotSampler(seed, beta, rho, honest_nodes=range(6),
                       adversary_nodes=[6, 7], spv_rate_per_slot=spv)


def slot_wins(sampler, slot):
    """(honest wins, adversary wins, winners) of one slot, drawn alone."""
    h, a, _ = sampler.counts(slot, slot + 1)
    h_count, a_count = int(h[0]), int(a[0])
    return h_count, a_count, sampler.assign(slot, h_count, a_count)


def test_zero_rate_is_silent():
    s = SlotSampler(3, 0.0, 1e-12, honest_nodes=[0], adversary_nodes=[])
    s.mu_h = 0.0  # exact-zero path
    h, a, v = s.counts(0, 500)
    assert not a.any() and not v.any()


def test_beta_zero_no_adversary_wins():
    s = SlotSampler(11, 0.0, 0.5, honest_nodes=range(4), adversary_nodes=[9])
    _, a, _ = s.counts(0, 5000)
    assert not a.any()


def test_same_seed_same_outcome():
    a = slot_wins(make_sampler(seed=42), 137)
    b = slot_wins(make_sampler(seed=42), 137)
    assert a == b


def test_different_seeds_differ_somewhere():
    h1, a1, _ = make_sampler(seed=1).counts(0, 2000)
    h2, a2, _ = make_sampler(seed=2).counts(0, 2000)
    assert (h1 != h2).any() or (a1 != a2).any()


def test_counts_batching_is_alignment_free():
    """Slot t consumes the same draw no matter how the batch is cut."""
    s = make_sampler(seed=5, spv=0.05)
    full = s.counts(0, 300)
    head = s.counts(0, 120)
    tail = s.counts(120, 300)
    for f, h, t in zip(full, head, tail):
        assert (f == np.concatenate([h, t])).all()
    h_count, a_count, _ = slot_wins(s, 250)
    assert h_count == full[0][250] and a_count == full[1][250]


def test_poisson_rates_match():
    beta, rho, n = 0.25, 0.1, 200_000
    s = make_sampler(seed=9, beta=beta, rho=rho)
    h, a, _ = s.counts(0, n)
    for mean, mu in ((h.mean(), (1 - beta) * rho), (a.mean(), beta * rho)):
        se = np.sqrt(mu / n)
        assert abs(mean - mu) < 4 * se


def test_assignment_covers_classes_and_orders_seqs():
    s = make_sampler(seed=13, beta=0.5, rho=3.0)
    seen_h, seen_a = set(), set()
    for t in range(200):
        h_count, a_count, bpos = slot_wins(s, t)
        assert len(bpos) == h_count + a_count
        seqs = [b.seq for b in bpos]
        assert seqs == list(range(len(seqs)))
        for b in bpos:
            (seen_h if b.honest else seen_a).add(b.node)
    assert seen_h <= set(range(6)) and seen_a <= {6, 7}
    assert len(seen_h) == 6 and len(seen_a) == 2


def test_assignment_without_adversary_nodes_uses_sentinel():
    s = SlotSampler(1, 0.5, 2.0, honest_nodes=[0], adversary_nodes=[])
    for t in range(100):
        for b in slot_wins(s, t)[2]:
            if not b.honest:
                assert b.node == -1
                return
    pytest.fail("no adversary win in 100 slots at mu_a = 1.0")


def assign_oracle(sampler, slot, h_count, a_count):
    """`assign` as it was: a new Philox and Generator for every slot."""
    if h_count == 0 and a_count == 0:
        return ()
    mask = 0xFFFFFFFFFFFFFFFF
    key = np.array([(sampler.seed ^ (STREAM_ASSIGN * 0x9E3779B97F4A7C15)) & mask,
                    slot & mask], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    bpos = []
    if h_count:
        picks = gen.integers(0, len(sampler.honest_nodes), size=h_count)
        for seq, p in enumerate(picks):
            bpos.append(BpoId(slot, sampler.honest_nodes[int(p)], True, seq))
    if a_count:
        adv = sampler.adversary_nodes
        picks = gen.integers(0, max(1, len(adv)), size=a_count)
        for k, p in enumerate(picks):
            bpos.append(BpoId(slot, adv[int(p)] if adv else -1, False,
                              h_count + k))
    return tuple(bpos)


@given(seed=st.integers(0, 2**64 - 1), n_honest=st.integers(1, 300),
       n_adv=st.integers(0, 5),
       calls=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 9),
                                st.integers(0, 9)), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_assign_matches_a_fresh_generator_per_slot(seed, n_honest, n_adv,
                                                   calls):
    """One reused generator, reset per call, draws what a new one keyed on
    the slot draws: slots out of order and repeated, odd draw counts that
    leave a 32-bit half cached, and both classes in one slot."""
    sampler = SlotSampler(seed, 0.3, 0.1, honest_nodes=range(n_honest),
                          adversary_nodes=range(n_honest, n_honest + n_adv))
    for slot, h, a in calls + calls[::-1]:
        assert sampler.assign(slot, h, a) == assign_oracle(sampler, slot, h, a)


@pytest.mark.parametrize("n_honest, n_adv", [(1, 2), (2, 1), (3, 7),
                                              (7, 3), (14, 20), (20, 14)])
def test_scalar_winner_draws_pick_what_one_sized_draw_picks(n_honest, n_adv):
    """`assign` draws each winner with `integers(0, n)`; it must pick what
    `integers(0, n, size=k)` picks on the slot's generator, honest winners
    first and adversary ones after on the same generator.  With one node
    (n = 1) neither form consumes a draw, so the other class's draws that
    follow still line up."""
    sampler = SlotSampler(11, 0.3, 0.1, honest_nodes=range(n_honest),
                          adversary_nodes=range(100, 100 + n_adv))
    counts = [1, 2, 3, 5]
    for slot in range(500):
        h = counts[slot % 4]
        a = counts[slot // 4 % 4] if slot % 3 else 0
        gen = _slot_gen(sampler.seed, STREAM_ASSIGN, slot)
        honest = gen.integers(0, n_honest, size=h)
        adversary = gen.integers(0, n_adv, size=a)
        got = sampler.assign(slot, h, a)
        assert [b.node for b in got] == ([int(p) for p in honest]
                                         + [100 + int(p) for p in adversary])
        assert [b.seq for b in got] == list(range(h + a))
        assert all(type(b.node) is int for b in got)


def test_the_assignment_generator_is_made_on_first_use():
    sampler = make_sampler()
    assert sampler._assign is None
    assert sampler.assign(4, 0, 0) == ()
    assert sampler._assign is None
    sampler.assign(4, 1, 0)
    gen = sampler._assign[0]
    sampler.assign(5, 2, 1)
    assert sampler._assign[0] is gen


def test_pow_single_spend():
    store = HeaderStore()
    b = BpoId(3, 1, True, 0)
    c = store.make_content()
    store.extend(b, store.genesis.id, c.commitment)
    with pytest.raises(ReusedBpo):
        store.extend(b, store.genesis.id, store.make_content().commitment)


def test_extend_applies_the_stores_opportunity_rule():
    """`extend` spends a PoW opportunity once, and under PoS and SaPoS mints
    an equivocation and returns an identical header as it is."""
    b = BpoId(3, 1, True, 0)
    for protocol in PROTOCOLS:
        store = HeaderStore(protocol)
        commitment = store.make_content().commitment
        a = store.extend(b, store.genesis.id, commitment)
        twin_commitment = store.make_content().commitment
        if protocol == PROTOCOL_POW:
            with pytest.raises(ReusedBpo):
                store.extend(b, store.genesis.id, twin_commitment)
            assert list(store.headers) == [store.genesis.id, a.id]
            continue
        assert store.extend(b, store.genesis.id, commitment) is a
        twin = store.extend(b, store.genesis.id, twin_commitment)
        assert twin.id != a.id and twin.bpo == a.bpo
        assert not store.spent      # kept under PoW only


def test_an_opportunity_is_its_own_key():
    """A BpoId hashes and compares as the tuple (slot, node, honest, seq),
    so the store, the nodes and the proofs key on it directly: an equal
    opportunity built apart is the same key everywhere."""
    b = BpoId(3, 1, True, 0)
    assert b == (3, 1, True, 0) and hash(b) == hash((3, 1, True, 0))
    assert b == BpoId(slot=3, node=1, honest=True)
    assert b != BpoId(3, 1, True, 1) and b != BpoId(3, 1, False, 0)
    assert b != BpoId(3, 2, True, 0) and b != BpoId(4, 1, True, 0)
    copy = pickle.loads(pickle.dumps(b))      # as a worker process gets it
    assert type(copy) is BpoId and copy == b

    pow_store = HeaderStore()
    pow_store.extend(b, 0, pow_store.make_content().commitment)
    assert (3, 1, True, 0) in pow_store.spent
    with pytest.raises(ReusedBpo, match=r"bpo \(3, 1, True, 0\) already"):
        pow_store.extend(BpoId(3, 1, True, 0), 0,
                         pow_store.make_content().commitment)

    store = HeaderStore(PROTOCOL_SAPOS, k_epf=3)
    commitment = store.make_content().commitment
    a = store.extend(b, 0, commitment)
    assert store.extend(BpoId(3, 1, True, 0), 0, commitment) is a
    twin = store.extend(BpoId(3, 1, True, 0), 0,
                        store.make_content().commitment)
    other = store.extend(BpoId(3, 1, True, 1), 0,
                         store.make_content().commitment)
    assert twin.id != a.id and twin.bpo == a.bpo == b
    carrier = store.extend(BpoId(5, 2, True, 0), a.id,
                           store.make_content().commitment)
    for header_b, valid in ((twin, True), (other, False)):
        proof = EquivocationProof(a.id, header_b.id, target=a.id)
        assert store.proof_meets_deadline(carrier, proof) is valid


def test_pos_equivocation_and_idempotence():
    store = HeaderStore(PROTOCOL_POS)
    b = BpoId(3, 1, True, 0)
    c1, c2 = store.make_content(), store.make_content()
    h1 = store.extend(b, store.genesis.id, c1.commitment)
    h2 = store.extend(b, store.genesis.id, c2.commitment)
    assert h1.id != h2.id and h1.bpo == h2.bpo == b
    again = store.extend(b, store.genesis.id, c1.commitment)
    assert again.id == h1.id


def test_child_opportunity_must_follow_parent():
    store = HeaderStore()
    c = store.make_content()
    h1 = store.extend(BpoId(5, 1, True, 1), store.genesis.id, c.commitment)
    with pytest.raises(ValueError):
        store.extend(BpoId(5, 2, True, 0), h1.id,
                     store.make_content().commitment)
    # the refused mint spent nothing: its opportunity is still free
    store.extend(BpoId(5, 2, True, 0), store.genesis.id,
                 store.make_content().commitment)
    # same slot, higher seq is a legal chain step
    h2 = store.extend(BpoId(5, 2, True, 2), h1.id,
                      store.make_content().commitment)
    assert h2.height == 2


def test_chain_helpers_on_a_fork():
    store = HeaderStore()

    def mk(slot, parent):
        return store.extend(BpoId(slot, slot, True, 0), parent,
                            store.make_content().commitment)

    a1 = mk(1, store.genesis.id)
    a2 = mk(2, a1.id)
    a3 = mk(3, a2.id)
    b2 = mk(4, a1.id)
    assert [store.ancestor_at(a3.id, h) for h in (0, 1, 2, 3)] == \
        [store.genesis.id, a1.id, a2.id, a3.id]
    assert store.ancestor_at(b2.id, 1) == a1.id
    assert store.ancestor_at(b2.id, 2) != a2.id
    assert store.ancestor_at(a1.id, 1) == a1.id
    assert store.common_ancestor(a3.id, b2.id) == a1.id
    assert store.common_ancestor(a3.id, a3.id) == a3.id
