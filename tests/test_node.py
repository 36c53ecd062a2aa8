"""Scheduler policies, budget spending, equivocation blanking, and the
confirmed ledger of a single honest node."""
import pytest
from conftest import Rig

from nakasim import params as pm
from nakasim import trace as tr
from nakasim.lottery import BlockHeader, BpoId


def test_prefix_first_processing():
    rig = Rig(rate=1.0)
    chain = rig.chain(3)
    rig.deliver(chain, 0)
    rig.step(0)
    assert rig.node.dchain == [chain[0].id]
    rig.step(1)
    rig.step(2)
    assert rig.node.dchain == [h.id for h in chain]


def test_budget_two_blocks_per_slot():
    rig = Rig(rate=2.0)
    chain = rig.chain(2)
    rig.deliver(chain, 0)
    rig.step(0)
    assert rig.node.dchain == [h.id for h in chain]
    assert rig.env.meters[0].spent_total == pytest.approx(2.0)


def test_duplicate_delivery_is_a_noop():
    rig = Rig()
    chain = rig.chain(2)
    assert rig.node.on_header(chain[1], 0) == [c.id for c in chain]
    assert rig.node.on_header(chain[1], 0) == []
    assert rig.node.on_header(chain[0], 1) == []


def test_rogue_header_with_stale_opportunity_rejected():
    rig = Rig()
    parent = rig.chain(1, start_slot=5)[0]
    c = rig.store.make_content()
    rogue = BlockHeader(id=999, parent_id=parent.id,
                        bpo=BpoId(4, 2, True, 0), height=2,
                        commitment=c.commitment)
    rig.store.headers[999] = rogue  # bypasses the store's mint checks
    # the valid ancestor is kept, the rogue header is not
    assert rig.node.on_header(rogue, 6) == [parent.id]
    assert rig.node.invalid_header_count == 1
    assert 999 not in rig.node.known
    # descendants of an invalid header fall with it
    child = rig.store.pow_extend(BpoId(7, 3, True, 0), 999,
                                 rig.store.make_content().commitment)
    assert rig.node.on_header(child, 7) == []
    assert child.id not in rig.node.known


def test_longest_header_chain_falls_back_when_content_dries_up():
    rig = Rig(rate=1.0)
    honest = rig.chain(1, node_id=1)[0]
    adv = rig.chain(3, node_id=2, upload=False)
    # only the first adversary block is backed by content
    first = rig.store.contents[adv[0].commitment]
    rig.env.upload_content(adv[0], first, origin=2, slot=0)
    rig.deliver([honest] + adv, 0)
    rig.step(0)
    assert adv[0].id in rig.node.processed
    rig.step(1)
    assert honest.id in rig.node.processed
    assert adv[1].id in rig.node.unavailable
    assert rig.node.dchain == [adv[0].id]


def test_greedy_prefers_the_longer_processed_prefix():
    rig = Rig(rate=50.0, policy=pm.POLICY_GREEDY)
    fork_a = rig.chain(5, node_id=1) + []
    fork_a += rig.chain(1, start_slot=6, parent=fork_a[-1], node_id=1,
                        upload=False)
    fork_b = rig.chain(3, node_id=2)
    fork_b += rig.chain(6, start_slot=4, parent=fork_b[-1], node_id=2,
                        upload=False)
    rig.deliver(fork_a + fork_b, 10)
    rig.step(10)
    assert {h.id for h in fork_a[:5] + fork_b[:3]} <= rig.node.processed
    # both frontiers unavailable; release them and ask again
    for h in (fork_a[5], fork_b[3]):
        content = rig.store.contents[h.commitment]
        rig.env.upload_content(h, content, origin=9, slot=11)
        rig.node.content_uploaded(content.commitment, 11)
    target = rig.node.schedule_target(11)
    assert target.id == fork_a[5].id   # prefix 5 over height 9


def test_longest_header_chain_prefers_height_in_the_same_spot():
    rig = Rig(rate=50.0, policy=pm.POLICY_LONGEST_HEADER_CHAIN)
    fork_a = rig.chain(5, node_id=1)
    fork_a += rig.chain(1, start_slot=6, parent=fork_a[-1], node_id=1,
                        upload=False)
    fork_b = rig.chain(3, node_id=2)
    fork_b += rig.chain(6, start_slot=4, parent=fork_b[-1], node_id=2,
                        upload=False)
    rig.deliver(fork_a + fork_b, 10)
    rig.step(10)
    for h in (fork_a[5], fork_b[3]):
        content = rig.store.contents[h.commitment]
        rig.env.upload_content(h, content, origin=9, slot=11)
        rig.node.content_uploaded(content.commitment, 11)
    target = rig.node.schedule_target(11)
    assert target.id == fork_b[3].id   # height 9 over height 6


def test_freshest_block_chases_the_newest_tip():
    rig = Rig(policy=pm.POLICY_FRESHEST_BLOCK)
    old = rig.chain(2, start_slot=1, node_id=1)
    fresh = rig.chain(1, start_slot=5, node_id=2)[0]
    rig.deliver(old + [fresh], 5)
    assert rig.node.schedule_target(5).id == fresh.id


def test_partial_cache_keeps_ten_newest_tasks():
    rig = Rig(rate=0.45)
    firsts, chains = [], []
    for k in range(1, 12):
        chain = rig.chain(k, node_id=10 + k, upload=False)
        first = rig.store.contents[chain[0].commitment]
        rig.env.upload_content(chain[0], first, origin=9, slot=k - 1)
        firsts.append(chain[0])
        chains.append(chain)
        rig.deliver(chain, k - 1)
        rig.step(k - 1)
    assert len(rig.node.partial) == 10
    assert firsts[0].id not in rig.node.partial
    assert firsts[1].id in rig.node.partial
    assert rig.node.partial[firsts[10].id] == pytest.approx(0.45)

    # once its chain leads again, the dropped task pays from zero while a
    # kept one pays only its remainder
    for k, slot in ((1, 14), (0, 18)):
        lead = rig.chain(40 - 10 * k, start_slot=slot, parent=chains[k][-1],
                         node_id=40 + k, upload=False)
        rig.deliver(lead[-1], slot)
        rig.step(slot)
    paid = {e.data["header"]: e.data["paid"]
            for e in rig.trace.of_kind(tr.CONTENT_FETCHED)}
    assert paid[firsts[1].id] == pytest.approx(0.55)
    assert paid[firsts[0].id] == pytest.approx(1.0)


def test_reorg_releases_only_the_orphaned_transactions():
    """A switch drops the orphaned blocks' transactions from the included
    set, so the node may take them again, but keeps a transaction that a
    block still on the chain carries as well."""
    rig = Rig(rate=50.0)
    g = rig.store.genesis
    a1, _ = rig.grow(g, 1, txs=(("t1", 0.25),))
    a2, _ = rig.grow(a1, 2, txs=(("t1", 0.25), ("t2", 0.25)))
    rig.deliver(a2, 3)
    rig.step(3)
    assert rig.node.dchain == [a1.id, a2.id]
    assert set(rig.node.included_txids) == {"t1", "t2"}
    b2, _ = rig.grow(a1, 4, node_id=2)
    b3, _ = rig.grow(b2, 5, node_id=2)
    rig.deliver(b3, 6)
    rig.step(6)
    assert rig.node.dchain == [a1.id, b2.id, b3.id]
    assert set(rig.node.included_txids) == {"t1"}
    c3, _ = rig.grow(a2, 7, node_id=3)
    c4, _ = rig.grow(c3, 8, node_id=3)
    rig.deliver(c4, 9)
    rig.step(9)
    assert rig.node.dchain == [a1.id, a2.id, c3.id, c4.id]
    assert set(rig.node.included_txids) == {"t1", "t2"}


def test_sapos_intake_rejects_late_proof():
    from nakasim.lottery import EquivocationProof
    rig = Rig(protocol=pm.PROTOCOL_SAPOS, k_epf=2, k_conf=7)
    off_a, _ = rig.grow(rig.store.genesis, 1, node_id=5, pos=True)
    off_b, _ = rig.grow(rig.store.genesis, 1, node_id=5, pos=True)
    proof = EquivocationProof(off_a.bpo.key(), off_a.id, off_b.id,
                              target=off_a.id)
    chain = [off_a]
    for i in range(4):
        h, _ = rig.grow(chain[-1], 2 + i, node_id=1, pos=True)
        chain.append(h)
    late, _ = rig.grow(chain[-1], 8, node_id=1, pos=True, proofs=(proof,))
    inserted = rig.node.on_header(late, 8)
    assert late.id not in inserted          # ancestors land, the carrier not
    assert late.id not in rig.node.known
    assert rig.node.invalid_header_count == 1
    timely, _ = rig.grow(chain[2], 9, node_id=2, pos=True, proofs=(proof,))
    assert timely.id in rig.node.on_header(timely, 9)


def test_sapos_scheduler_blanks_equivocators_for_free():
    rig = Rig(rate=1.0, protocol=pm.PROTOCOL_SAPOS, k_epf=4, k_conf=7)
    off_a, _ = rig.grow(rig.store.genesis, 1, node_id=5, pos=True)
    off_b, _ = rig.grow(rig.store.genesis, 1, node_id=5, pos=True)
    child, _ = rig.grow(off_a, 2, node_id=1, pos=True)
    rig.deliver([off_a, off_b, child], 2)
    rig.step(2)
    assert off_a.id in rig.node.blanked
    assert rig.node.dchain == [off_a.id, child.id]
    assert rig.env.meters[0].spent_total == pytest.approx(1.0)
    # both twins get blanked for free, on-chain or not
    blanks = rig.trace.of_kind(tr.PRETEND_EMPTY)
    assert {e.data["header"] for e in blanks} == {off_a.id, off_b.id}


def test_ledger_confirms_at_depth():
    rig = Rig(rate=10.0, k_conf=2)
    chain = rig.chain(4)
    rig.deliver(chain, 0)
    rig.step(0)
    ledger = rig.node.output_ledger()
    assert [e.header_id for e in ledger] == [h.id for h in chain[:2]]
    assert [e.height for e in ledger] == [1, 2]
    outputs = rig.trace.of_kind(tr.LEDGER_OUTPUT)
    assert outputs[-1].data == {"node": 0, "len": 2, "tip": chain[1].id}

    more = rig.chain(2, start_slot=9, parent=chain[-1])
    rig.deliver(more, 9)
    rig.step(9)
    longer = rig.node.output_ledger()
    assert [e.header_id for e in longer[:2]] == [e.header_id for e in ledger]
    assert len(longer) == 4


def test_produce_extends_the_processed_chain():
    rig = Rig(rate=10.0)
    chain = rig.chain(2)
    rig.deliver(chain, 0)
    rig.step(0)
    header, content = rig.node.try_produce(BpoId(5, 0, True, 0), 5)
    assert header.parent_id == chain[-1].id
    assert header.height == 3
    assert rig.node.dchain[-1] == header.id
    assert rig.store.contents[header.commitment] == content
