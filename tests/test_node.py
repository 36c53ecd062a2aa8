"""Scheduler policies, budget spending, equivocation blanking, and the
confirmed ledger of a single honest node."""
from collections import Counter

import pytest
from conftest import Rig, fields

from nakasim import params as pm
from nakasim import trace as tr
from nakasim.lottery import BlockHeader, BpoId, EquivocationProof, HeaderStore
from nakasim.sim import Simulation
from test_trace_digests import matrix_scenario


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
    assert rig.node.meter.spent_total == pytest.approx(2.0)


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
    assert rig.node.invalid == {999}
    assert 999 not in rig.node.seen_order
    # descendants of an invalid header fall with it
    child = rig.store.extend(BpoId(7, 3, True, 0), 999,
                             rig.store.make_content().commitment)
    assert rig.node.on_header(child, 7) == []
    assert child.id not in rig.node.seen_order


def counted_verdicts(monkeypatch) -> Counter:
    """Count the store's verdict computations (`HeaderStore._verdict`) per
    header id."""
    checked = Counter()
    verdict = HeaderStore._verdict

    def counting(store, h):
        checked[h.id] += 1
        return verdict(store, h)
    monkeypatch.setattr(HeaderStore, "_verdict", counting)
    return checked


def test_a_header_verdict_is_computed_once_per_simulation(monkeypatch):
    """On a PoS teaser run every honest node receives the same headers, and
    the store computes each header's verdict once: the nodes share it."""
    checked = counted_verdicts(monkeypatch)
    sim = Simulation(pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POS, pm.POLICY_LONGEST_HEADER_CHAIN)))
    sim.run()
    delivered = Counter(fields(row)["header"]
                        for row in sim.trace.of_kind(tr.HEADER_DELIVERED))
    assert max(delivered.values()) == len(sim.nodes)
    assert delivered.keys() <= checked.keys()
    assert set(checked.values()) == {1}
    assert sim.store.verdicts == dict.fromkeys(checked, True)


def test_each_node_counts_the_fetches_it_traces():
    """A node counts its own fetches: on a PoS teaser run, each node's
    count is the number of ContentFetched rows it wrote, and the run's
    `fetches` is their sum."""
    sim = Simulation(pm.scenario_from_dict(
        matrix_scenario(pm.PROTOCOL_POS, pm.POLICY_LONGEST_HEADER_CHAIN)))
    metrics = sim.run()
    traced = Counter(fields(row)["node"]
                     for row in sim.trace.of_kind(tr.CONTENT_FETCHED))
    assert {n.id: n.fetches for n in sim.nodes} == {
        n.id: traced[n.id] for n in sim.nodes}
    assert metrics.fetches == sum(traced.values()) > 0


def test_rogue_headers_are_rejected_by_every_node_of_a_simulation(monkeypatch):
    """Two headers that only the intake checks catch reach every node of one
    SaPoS simulation: one with a stale production opportunity, placed in
    the store without being minted, and one whose proof targets a block
    more than k_epf blocks below it.  The store judges each once, and
    every node rejects both and records them in its own invalid set."""
    checked = counted_verdicts(monkeypatch)
    sim = Simulation(pm.scenario_from_dict({
        "sim": {"n_nodes": 4, "tau": 0.1, "delta_h": 0.2, "c_tilde": 0.5,
                "beta": 0.0, "rho": 1e-9, "capacity": 1.0,
                "horizon_slots": 100, "seed": 1},
        "protocol": pm.PROTOCOL_SAPOS}))
    store, k_epf = sim.store, sim.scenario.sapos.k_epf

    def mint(parent, slot, node=1, proofs=()):
        return store.extend(BpoId(slot, node, True, 0), parent.id,
                            store.make_content().commitment, proofs)

    offender = mint(store.genesis, 1, node=5)
    twin = mint(store.genesis, 1, node=5)
    proof = EquivocationProof(offender.id, twin.id, target=offender.id)
    chain = [offender]
    for i in range(k_epf + 1):
        chain.append(mint(chain[-1], 2 + i))
    late = mint(chain[-1], 30, proofs=(proof,))
    stale = BlockHeader(id=999, parent_id=chain[1].id,
                        bpo=BpoId(2, 2, True, 0), height=chain[1].height + 1,
                        commitment=store.make_content().commitment)
    store.headers[stale.id] = stale   # bypasses the store's mint checks
    for header in (stale, late):
        sim.push_to_honest(header, 40)
    for node in sim.nodes:
        assert node.invalid == {stale.id, late.id}
        assert node.dchain_tip not in node.invalid
        assert not node.invalid & node.seen_order.keys()
        assert chain[-1].id in node.seen_order
    assert checked[stale.id] == checked[late.id] == 1
    assert set(checked.values()) == {1}


def test_a_carriers_verdict_follows_its_stores_rules():
    """One carrier, whose proof sits 3 blocks above its target, is late for
    a SaPoS store with k_epf 2, timely with k_epf 4, and valid on a PoS
    store, which checks no proofs."""
    for protocol, k_epf, valid in ((pm.PROTOCOL_SAPOS, 2, False),
                                   (pm.PROTOCOL_SAPOS, 4, True),
                                   (pm.PROTOCOL_POS, 2, True)):
        store = HeaderStore(protocol, k_epf)

        def mint(parent, slot, node=1, proofs=()):
            return store.extend(BpoId(slot, node, True, 0), parent.id,
                                store.make_content().commitment, proofs)

        off_a = mint(store.genesis, 1, node=5)
        off_b = mint(store.genesis, 1, node=5)
        proof = EquivocationProof(off_a.id, off_b.id, target=off_a.id)
        chain = [off_a]
        for slot in (2, 3, 4):
            chain.append(mint(chain[-1], slot))
        carrier = mint(chain[-1], 8, proofs=(proof,))
        assert carrier.height - off_a.height - 1 == 3
        assert store.valid(carrier) is valid
        assert store.verdicts == {carrier.id: valid}


def test_longest_header_chain_falls_back_when_content_dries_up():
    rig = Rig(rate=1.0)
    honest = rig.chain(1, node_id=1)[0]
    adv = rig.chain(3, node_id=2, upload=False)
    # only the first adversary block is backed by content
    first = rig.store.contents[adv[0].commitment]
    rig.env.upload_content(adv[0], first)
    rig.deliver([honest] + adv, 0)
    rig.step(0)
    assert adv[0].id in rig.node.processed
    rig.step(1)
    assert honest.id in rig.node.processed
    assert adv[1].commitment in rig.node.unavailable
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
        rig.env.upload_content(h, content)
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
        rig.env.upload_content(h, content)
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
        rig.env.upload_content(chain[0], first)
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
    paid = {fields(row)["header"]: fields(row)["paid"]
            for row in rig.trace.of_kind(tr.CONTENT_FETCHED)}
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
    rig = Rig(protocol=pm.PROTOCOL_SAPOS, k_epf=2, k_conf=7)
    off_a, _ = rig.grow(rig.store.genesis, 1, node_id=5)
    off_b, _ = rig.grow(rig.store.genesis, 1, node_id=5)
    proof = EquivocationProof(off_a.id, off_b.id, target=off_a.id)
    chain = [off_a]
    for i in range(4):
        h, _ = rig.grow(chain[-1], 2 + i, node_id=1)
        chain.append(h)
    late, _ = rig.grow(chain[-1], 8, node_id=1, proofs=(proof,))
    inserted = rig.node.on_header(late, 8)
    assert late.id not in inserted          # ancestors land, the carrier not
    assert late.id not in rig.node.seen_order
    assert rig.node.invalid == {late.id}
    timely, _ = rig.grow(chain[2], 9, node_id=2, proofs=(proof,))
    assert timely.id in rig.node.on_header(timely, 9)


def test_sapos_scheduler_blanks_equivocators_for_free():
    rig = Rig(rate=1.0, protocol=pm.PROTOCOL_SAPOS, k_epf=4, k_conf=7)
    off_a, _ = rig.grow(rig.store.genesis, 1, node_id=5,
                        txs=(("a", 0.25),))
    off_b, _ = rig.grow(rig.store.genesis, 1, node_id=5)
    child, _ = rig.grow(off_a, 2, node_id=1, txs=(("c", 0.25),))
    rig.deliver([off_a, off_b, child], 2)
    rig.step(2)
    assert off_a.id in rig.node.blanked
    assert rig.node.dchain == [off_a.id, child.id]
    # a block processed as empty adds no transactions to the chain
    assert set(rig.node.included_txids) == {"c"}
    assert rig.node.meter.spent_total == pytest.approx(1.0)
    # both twins get blanked for free, on-chain or not
    blanks = rig.trace.of_kind(tr.PRETEND_EMPTY)
    assert {fields(row)["header"] for row in blanks} == {off_a.id, off_b.id}


def test_ledger_confirms_at_depth():
    rig = Rig(rate=10.0, k_conf=2)
    chain = rig.chain(4)
    rig.deliver(chain, 0)
    rig.step(0)
    outputs = rig.trace.of_kind(tr.LEDGER_OUTPUT)
    assert fields(outputs[-1]) == {"node": 0, "len": 2, "tip": chain[1].id}
    assert rig.node.dchain[:rig.node.confirmed_len] == [h.id for h in chain[:2]]

    more = rig.chain(2, start_slot=9, parent=chain[-1])
    rig.deliver(more, 9)
    rig.step(9)
    outputs = rig.trace.of_kind(tr.LEDGER_OUTPUT)
    assert fields(outputs[-1]) == {"node": 0, "len": 4, "tip": chain[3].id}
    assert rig.node.dchain[:rig.node.confirmed_len] == [h.id for h in chain]


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
