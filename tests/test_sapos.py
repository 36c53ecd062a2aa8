"""Equivocation proofs: the deadline and validity rules of a SaPoS header
store, and the ledger checks of the in-run audit sink on a node that
blanks."""
from conftest import Rig

from nakasim import netenv
from nakasim import node as nd
from nakasim import params as pm
from nakasim.lottery import BpoId, EquivocationProof, HeaderStore


def equivocating_pair(store, slot=3, node=5):
    b = BpoId(slot, node, True, 0)
    a = store.extend(b, store.genesis.id, store.make_content().commitment)
    c = store.extend(b, store.genesis.id, store.make_content().commitment)
    return a, c


def chain_on(store, parent, length, start_slot):
    out = []
    for i in range(length):
        h = store.extend(BpoId(start_slot + i, 1, True, 0), parent.id,
                         store.make_content().commitment)
        out.append(h)
        parent = h
    return out


def sapos_store(k_epf=3):
    return HeaderStore(pm.PROTOCOL_SAPOS, k_epf)


def test_proof_deadline_boundary():
    k_epf = 3
    store = sapos_store(k_epf)
    offender, twin = equivocating_pair(store)
    proof = EquivocationProof(offender.id, twin.id, target=offender.id)
    # carriers at depth 0..k_epf above the target are valid, one more is not
    chain = chain_on(store, offender, k_epf + 2, start_slot=10)
    for carrier in chain[:k_epf + 1]:
        assert store.proof_meets_deadline(carrier, proof)
    assert not store.proof_meets_deadline(chain[k_epf + 1], proof)


def test_proof_target_must_be_on_carrier_chain():
    store = sapos_store()
    offender, twin = equivocating_pair(store)
    proof = EquivocationProof(offender.id, twin.id, target=offender.id)
    # carrier extends the twin, not the offender
    side = chain_on(store, twin, 1, start_slot=10)[0]
    assert not store.proof_meets_deadline(side, proof)


def test_proof_needs_real_equivocation():
    store = sapos_store()
    offender, twin = equivocating_pair(store)
    other_block = chain_on(store, store.genesis, 1, start_slot=5)[0]
    carrier = chain_on(store, offender, 1, start_slot=10)[0]
    same = EquivocationProof(offender.id, offender.id, target=offender.id)
    assert not store.proof_meets_deadline(carrier, same)
    unrelated = EquivocationProof(offender.id, other_block.id,
                                  target=offender.id)
    assert not store.proof_meets_deadline(carrier, unrelated)
    off_target = EquivocationProof(offender.id, twin.id, target=other_block.id)
    assert not store.proof_meets_deadline(carrier, off_target)


# -- the audit sink's ledger checks -----------------------------------------

def sapos_rig():
    return Rig(protocol=pm.PROTOCOL_SAPOS, k_conf=2, k_epf=4)


def twins(rig, honest):
    """Two blocks on genesis for one production opportunity, both uploaded."""
    return [rig.grow(rig.store.genesis, 3, node_id=5, honest=honest)[0]
            for _ in range(2)]


def proven(rig, offender, twin):
    """Two blocks on `offender`, the first carrying the proof against it."""
    proof = EquivocationProof(offender.id, twin.id, target=offender.id)
    carrier, _ = rig.grow(offender, 10, proofs=(proof,))
    return [carrier, rig.grow(carrier, 11)[0]]


def run_node(node, headers):
    """Deliver `headers` and step until the node has confirmed the block
    at height 1 (k_conf 2, three blocks)."""
    for h in headers:
        node.on_header(h, 12)
    for slot in (12, 13, 14):
        node.process_step(slot)
    assert node.confirmed_len == 1


def blocks(records):
    return [record[0] for record in records]


def test_a_scheduler_blank_without_a_proof_is_missing_content():
    rig = sapos_rig()
    offender, twin = twins(rig, honest=False)
    chain = rig.chain(2, 10, offender)
    run_node(rig.node, [offender, twin] + chain)
    assert offender.id in rig.node.blanked
    assert blocks(rig.sink.missing_content) == [offender.id]
    assert rig.sink.to_dict() == {
        "blank_conflicts": 0, "missing_content": 1, "honest_blanked": 0,
        "idle_violations": 0, "clean": False}


def test_a_proven_honest_equivocation_is_honest_content_blanked():
    rig = sapos_rig()
    offender, twin = twins(rig, honest=True)
    run_node(rig.node, [offender, twin] + proven(rig, offender, twin))
    assert blocks(rig.sink.honest_blanked) == [offender.id]
    assert rig.sink.to_dict() == {
        "blank_conflicts": 0, "missing_content": 0, "honest_blanked": 1,
        "idle_violations": 0, "clean": False}


def test_nodes_that_disagree_on_a_blank_are_a_conflict():
    """One node sees the twin and the proof and blanks the block in its
    ledger; another, on the same cloud and sink, sees neither and keeps
    the content it fetched."""
    rig = sapos_rig()
    offender, twin = twins(rig, honest=False)
    env = netenv.Environment([1], 0)
    env.cloud = rig.env.cloud
    other = nd.Node(1, rig.store, env, netenv.CapacityMeter(1.0, 100),
                    rig.trace, pm.POLICY_LONGEST_HEADER_CHAIN, 2, rig.sink,
                    nd.HonestFront())
    run_node(rig.node, [offender, twin] + proven(rig, offender, twin))
    run_node(other, [offender] + rig.chain(2, 20, offender))
    assert offender.id in other.processed
    # (block, the node whose report disagreed, slot)
    assert rig.sink.blank_conflicts == [(offender.id, other.id, 13)]
    assert rig.sink.to_dict() == {
        "blank_conflicts": 1, "missing_content": 0, "honest_blanked": 0,
        "idle_violations": 0, "clean": False}
