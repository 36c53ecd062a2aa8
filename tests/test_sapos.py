"""Equivocation proofs: the deadline and validity rules of `sapos`."""
from nakasim import sapos as sp
from nakasim.lottery import BpoId, EquivocationProof, HeaderStore


def equivocating_pair(store, slot=3, node=5):
    b = BpoId(slot, node, True, 0)
    a = store.pos_extend(b, store.genesis.id, store.make_content().commitment)
    c = store.pos_extend(b, store.genesis.id, store.make_content().commitment)
    return a, c


def chain_on(store, parent, length, start_slot):
    out = []
    for i in range(length):
        h = store.pos_extend(BpoId(start_slot + i, 1, True, 0), parent.id,
                             store.make_content().commitment)
        out.append(h)
        parent = h
    return out


def test_proof_deadline_boundary():
    store = HeaderStore()
    offender, twin = equivocating_pair(store)
    proof = EquivocationProof(offender.bpo.key(), offender.id, twin.id,
                              target=offender.id)
    k_epf = 3
    # carriers at depth 0..k_epf above the target are valid, one more is not
    chain = chain_on(store, offender, k_epf + 2, start_slot=10)
    for carrier in chain[:k_epf + 1]:
        assert sp.validate_proof_deadline(store, carrier, proof, k_epf)
    assert not sp.validate_proof_deadline(store, chain[k_epf + 1], proof, k_epf)


def test_proof_target_must_be_on_carrier_chain():
    store = HeaderStore()
    offender, twin = equivocating_pair(store)
    proof = EquivocationProof(offender.bpo.key(), offender.id, twin.id,
                              target=offender.id)
    # carrier extends the twin, not the offender
    side = chain_on(store, twin, 1, start_slot=10)[0]
    assert not sp.validate_proof_deadline(store, side, proof, k_epf=3)


def test_proof_needs_real_equivocation():
    store = HeaderStore()
    offender, twin = equivocating_pair(store)
    other_block = chain_on(store, store.genesis, 1, start_slot=5)[0]
    carrier = chain_on(store, offender, 1, start_slot=10)[0]
    same = EquivocationProof(offender.bpo.key(), offender.id, offender.id,
                             target=offender.id)
    assert not sp.validate_proof_deadline(store, carrier, same, 3)
    unrelated = EquivocationProof(offender.bpo.key(), offender.id,
                                  other_block.id, target=offender.id)
    assert not sp.validate_proof_deadline(store, carrier, unrelated, 3)
    off_target = EquivocationProof(offender.bpo.key(), offender.id, twin.id,
                                   target=other_block.id)
    assert not sp.validate_proof_deadline(store, carrier, off_target, 3)
