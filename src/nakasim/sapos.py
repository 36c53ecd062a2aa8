"""Self-authenticating proof-of-stake additions.

Equivocation handling has two layers: at the scheduler, a node that has
seen two headers for one production opportunity treats the block as empty
and skips its download; at the ledger, a produced block may carry an
equivocation proof that retroactively blanks the offender's content.
Proofs must land within a bounded number of blocks of the offense or the
content stands.

The model assumes two rules on application payloads that keep
pretend-empty safe: no transaction may condition on block content that a
producer could grind, and every call carries a gas deposit large enough
to pay for what it could consume.  The simulator does not exercise them:
its transactions are `(txid, size)` tuples with no payload.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .lottery import BlockHeader, EquivocationProof, HeaderStore

if TYPE_CHECKING:
    from .node import Node


def validate_proof_deadline(store: HeaderStore, carrier: BlockHeader,
                            proof: EquivocationProof, k_epf: int) -> bool:
    """A proof is valid only if its target sits on the carrier's own chain
    with at most k_epf blocks strictly between them, and the two evidence
    headers really are distinct blocks for one production opportunity."""
    a = store.headers.get(proof.header_a)
    b = store.headers.get(proof.header_b)
    if a is None or b is None or a.id == b.id:
        return False
    if a.bpo != b.bpo:
        return False
    if proof.target not in (a.id, b.id):
        return False
    target = store.get(proof.target)
    between = carrier.height - target.height - 1
    if between < 0 or between > k_epf:
        return False
    return store.ancestor_at(carrier.parent_id, target.height) == target.id


def attach_proofs(node: "Node") -> tuple:
    """Collect proofs a producer can still include: equivocations it has
    seen whose on-chain copy lies within the proof window of the new block
    and is not already proven.  The caller emits the trace record once the
    carrying header exists."""
    chain = node.dchain
    height = len(chain)
    window = chain[max(0, height - node.k_epf - 1):]
    proofs = []
    for hid in window:
        if hid in node.proofed_targets:
            continue
        h = node.store.get(hid)
        seen = node.bpo_seen.get(h.bpo, ())
        if len(seen) >= 2:
            other = next(x for x in seen if x != hid)
            proofs.append(EquivocationProof(
                bpo_key=h.bpo, header_a=hid, header_b=other, target=hid))
    return tuple(proofs)


def equivocated_in_view(node: "Node", header: BlockHeader) -> bool:
    """Scheduler-level blanking predicate: the node has seen two headers
    for this block's production opportunity."""
    return len(node.bpo_seen.get(header.bpo, ())) >= 2
