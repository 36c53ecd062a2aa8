"""Self-authenticating proof-of-stake additions.

Equivocation handling has two layers: at the scheduler, a node that has
seen two headers for one production opportunity treats the block as empty
and skips its download; at the ledger, a produced block may carry an
equivocation proof that retroactively blanks the offender's content.
Proofs must land within k_epf blocks of the offense or the content
stands; the deadline is one of the header rules the store owns
(`HeaderStore.proof_meets_deadline`), and a carrier whose proof misses it
is invalid.

The model assumes two rules on application payloads that keep
pretend-empty safe: no transaction may condition on block content that a
producer could grind, and every call carries a gas deposit large enough
to pay for what it could consume.  The simulator does not exercise them:
its transactions are `(txid, size)` tuples with no payload.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .lottery import BlockHeader, EquivocationProof

if TYPE_CHECKING:
    from .node import Node


def attach_proofs(node: "Node") -> tuple:
    """Collect proofs a producer can still include: equivocations it has
    seen whose on-chain copy lies within the proof window of the new block
    and is not already proven.  The caller emits the trace record once the
    carrying header exists."""
    chain = node.dchain
    height = len(chain)
    window = chain[max(0, height - node.store.k_epf - 1):]
    proofs = []
    for hid in window:
        if hid in node.proofed_targets:
            continue
        h = node.headers[hid]
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
