"""Honest node: header tree, download scheduler, chain selection, ledger.

A node keeps every valid header it has seen, downloads content for one block
at a time according to its scheduling policy, and extends the longest fully
processed chain when it wins a production opportunity.  Processing one block
costs one unit of download budget; blanked content is free.  Partially paid
downloads survive preemption in a small LRU cache.

A node is stepped only when it is due: `wake` is the slot at which its
throttled download completes, or the slot in which a new header or an
upload reached it or it produced while busy, whichever comes first; IDLE
when nothing is fetchable.  The slots a throttled node sleeps through are
paid by `settle` before it is stepped again, in the same float steps as a
per-slot poll.

The scheduler keeps at most MAX_SCHEDULER_TIPS tips, each under its policy's
key.  Keys end in the tip's seen order, so no two are equal, and the
(key, tip) pairs are kept in ascending order: the scheduler walks them from
the top and eviction drops the bottom one.
"""
from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Optional

from . import params as pm
from . import sapos as sp
from . import trace as tr
from .lottery import BlockHeader, BpoId, Content, HeaderStore
from .netenv import Environment, RequestOutcome

MAX_SCHEDULER_TIPS = 100
MAX_PARTIAL_TASKS = 10
IDLE = sys.maxsize   # wake slot of a node with nothing to download


@dataclass
class LedgerEntry:
    header_id: int
    height: int
    blanked: bool
    txs: tuple


class Node:
    def __init__(self, node_id: int, store: HeaderStore, env: Environment,
                 run_trace: tr.Trace, policy: str, protocol: str,
                 k_conf: int, k_epf: int = 0,
                 audit_sink: Optional["object"] = None):
        self.id = node_id
        self.store = store
        self.env = env
        self.trace = run_trace
        self.policy = policy
        self.protocol = protocol
        self.sapos = protocol == pm.PROTOCOL_SAPOS
        self.k_conf = k_conf
        self.k_epf = k_epf
        self.audit_sink = audit_sink

        g = store.genesis.id
        self.known: set[int] = {g}
        self.seen_order: dict[int, int] = {g: 0}
        self._seen_counter = 1
        self.processed: set[int] = {g}
        self.blanked: set[int] = set()
        self.invalid: set[int] = set()
        self.bpo_seen: dict[tuple, list[int]] = {}

        self.tips: dict[int, tuple] = {}            # tip id -> policy key
        self._order: list[tuple[tuple, int]] = []   # (key, tip id), ascending
        self._pending: dict[int, Optional[deque]] = {}
        self.tip_evictions = 0
        self.partial: OrderedDict[int, float] = OrderedDict()
        # the download the last step ended throttled on, None if it idled
        self.throttled: Optional[int] = None
        self._resorted = False
        self.unavailable: set[int] = set()
        self._unavailable_by_commitment: dict[int, set[int]] = {}

        self.dchain: list[int] = []           # header ids, height 1..len
        # id -> number of dchain blocks carrying it: proof targets, and the
        # transactions of processed blocks
        self.proofed_targets: dict[int, int] = {}
        self.included_txids: dict[str, int] = {}
        self.confirmed_len = 0
        self.confirmed_tip = g
        self._ledger_blanked: dict[int, bool] = {}

        self.tx_log: list[tuple[int, tuple]] = []   # shared (slot, tx) feed
        self.tx_cursor = 0

        self.wake = IDLE
        self.invalid_header_count = 0

    @property
    def active(self) -> bool:
        return self.wake != IDLE

    # -- header intake --------------------------------------------------

    @property
    def dchain_tip(self) -> int:
        return self.dchain[-1] if self.dchain else self.store.genesis.id

    @property
    def dchain_height(self) -> int:
        return len(self.dchain)

    def is_done(self, header_id: int) -> bool:
        return header_id in self.processed or header_id in self.blanked

    def on_header(self, header: BlockHeader, slot: int) -> list[int]:
        """Insert a delivered header together with any unknown ancestors
        (a header implies its chain). Returns newly inserted ids; invalid
        headers and their descendants are dropped."""
        chain: list[BlockHeader] = []
        h = header
        while h.id not in self.known:
            if h.id in self.invalid:
                return []
            chain.append(h)
            h = self.store.get(h.parent_id)
        inserted: list[int] = []
        for h in reversed(chain):
            if not self._validate(h):
                self.invalid.add(h.id)
                self.invalid_header_count += 1
                break
            self._insert(h, slot)
            inserted.append(h.id)
        if inserted:
            self.wake = slot
        return inserted

    def _validate(self, h: BlockHeader) -> bool:
        parent = self.store.get(h.parent_id)
        if (h.bpo.slot, h.bpo.seq) <= (parent.bpo.slot, parent.bpo.seq):
            return False
        if self.sapos:
            for proof in h.proofs:
                if not sp.validate_proof_deadline(self.store, h, proof, self.k_epf):
                    return False
        return True

    def _insert(self, h: BlockHeader, slot: int) -> None:
        self.known.add(h.id)
        self.seen_order[h.id] = self._seen_counter
        self._seen_counter += 1

        seen = self.bpo_seen.setdefault(h.bpo.key(), [])
        seen.append(h.id)
        if len(seen) == 2:
            self.trace.emit(slot, tr.EQUIVOCATION_SEEN, node=self.id,
                            bpo_slot=h.bpo.slot, bpo_node=h.bpo.node,
                            bpo_seq=h.bpo.seq, headers=list(seen))

        # tip bookkeeping: the parent stops being a tip, the new header
        # inherits its pending queue when it extends one.
        dq = None
        if h.parent_id in self.tips:
            dq = self._drop_tip(h.parent_id)
            if dq is not None:
                dq.append(h.id)
        self._pending[h.id] = dq   # None: built on first consideration
        key = self._key(h.id)
        self.tips[h.id] = key
        insort(self._order, (key, h.id))
        if len(self.tips) > MAX_SCHEDULER_TIPS:
            self.tip_evictions += 1
            self._drop_tip(self._order[0][1])

    def _drop_tip(self, tip_id: int) -> Optional[deque]:
        """Remove a tip from the scheduler; returns its pending queue."""
        key = self.tips.pop(tip_id)
        del self._order[bisect_left(self._order, (key, tip_id))]
        return self._pending.pop(tip_id)

    def content_uploaded(self, commitment: int, slot: int) -> None:
        """Clear the known-unavailable memo for headers waiting on this
        commitment; the scheduler may retry them this slot."""
        ids = self._unavailable_by_commitment.pop(commitment, None)
        if ids:
            self.unavailable.difference_update(ids)
            self.wake = slot

    # -- scheduling -------------------------------------------------------

    def _build_pending(self, tip_id: int) -> deque:
        stack = []
        cur = tip_id
        while not self.is_done(cur):
            stack.append(cur)
            cur = self.store.get(cur).parent_id
        return deque(reversed(stack))

    def _pending_for(self, tip_id: int) -> deque:
        dq = self._pending.get(tip_id)
        if dq is None:
            dq = self._build_pending(tip_id)
            self._pending[tip_id] = dq
        while dq and self.is_done(dq[0]):
            dq.popleft()
        return dq

    def _key(self, tip_id: int) -> tuple:
        """The tip's priority under the policy; the highest is served first."""
        h = self.store.get(tip_id)
        order = -self.seen_order[tip_id]
        if self.policy == pm.POLICY_FRESHEST_BLOCK:
            return (h.bpo.slot, h.height, order)
        if self.policy == pm.POLICY_GREEDY:
            # height of the processed prefix first
            return (h.height - len(self._pending_for(tip_id)), h.height, order)
        return (h.height, order)

    def _rekey_greedy(self) -> bool:
        """Greedy keys lead with the processed prefix, which grows when a
        block is processed or blanked: move the tips whose key changed.
        Returns whether any tip moved."""
        moved = False
        if self.policy != pm.POLICY_GREEDY:
            return moved
        for tip_id, key in list(self.tips.items()):
            new = self._key(tip_id)
            if new != key:
                self.tips[tip_id] = new
                del self._order[bisect_left(self._order, (key, tip_id))]
                insort(self._order, (new, tip_id))
                moved = True
        return moved

    def schedule_target(self, slot: int) -> Optional[BlockHeader]:
        """Pick the next block to download under the configured policy,
        blanking for free (under SaPoS) the equivocated blocks met on the
        chains as they are considered.  One pass walks the tips from the
        highest key down in the order they had when it began; a pass that
        blanked something and found no target is followed by another.
        Fully processed tips are dropped from the scheduler; they need no
        further work and a later child rebuilds its queue lazily."""
        while True:
            acted = False
            finished: list[int] = []
            target = None
            for _, tip_id in reversed(self._order):
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
                elif dq[0] not in self.unavailable:
                    target = self.store.get(dq[0])
                    break
            for tip_id in finished:
                self._drop_tip(tip_id)
            # a pass that blanked re-keys after choosing: the next pass may
            # then walk the tips in another order and choose another target
            self._resorted = acted and self._rekey_greedy()
            if target is not None or not acted:
                return target

    def process_step(self, slot: int) -> None:
        """Spend this slot's remaining budget on scheduled downloads; called
        after deliveries and production, in slots where the node is due.
        Ends by setting `wake`: IDLE when nothing is fetchable, else the
        slot at which the throttled download completes if nothing reaches
        the node before.  Slots skipped in between are not paid here: the
        caller settles them before the next step."""
        while True:
            target = self.schedule_target(slot)
            if target is None:
                self.wake = IDLE
                self.throttled = None
                return
            paid = self.partial.get(target.id, 0.0)
            outcome, newly = self.env.request_content(self.id, target, paid, slot)
            if outcome is RequestOutcome.UNAVAILABLE:
                self.unavailable.add(target.id)
                self._unavailable_by_commitment.setdefault(
                    target.commitment, set()).add(target.id)
                continue
            if outcome is RequestOutcome.FETCHED:
                self.partial.pop(target.id, None)
                self.trace.emit(slot, tr.CONTENT_FETCHED, node=self.id,
                                header=target.id, via="request", paid=newly)
                self._mark_processed(target.id, slot)
                continue
            # throttled: bank the partial payment, keep the task warm
            if newly > 0.0:
                self._bank(target.id, paid + newly)
            self.throttled = target.id
            if self._resorted:
                self.wake = slot + 1
            else:
                self.wake = self.env.meters[self.id].completion_slot(
                    self.partial.get(target.id, 0.0), slot)
            return

    def settle(self, slot: int) -> None:
        """Pay the throttled download for every slot the node slept through
        before `slot`, as a step in each of them would have: the slot's
        whole refill, banked one float add at a time."""
        if self.throttled is None:
            return
        meter = self.env.meters[self.id]
        slept = meter.spend_refills(slot - 1)
        if slept:
            paid = self.partial.get(self.throttled, 0.0)
            for _ in range(slept):
                paid += meter.rate
            self._bank(self.throttled, paid)

    def _bank(self, header_id: int, paid: float) -> None:
        self.partial[header_id] = paid
        self.partial.move_to_end(header_id)
        if len(self.partial) > MAX_PARTIAL_TASKS:
            self.partial.popitem(last=False)   # oldest work is lost

    # -- processing and chain selection ------------------------------------

    def _mark_blanked(self, header_id: int, slot: int) -> None:
        self.blanked.add(header_id)
        self.trace.emit(slot, tr.PRETEND_EMPTY, node=self.id, header=header_id)
        self._after_processed(header_id, slot)

    def _mark_processed(self, header_id: int, slot: int) -> None:
        self.processed.add(header_id)
        self._rekey_greedy()
        self._after_processed(header_id, slot)

    def _after_processed(self, header_id: int, slot: int) -> None:
        h = self.store.get(header_id)
        if h.height <= self.dchain_height:
            return
        old_tip = self.dchain_tip
        chain = self.dchain
        # walk down to the current chain: the cost is the depth of the reorg
        suffix = []
        cur = h
        while cur.height and not (cur.height <= len(chain)
                                  and chain[cur.height - 1] == cur.id):
            suffix.append(cur)
            cur = self.store.get(cur.parent_id)
        for hid in chain[cur.height:]:
            self._count_chain_block(self.store.get(hid), -1)
        del chain[cur.height:]
        for blk in reversed(suffix):
            chain.append(blk.id)
            self._count_chain_block(blk, 1)
        self.trace.emit(slot, tr.CHAIN_SWITCHED, node=self.id, old=old_tip,
                        new=h.id, height=h.height,
                        switch=h.parent_id != old_tip)
        self._update_ledger(slot)

    def _count_chain_block(self, h: BlockHeader, step: int) -> None:
        """Add (step 1) or remove (step -1) a dchain block's proof targets
        and, if it was processed, its transactions.  Whether a block is
        processed or blanked never changes once it is done, so leaving the
        chain removes exactly what joining added."""
        marks = [(self.proofed_targets, proof.target) for proof in h.proofs]
        if h.id in self.processed:
            content = self._content_of(h)
            if content is not None:
                marks += [(self.included_txids, t[0]) for t in content.txs]
        for counts, key in marks:
            n = counts.get(key, 0) + step
            if n:
                counts[key] = n
            else:
                del counts[key]

    def _content_of(self, h: BlockHeader) -> Optional[Content]:
        if h.commitment in self.env.cloud or h.id in self.processed:
            return self.store.contents.get(h.commitment)
        return None

    def _update_ledger(self, slot: int) -> None:
        new_len = max(0, self.dchain_height - self.k_conf)
        if new_len == 0:
            return
        new_tip = self.dchain[new_len - 1]
        if new_len == self.confirmed_len and new_tip == self.confirmed_tip:
            return
        start = self.confirmed_len if new_len > self.confirmed_len else 0
        self.confirmed_len = new_len
        self.confirmed_tip = new_tip
        self.trace.emit(slot, tr.LEDGER_OUTPUT, node=self.id, len=new_len,
                        tip=new_tip)
        for idx in range(start, new_len):
            self._check_confirmed(self.dchain[idx], slot)

    def _check_confirmed(self, header_id: int, slot: int) -> None:
        """Ledger-level bookkeeping when a block becomes confirmed: final
        blank status under the blanking rule, plus the missing-content audit."""
        if not self.sapos:
            return
        blanked = header_id in self.proofed_targets
        if blanked and not self._ledger_blanked.get(header_id, False):
            self.trace.emit(slot, tr.BLANKED, node=self.id, block=header_id)
        self._ledger_blanked[header_id] = blanked
        if self.audit_sink is not None:
            self.audit_sink.note_blank_status(self.id, header_id, blanked, slot)
            if not blanked and header_id not in self.processed:
                self.audit_sink.note_missing_content(self.id, header_id, slot)

    # -- production ---------------------------------------------------------

    def try_produce(self, bpo: BpoId, slot: int) -> tuple[BlockHeader, Content]:
        """Extend the longest processed chain with a new block; an empty
        feed still yields an (empty) block."""
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
        evictions = self.tip_evictions
        self._insert(header, slot)
        self.processed.add(header.id)
        # an insert that evicted keyed the new block while it was still
        # unprocessed; greedy keeps that key until the next block is
        # processed or blanked, and recorded traces depend on it
        if self.tip_evictions == evictions:
            self._rekey_greedy()
        self._after_processed(header.id, slot)
        if self.active:
            self.wake = slot   # its target's tip may be evicted or re-keyed
        return header, content

    def _take_txs(self, slot: int) -> tuple:
        """Fill a block, oldest first, from the feed's transactions generated
        before `slot`, skipping those the chain already includes; the cursor
        moves past everything taken or skipped."""
        log = self.tx_log
        i = self.tx_cursor
        taken = []
        size = 0.0
        while i < len(log) and log[i][0] < slot:
            tx = log[i][1]
            if tx[0] not in self.included_txids:
                if size + tx[1] > 1.0 + 1e-9:
                    break
                taken.append(tx)
                size += tx[1]
            i += 1
        self.tx_cursor = i
        return tuple(taken)

    # -- output ---------------------------------------------------------

    def output_ledger(self) -> list[LedgerEntry]:
        """Confirmed prefix with blanking applied (content of blocks whose
        equivocation is proven on-chain is dropped)."""
        out = []
        for hid in self.dchain[:self.confirmed_len]:
            h = self.store.get(hid)
            blanked = self.sapos and hid in self.proofed_targets
            txs: tuple = ()
            if not blanked:
                content = self._content_of(h)
                txs = content.txs if content is not None else ()
            out.append(LedgerEntry(hid, h.height, blanked, txs))
        return out
