"""Honest node: header tree, download scheduler, chain selection, ledger.

A node keeps every valid header it has seen, downloads content for one block
at a time according to its scheduling policy, and extends the longest fully
processed chain when it wins a production opportunity.  Processing one block
costs one unit of download budget; blanked content is free.  Partially paid
downloads survive preemption in a small LRU cache.

A node is stepped only when it is due: `wake` is the slot at which its
throttled download completes, or the first slot in which an event can
change its plan, whichever comes first; IDLE when nothing is fetchable.
A throttled node keeps its plan, the target and the tip it serves, and
only these events wake it:
  - a header insert (delivered, or its own block) that drops or evicts the
    served tip, leaves a tip whose key ranks above the served tip's, or,
    under SaPoS, makes a block's production opportunity seen twice;
  - an upload or the partition heal that clears an unavailability memo.
Any other insert leaves every tip above the served one as it was, so a
step would walk them to the same target.  The slots a throttled node
sleeps through are paid by `settle` before it is stepped again, in the
same float steps as a per-slot poll.

The scheduler keeps at most MAX_SCHEDULER_TIPS tips, each under its policy's
key.  Keys end in the tip's seen order, so no two are equal, and the
(key, tip) pairs are kept in ascending order: the scheduler walks them from
the top and eviction drops the bottom one.
"""
from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from typing import Optional

from . import params as pm
from . import sapos as sp
from . import trace as tr
from .lottery import BlockHeader, BpoId, Content, HeaderStore
from .netenv import Environment, RequestOutcome

MAX_SCHEDULER_TIPS = 100
MAX_PARTIAL_TASKS = 10
IDLE = sys.maxsize   # wake slot of a node with nothing to download


class HonestFront:
    """The height of the longest dchain among the nodes that share it.  A
    node's dchain never gets shorter (a switch needs a strictly higher
    block), so this is a running max that each node raises as its own
    dchain grows."""

    __slots__ = ("height",)

    def __init__(self) -> None:
        self.height = 0


class Node:
    def __init__(self, node_id: int, store: HeaderStore, env: Environment,
                 run_trace: tr.Trace, policy: str, protocol: str,
                 k_conf: int, k_epf: int = 0,
                 audit_sink: Optional["object"] = None,
                 front: Optional[HonestFront] = None):
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
        self.front = front if front is not None else HonestFront()

        g = store.genesis.id
        self.seen_order: dict[int, int] = {g: 0}   # every kept header, in order
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
        # the tip the last walk took its target from, and the target a
        # throttled step keeps until an event can change it
        self._served: Optional[int] = None
        self._kept: Optional[BlockHeader] = None
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
        headers and their descendants are dropped.  The node is due this
        slot if it has no kept plan or the inserts can change it (see
        `_replans`)."""
        chain: list[BlockHeader] = []
        h = header
        while h.id not in self.seen_order:
            if h.id in self.invalid:
                return []
            chain.append(h)
            h = self.store.get(h.parent_id)
        inserted: list[int] = []
        for h in reversed(chain):
            if not self._validate(h):
                self.invalid.add(h.id)
                break
            self._insert(h, slot)
            inserted.append(h.id)
        if inserted and self._replans(inserted):
            self._wake_now(slot)
        return inserted

    def _replans(self, inserted: list[int]) -> bool:
        """Whether a walk after inserting these headers can end elsewhere
        than the kept plan: there is none, its tip was dropped or evicted,
        an inserted tip's key ranks above it (the walk meets that tip
        first), or under SaPoS an inserted header made its production
        opportunity equivocated, which may blank a queued block."""
        if self._kept is None:
            return True
        served = self.tips.get(self._served)
        if served is None:
            return True
        for hid in inserted:
            key = self.tips.get(hid)
            if key is not None and key > served:
                return True
            if self.sapos and len(
                    self.bpo_seen[self.store.get(hid).bpo.key()]) == 2:
                return True
        return False

    def _wake_now(self, slot: int) -> None:
        self.wake = slot
        self._kept = None

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
        self.seen_order[h.id] = len(self.seen_order)

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
        """The simulation calls this on every node for each upload the
        cloud accepts.  The node's memo is the only record of what it
        waits for: if it holds this commitment, the headers found
        unavailable under it are cleared and the node is due this slot."""
        ids = self._unavailable_by_commitment.pop(commitment, None)
        if ids:
            self.unavailable.difference_update(ids)
            self._wake_now(slot)

    def partition_healed(self, slot: int) -> None:
        """At the partition heal, content uploaded across the split becomes
        visible: clear the memo of every commitment already in the cloud,
        as its upload would have.  Memos of content not yet uploaded stay."""
        cloud = self.env.cloud
        for commitment in [c for c in self._unavailable_by_commitment
                           if c in cloud]:
            self.content_uploaded(commitment, slot)

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
        further work and a later child rebuilds its queue lazily.

        The plan kept by the last throttled step is returned without a
        walk: until an event drops it (a wake, a processed or blanked
        block, a new memo), the tips above the served one and the served
        queue's front are as that step's walk left them."""
        if self._kept is not None:
            return self._kept
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
                    self._served = tip_id
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
        slot at which the throttled download completes unless an event
        that can change the plan reaches the node before (see the module
        docstring).  A step that ends throttled keeps its target for the
        next one, except after a pass that re-sorted the tips, which wakes
        the node next slot to walk them again.  Slots skipped in between
        are not paid here: the caller settles them before the next step."""
        while True:
            target = self.schedule_target(slot)
            if target is None:
                self.wake = IDLE
                self.throttled = None
                return
            paid = self.partial.get(target.id, 0.0)
            outcome, newly = self.env.request_content(self.id, target, paid, slot)
            if outcome is RequestOutcome.UNAVAILABLE:
                self._kept = None
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
                self._kept = target
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
        self._kept = None
        self.blanked.add(header_id)
        self.trace.emit(slot, tr.PRETEND_EMPTY, node=self.id, header=header_id)
        self._after_processed(header_id, slot)

    def _mark_processed(self, header_id: int, slot: int) -> None:
        self._kept = None
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
        if h.height > self.front.height:
            self.front.height = h.height
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
        # the block is done, but its insert may evict the served tip or
        # rank above it, and a walk would drop it when it meets it
        if self.active and self._replans([header.id]):
            self._wake_now(slot)
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
