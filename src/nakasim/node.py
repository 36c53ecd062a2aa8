"""Honest node: header tree, download scheduler, chain selection, ledger.

A node keeps every valid header it has seen, downloads content for one block
at a time according to its scheduling policy, and extends the longest fully
processed chain when it wins a production opportunity.  Processing one block
costs one unit of the node's download budget, its meter; blanked content is
free.  Partially paid downloads survive preemption in a small LRU cache.

A node is stepped only when it is due: `wake` is the slot at which its
throttled download completes (the run's horizon, if it completes later),
or the first slot in which an event can change its plan, whichever comes
first; IDLE when nothing is fetchable.
A throttled node keeps its plan, the target and the tip it serves, and
only these events wake it:
  - a header insert (delivered, or its own block) that drops or evicts the
    served tip, leaves a tip whose key ranks above the served tip's, or,
    under SaPoS, makes a block's production opportunity seen twice;
  - an upload notice, which the heal also sends, that clears an
    unavailability memo.
Any other insert leaves every tip above the served one as it was, so a
step would walk them to the same target.  A header that extends the served
tip becomes the served tip: it inherits the served queue and ranks above
its parent, and the tips it passes had no fetchable front, so a walk would
still end on the same target.  The slots a throttled node
sleeps through are paid by `settle` before it is stepped again, in the
same float steps as a per-slot poll.

The scheduler keeps at most MAX_SCHEDULER_TIPS tips, each under its policy's
key.  Keys end in the tip's seen order, so no two are equal, and the
(key, tip) pairs are kept in ascending order: the scheduler walks them from
the top and eviction drops the bottom one.  A block is done once it is
processed: `processed` holds every done block, and `blanked` the subset
processed as empty, so the walks test done-ness with one probe.  Greedy's
key leads with the tip's processed prefix, and it has one re-key rule:
the tips whose key changed move after every block that becomes done, a
fetched block, the node's own block, or the blanks of a scheduler pass.
Every pass therefore begins under current keys, and a pass that blanked
is followed by another, so the target a walk returns is the one the keys
after its blanks choose.

Headers enter as chains: a delivered header brings its unknown ancestors,
and the valid prefix of them is inserted in one `_insert_chain`, as is a
node's own block, a chain of one.  Each header of the chain is given its
seen order and its production opportunity's record (and an
EquivocationSeen on the second header of one) in chain order, but the tip
index changes once: only the top of the chain can remain a tip, since
every other member is the parent of the next.  If the chain's parent is a
tip, the top replaces it and inherits its queue and the served mark, with
no eviction.  Otherwise the top is a new tip, and at the cap
`_admit_at_cap` gives the outcome of inserting the members one at a time,
each evicting the lowest tip.  Keys rise along a chain under every
policy: heights rise, validation keeps a child's production opportunity
slot from falling below its parent's, and greedy's processed prefix ends
below the chain, so it is the same for every member.  The members that
rank below the lowest tip therefore lead the chain, and each evicts itself
in turn.  The first member that ranks above it evicts the lowest tip
instead, and its descendants replace it up to the top.  If none does, the
tips are left as they were.

A node asks the store whether a header may be inserted
(`HeaderStore.valid`): the store owns the run's header rules, decides each
header once, and every node of the run reads the same verdict.  Each node
keeps its own `invalid` set, and mints its blocks through the store's
`extend`.  Its protocol, and so whether it blanks equivocations and
attaches proofs, is the store's.  `bpo_seen` lists the headers seen for
each production opportunity, keyed by the `BpoId` itself.

Under SaPoS a node handles equivocation in two places.  The scheduler
treats a block whose production opportunity the node has seen twice as
empty and skips its download.  A producer attaches proofs of the
equivocations on its recent chain (`_attach_proofs`), which retroactively
blank the offender's content; a proof must land within k_epf blocks of
the offense, a deadline the store checks.  The model assumes two rules on
application payloads that keep pretend-empty safe: no transaction may
condition on block content that a producer could grind, and every call
carries a gas deposit large enough to pay for what it could consume.  The
simulator does not exercise them: its transactions are `(txid, size)`
tuples with no payload.
"""
from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Optional

from . import params as pm
from . import trace as tr
from .lottery import (BlockHeader, BpoId, Content, EquivocationProof,
                      HeaderStore)
from .netenv import FETCHED, UNAVAILABLE, CapacityMeter, Environment

if TYPE_CHECKING:
    from .sim import AuditSink

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
                 meter: CapacityMeter, run_trace: tr.Trace, policy: str,
                 k_conf: int, audit_sink: AuditSink, front: HonestFront):
        self.id = node_id
        self.store = store
        self.headers = store.headers
        self.env = env
        self.meter = meter
        self.trace = run_trace
        self.policy = policy
        self.sapos = store.protocol == pm.PROTOCOL_SAPOS
        self.greedy = policy == pm.POLICY_GREEDY
        self.k_conf = k_conf
        self.audit_sink = audit_sink
        self.front = front

        g = store.genesis.id
        self.seen_order: dict[int, int] = {g: 0}   # every kept header, in order
        self.processed: set[int] = {g}
        self.blanked: set[int] = set()
        self.invalid: set[int] = set()
        self.bpo_seen: dict[BpoId, list[int]] = {}

        self.tips: dict[int, tuple] = {}            # tip id -> policy key
        self._order: list[tuple[tuple, int]] = []   # (key, tip id), ascending
        self._pending: dict[int, Optional[deque]] = {}
        self.tip_evictions = 0
        self.fetches = 0
        self.partial: OrderedDict[int, float] = OrderedDict()
        # the download the last step ended throttled on, None if it idled
        self.throttled: Optional[int] = None
        # the tip the last walk took its target from, and the target a
        # throttled step keeps until an event can change it
        self._served: Optional[int] = None
        self._kept: Optional[BlockHeader] = None
        # commitments of content found unavailable and not uploaded since
        self.unavailable: set[int] = set()

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

    def on_header(self, header: BlockHeader, slot: int) -> list[int]:
        """Insert a delivered header together with any unknown ancestors
        (a header implies its chain). Returns newly inserted ids; invalid
        headers and their descendants are dropped.  The node is due this
        slot if it has no kept plan or the inserts can change it (see
        `_replans`)."""
        seen_order, invalid, headers = self.seen_order, self.invalid, self.headers
        chain: list[BlockHeader] = []
        h = header
        while h.id not in seen_order:
            if h.id in invalid:
                return []
            chain.append(h)
            h = headers[h.parent_id]
        chain.reverse()
        # `valid` returns a verdict the store holds; reading it here saves
        # a call per header
        verdicts, valid = self.store.verdicts, self.store.valid
        for i, h in enumerate(chain):
            if not (verdicts.get(h.id) or valid(h)):
                invalid.add(h.id)
                del chain[i:]
                break
        if not chain:
            return []
        inserted = self._insert_chain(chain, slot)
        if self._replans(inserted):
            self._wake_now(slot)
        return inserted

    def _replans(self, inserted: list[int]) -> bool:
        """Whether a walk after inserting this chain can end elsewhere than
        the kept plan: there is none, its tip was dropped or evicted, the
        chain's top (no other member stays a tip) ranks above it, so the
        walk meets it first, or under SaPoS an inserted header made its
        production opportunity equivocated, which may blank a queued
        block."""
        if self._kept is None:
            return True
        served = self.tips.get(self._served)
        if served is None:
            return True
        key = self.tips.get(inserted[-1])
        if key is not None and key > served:
            return True
        if self.sapos:
            for hid in inserted:
                if len(self.bpo_seen[self.headers[hid].bpo]) == 2:
                    return True
        return False

    def _wake_now(self, slot: int) -> None:
        self.wake = slot
        self._kept = None

    def _insert_chain(self, chain: list[BlockHeader], slot: int) -> list[int]:
        """Insert valid headers, each the parent of the next, the first a
        child of a known header; returns their ids.  The tip index changes
        once, for the top (see the module docstring)."""
        seen_order, bpo_seen = self.seen_order, self.bpo_seen
        ids = []
        for h in chain:
            seen_order[h.id] = len(seen_order)
            seen = bpo_seen.get(h.bpo)
            if seen is None:
                bpo_seen[h.bpo] = [h.id]
            else:
                seen.append(h.id)
                if len(seen) == 2:
                    self.trace.emit(slot, tr.EQUIVOCATION_SEEN, self.id,
                                    h.bpo.slot, h.bpo.node, h.bpo.seq,
                                    list(seen))
            ids.append(h.id)

        # the top inherits the parent tip's pending queue and the kept plan
        # when the parent was the tip it served
        top = ids[-1]
        parent = chain[0].parent_id
        dq = None
        at_cap = False
        if parent in self.tips:
            dq = self._drop_tip(parent)
            if dq is not None:
                dq.extend(ids)
            if self._served == parent:
                self._served = top
        else:
            at_cap = len(self.tips) >= MAX_SCHEDULER_TIPS
        self._pending[top] = dq   # None: built on first consideration
        key = self._key(top)
        if at_cap and not self._admit_at_cap(chain, key):
            del self._pending[top]
            return ids
        self.tips[top] = key
        insort(self._order, (key, top))
        return ids

    def _admit_at_cap(self, chain: list[BlockHeader], key: tuple) -> bool:
        """The eviction rule, for a chain whose parent is not a tip, met
        with MAX_SCHEDULER_TIPS tips: count the evictions that inserting
        the members one at a time makes, evict the lowest tip if a member
        ranks above it, and return whether the top (whose key is `key`)
        becomes a tip.  Keys rise along the chain, so the members below
        the lowest tip lead it and each evicts itself."""
        low_key, low = self._order[0]
        if key < low_key:
            self.tip_evictions += len(chain)
            return False
        # members below the top, keyed as the top is: greedy's processed
        # prefix is the chain's
        below = bisect_left(chain, low_key, hi=len(chain) - 1,
                            key=lambda h: self._key(h.id, key[0]))
        self.tip_evictions += below + 1
        self._drop_tip(low)
        return True

    def _drop_tip(self, tip_id: int) -> Optional[deque]:
        """Remove a tip from the scheduler; returns its pending queue."""
        key = self.tips.pop(tip_id)
        del self._order[bisect_left(self._order, (key, tip_id))]
        return self._pending.pop(tip_id)

    def content_uploaded(self, commitment: int, slot: int) -> None:
        """The notice of an upload the cloud accepts, which the heal also
        sends, to the nodes whose memo holds its commitment.  The memo is
        the only record of what a node waits for: if it holds `commitment`,
        the commitment is cleared and the node is due this slot."""
        if commitment in self.unavailable:
            self.unavailable.remove(commitment)
            self._wake_now(slot)

    # -- scheduling -------------------------------------------------------

    def _build_pending(self, tip_id: int) -> deque:
        """The tip's chain above its highest processed block."""
        processed, headers = self.processed, self.headers
        stack = []
        cur = tip_id
        while cur not in processed:
            stack.append(cur)
            cur = headers[cur].parent_id
        return deque(reversed(stack))

    def _pending_for(self, tip_id: int) -> deque:
        """The tip's pending queue, its processed front dropped."""
        dq = self._pending.get(tip_id)
        if dq is None:
            dq = self._pending[tip_id] = self._build_pending(tip_id)
        processed = self.processed
        while dq and dq[0] in processed:
            dq.popleft()
        return dq

    def _key(self, tip_id: int, done: Optional[int] = None) -> tuple:
        """The tip's priority under the policy; the highest is served first.
        Greedy's leads with `done`, the height of the processed prefix,
        which is read from the tip's pending queue when not given."""
        h = self.headers[tip_id]
        order = -self.seen_order[tip_id]
        if self.policy == pm.POLICY_FRESHEST_BLOCK:
            return (h.bpo.slot, h.height, order)
        if self.greedy:
            if done is None:
                done = h.height - len(self._pending_for(tip_id))
            return (done, h.height, order)
        return (h.height, order)

    def _rekey_greedy(self) -> None:
        """Greedy keys lead with the processed prefix, which grows when a
        block is processed or blanked: move the tips whose key changed."""
        if not self.greedy:
            return
        for tip_id, key in list(self.tips.items()):
            new = self._key(tip_id)
            if new != key:
                self.tips[tip_id] = new
                del self._order[bisect_left(self._order, (key, tip_id))]
                insort(self._order, (new, tip_id))

    def schedule_target(self, slot: int) -> Optional[BlockHeader]:
        """Pick the next block to download under the configured policy,
        blanking for free (under SaPoS) the equivocated blocks met on the
        chains as they are considered.  One pass walks the tips from the
        highest key down in the order they had when it began; a pass that
        blanked something is followed by another under the keys the blanks
        gave, so the walk ends with a pass that blanks nothing.
        Fully processed tips are dropped from the scheduler; they need no
        further work and a later child rebuilds its queue lazily.

        The plan kept by the last throttled step is returned without a
        walk: until an event drops it (a wake, a processed block, a new
        memo), the tips above the served one and the served queue's front
        are as that step's walk left them."""
        if self._kept is not None:
            return self._kept
        headers, processed = self.headers, self.processed
        unavailable, bpo_seen = self.unavailable, self.bpo_seen
        sapos = self.sapos
        while True:
            acted = False
            finished: list[int] = []
            target = None
            for _, tip_id in reversed(self._order):
                dq = self._pending_for(tip_id)
                while dq:
                    front = dq[0]
                    if front in processed:
                        dq.popleft()
                    elif sapos and len(bpo_seen[headers[front].bpo]) >= 2:
                        self._mark_blanked(front, slot)
                        dq.popleft()
                        acted = True
                    else:
                        break
                if not dq:
                    finished.append(tip_id)
                else:
                    front = headers[dq[0]]
                    if front.commitment not in unavailable:
                        target = front
                        self._served = tip_id
                        break
            for tip_id in finished:
                self._drop_tip(tip_id)
            if not acted:
                return target
            self._rekey_greedy()

    def process_step(self, slot: int) -> None:
        """Spend this slot's remaining budget on scheduled downloads; called
        after deliveries and production, in slots where the node is due.
        Ends by setting `wake`: IDLE when nothing is fetchable, else the
        slot at which the throttled download completes unless an event
        that can change the plan reaches the node before (see the module
        docstring).  A step that ends throttled keeps its target for the
        next one.  Slots skipped in between are not paid here: the caller
        settles them before the next step."""
        while True:
            target = self.schedule_target(slot)
            if target is None:
                self.wake = IDLE
                self.throttled = None
                return
            paid = self.partial.get(target.id, 0.0)
            outcome, newly = self.env.request_content(self, target, paid, slot)
            if outcome is UNAVAILABLE:
                self._kept = None
                self.unavailable.add(target.commitment)
                continue
            if outcome is FETCHED:
                self.fetches += 1
                self.partial.pop(target.id, None)
                self.trace.emit(slot, tr.CONTENT_FETCHED, self.id,
                                target.id, "request", newly)
                self._mark_processed(target.id, slot)
                continue
            # throttled: bank the partial payment, keep the task warm
            if newly > 0.0:
                paid += newly
                self._bank(target.id, paid)
            self.throttled = target.id
            self._kept = target
            self.wake = self.meter.completion_slot(paid, slot)
            return

    def settle(self, slot: int) -> None:
        """Pay the throttled download for every slot the node slept through
        before `slot`, as a step in each of them would have: the slot's
        whole refill, banked one float add at a time."""
        if self.throttled is None:
            return
        slept, paid = self.meter.spend_refills(
            slot - 1, self.partial.get(self.throttled, 0.0))
        if slept:
            self._bank(self.throttled, paid)

    def _bank(self, header_id: int, paid: float) -> None:
        self.partial[header_id] = paid
        self.partial.move_to_end(header_id)
        if len(self.partial) > MAX_PARTIAL_TASKS:
            self.partial.popitem(last=False)   # oldest work is lost

    # -- processing and chain selection ------------------------------------

    def _mark_blanked(self, header_id: int, slot: int) -> None:
        self.processed.add(header_id)
        self.blanked.add(header_id)
        self.trace.emit(slot, tr.PRETEND_EMPTY, self.id, header_id)
        self._after_processed(header_id, slot)

    def _mark_processed(self, header_id: int, slot: int) -> None:
        self._kept = None
        self.processed.add(header_id)
        if self.greedy:
            self._rekey_greedy()
        self._after_processed(header_id, slot)

    def _after_processed(self, header_id: int, slot: int) -> None:
        h = self.headers[header_id]
        if h.height <= len(self.dchain):
            return
        old_tip = self.dchain_tip
        chain = self.dchain
        # walk down to the current chain: the cost is the depth of the reorg
        suffix = []
        cur = h
        while cur.height and not (cur.height <= len(chain)
                                  and chain[cur.height - 1] == cur.id):
            suffix.append(cur)
            cur = self.headers[cur.parent_id]
        for hid in chain[cur.height:]:
            self._count_chain_block(self.headers[hid], -1)
        del chain[cur.height:]
        for blk in reversed(suffix):
            chain.append(blk.id)
            self._count_chain_block(blk, 1)
        if h.height > self.front.height:
            self.front.height = h.height
        self.trace.emit(slot, tr.CHAIN_SWITCHED, self.id, old_tip, h.id,
                        h.height, h.parent_id != old_tip)
        self._update_ledger(slot)

    def _count_chain_block(self, h: BlockHeader, step: int) -> None:
        """Add (step 1) or remove (step -1) a dchain block's proof targets
        and, unless it was processed as empty, its transactions.  Whether a
        block is blanked never changes once it is done, so leaving the
        chain removes exactly what joining added."""
        txs = (self.store.contents[h.commitment].txs
               if h.id not in self.blanked else ())
        if not (h.proofs or txs):
            return
        marks = [(self.proofed_targets, proof.target) for proof in h.proofs]
        marks += [(self.included_txids, t[0]) for t in txs]
        for counts, key in marks:
            n = counts.get(key, 0) + step
            if n:
                counts[key] = n
            else:
                del counts[key]

    def _update_ledger(self, slot: int) -> None:
        new_len = len(self.dchain) - self.k_conf
        if new_len <= 0:
            return
        new_tip = self.dchain[new_len - 1]
        if new_len == self.confirmed_len and new_tip == self.confirmed_tip:
            return
        start = self.confirmed_len if new_len > self.confirmed_len else 0
        self.confirmed_len = new_len
        self.confirmed_tip = new_tip
        self.trace.emit(slot, tr.LEDGER_OUTPUT, self.id, new_len, new_tip)
        for idx in range(start, new_len):
            self._check_confirmed(self.dchain[idx], slot)

    def _check_confirmed(self, header_id: int, slot: int) -> None:
        """Ledger-level bookkeeping when a block becomes confirmed: final
        blank status under the blanking rule, plus the missing-content audit."""
        if not self.sapos:
            return
        blanked = header_id in self.proofed_targets
        if blanked and not self._ledger_blanked.get(header_id, False):
            self.trace.emit(slot, tr.BLANKED, self.id, header_id)
        self._ledger_blanked[header_id] = blanked
        self.audit_sink.note_blank_status(self.id, header_id, blanked, slot)
        # every dchain block is done: one processed as empty lacks content
        if not blanked and header_id in self.blanked:
            self.audit_sink.note_missing_content(self.id, header_id, slot)

    # -- production ---------------------------------------------------------

    def try_produce(self, bpo: BpoId, slot: int) -> tuple[BlockHeader, Content]:
        """Extend the longest processed chain with a new block; an empty
        feed still yields an (empty) block."""
        txs = self._take_txs(slot)
        proofs = self._attach_proofs() if self.sapos else ()
        content = self.store.make_content(txs)
        header = self.store.extend(bpo, self.dchain_tip, content.commitment,
                                   proofs)
        for proof in proofs:
            self.trace.emit(slot, tr.PROOF_INCLUDED, self.id, header.id,
                            proof.target, proof.header_b)
        self._insert_chain([header], slot)
        self.processed.add(header.id)
        self._rekey_greedy()
        self._after_processed(header.id, slot)
        # the block is done, but its insert may evict the served tip or
        # rank above it, and a walk would drop it when it meets it
        if self.active and self._replans([header.id]):
            self._wake_now(slot)
        return header, content

    def _attach_proofs(self) -> tuple:
        """The proofs a producer can still include: equivocations it has
        seen whose on-chain copy lies within the proof window of the new
        block and is not already proven.  The caller emits the trace
        record once the carrying header exists."""
        chain = self.dchain
        proofs = []
        for hid in chain[max(0, len(chain) - self.store.k_epf - 1):]:
            if hid in self.proofed_targets:
                continue
            bpo = self.headers[hid].bpo
            seen = self.bpo_seen[bpo]
            if len(seen) >= 2:
                other = next(x for x in seen if x != hid)
                proofs.append(EquivocationProof(
                    header_a=hid, header_b=other, target=hid))
        return tuple(proofs)

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
