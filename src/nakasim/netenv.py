"""Network environment: header delivery queues, the content cloud, and
per-node download budgets.

Headers travel free of charge and are delivered at the forced deadline
(enqueue slot + ceil(delta_h / tau)); the adversary's rushing pushes
bypass the queue (`Simulation.push_to_honest`).  The queue holds one entry
per broadcast and delivery slot, naming its recipients in node order: one
entry, or two while a partition withholds the header from half the nodes.
Content is pulled from a shared insert-only cloud and every fetched block
costs one unit of the requesting node's token budget, refilled at
capacity * tau per slot with at most one block of carry-over.
The cloud is the set of uploaded commitments, and a block's producer
(`header.bpo.node`) is the origin that a broadcast skips and a partition
tests; content the node cannot see is free.
A visible request makes one meter call, `CapacityMeter.draw`, which
refills, applies the fetch test and spends.  The environment keeps no
per-node record besides the meters: each node counts its fetches and
memoises what it found unavailable, and the simulation sends the nodes
that memoised a commitment its upload notice, which the heal also sends.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .lottery import BlockHeader, Content


class RequestOutcome(Enum):
    FETCHED = "fetched"
    UNAVAILABLE = "unavailable"
    THROTTLED = "throttled"


# the outcomes as module constants, for the per-request path
FETCHED = RequestOutcome.FETCHED
UNAVAILABLE = RequestOutcome.UNAVAILABLE
THROTTLED = RequestOutcome.THROTTLED


class CommitmentMismatch(Exception):
    """Uploaded content does not match the header commitment it claims."""


FETCH_SLACK = 1e-9   # a request fetches when tokens + FETCH_SLACK >= remaining


class CapacityMeter:
    """Token bucket in units of blocks. Unspent tokens carry across slots up
    to a one-block cap, on top of the current slot's refill.

    A node throttled on one download is not polled in the slots it sleeps
    through; `spend_refills` pays those slots afterwards, adding each
    slot's refill to `spent_total` and to the download's banked payment in
    one loop, the same float steps as polling would have.  It is not
    memoized: the running `spent_total` it adds to never repeats.

    `completion_slot` replays those steps to find the slot a download
    completes in.  Its result depends only on the banked payment and the
    rate, so it is memoized by the payment: the same float additions in
    the same order, done once per distinct payment.  A replay stops at the
    run's horizon, after which no node is stepped, and returns the
    horizon; a count it did not finish is not memoized.

    `draw` runs on every visible request: it advances the refill clock,
    applies the fetch test and spends, in one call, and clamps with a
    comparison where `min` would give the same float: on CPython 3.11 a
    builtin call costs more than the rest of the clamp.  `peek` and
    `fetches_block` read the meter and store nothing, so a read from
    outside a request changes no later float sum."""

    CARRY_CAP = 1.0

    def __init__(self, rate_per_slot: float, horizon_slots: int):
        self.rate = rate_per_slot
        self.horizon = horizon_slots
        self.tokens = rate_per_slot
        self.spent_total = 0.0
        self._slot = 0
        # paid -> completion_slot(paid, s) - (s + 1)
        self._steps: dict[float, int] = {}

    def peek(self, slot: int) -> float:
        """The tokens available at `slot`: the refill formula, which `draw`
        stores when the slot has advanced."""
        if slot <= self._slot:
            return self.tokens
        cap = self.CARRY_CAP + self.rate
        if self.tokens >= self.CARRY_CAP:
            return cap
        tokens = self.tokens + (slot - self._slot) * self.rate
        return cap if tokens > cap else tokens

    def fetches_block(self, slot: int) -> bool:
        """Whether a request for a whole block would fetch at `slot`."""
        tokens = self.tokens if slot <= self._slot else self.peek(slot)
        return tokens + FETCH_SLACK >= 1.0

    def draw(self, remaining: float, slot: int) -> tuple[RequestOutcome, float]:
        """One request for `remaining` of a block at `slot`: advance the
        refill clock, then fetch when `tokens + FETCH_SLACK >= remaining`,
        spending `min(tokens, remaining)` and paying `remaining`, or else
        pay out every token as partial progress.  Returns (outcome, newly
        paid fraction).  Neither spend can leave the bucket below zero, so
        a draw that finds it there raises: something else overdrew it."""
        if slot > self._slot:
            self.tokens = tokens = self.peek(slot)
            self._slot = slot
        else:
            tokens = self.tokens
        if tokens + FETCH_SLACK >= remaining:
            spent = tokens if tokens < remaining else remaining
            self.tokens = tokens - spent
            self.spent_total += spent
            return FETCHED, remaining
        if tokens > 0.0:
            self.tokens = 0.0
            self.spent_total += tokens
            return THROTTLED, tokens
        if tokens < -1e-9:
            raise AssertionError("capacity meter overdrawn")
        return THROTTLED, 0.0

    def spend_refills(self, through: int, paid: float) -> tuple[int, float]:
        """Spend the whole refill of every slot after the last draw up to
        `through`, as a download throttled in each of them does, starting
        from an empty bucket, and bank each refill on `paid` one float add
        at a time. Returns the number of slots paid and the banked sum."""
        slots = through - self._slot
        if slots <= 0:
            return 0, paid
        rate, spent = self.rate, self.spent_total
        for _ in range(slots):
            spent += rate
            paid += rate
        self.spent_total = spent
        self.tokens = 0.0
        self._slot = through
        return slots, paid

    def completion_slot(self, paid: float, slot: int) -> int:
        """The slot in which a download left throttled at `slot`, with
        `paid` banked, is fetched when every later slot spends its whole
        refill on it. The sums are replayed slot by slot, so they match
        the ones a per-slot poll banks bit for bit.  A replay that reaches the
        horizon stops there and returns it."""
        steps = self._steps.get(paid)
        if steps is None:
            steps, total = 0, paid
            last = self.horizon - slot - 1
            while self.rate + FETCH_SLACK < 1.0 - total:
                if steps >= last:
                    return self.horizon
                total += self.rate
                steps += 1
            self._steps[paid] = steps
        return slot + 1 + steps


@dataclass
class Partition:
    """Scenario override: nodes in two halves, cross-half traffic withheld
    until the heal slot.  `half_of` maps the honest nodes; every other
    producer (the SPV miners, the adversary) is in half 0."""

    half_of: dict[int, int]
    heal_slot: int

    def blocks(self, a: int, b: int, slot: int) -> bool:
        if slot >= self.heal_slot:
            return False
        return self.half_of.get(a, 0) != self.half_of.get(b, 0)


class Environment:
    """Message queues and the content cloud shared by all nodes."""

    def __init__(self, node_ids: Iterable[int], rate_per_slot: float,
                 delay_slots: int, horizon_slots: int,
                 partition: Optional[Partition] = None):
        self.node_ids = tuple(node_ids)
        self.delay_slots = delay_slots
        self.partition = partition
        self.meters = {p: CapacityMeter(rate_per_slot, horizon_slots)
                       for p in self.node_ids}
        self.cloud: set[int] = set()   # the commitments uploaded
        # (deliver_slot, seq, recipients, header) kept in a heap for
        # skip-ahead; seq keeps entries of one slot in the order queued
        self._queue: list[tuple[int, int, tuple[int, ...], BlockHeader]] = []
        self._seq = 0

    # -- headers ------------------------------------------------------------

    def broadcast_header(self, header: BlockHeader, slot: int) -> None:
        """Enqueue for every node but its producer; each header is broadcast
        once, when it is minted.  Delivery happens at the forced deadline,
        or at the partition heal when the split withholds it: one queue
        entry per delivery slot, its recipients in node order."""
        deliver = slot + self.delay_slots
        origin = header.bpo.node
        others = tuple(p for p in self.node_ids if p != origin)
        part = self.partition
        if part is None or deliver >= part.heal_slot:
            groups = ((deliver, others),)
        else:
            late = {p for p in others if part.blocks(origin, p, slot)}
            groups = ((deliver, tuple(p for p in others if p not in late)),
                      (part.heal_slot, tuple(p for p in others if p in late)))
        for at, recipients in groups:
            if recipients:
                self.queue_header(header, recipients, at)

    def queue_header(self, header: BlockHeader, recipients: tuple[int, ...],
                     slot: int) -> None:
        """Deliver `header` to `recipients`, in that order, at `slot`, after
        every entry already queued for that slot."""
        heapq.heappush(self._queue, (slot, self._seq, recipients, header))
        self._seq += 1

    def deliveries_due(self, slot: int) -> list[tuple[int, BlockHeader]]:
        """The (node, header) deliveries due by `slot`, in the order queued."""
        out = []
        queue = self._queue
        while queue and queue[0][0] <= slot:
            _, _, recipients, header = heapq.heappop(queue)
            out.extend((p, header) for p in recipients)
        return out

    def next_delivery_slot(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None

    # -- content ------------------------------------------------------------

    def upload_content(self, header: BlockHeader, content: Content) -> bool:
        """Insert-only: returns False when the commitment was already stored.
        Raises CommitmentMismatch when content does not match the header."""
        if content.commitment != header.commitment:
            raise CommitmentMismatch(
                f"content {content.commitment} vs header commitment {header.commitment}")
        if content.commitment in self.cloud:
            return False
        self.cloud.add(content.commitment)
        return True

    def request_content(self, node: int, header: BlockHeader,
                        already_paid: float, slot: int
                        ) -> tuple[RequestOutcome, float]:
        """Attempt to download `header`'s content. Returns (outcome, newly
        paid fraction). The content is unavailable, at no cost, unless the
        cloud holds it and no partition withholds it from `node`.  A visible
        request is one `CapacityMeter.draw`; a throttled one pays out the
        remaining budget as partial progress."""
        part = self.partition
        if header.commitment not in self.cloud or (
                part is not None and part.blocks(header.bpo.node, node, slot)):
            return UNAVAILABLE, 0.0
        return self.meters[node].draw(1.0 - already_paid, slot)
