"""Network environment: header delivery queues, the content cloud, and
per-node download budgets.

Headers travel free of charge but may be delayed up to the forced deadline
(enqueue slot + ceil(delta_h / tau)); the adversary may deliver earlier.
Content is pulled from a shared insert-only cloud and every fetched block
costs one unit of the requesting node's token budget, refilled at
capacity * tau per slot with at most one block of carry-over.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from .lottery import BlockHeader, Content


class RequestOutcome(Enum):
    FETCHED = "fetched"
    UNAVAILABLE = "unavailable"
    THROTTLED = "throttled"


class CommitmentMismatch(Exception):
    """Uploaded content does not match the header commitment it claims."""


FETCH_SLACK = 1e-9   # a request fetches when tokens + FETCH_SLACK >= remaining


class CapacityMeter:
    """Token bucket in units of blocks. Unspent tokens carry across slots up
    to a one-block cap, on top of the current slot's refill.

    A node throttled on one download is not polled in the slots it sleeps
    through; `spend_refills` pays those slots afterwards, in the same float
    steps as polling would have."""

    CARRY_CAP = 1.0

    def __init__(self, rate_per_slot: float):
        self.rate = rate_per_slot
        self.tokens = rate_per_slot
        self.spent_total = 0.0
        self._slot = 0

    def sync(self, slot: int) -> float:
        """Advance the refill clock to `slot` and return available tokens."""
        if slot > self._slot:
            elapsed = slot - self._slot
            cap = self.CARRY_CAP + self.rate
            if self.tokens >= self.CARRY_CAP:
                self.tokens = cap
            else:
                self.tokens = min(self.tokens + elapsed * self.rate, cap)
            self._slot = slot
        return self.tokens

    def spend_refills(self, through: int) -> int:
        """Spend the whole refill of every slot after the last sync up to
        `through`, as a download throttled in each of them does, starting
        from an empty bucket. Returns the number of slots paid."""
        slots = through - self._slot
        if slots <= 0:
            return 0
        for _ in range(slots):
            self.spent_total += self.rate
        self.tokens = 0.0
        self._slot = through
        return slots

    def completion_slot(self, paid: float, slot: int) -> int:
        """The slot in which a download left throttled at `slot`, with
        `paid` banked, is fetched when every later slot spends its whole
        refill on it. The sums are replayed slot by slot, so they match
        the ones a per-slot poll banks bit for bit."""
        done = slot + 1
        while self.rate + FETCH_SLACK < 1.0 - paid:
            paid += self.rate
            done += 1
        return done

    def spend(self, amount: float) -> None:
        self.tokens -= amount
        self.spent_total += amount
        if self.tokens < -1e-9:
            raise AssertionError("capacity meter overdrawn")
        self.tokens = max(self.tokens, 0.0)


@dataclass
class Partition:
    """Scenario override: nodes in two halves, cross-half traffic withheld
    until the heal slot."""

    half_of: dict[int, int]
    heal_slot: int

    def blocks(self, a: int, b: int, slot: int) -> bool:
        if slot >= self.heal_slot:
            return False
        return self.half_of.get(a, 0) != self.half_of.get(b, 0)


class Environment:
    """Message queues and the content cloud shared by all nodes."""

    def __init__(self, node_ids: Iterable[int], rate_per_slot: float,
                 delay_slots: int, partition: Optional[Partition] = None):
        self.node_ids = tuple(node_ids)
        self.delay_slots = delay_slots
        self.partition = partition
        self.meters = {p: CapacityMeter(rate_per_slot) for p in self.node_ids}
        self.cloud: dict[int, Content] = {}
        self.uploader: dict[int, int] = {}
        # (deliver_slot, seq, node, header) kept in a heap for skip-ahead
        self._queue: list[tuple[int, int, int, BlockHeader]] = []
        self._seq = 0
        self._enqueued: set[tuple[int, int]] = set()
        self._waiters: dict[int, set[int]] = {}
        self.on_upload: Optional[Callable[[int, int], None]] = None
        self.fetch_count = {p: 0 for p in self.node_ids}

    # -- headers ------------------------------------------------------------

    def broadcast_header(self, header: BlockHeader, origin: int, slot: int) -> None:
        """Enqueue for every node; at most one queue entry per (header, node).
        Delivery happens at the forced deadline unless the adversary pulls it
        forward."""
        for p in self.node_ids:
            if p == origin:
                continue
            key = (header.id, p)
            if key in self._enqueued:
                continue
            self._enqueued.add(key)
            deliver = slot + self.delay_slots
            if self.partition is not None and self.partition.blocks(origin, p, slot):
                deliver = max(deliver, self.partition.heal_slot)
            heapq.heappush(self._queue, (deliver, self._seq, p, header))
            self._seq += 1

    def push_header(self, header: BlockHeader, node: int, slot: int) -> None:
        """Adversary-triggered immediate delivery (also consumes any pending
        queue entry for this pair)."""
        self._enqueued.add((header.id, node))
        heapq.heappush(self._queue, (slot, self._seq, node, header))
        self._seq += 1

    def deliveries_due(self, slot: int) -> list[tuple[int, BlockHeader]]:
        out = []
        delivered: set[tuple[int, int]] = set()
        while self._queue and self._queue[0][0] <= slot:
            _, _, node, header = heapq.heappop(self._queue)
            key = (header.id, node)
            if key in delivered:
                continue
            delivered.add(key)
            out.append((node, header))
        return out

    def next_delivery_slot(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None

    # -- content ------------------------------------------------------------

    def upload_content(self, header: Optional[BlockHeader], content: Content,
                       origin: int, slot: int) -> bool:
        """Insert-only: returns False when the commitment was already stored.
        Raises CommitmentMismatch when content does not match the header."""
        if header is not None and content.commitment != header.commitment:
            raise CommitmentMismatch(
                f"content {content.commitment} vs header commitment {header.commitment}")
        if content.commitment in self.cloud:
            return False
        self.cloud[content.commitment] = content
        self.uploader[content.commitment] = origin
        self._notify(content.commitment)
        return True

    def _notify(self, commitment: int) -> None:
        if self.on_upload is None:
            return
        for node in self._waiters.pop(commitment, ()):  # wake reservations
            self.on_upload(node, commitment)

    def heal_notify_all(self) -> None:
        """On partition heal, every memoised unavailability may be stale."""
        if self.on_upload is None:
            return
        for commitment, nodes in list(self._waiters.items()):
            if commitment in self.cloud:
                for node in nodes:
                    self.on_upload(node, commitment)
                del self._waiters[commitment]

    def content_visible(self, node: int, commitment: int, slot: int) -> bool:
        if commitment not in self.cloud:
            return False
        if self.partition is not None:
            origin = self.uploader.get(commitment, node)
            if self.partition.blocks(origin, node, slot):
                return False
        return True

    def request_content(self, node: int, header: BlockHeader,
                        already_paid: float, slot: int
                        ) -> tuple[RequestOutcome, float]:
        """Attempt to download `header`'s content. Returns (outcome, newly
        paid fraction). Unavailable requests cost nothing; a throttled
        request pays out the remaining budget as partial progress."""
        if not self.content_visible(node, header.commitment, slot):
            self._waiters.setdefault(header.commitment, set()).add(node)
            return RequestOutcome.UNAVAILABLE, 0.0
        meter = self.meters[node]
        tokens = meter.sync(slot)
        remaining = 1.0 - already_paid
        if tokens + FETCH_SLACK >= remaining:
            meter.spend(min(remaining, tokens))
            self.fetch_count[node] += 1
            return RequestOutcome.FETCHED, remaining
        if tokens > 0.0:
            meter.spend(tokens)
            return RequestOutcome.THROTTLED, tokens
        return RequestOutcome.THROTTLED, 0.0
