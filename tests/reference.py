"""The reference stack: the plain simulator that the fast one must equal.

Each layer of the simulator was sped up in turn, and the code each speed-up
replaced is kept here as that layer's reference:
  - `PollingSimulation`, the loop before nodes slept: every active node is
    stepped in every slot, nothing is settled, and the lottery's busy slots
    are looked up by binary search;
  - `ReferenceNode`, the scheduler before the sorted tip index, kept plans
    and chain intake: static keys, `sorted()`, one insert per header and a
    `min()` for each eviction at the cap;
  - `ReferenceMeter`, the token bucket as `sync`, the fetch test and
    `spend`, with its replays slot by slot: no memo, no horizon;
  - `request_oracle`, a request as a visibility test and one draw;
  - the partition heal as each node's scan of its memo against the cloud;
  - `PerRecipientQueue`, the delivery queue with one heap entry per
    recipient.

`PollingSimulation` runs on all of them, so it shares no fast mechanism
with `Simulation`, and a whole run on it is the reference a run of the
simulator must equal: the same trace bytes, block contents and metrics.
tests/test_wakeups.py runs that differential, and runs the stack with the
fast mechanisms raising if called; tests/test_scheduler.py and
tests/test_netenv.py hold each layer against its reference on inputs a
whole run rarely reaches.  A change to a rule of the model is written here
first, in its plainest form, and the fast path must then match it.
"""
import functools
import heapq
from collections import OrderedDict

import numpy as np

from nakasim import node as nd
from nakasim import params as pm
from nakasim import trace as tr
from nakasim.lottery import BpoId
from nakasim.netenv import FETCH_SLACK, CapacityMeter, RequestOutcome
from nakasim.sim import Simulation


class PollingSimulation(Simulation):
    """The reference loop: poll every active node in every slot, each step
    walking the tips, with a transaction feed generated slot by slot that
    keeps the loop on every slot.  Its nodes, meters, delivery queue and
    request path are the references below."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        env, p = self.env, self.params
        queue = PerRecipientQueue(env.node_ids, env.delay_slots,
                                  env.partition)
        env.broadcast_header = queue.broadcast_header
        env.queue_header = queue.queue_header
        env.deliveries_due = queue.deliveries_due
        env.next_delivery_slot = queue.next_delivery_slot
        env.request_content = functools.partial(request_oracle, env)
        self.nodes = [ReferenceNode(n, self.store, env,
                                    ReferenceMeter(p.capacity * p.tau,
                                                   p.horizon_slots),
                                    self.trace, self.scenario.policy,
                                    self.scenario.k_conf, self.sink,
                                    self.front)
                      for n in p.honest_nodes]

    def run(self):
        p = self.params
        horizon = p.horizon_slots
        tx_log = []
        for node in self.nodes:
            node.tx_log = tx_log
        part = self.env.partition
        slot = 0
        tx_seq = 0
        while slot < horizon:
            if part is not None and slot == part.heal_slot:
                self._scan_memos(slot)

            for node_id, header in self.env.deliveries_due(slot):
                self._deliver(self.nodes[node_id], header, slot, False)

            h_cnt, a_cnt, s_cnt = self._counts_at(slot)
            if h_cnt or a_cnt or s_cnt:
                bpos = self.sampler.assign(slot, h_cnt, a_cnt)
                self.trace.emit(slot, tr.BPO, h=h_cnt, a=a_cnt, s=s_cnt,
                                winners=[[b.node, b.honest] for b in bpos])
                for bpo in bpos:
                    if bpo.honest:
                        self._honest_produce(bpo, slot)
                    else:
                        self.strategy.on_adversary_bpo(bpo, slot)
                for k in range(s_cnt):
                    self._spv_produce(
                        BpoId(slot, -2, False, h_cnt + a_cnt + k), slot)

            if self._tx_counts is not None and tx_seq < horizon:
                for _ in range(int(self._tx_counts[slot])):
                    tx = (f"tx{slot}_{tx_seq}", self.scenario.txgen.tx_size)
                    tx_seq += 1
                    tx_log.append((slot, tx))

            for node in self.nodes:
                if node.active:
                    node.process_step(slot)
                    self._check_non_idleness(node, slot)

            lead = self.strategy.lead()
            if lead != self._last_lead:
                self._last_lead = lead
                if self._max_lead is None or lead > self._max_lead:
                    self._max_lead = lead
                self.trace.emit(slot, tr.LEAD_SAMPLE, lead=lead)

            slot = self._advance(slot)

        return self._finalize()

    def _scan_memos(self, slot):
        """The heal as each node's own scan: content uploaded across the
        split becomes visible, so each node clears the memo of every
        commitment already in the cloud, as its upload would have.  Memos
        of content not yet uploaded stay."""
        cloud = self.env.cloud
        for node in self.nodes:
            for commitment in [c for c in node.unavailable if c in cloud]:
                node.content_uploaded(commitment, slot)

    def _counts_at(self, slot):
        i = np.searchsorted(self._busy_slots, slot)
        if i < len(self._busy_slots) and self._busy_slots[i] == slot:
            return int(self._h[i]), int(self._a[i]), int(self._s[i])
        return 0, 0, 0

    def _next_busy_slot(self, after):
        i = np.searchsorted(self._busy_slots, after)
        if i < len(self._busy_slots):
            return int(self._busy_slots[i])
        return self.params.horizon_slots

    def _advance(self, slot):
        nxt = slot + 1
        if any(node.active for node in self.nodes) \
                or self._tx_counts is not None:
            return nxt
        candidates = [self.params.horizon_slots, self._next_busy_slot(nxt)]
        nd = self.env.next_delivery_slot()
        if nd is not None:
            candidates.append(nd)
        part = self.env.partition
        if part is not None and part.heal_slot > slot:
            candidates.append(part.heal_slot)
        return max(nxt, min(candidates))


class ReferenceNode(nd.Node):
    """The scheduler before the sorted tip index and chain intake: a static
    key per tip, a full sorted() whenever the tips or the processed blocks
    change, greedy keys cached per processed-block version (which every
    done block bumps, the node's own included), a walk that sorts again
    after a pass that blanked, one insert per header of a chain, and a
    min() over every tip for each eviction at the cap.  Kept as the
    reference the index and the chain insert must equal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tips = OrderedDict()
        self._tip_key = {}
        self._done_version = 0
        self._greedy_cache = {}
        self._tips_version = 0
        self._sorted_cache = (-1, -1, [])

    def _replans(self, inserted):
        """A poller walks the tips in every step: any insert can change
        its plan."""
        return True

    def _insert_chain(self, chain, slot):
        for h in chain:
            self._insert(h, slot)
        return [h.id for h in chain]

    def _insert(self, h, slot):
        self.seen_order[h.id] = len(self.seen_order)

        seen = self.bpo_seen.setdefault(h.bpo, [])
        seen.append(h.id)
        if len(seen) == 2:
            self.trace.emit(slot, tr.EQUIVOCATION_SEEN, node=self.id,
                            bpo_slot=h.bpo.slot, bpo_node=h.bpo.node,
                            bpo_seq=h.bpo.seq, headers=list(seen))

        self._tips_version += 1
        if h.parent_id in self.tips:
            del self.tips[h.parent_id]
            self._tip_key.pop(h.parent_id, None)
            self._greedy_cache.pop(h.parent_id, None)
            dq = self._pending.pop(h.parent_id, None)
            if dq is not None:
                dq.append(h.id)
            self._pending[h.id] = dq
        else:
            self._pending[h.id] = None
        self.tips[h.id] = None
        order = -self.seen_order[h.id]
        if self.policy == pm.POLICY_FRESHEST_BLOCK:
            self._tip_key[h.id] = (h.bpo.slot, h.height, order)
        else:
            self._tip_key[h.id] = (h.height, order)
        if len(self.tips) > nd.MAX_SCHEDULER_TIPS:
            self.tip_evictions += 1
            worst = min(self.tips, key=self._policy_key)
            self._drop_tips([worst])

    def _policy_key(self, tip_id):
        base = self._tip_key[tip_id]
        if self.policy == pm.POLICY_GREEDY:
            hit = self._greedy_cache.get(tip_id)
            if hit is not None and hit[0] == self._done_version:
                return hit[1]
            dq = self._pending_for(tip_id)
            full = (base[0] - len(dq),) + base
            self._greedy_cache[tip_id] = (self._done_version, full)
            return full
        return base

    def schedule_target(self, slot):
        key = (self._tip_key.__getitem__
               if self.policy != pm.POLICY_GREEDY else self._policy_key)
        while True:
            acted = False
            finished = []
            done_v, tips_v, ordered = self._sorted_cache
            if done_v != self._done_version or tips_v != self._tips_version:
                ordered = sorted(self.tips, key=key, reverse=True)
                self._sorted_cache = (self._done_version, self._tips_version,
                                      ordered)
            target = None
            for tip_id in ordered:
                dq = self._pending_for(tip_id)
                while dq:
                    front = dq[0]
                    if front in self.processed:
                        dq.popleft()
                    elif self.sapos and len(self.bpo_seen[
                            self.store.headers[front].bpo]) >= 2:
                        self._mark_blanked(front, slot)
                        dq.popleft()
                        acted = True
                    else:
                        break
                if not dq:
                    finished.append(tip_id)
                    continue
                if self.store.headers[dq[0]].commitment in self.unavailable:
                    continue
                target = self.store.headers[dq[0]]
                break
            self._drop_tips(finished)
            if not acted:
                return target

    def _drop_tips(self, tip_ids):
        if tip_ids:
            self._tips_version += 1
        for t in tip_ids:
            self.tips.pop(t, None)
            self._pending.pop(t, None)
            self._tip_key.pop(t, None)
            self._greedy_cache.pop(t, None)

    def _mark_blanked(self, header_id, slot):
        self.processed.add(header_id)
        self.blanked.add(header_id)
        self._done_version += 1
        self.trace.emit(slot, tr.PRETEND_EMPTY, node=self.id, header=header_id)
        self._after_processed(header_id, slot)

    def _mark_processed(self, header_id, slot):
        self.processed.add(header_id)
        self._done_version += 1
        self._after_processed(header_id, slot)

    def try_produce(self, bpo, slot):
        txs = self._take_txs(slot)
        proofs = self._attach_proofs() if self.sapos else ()
        content = self.store.make_content(txs)
        header = self.store.extend(bpo, self.dchain_tip, content.commitment,
                                   proofs)
        for proof in proofs:
            self.trace.emit(slot, tr.PROOF_INCLUDED, node=self.id,
                            carrier=header.id, target=proof.target,
                            other=proof.header_b)
        self._insert_chain([header], slot)
        self.processed.add(header.id)
        self._done_version += 1
        self._after_processed(header.id, slot)
        return header, content


class ReferenceMeter(CapacityMeter):
    """The meter's refill and spend as they were written with `min` and
    `max`, a draw composed of them and the fetch test, and the replays of
    a throttled download slot by slot, with no memo and no bound at the
    horizon.  Kept as the reference the clamps by comparison, the one-call
    draw and the memoized replays must equal."""

    def sync(self, slot):
        if slot > self._slot:
            elapsed = slot - self._slot
            cap = self.CARRY_CAP + self.rate
            if self.tokens >= self.CARRY_CAP:
                self.tokens = cap
            else:
                self.tokens = min(self.tokens + elapsed * self.rate, cap)
            self._slot = slot
        return self.tokens

    def spend(self, amount):
        self.tokens -= amount
        self.spent_total += amount
        if self.tokens < -1e-9:
            raise AssertionError("capacity meter overdrawn")
        self.tokens = max(self.tokens, 0.0)

    def draw(self, remaining, slot):
        """`sync`, then fetch when `tokens + FETCH_SLACK >= remaining`,
        spending `min(remaining, tokens)`, or else spend every token as
        partial progress."""
        if self.sync(slot) + FETCH_SLACK >= remaining:
            self.spend(min(remaining, self.tokens))
            return RequestOutcome.FETCHED, remaining
        tokens = self.tokens
        self.spend(tokens)
        return RequestOutcome.THROTTLED, tokens

    def fetches_block(self, slot):
        """Whether a whole block's draw at `slot` would fetch: the draw is
        made and the meter's state put back."""
        state = self.tokens, self.spent_total, self._slot
        outcome, _ = self.draw(1.0, slot)
        self.tokens, self.spent_total, self._slot = state
        return outcome is RequestOutcome.FETCHED

    def completion_slot(self, paid, slot):
        """Add a whole refill to the download's payment for each slot after
        `slot` until the fetch test passes."""
        done = slot + 1
        while self.rate + FETCH_SLACK < 1.0 - paid:
            paid += self.rate
            done += 1
        return done

    def spend_refills(self, through, paid):
        """From an empty bucket, refill each slot after the last draw up to
        `through` and spend it all on the download."""
        slots = through - self._slot
        if slots <= 0:
            return 0, paid
        self.tokens = 0.0
        for slot in range(self._slot + 1, through + 1):
            paid += self.sync(slot)
            self.spend(self.tokens)
        return slots, paid


def request_oracle(env, node, header, already_paid, slot):
    """The request as composed before it read the cloud inline: a
    visibility test of the content and of its producer's half, then one
    `draw` of the node's meter.  Kept as the reference `request_content`
    must equal, for nodes that hold `ReferenceMeter`s."""
    part = env.partition
    if header.commitment not in env.cloud or (
            part is not None
            and part.blocks(header.bpo.node, node.id, slot)):
        return RequestOutcome.UNAVAILABLE, 0.0
    return node.meter.draw(1.0 - already_paid, slot)


class PerRecipientQueue:
    """The delivery queue before broadcasts were grouped: one heap entry
    per (recipient, header), in node order.  Kept as the reference."""

    def __init__(self, node_ids, delay_slots, partition):
        self.node_ids = tuple(node_ids)
        self.delay_slots = delay_slots
        self.partition = partition
        self._queue = []
        self._seq = 0

    def broadcast_header(self, header, slot):
        origin = header.bpo.node
        for p in self.node_ids:
            if p == origin:
                continue
            deliver = slot + self.delay_slots
            if self.partition is not None and self.partition.blocks(
                    origin, p, slot):
                deliver = max(deliver, self.partition.heal_slot)
            self.queue_header(header, (p,), deliver)

    def queue_header(self, header, recipients, slot):
        for p in recipients:
            heapq.heappush(self._queue, (slot, self._seq, p, header))
            self._seq += 1

    def deliveries_due(self, slot):
        out = []
        while self._queue and self._queue[0][0] <= slot:
            _, _, node, header = heapq.heappop(self._queue)
            out.append((node, header))
        return out

    def next_delivery_slot(self):
        return self._queue[0][0] if self._queue else None
