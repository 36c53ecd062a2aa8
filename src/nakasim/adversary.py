"""Adversary strategies: withholding, selective release, equivocation.

The adversary is omniscient (sees every production instantly), rushing
(its pushes arrive before honest relays), and controls when withheld
headers and contents become visible.  Strategies never forge: every
adversary header consumes a sampled adversary production opportunity.

The teaser keeps honest nodes grinding on a longer announced chain whose
content trickles out one block per release, so each honest block costs
its peers roughly one wasted download.  The equivocating variant re-mints
the whole withheld chain as fresh blocks per release, which multiplies
the wasted work under plain proof of stake; scheduler-level blanking
voids exactly that multiplier, so against a blanking protocol the
strategy falls back to the single-chain tease and spends occasional
beaten blocks on equivocations instead.
"""
from __future__ import annotations

import weakref
from typing import Optional

from . import params as pm
from . import trace as tr
from .lottery import BlockHeader, BpoId, Content, HeaderStore

SPV_NODE = -2

RELEASE_LEAD = 2   # minimum private lead before a tease makes sense


class Strategy:
    """Base: track private chain state against the honest front."""

    def __init__(self, sim) -> None:
        self.sim = weakref.proxy(sim)   # the simulation owns the strategy
        self.store: HeaderStore = sim.store
        self.trace: tr.Trace = sim.trace
        self.fork_id: int = sim.honest_tip()
        self.priv: list[tuple[BpoId, BlockHeader, Content]] = []
        self.releases = 0
        self.giveups = 0
        # available chains grafted onto the private chain by header-only
        # miners: private index of the graft point -> top height reached
        self._ladders: dict[int, int] = {}
        self._graft_member: dict[int, int] = {}
        self._priv_ids: dict[int, int] = {}

    # -- views ---------------------------------------------------------

    @property
    def fork_height(self) -> int:
        return self.store.get(self.fork_id).height

    @property
    def priv_height(self) -> int:
        return self.fork_height + len(self.priv)

    def lead(self) -> int:
        return self.priv_height - self.sim.honest_height()

    # -- hooks ----------------------------------------------------------

    def on_adversary_bpo(self, bpo: BpoId, slot: int) -> None:
        pass

    def on_honest_block(self, header: BlockHeader, slot: int) -> None:
        pass

    def on_external_block(self, header: BlockHeader) -> None:
        """Track header-only blocks that extend the private chain: once the
        prefix below such a graft is revealed, the grafted run becomes a
        processable extension, so reveals must stay clear of its top."""
        root = None
        if header.parent_id in self._graft_member:
            root = self._graft_member[header.parent_id]
        elif header.parent_id in self._priv_ids:
            root = self._priv_ids[header.parent_id]
        if root is None:
            return
        self._graft_member[header.id] = root
        self._ladders[root] = max(self._ladders.get(root, 0), header.height)

    # -- shared helpers --------------------------------------------------

    def _mint(self, bpo: BpoId, slot: int) -> None:
        parent = self.priv[-1][1].id if self.priv else self.fork_id
        content = self.store.make_content((), producer=bpo.node)
        extend = (self.store.pow_extend if self.sim.protocol == pm.PROTOCOL_POW
                  else self.store.pos_extend)
        header = extend(bpo, parent, content.commitment, ())
        self._priv_ids[header.id] = len(self.priv)
        self.priv.append((bpo, header, content))
        self.sim.record_block(header, slot, "adversary", private=True)

    def _refork(self, slot: int) -> None:
        self.fork_id = self.sim.honest_tip()
        self.priv = []
        self.giveups += 1
        self._ladders = {}
        self._graft_member = {}
        self._priv_ids = {}

    def _reveal_frontier(self, index: int) -> int:
        """Top height of the chain that would become fully available if the
        content at private position `index` were revealed."""
        top = self.fork_height + index + 1
        for root, height in self._ladders.items():
            if root <= index and height > top:
                top = height
        return top


class NullStrategy(Strategy):
    """Adversary opportunities are simply wasted."""


class PrivateAttack(Strategy):
    """Pure withholding race from the initial tip; nothing is ever
    released, so honest growth is untouched and the lead is a plain
    random walk (up on adversary wins, down on honest growth)."""

    def on_adversary_bpo(self, bpo: BpoId, slot: int) -> None:
        self._mint(bpo, slot)


class TeaserAttack(Strategy):
    """Announce a chain one block above the honest front while releasing
    content one block per announcement, from the bottom of the withheld
    chain upward.  Honest nodes fetch the one new block, hit the
    unavailable remainder, and fall back, paying about double for every
    block of their own."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.released_h = 0   # headers announced, from the fork upward
        self.released_c = 0   # contents uploaded, always < released_h
        self.best_seen_height = sim.honest_height()

    def on_adversary_bpo(self, bpo: BpoId, slot: int) -> None:
        self._mint(bpo, slot)

    def on_honest_block(self, header: BlockHeader, slot: int) -> None:
        h = self.sim.honest_height()
        if h <= self.best_seen_height:
            return
        self.best_seen_height = h
        if self.lead() <= 0:
            self._give_up(slot)
            return
        if self.lead() >= RELEASE_LEAD:
            self._release(h, slot)

    def _release(self, honest_height: int, slot: int, **tags) -> bool:
        """Announce the private chain up to one block above the honest
        front; returns whether anything new was announced.  `tags` are
        added to the release record."""
        want = min(honest_height + 1 - self.fork_height, len(self.priv))
        if want <= self.released_h:
            return False
        new_headers = [self.priv[i][1] for i in range(self.released_h, want)]
        self.released_h = want
        content_id = None
        # Reveal the next content only while everything it unlocks (the
        # prefix plus any grafted header-only run) stays at or below the
        # slowest honest chain: an adoptable chain would hand the lead over
        # instead of wasting honest work.
        if (self.released_c < self.released_h - 1
                and self._reveal_frontier(self.released_c) <= self.sim.min_honest_height()):
            _, hdr, content = self.priv[self.released_c]
            self.sim.upload(hdr, content, slot)
            content_id = hdr.id
            self.released_c += 1
        self.sim.push_to_honest(new_headers[-1], slot)
        self.releases += 1
        self.trace.emit(slot, tr.ADVERSARY_RELEASE, headers=[x.id for x in new_headers],
                        content=content_id, tip_height=self.priv[want - 1][1].height,
                        **tags)
        return True

    def _give_up(self, slot: int) -> None:
        self._refork(slot)
        self.released_h = 0
        self.released_c = 0


class PosTeaserAttack(TeaserAttack):
    """Teaser on a proof-of-stake lottery.  Against plain PoS every
    release re-mints the withheld prefix as a fresh equivocated copy:
    contents already revealed ripple one position up the copy, so honest
    nodes re-download the whole revealed prefix per release and growth
    collapses.  Against a blanking scheduler those copies are voided as
    soon as a second header per opportunity is seen, so the strategy
    degrades to the plain single-chain tease; optionally it spends an
    occasional opportunity on an openly published block that it later
    equivocates, forcing the proof-and-blank machinery to fire."""

    def __init__(self, sim, sacrifice_every: int = 0) -> None:
        super().__init__(sim)
        self.vs_blanking = sim.protocol == pm.PROTOCOL_SAPOS
        self.sacrifice_every = sacrifice_every
        self.round = 0
        self.revealed: list[Content] = []   # round r first-block contents
        # plant-and-equivocate state
        self._plant_due = False
        self._plant: Optional[BlockHeader] = None

    def on_adversary_bpo(self, bpo: BpoId, slot: int) -> None:
        if self._plant_due and self._plant is None:
            self._plant_block(bpo, slot)
        else:
            self._mint(bpo, slot)

    def on_honest_block(self, header: BlockHeader, slot: int) -> None:
        # a rise of the honest front past the plant equivocates it before
        # the lead test
        if (self._plant is not None and self.sim.honest_height()
                > max(self.best_seen_height, self._plant.height)):
            self._equivocate_plant(slot)
        super().on_honest_block(header, slot)

    def _release(self, honest_height: int, slot: int) -> None:
        if not self.vs_blanking:
            self._release_copy(honest_height, slot)
        elif (super()._release(honest_height, slot, copy=False)
              and self.sacrifice_every > 0
              and self.releases % self.sacrifice_every == 0):
            self._plant_due = True

    # fresh equivocated copy: position j of round r carries the content
    # revealed in round r+1-j, so every already-revealed content reappears
    # under a never-seen header and must be re-downloaded from scratch,
    # while the copy outgrows what a node can re-fetch between rounds.
    def _release_copy(self, honest_height: int, slot: int) -> None:
        m = min(honest_height + 1 - self.fork_height, len(self.priv))
        if m <= 0:
            return
        self.round += 1
        fresh = self.store.make_content((), producer=self.priv[0][0].node)
        self.revealed.append(fresh)
        parent = self.fork_id
        headers = []
        for j in range(1, m + 1):
            bpo = self.priv[j - 1][0]
            if j <= self.round:
                commitment = self.revealed[self.round - j].commitment
            else:
                commitment = self.priv[j - 1][2].commitment   # withheld
            hdr = self.store.pos_extend(bpo, parent, commitment, ())
            headers.append(hdr)
            parent = hdr.id
            self.sim.record_block(hdr, slot, "adversary")
        self.sim.upload(headers[0], fresh, slot)
        self.sim.push_to_honest(headers[-1], slot)
        self.releases += 1
        self.trace.emit(slot, tr.ADVERSARY_RELEASE,
                        headers=[x.id for x in headers],
                        content=fresh.commitment, tip_height=headers[-1].height,
                        copy=True)

    def _give_up(self, slot: int) -> None:
        super()._give_up(slot)
        self.round = 0
        self.revealed = []

    def _plant_block(self, bpo: BpoId, slot: int) -> None:
        """Spend this opportunity on an openly published block on the honest
        tip so it gets adopted before its twin surfaces."""
        parent = self.sim.honest_tip()
        content = self.store.make_content((), producer=bpo.node)
        header = self.store.pos_extend(bpo, parent, content.commitment, ())
        self.sim.record_block(header, slot, "adversary")
        self.sim.upload(header, content, slot)
        self.sim.push_to_honest(header, slot)
        self._plant = header
        self._plant_due = False

    def _equivocate_plant(self, slot: int) -> None:
        plant = self._plant
        self._plant = None
        twin_content = self.store.make_content((), producer=plant.bpo.node)
        twin = self.store.pos_extend(plant.bpo, plant.parent_id,
                                     twin_content.commitment, ())
        if twin.id == plant.id:
            return
        self.sim.record_block(twin, slot, "adversary")
        self.sim.push_to_honest(twin, slot)
        self.trace.emit(slot, tr.ADVERSARY_RELEASE, headers=[twin.id],
                        content=None, tip_height=twin.height, sacrifice=True)


class SpvMiner:
    """Header-only miners extend the longest announced header chain with
    empty blocks, available immediately; they are a separate lottery
    stream and never count as honest."""

    def __init__(self, sim) -> None:
        self.sim = weakref.proxy(sim)   # the simulation owns the miner
        self.store: HeaderStore = sim.store

    def on_spv_bpo(self, bpo: BpoId, slot: int) -> None:
        tip = self.sim.announced_tip()
        content = self.store.make_content((), producer=SPV_NODE)
        extend = (self.store.pow_extend if self.sim.protocol == pm.PROTOCOL_POW
                  else self.store.pos_extend)
        header = extend(bpo, tip, content.commitment, ())
        self.sim.record_block(header, slot, "spv")
        self.sim.upload(header, content, slot)
        self.sim.broadcast(header, slot)
        self.sim.strategy.on_external_block(header)


def make_strategy(sim, attack: pm.AttackConfig) -> Strategy:
    name = attack.strategy
    if name == pm.ATTACK_PRIVATE:
        return PrivateAttack(sim)
    if name == pm.ATTACK_TEASER:
        return TeaserAttack(sim)
    if name == pm.ATTACK_POS_TEASER:
        return PosTeaserAttack(sim, attack.sacrifice_every)
    return NullStrategy(sim)
