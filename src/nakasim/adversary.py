"""Adversary strategies: withholding, selective release, equivocation.

The adversary is omniscient (sees every production instantly), rushing
(its pushes arrive before honest relays), and controls when withheld
headers and contents become visible.  Strategies never forge: every
adversary header consumes a sampled adversary production opportunity.

Three teases keep honest nodes grinding on a longer announced chain whose
content trickles out, each release through `TeaserAttack._release`.
`TeaserAttack` reveals one withheld content per release.  On PoS,
`make_strategy` picks by protocol: `CopyTeaserAttack` re-mints the prefix
as a fresh equivocated copy per release; SaPoS blanks copies, so there
`SacrificeTeaserAttack` teases one chain and, every `sacrifice_every`
releases (its only reader), equivocates a block it planted.

Every adversary block is minted by `Strategy._block` under the run's
opportunity rule (`HeaderStore.extend`), and every announcement goes
through `Strategy._announce`.  The simulation produces header-only (SPV)
blocks; a strategy only tracks those that graft onto its private chain.
"""
from __future__ import annotations

import weakref
from typing import Optional

from . import params as pm
from . import trace as tr
from .lottery import BlockHeader, BpoId, Content, HeaderStore

RELEASE_LEAD = 2   # minimum private lead before a tease makes sense


class Strategy:
    """Base: track private chain state against the honest front.  Its hooks
    spend no opportunity, so runs without an attack use it as it is."""

    def __init__(self, sim) -> None:
        self.sim = weakref.proxy(sim)   # the simulation owns the strategy
        self.store: HeaderStore = sim.store
        self.trace: tr.Trace = sim.trace
        self.fork_id: int = sim.honest_tip()
        self.priv: list[BlockHeader] = []   # withheld chain, from the fork up
        self.releases = 0
        self.giveups = 0
        # available chains grafted onto the private chain by header-only
        # miners: private index of the graft point -> top height reached
        self._ladders: dict[int, int] = {}
        # private header -> its own index; grafted header -> the index of
        # its graft point
        self._root: dict[int, int] = {}

    # -- views ---------------------------------------------------------

    @property
    def fork_height(self) -> int:
        return self.store.headers[self.fork_id].height

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
        root = self._root.get(header.parent_id)
        if root is None:
            return
        self._root[header.id] = root
        self._ladders[root] = max(self._ladders.get(root, 0), header.height)

    # -- shared helpers --------------------------------------------------

    def _block(self, bpo: BpoId, parent: int, slot: int,
               content: Optional[Content] = None,
               private: bool = False) -> BlockHeader:
        """Mint and record one adversary block on `parent` for `bpo`, under
        the run's opportunity rule.  It carries `content`, or else a fresh
        empty content, kept in the store."""
        if content is None:
            content = self.store.make_content()
        header = self.store.extend(bpo, parent, content.commitment)
        self.sim.record_block(header, slot, private=private)
        return header

    def _announce(self, headers: list[BlockHeader], content: Optional[int],
                  slot: int, **tags) -> None:
        """Push the top of `headers` to every honest node and record the
        release with `tags`.  `content` is what it revealed: the header id
        whose content a single-chain tease uploaded (or None), the
        commitment a copy uploaded, or None for a sacrifice."""
        self.sim.push_to_honest(headers[-1], slot)
        self.trace.emit(slot, tr.ADVERSARY_RELEASE, headers=[x.id for x in headers],
                        content=content, tip_height=headers[-1].height, **tags)

    def _mint(self, bpo: BpoId, slot: int) -> None:
        parent = self.priv[-1].id if self.priv else self.fork_id
        header = self._block(bpo, parent, slot, private=True)
        self._root[header.id] = len(self.priv)
        self.priv.append(header)

    def _refork(self) -> None:
        self.fork_id = self.sim.honest_tip()
        self.priv = []
        self.giveups += 1
        self._ladders = {}
        self._root = {}

    def _reveal_frontier(self, index: int) -> int:
        """Top height of the chain that would become fully available if the
        content at private position `index` were revealed."""
        top = self.fork_height + index + 1
        for root, height in self._ladders.items():
            if root <= index and height > top:
                top = height
        return top


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

    RELEASE_TAGS: dict = {}   # added to every release record

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
            self._give_up()
            return
        if self.lead() >= RELEASE_LEAD:
            self._release(h, slot)

    def _release(self, honest_height: int, slot: int) -> bool:
        """Announce up to one block above the honest front; returns whether
        anything new was announced."""
        want = min(honest_height + 1 - self.fork_height, len(self.priv))
        if want <= self.released_h:
            return False
        headers, content = self._reveal(want, slot)
        self._announce(headers, content, slot, **self.RELEASE_TAGS)
        self.releases += 1
        return True

    def _reveal(self, want: int, slot: int) -> tuple[list[BlockHeader], Optional[int]]:
        """Upload what a release up to private index `want` reveals; return
        the headers it announces and the `content` of its record."""
        new_headers = self.priv[self.released_h:want]
        self.released_h = want
        content_id = None
        # Reveal the next content only while everything it unlocks (the
        # prefix plus any grafted header-only run) stays at or below the
        # slowest honest chain: an adoptable chain would hand the lead over
        # instead of wasting honest work.
        if (self.released_c < self.released_h - 1
                and self._reveal_frontier(self.released_c) <= self.sim.min_honest_height()):
            hdr = self.priv[self.released_c]
            self.sim.upload(hdr, self.store.contents[hdr.commitment], slot)
            content_id = hdr.id
            self.released_c += 1
        return new_headers, content_id

    def _give_up(self) -> None:
        self._refork()
        self.released_h = 0
        self.released_c = 0


class CopyTeaserAttack(TeaserAttack):
    """Teaser on plain PoS: each release re-mints the withheld prefix as a
    fresh equivocated copy (`released_h` stays 0) whose position j carries
    the content the j-th latest copy revealed, so honest nodes re-download
    every revealed content per release and growth collapses."""

    RELEASE_TAGS = {"copy": True}

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.revealed: list[Content] = []   # each copy's first content, oldest first

    def _reveal(self, want: int, slot: int) -> tuple[list[BlockHeader], int]:
        fresh = self.store.make_content()
        self.revealed.append(fresh)
        parent = self.fork_id
        headers = []
        for j, withheld in enumerate(self.priv[:want], 1):
            content = (self.revealed[-j] if j <= len(self.revealed)
                       else self.store.contents[withheld.commitment])
            hdr = self._block(withheld.bpo, parent, slot, content)
            headers.append(hdr)
            parent = hdr.id
        self.sim.upload(headers[0], fresh, slot)
        return headers, fresh.commitment

    def _give_up(self) -> None:
        super()._give_up()
        self.revealed = []


class SacrificeTeaserAttack(TeaserAttack):
    """Teaser against SaPoS: the single-chain tease, plus, after every
    `sacrifice_every`-th release (0: never), an openly published plant that
    it equivocates once the honest front passes it, so that proofs and
    blanks fire."""

    RELEASE_TAGS = {"copy": False}

    def __init__(self, sim, sacrifice_every: int = 0) -> None:
        super().__init__(sim)
        self.sacrifice_every = sacrifice_every
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

    def _release(self, honest_height: int, slot: int) -> bool:
        released = super()._release(honest_height, slot)
        if (released and self.sacrifice_every > 0
                and self.releases % self.sacrifice_every == 0):
            self._plant_due = True
        return released

    def _plant_block(self, bpo: BpoId, slot: int) -> None:
        """Spend this opportunity on an openly published block on the honest
        tip so it gets adopted before its twin surfaces."""
        header = self._block(bpo, self.sim.honest_tip(), slot)
        self.sim.upload(header, self.store.contents[header.commitment], slot)
        self.sim.push_to_honest(header, slot)
        self._plant = header
        self._plant_due = False

    def _equivocate_plant(self, slot: int) -> None:
        plant = self._plant
        self._plant = None
        twin = self._block(plant.bpo, plant.parent_id, slot)
        self._announce([twin], None, slot, sacrifice=True)


def make_strategy(sim, attack: pm.AttackConfig) -> Strategy:
    name = attack.strategy
    if name == pm.ATTACK_PRIVATE:
        return PrivateAttack(sim)
    if name == pm.ATTACK_TEASER:
        return TeaserAttack(sim)
    if name == pm.ATTACK_POS_TEASER:
        if sim.store.protocol == pm.PROTOCOL_SAPOS:
            return SacrificeTeaserAttack(sim, attack.sacrifice_every)
        return CopyTeaserAttack(sim)
    return Strategy(sim)
