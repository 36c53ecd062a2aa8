"""Slot clock, block-production lotteries, and the shared header tree.

Per-slot honest and adversary wins are independent Poisson draws taken from a
counter-based generator, so the outcome of any slot is a pure function of
(seed, slot, stream) and runs replay byte-identically.

A block's producer is its header's `bpo.node`, recorded nowhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .params import PROTOCOL_POW, PROTOCOL_SAPOS

# Stream identifiers for the counter-based generator.  Values are arbitrary
# but fixed: changing them changes every sampled execution.
STREAM_HONEST = 0x68
STREAM_ADVERSARY = 0x61
STREAM_SPV = 0x73
STREAM_ASSIGN = 0x6E
STREAM_ANALYSIS = 0x79


def _poisson_cdf_table(mu: float) -> np.ndarray:
    """Cumulative Poisson table covering all mass reachable by a 53-bit
    uniform draw."""
    if mu <= 0.0:
        return np.array([1.0])
    n_max = int(mu + 12.0 * math.sqrt(mu) + 30.0)
    pmf = np.empty(n_max + 1)
    pmf[0] = math.exp(-mu)
    for n in range(1, n_max + 1):
        pmf[n] = pmf[n - 1] * mu / n
    return np.minimum(np.cumsum(pmf), 1.0)


_U64 = 0xFFFFFFFFFFFFFFFF


def _stream_key(seed: int, stream: int) -> int:
    return (seed ^ (stream * 0x9E3779B97F4A7C15)) & _U64


def _slot_gen(seed: int, stream: int, slot: int) -> np.random.Generator:
    """Fresh generator keyed on (seed, stream, slot)."""
    key = np.array([_stream_key(seed, stream), slot & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class BpoId(NamedTuple):
    """Identity of one block-production opportunity.  It is its own key:
    it hashes and compares as the tuple (slot, node, honest, seq)."""

    slot: int
    node: int
    honest: bool
    seq: int = 0


class SlotSampler:
    """Deterministic per-slot lottery. One uniform per slot per stream drives
    a table-inverted Poisson count; winners are assigned to uniformly random
    nodes of the matching class."""

    def __init__(self, seed: int, beta: float, rho: float,
                 honest_nodes: Iterable[int], adversary_nodes: Iterable[int],
                 spv_rate_per_slot: float = 0.0):
        self.seed = seed
        self.mu_h = (1.0 - beta) * rho
        self.mu_a = beta * rho
        self.mu_s = spv_rate_per_slot
        self.honest_nodes = tuple(honest_nodes)
        self.adversary_nodes = tuple(adversary_nodes)
        self._cdf_h = _poisson_cdf_table(self.mu_h)
        self._cdf_a = _poisson_cdf_table(self.mu_a)
        self._cdf_s = _poisson_cdf_table(self.mu_s)
        # (generator, Philox state it is reset to), made on first use
        self._assign: Optional[tuple[np.random.Generator, dict]] = None

    def counts(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised (honest, adversary, spv) win counts for slots
        [start, stop). Slot t always consumes the t-th draw of its stream."""
        n = stop - start
        out = []
        for stream, cdf, mu in ((STREAM_HONEST, self._cdf_h, self.mu_h),
                                (STREAM_ADVERSARY, self._cdf_a, self.mu_a),
                                (STREAM_SPV, self._cdf_s, self.mu_s)):
            if mu <= 0.0:
                out.append(np.zeros(n, dtype=np.int64))
                continue
            bg = np.random.Philox(key=np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                                                stream], dtype=np.uint64))
            # advance() steps whole 4-word counter blocks; give each slot one
            # block so slot t is always the same draw regardless of batching.
            bg.advance(start)
            u = np.random.Generator(bg).random(4 * n)[::4]
            out.append(np.searchsorted(cdf, u, side="right").astype(np.int64))
        return out[0], out[1], out[2]

    def assign(self, slot: int, h_count: int, a_count: int) -> tuple[BpoId, ...]:
        """Attach winners to node indices; seq orders same-class wins."""
        if h_count == 0 and a_count == 0:
            return ()
        # one scalar draw per winner picks what one `size=count` draw
        # would (a bound below 2**32 takes one 32-bit output either way),
        # without numpy's cost of handling a size
        draw = self._assign_gen(slot).integers
        honest, adversary = self.honest_nodes, self.adversary_nodes
        bpos = [BpoId(slot, honest[draw(0, len(honest))], True, seq)
                for seq in range(h_count)]
        # adversary seqs continue after honest ones so same-slot chains
        # across classes keep a strict (slot, seq) order; without adversary
        # nodes the sentinel -1 skips a draw below 1, which takes no output
        bpos += [BpoId(slot, adversary[draw(0, len(adversary))]
                       if adversary else -1, False, seq)
                 for seq in range(h_count, h_count + a_count)]
        return tuple(bpos)

    def _assign_gen(self, slot: int) -> np.random.Generator:
        """The generator `_slot_gen(seed, STREAM_ASSIGN, slot)` returns, got
        by resetting one Philox rather than building a new one: key
        (stream key, slot), counter 0, empty buffer, no cached uint32."""
        if self._assign is None:
            state = {"bit_generator": "Philox",
                     "state": {"counter": (0, 0, 0, 0),
                               "key": [_stream_key(self.seed, STREAM_ASSIGN), 0]},
                     "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                     "has_uint32": 0, "uinteger": 0}
            self._assign = (np.random.Generator(np.random.Philox(key=0)), state)
        gen, state = self._assign
        state["state"]["key"][1] = slot & _U64
        gen.bit_generator.state = state
        return gen


class ReusedBpo(Exception):
    """A proof-of-work opportunity was spent on a second header."""


@dataclass(frozen=True)
class EquivocationProof:
    """Two distinct headers minted from the same production opportunity,
    plus the on-chain header they discredit."""

    header_a: int
    header_b: int
    target: int


@dataclass(frozen=True)
class BlockHeader:
    id: int
    parent_id: Optional[int]
    bpo: BpoId
    height: int
    commitment: int
    proofs: tuple[EquivocationProof, ...] = ()


@dataclass(frozen=True)
class Content:
    commitment: int
    txs: tuple = ()


GENESIS_ID = 0


def _follows(bpo: BpoId, parent: BlockHeader) -> bool:
    # same-slot chaining is legal when the later win has a higher seq
    return (bpo.slot, bpo.seq) > (parent.bpo.slot, parent.bpo.seq)


class HeaderStore:
    """Global append-only registry of headers and contents, and the owner of
    the run's header rules: it is built with the run's protocol and k_epf.

    `extend` mints every header under the protocol's opportunity rule: PoW
    spends each opportunity on at most one header and keeps the spent ones
    in `spent`; PoS and SaPoS permit equivocation but deduplicate identical
    (bpo, parent, commitment) triples.  `valid` decides once per header
    whether it may follow its parent, and every node of the run reads that
    verdict.
    """

    def __init__(self, protocol: str = PROTOCOL_POW, k_epf: int = 0):
        self.protocol = protocol
        self.k_epf = k_epf
        genesis_bpo = BpoId(slot=-1, node=-1, honest=True, seq=0)
        self.genesis = BlockHeader(GENESIS_ID, None, genesis_bpo, 0, 0)
        self.headers: dict[int, BlockHeader] = {GENESIS_ID: self.genesis}
        self.contents: dict[int, Content] = {0: Content(0)}
        self.spent: set[BpoId] = set()      # PoW opportunities minted
        self._pos_identity: dict[tuple, BlockHeader] = {}
        self.verdicts: dict[int, bool] = {}   # header id -> `valid`
        self._next_header = 1

    def make_content(self, txs: tuple = ()) -> Content:
        c = Content(len(self.contents), tuple(txs))   # the next commitment
        self.contents[c.commitment] = c
        return c

    def _mint(self, bpo: BpoId, parent_id: int, commitment: int,
              proofs: tuple) -> BlockHeader:
        parent = self.headers[parent_id]
        if not _follows(bpo, parent):
            raise ValueError("header opportunity must come after its parent's")
        header = BlockHeader(self._next_header, parent_id, bpo,
                             parent.height + 1, commitment, proofs)
        self._next_header += 1
        self.headers[header.id] = header
        return header

    def extend(self, bpo: BpoId, parent_id: int, commitment: int,
               proofs: tuple = ()) -> BlockHeader:
        """Mint a header under the run's opportunity rule."""
        if self.protocol == PROTOCOL_POW:
            if bpo in self.spent:
                raise ReusedBpo(f"bpo {tuple(bpo)} already spent")
            header = self._mint(bpo, parent_id, commitment, proofs)
            self.spent.add(bpo)
            return header
        ident = (bpo, parent_id, commitment)
        header = self._pos_identity.get(ident)
        if header is None:
            header = self._pos_identity[ident] = self._mint(
                bpo, parent_id, commitment, proofs)
        return header

    def valid(self, h: BlockHeader) -> bool:
        """Whether `h` may follow its parent, decided on the first call for
        `h` and read from `verdicts` after."""
        verdict = self.verdicts.get(h.id)
        if verdict is None:
            verdict = self.verdicts[h.id] = self._verdict(h)
        return verdict

    def _verdict(self, h: BlockHeader) -> bool:
        """Its opportunity comes after its parent's (a header put into
        `headers` without `_mint` may break the order) and, under SaPoS,
        each of its proofs meets the deadline."""
        return _follows(h.bpo, self.headers[h.parent_id]) and (
            self.protocol != PROTOCOL_SAPOS
            or all(self.proof_meets_deadline(h, p) for p in h.proofs))

    def proof_meets_deadline(self, carrier: BlockHeader,
                             proof: EquivocationProof) -> bool:
        """A proof is valid only if its target sits on the carrier's own
        chain with at most k_epf blocks strictly between them, and the two
        evidence headers really are distinct blocks for one production
        opportunity."""
        a = self.headers.get(proof.header_a)
        b = self.headers.get(proof.header_b)
        if a is None or b is None or a.id == b.id or a.bpo != b.bpo:
            return False
        if proof.target not in (a.id, b.id):
            return False
        target = self.headers[proof.target]
        between = carrier.height - target.height - 1
        if between < 0 or between > self.k_epf:
            return False
        return self.ancestor_at(carrier.parent_id, target.height) == target.id

    def ancestor_at(self, header_id: int, height: int) -> int:
        h = self.headers[header_id]
        while h.height > height:
            h = self.headers[h.parent_id]
        return h.id

    def common_ancestor(self, a_id: int, b_id: int) -> int:
        a, b = self.headers[a_id], self.headers[b_id]
        while a.height > b.height:
            a = self.headers[a.parent_id]
        while b.height > a.height:
            b = self.headers[b.parent_id]
        while a.id != b.id:
            a = self.headers[a.parent_id]
            b = self.headers[b.parent_id]
        return a.id
