"""Slot classification, pivot detection, and trace audits.

Terminology: a non-empty slot is *good* when it carries exactly one honest
production, no adversary production, and the following `nu` slots are silent;
otherwise it is *bad*.  Indexing the non-empty slots 1..K gives the walk
X_k = +-1 (good vs bad) and, once download success is known, the walk
Y_k = +-1 (downloaded-in-time vs not).  A *probabilistic pivot* at k means
every index interval containing k has more good than bad slots; a
*combinatorial pivot* means the same for downloaded vs not.

`classify` reads the trace once per analysis.  Besides the index series it
builds the tables that every audit reads, and keeps them on the
`IndexSeries` it returns: the Meta record, the honest nodes, the header
table, the processed map, the per-node tip timelines, the fetches in trace
order and per node, and the ledger outputs, proofs and blanks.  The audits
take the series and read no trace:

- chain growth: the downloaded indices and the honest nodes' tip timelines;
- stabilization: the combinatorial pivots and their blocks, the tip
  timelines and the header table;
- download budget: the good, downloaded and pivot flags, the processed map,
  the per-node fetch slots and headers, the header table and Meta's policy;
- single fetch: the fetches in trace order, the header table and Meta's
  protocol;
- capacity: the per-node fetch slots and paid amounts, and Meta's
  capacity and tau;
- ledger safety: the ledger outputs and the header table;
- blanking: the proofs, the blanks, the header table and Meta's k_epf.

`classify` touches each row once, and so do the audits: they read a row's
values by position (the positions come from `trace.LAYOUTS` by field name)
and an index array as a list, converted once.
"""
from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Any, Optional

import numpy as np

from . import params as pm
from . import trace as tr


# ---------------------------------------------------------------------------
# pure series functions

def pivot_flags_walk(indicator: np.ndarray) -> np.ndarray:
    """O(n) pivot test from the walk form: index k (1-based position in the
    1-D array) is a pivot iff indicator[k]==1, every suffix sum from k stays
    positive, and every prefix sum up to k-1 stays non-negative.  Implemented
    via prefix extrema of the +-1 walk."""
    ind = np.asarray(indicator, dtype=np.int64)
    s = np.concatenate(([0], np.cumsum(2 * ind - 1)))
    prefmax = np.maximum.accumulate(s)
    sufmin = np.minimum.accumulate(s[::-1])[::-1]
    # pivot at k  <=>  min_{j>=k} S_j > max_{i<=k-1} S_i
    return (ind == 1) & (sufmin[1:] > prefmax[:-1])


# ---------------------------------------------------------------------------
# index series and trace tables, read from a trace

def _at(kind: str, *fields: str) -> tuple[int, ...]:
    """The positions of `fields` in the values of a `kind` row."""
    return tuple(map(list(tr.LAYOUTS[kind]).index, fields))


# the fields of a BlockProduced row that the header table is read by
(_PRODUCER, _HEADER, _PARENT, _HEIGHT, _BPO_SLOT, _BPO_NODE, _BPO_SEQ,
 _CLS) = _at(tr.BLOCK_PRODUCED, "producer", "header", "parent", "height",
             "bpo_slot", "bpo_node", "bpo_seq", "cls")
# the fields read from the values of the other kinds' rows
_H, _A, _S = _at(tr.BPO, "h", "a", "s")
_FETCHER, _FETCHED, _PAID = _at(tr.CONTENT_FETCHED, "node", "header", "paid")
_PRETENDER, _PRETENDED = _at(tr.PRETEND_EMPTY, "node", "header")
_SWITCHER, _NEW, _NEW_HEIGHT = _at(tr.CHAIN_SWITCHED, "node", "new", "height")
_OUTPUTTER, _LEN, _TIP = _at(tr.LEDGER_OUTPUT, "node", "len", "tip")
_CARRIER, _TARGET = _at(tr.PROOF_INCLUDED, "carrier", "target")
_BLOCK, = _at(tr.BLANKED, "block")


def _meta_field(meta: dict, name: str) -> Any:
    """A field of the trace's Meta record that the analysis needs."""
    try:
        return meta[name]
    except KeyError:
        raise ValueError(f"trace Meta has no {name}") from None


@dataclass
class IndexSeries:
    """Per-index arrays over the non-empty slots of a run (1-based index k
    corresponds to array position k-1), and the trace tables `classify`
    built them from, which every audit reads: the Meta record, the honest
    nodes, the header table, the processed map, the per-node tip timelines,
    the fetches in trace order and per node, and the ledger outputs, proofs
    and blanks.  The header table and the row lists hold the trace's own
    rows and their values tuples, which are read by position.
    `node_fetches` holds each node's fetches as three columns in trace
    order: the slots (the trace's own slot objects, which the budget audit
    bisects), the headers, and the paid amounts as floats."""

    slots: np.ndarray          # t_k
    good: np.ndarray           # G_k (bool)
    downloaded: np.ndarray     # D_k (bool), zero wherever not good
    block: np.ndarray          # header id of the good slot's block, -1 otherwise
    nu: int
    pp: np.ndarray             # probabilistic pivot flags, from good
    cp: np.ndarray             # combinatorial pivot flags, from downloaded
    meta: dict
    honest: list[int]
    headers: dict[int, tuple]  # header id -> its BlockProduced values
    # (node, header) -> the earliest slot at which the node had the block:
    # its own honest production, a fetch, or a blank
    processed: dict[tuple[int, int], int]
    tips: dict[int, list[tuple[int, int, int]]]   # node -> (slot, tip, height)
    fetches: list[tuple]                          # ContentFetched, in order
    # node -> the columns of its fetches: slots, headers, paid amounts
    node_fetches: dict[int, tuple[list[int], list[int], list[float]]]
    ledger: list[tuple]                           # LedgerOutput rows
    proofs: list[tuple]                           # ProofIncluded rows
    blanks: list[tuple]                           # Blanked rows

    def __len__(self) -> int:
        return len(self.slots)


def classify(run_trace: tr.Trace, nu: int) -> IndexSeries:
    """Read the trace into the tables the audits share, once per kind, and
    build the index series: slot classes from production counts, download
    success from the processed map, and the pivot flags of both.  The nu
    slots after a non-empty slot t are empty iff the next non-empty slot
    is more than nu slots after t, which one `np.diff` over the sorted
    slots gives for every t."""
    meta = run_trace.meta
    horizon = _meta_field(meta, "horizon_slots")
    honest = list(_meta_field(meta, "honest_nodes"))

    # slot -> the values of its last Bpo row
    counts = {slot: values for slot, _, values in run_trace.of_kind(tr.BPO)}

    fetches = run_trace.of_kind(tr.CONTENT_FETCHED)
    node_fetches: dict[int, tuple[list[int], list[int], list[float]]] = {}
    for slot, _, values in fetches:
        columns = node_fetches.get(values[_FETCHER])
        if columns is None:
            node_fetches[values[_FETCHER]] = (
                [slot], [values[_FETCHED]], [float(values[_PAID])])
        else:
            columns[0].append(slot)
            columns[1].append(values[_FETCHED])
            columns[2].append(float(values[_PAID]))
    # A node has a block from the earliest of its honest production, a
    # fetch and a blank.  A kind's rows come in slot order, so its first row
    # of a key holds the key (the fetch columns are read backwards for
    # that); a later kind's row takes it only if earlier.
    processed: dict[tuple[int, int], int] = {}
    for node, (fetched_at, heads, _) in node_fetches.items():
        processed.update(zip(zip(repeat(node), reversed(heads)),
                             reversed(fetched_at)))
    hold = processed.setdefault
    headers: dict[int, tuple] = {}
    produced_at: dict[int, list[int]] = {}
    for slot, _, b in run_trace.of_kind(tr.BLOCK_PRODUCED):
        header = b[_HEADER]
        headers[header] = b
        if b[_CLS] == tr.CLS_HONEST:
            rivals = produced_at.get(b[_BPO_SLOT])
            if rivals is None:
                produced_at[b[_BPO_SLOT]] = [header]
            else:
                rivals.append(header)
            key = (b[_PRODUCER], header)
            if slot < hold(key, slot):
                processed[key] = slot
    for slot, _, values in run_trace.of_kind(tr.PRETEND_EMPTY):
        key = (values[_PRETENDER], values[_PRETENDED])
        if slot < hold(key, slot):
            processed[key] = slot
    tips: dict[int, list[tuple[int, int, int]]] = {}
    for slot, _, values in run_trace.of_kind(tr.CHAIN_SWITCHED):
        change = (slot, values[_NEW], values[_NEW_HEIGHT])
        line = tips.get(values[_SWITCHER])
        if line is None:
            tips[values[_SWITCHER]] = [change]
        else:
            line.append(change)

    slots = sorted(counts)
    at = np.asarray(slots, dtype=np.int64)
    quiet = np.ones(len(slots), dtype=bool)
    quiet[:-1] = np.diff(at) > nu
    never = horizon + nu + 1
    good_at, blocks, in_time = [], [], []
    for k in np.flatnonzero(quiet).tolist():
        t = slots[k]
        c = counts[t]
        if c[_H] != 1 or c[_A] + c[_S] != 0:
            continue
        produced = produced_at.get(t)
        if produced is None or len(produced) != 1:
            continue
        b = produced[0]
        deadline = t + nu
        good_at.append(k)
        blocks.append(b)
        in_time.append(all(processed.get((p, b), never) <= deadline
                           for p in honest))
    good = np.zeros(len(slots), dtype=bool)
    good[good_at] = True
    downloaded = np.zeros(len(slots), dtype=bool)
    downloaded[good_at] = in_time
    block = np.full(len(slots), -1, dtype=np.int64)
    block[good_at] = blocks
    return IndexSeries(at, good, downloaded, block, nu,
                       pivot_flags_walk(good), pivot_flags_walk(downloaded),
                       meta, honest, headers, processed, tips, fetches,
                       node_fetches, run_trace.of_kind(tr.LEDGER_OUTPUT),
                       run_trace.of_kind(tr.PROOF_INCLUDED),
                       run_trace.of_kind(tr.BLANKED))


# ---------------------------------------------------------------------------
# audits

_MAX_WITNESSES = 10


@dataclass
class AuditResult:
    name: str
    passed: bool
    inconclusive: bool = False
    checked: int = 0
    violations: list = field(default_factory=list)

    def fail(self, witness: dict) -> None:
        """Record a violation; the first _MAX_WITNESSES keep their witness."""
        self.passed = False
        if len(self.violations) < _MAX_WITNESSES:
            self.violations.append(witness)


def _ancestor_at(table: dict[int, tuple], header: int, height: int) -> int:
    h = table.get(header)
    cur = header
    while h is not None and h[_HEIGHT] > height:
        cur = h[_PARENT]
        h = table.get(cur)
    if height == 0:
        return 0
    return cur


def audit_chain_growth(series: IndexSeries) -> AuditResult:
    """Every downloaded index lifts the minimum honest chain height:
    L_min(t_k + nu) >= L_min(t_k - 1) + D(i,k] along the run."""
    # minimum honest dChain height at end of each relevant slot, via merge
    changes = sorted((slot, p, height) for p in series.honest
                     for slot, _tip, height in series.tips.get(p, []))

    heights = {p: 0 for p in series.honest}
    idx = 0

    def lmin_at(slot: int) -> int:
        nonlocal idx
        while idx < len(changes) and changes[idx][0] <= slot:
            _, p, h = changes[idx]
            heights[p] = max(heights[p], h)
            idx += 1
        return min(heights.values()) if heights else 0

    result = AuditResult("chain-growth", True)
    slots = series.slots.tolist()
    queries: list[tuple[int, int, int]] = []   # (query slot, kind, k)
    for k in np.flatnonzero(series.downloaded).tolist():
        queries.append((slots[k] - 1, 0, k))
        queries.append((slots[k] + series.nu, 1, k))
    queries.sort()
    before: dict[int, int] = {}
    for slot, kind, k in queries:
        if kind == 0:
            before[k] = lmin_at(slot)
        else:
            result.checked += 1
            after = lmin_at(slot)
            if after < before[k] + 1:
                result.fail({"index": k + 1, "slot": slots[k],
                             "lmin_before": before[k], "lmin_after": after})
    return result


def _common_ancestor(table: dict[int, tuple], a: int, b: int) -> Optional[int]:
    """Deepest common ancestor of headers a and b, or None when the walk
    leaves the header table before the two meet."""
    ha, hb = table.get(a), table.get(b)
    while a != b:
        if ha is None or hb is None:
            return None
        if ha[_HEIGHT] >= hb[_HEIGHT]:
            a = ha[_PARENT]
            ha = table.get(a)
        else:
            b = hb[_PARENT]
            hb = table.get(b)
    return a


def audit_stabilization(series: IndexSeries) -> AuditResult:
    """Every combinatorial pivot's block must sit on every honest dChain from
    the end of its window onward.

    Cost: per node, linear in its tip changes and in the pivots, plus the
    fork depths walked.  A block is an ancestor of every later tip iff it is
    an ancestor of their deepest common ancestor.  One backward pass over a
    node's tips therefore gives common[j] for each suffix of tips j, j+1, ...,
    and a pivot passes if its block is common[j] or below it, for the tip j
    in force at the end of the pivot's window.  This only ever declares a
    pass: anything it cannot prove (a failure, a walk that leaves the header
    table, a node without tips) goes through the per-tip walk, which also
    finds the witness slot."""
    result = AuditResult("cp-stabilization", True)
    slots, blocks = series.slots.tolist(), series.block.tolist()
    cps = [(slots[k] + series.nu, blocks[k], k + 1)
           for k in np.flatnonzero(series.cp).tolist()]
    if not cps:
        result.inconclusive = True
        return result
    table = series.headers

    for p in series.honest:
        line = series.tips.get(p, [])
        slots = [s for s, _, _ in line]
        # common[j]: deepest common ancestor of tips j, j+1, ... (None once a
        # walk leaves the table); min_height[j]: their lowest recorded height
        common: list[Optional[int]] = [None] * len(line)
        min_height = [0] * len(line)
        cur = line[-1][1] if line else None
        low = math.inf
        for j in range(len(line) - 1, -1, -1):
            _, tip, tip_height = line[j]
            if cur is not None:
                cur = _common_ancestor(table, tip, cur)
            low = min(low, tip_height)
            common[j], min_height[j] = cur, low
        for start_slot, block, k in cps:
            height = table[block][_HEIGHT]
            result.checked += 1
            if not line:
                witness_slot = start_slot
            else:
                # the tip in force at start_slot (the first one if none was
                # yet), then every later change; a None common[j] matches no
                # block
                j = max(bisect_right(slots, start_slot) - 1, 0)
                if (min_height[j] >= height
                        and _ancestor_at(table, common[j], height) == block):
                    continue
                witness_slot = next(
                    (slot for slot, tip, tip_height in line[j:]
                     if tip_height < height
                     or _ancestor_at(table, tip, height) != block), None)
                if witness_slot is None:
                    continue
            result.fail({"index": k, "block": block, "node": p,
                         "slot": witness_slot})
    return result


def audit_budget(series: IndexSeries, c_tilde: float) -> AuditResult:
    """A good-but-undownloaded index shows where the bandwidth went: every
    honest node that missed the block must have completed at least c_tilde
    fetches of blocks produced after the latest prior combinatorial pivot.

    Cost: per miss, a bisection into the node's fetches (in slot order, as
    the trace is) and a scan of the fetches inside [t, t + nu] only."""
    result = AuditResult("download-budget", True)
    if (c_tilde is None or c_tilde <= 0.0
            or series.meta.get("policy") != pm.POLICY_LONGEST_HEADER_CHAIN):
        result.inconclusive = True
        return result
    table, processed = series.headers, series.processed
    # each honest node with the slots and headers of its fetches
    columns = [(p, *series.node_fetches.get(p, ((), ()))[:2])
               for p in series.honest]

    required = math.floor(c_tilde - 1e-9)
    slots, blocks = series.slots.tolist(), series.block.tolist()
    missed = series.good & ~series.downloaded
    cps = series.cp.tolist()
    checked = 0
    last_cp_slot = 0
    for k in np.flatnonzero(missed | series.cp).tolist():
        t = slots[k]
        if cps[k]:      # a pivot was downloaded: it is never a miss
            last_cp_slot = t
            continue
        deadline = t + series.nu
        b = blocks[k]
        for p, fetched_at, heads in columns:
            if processed.get((p, b), deadline + 1) <= deadline:
                continue
            lo = bisect_left(fetched_at, t)
            hi = bisect_right(fetched_at, deadline, lo)
            count = 0
            for header in heads[lo:hi]:
                info = table.get(header)
                if info is not None and last_cp_slot < info[_BPO_SLOT] <= t:
                    count += 1
            checked += 1
            if count < required:
                result.fail({"index": k + 1, "slot": t, "node": p,
                             "fetched": count, "required": c_tilde})
    result.checked = checked
    if checked == 0:
        result.inconclusive = True
    return result


def audit_single_fetch(series: IndexSeries) -> AuditResult:
    """Each production opportunity's content is fetched at most once per node
    (per header on plain PoS, where equivocating copies are distinct).

    A fetch's key is its node and its header's opportunity, from a table
    built once from the header table; on plain PoS the table is empty, and
    a header missing from it is keyed by itself, which no opportunity tuple
    equals.  The fetches are scanned for a repeated key only when some key
    repeats."""
    fetches = series.fetches
    opportunity = {} if series.meta.get("protocol") == pm.PROTOCOL_POS else {
        header: (b[_BPO_SLOT], b[_BPO_NODE], b[_BPO_SEQ])
        for header, b in series.headers.items()}
    result = AuditResult("single-fetch", True, checked=len(fetches))
    if len({(v[_FETCHER], opportunity.get(v[_FETCHED], v[_FETCHED]))
            for _, _, v in fetches}) == len(fetches):
        return result
    seen: set = set()
    for slot, _, v in fetches:
        key = (v[_FETCHER], opportunity.get(v[_FETCHED], v[_FETCHED]))
        if key in seen:
            result.fail({"node": v[_FETCHER], "header": v[_FETCHED],
                         "slot": slot})
        seen.add(key)
    return result


def audit_capacity(series: IndexSeries) -> AuditResult:
    """Tokens paid out at fetch completions over any window of w slots stay
    within capacity * tau * w + 1 (one block of carry-over).  Partially paid
    downloads settle the remainder at completion, so the paid fraction is
    what the window bound constrains, not the completion count.

    paid(i..j) <= rate*(slot_j - slot_i + 1) + 1 for all i <= j reduces to
    a running-minimum check on b_k = cum_before_k - rate*slot_k, made per
    node on arrays.  `np.cumsum` adds from a leading 0.0 one term after
    the other, as a running `cum += paid` does, so every sum is the loop's
    to the bit.  `np.fmin.accumulate` from a leading inf keeps the running
    minimum as `if b < run_min` does, skipping NaN, and a window starts at
    the last index where b fell strictly below the minimum before it, so
    ties keep the earlier start."""
    rate = (_meta_field(series.meta, "capacity")
            * _meta_field(series.meta, "tau"))
    bound = rate + 1.0 + 1e-9
    result = AuditResult("capacity", True)
    # a non-finite paid amount makes NaNs and infinities, as the loop's
    # float arithmetic does, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for node, (slots, _, paid) in sorted(series.node_fetches.items()):
            charged = rate * np.asarray(slots, dtype=np.int64)
            cum = np.cumsum(np.concatenate(([0.0], paid)))
            b = cum[:-1] - charged
            run_min = np.fmin.accumulate(np.concatenate(([math.inf], b)))
            over = np.flatnonzero((cum[1:] - charged) - run_min[1:] > bound)
            result.checked += len(slots)
            if not len(over):
                continue
            fell = np.flatnonzero(b < run_min[:-1])
            # the last fall at or before each failing fetch, -1 if none
            last = np.searchsorted(fell, over, side="right") - 1
            starts = [slots[i] for i in fell.tolist()]
            for i, j in zip(over.tolist(), last.tolist()):
                result.fail({"node": node, "slot": slots[i],
                             "window_start": starts[j] if j >= 0 else None})
    return result


def audit_ledger_safety(series: IndexSeries) -> AuditResult:
    """All confirmed prefixes (across nodes and time) are consistent."""
    table = series.headers
    result = AuditResult("ledger-safety", True)
    max_len, max_tip = 0, 0
    for slot, _, values in series.ledger:
        node, ln, tip = values[_OUTPUTTER], values[_LEN], values[_TIP]
        result.checked += 1
        if ln <= max_len:
            ok = _ancestor_at(table, max_tip, ln) == tip
        else:
            ok = _ancestor_at(table, tip, max_len) == max_tip
            if ok:
                max_len, max_tip = ln, tip
        if not ok:
            result.fail({"node": node, "slot": slot, "len": ln})
    return result


def audit_blanking(series: IndexSeries) -> AuditResult:
    """Blanked blocks are never honest, and each has an on-chain proof within
    the trace's k_epf blocks above it."""
    table = series.headers
    k_epf = series.meta.get("k_epf")
    result = AuditResult("blanking", True)
    proof_depth: dict[int, int] = {}
    for _, _, values in series.proofs:
        carrier_id, target_id = values[_CARRIER], values[_TARGET]
        carrier, target = table.get(carrier_id), table.get(target_id)
        if carrier and target:
            depth = carrier[_HEIGHT] - target[_HEIGHT] - 1
            prev = proof_depth.get(target_id)
            if prev is None or depth < prev:
                proof_depth[target_id] = depth
    blanked = {values[_BLOCK] for _, _, values in series.blanks}
    for block in sorted(blanked):
        info = table.get(block)
        result.checked += 1
        if info is not None and info[_CLS] == tr.CLS_HONEST:
            result.fail({"block": block, "reason": "honest block blanked"})
        if k_epf is not None:
            depth = proof_depth.get(block)
            if depth is None or depth > k_epf:
                result.fail({"block": block, "reason": "no timely proof",
                             "depth": depth})
    if not blanked:
        result.inconclusive = True
    return result


@dataclass
class WindowStats:
    k_cp: int
    tumbling_total: int
    tumbling_hit: int
    sliding_total: int
    sliding_hit: int


def cp_recurrence(cp_flags: np.ndarray, k_cp: int) -> WindowStats:
    """Count tumbling k_cp windows and sliding 2*k_cp windows that contain a
    combinatorial pivot, excluding k_cp indices at both ends."""
    flags = np.asarray(cp_flags, dtype=bool)
    n = len(flags)
    lo, hi = k_cp, n - k_cp
    stats = WindowStats(k_cp, 0, 0, 0, 0)
    if hi - lo < k_cp:
        return stats
    csum = np.concatenate([[0], np.cumsum(flags)])
    m = lo
    while m + k_cp <= hi:
        stats.tumbling_total += 1
        if csum[m + k_cp] - csum[m] > 0:
            stats.tumbling_hit += 1
        m += k_cp
    w = 2 * k_cp
    if hi - lo >= w:
        counts = csum[lo + w:hi + 1] - csum[lo:hi + 1 - w]
        stats.sliding_total = len(counts)
        stats.sliding_hit = int((counts > 0).sum())
    return stats


# ---------------------------------------------------------------------------
# report

@dataclass
class PivotReport:
    nu: int
    c_tilde: Optional[float]
    k_cp: int
    n_indices: int
    n_good: int
    n_downloaded: int
    pp_indices: list[int]
    cp_indices: list[int]
    windows: WindowStats
    audits: list[AuditResult]

    @property
    def passed(self) -> bool:
        return all(a.passed or a.inconclusive for a in self.audits)

    def to_dict(self) -> dict:
        return {
            "nu": self.nu, "c_tilde": self.c_tilde, "k_cp": self.k_cp,
            "indices": self.n_indices, "good": self.n_good,
            "downloaded": self.n_downloaded,
            "pp_count": len(self.pp_indices), "cp_count": len(self.cp_indices),
            "pp_indices": self.pp_indices[:1000],
            "cp_indices": self.cp_indices[:1000],
            "windows": asdict(self.windows),
            "audits": [asdict(a) for a in self.audits],
            "passed": self.passed,
        }


@tr.collector_paused()
def analyze_trace(run_trace: tr.Trace, nu: int, c_tilde: Optional[float],
                  k_cp: int) -> tuple[PivotReport, IndexSeries]:
    """Classify the trace's indices and run every audit.  The parameters
    are held to the bounds a scenario config enforces, before any pass
    over the trace: k_cp >= 1 (the recurrence steps its windows by k_cp),
    nu >= 0 and, when given, c_tilde >= 0."""
    if k_cp < 1:
        raise ValueError(f"k_cp must be >= 1, got {k_cp}")
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    if c_tilde is not None and c_tilde < 0.0:
        raise ValueError(f"c_tilde must be >= 0, got {c_tilde}")
    series = classify(run_trace, nu)
    pp, cp = series.pp, series.cp
    audits = [
        audit_chain_growth(series),
        audit_stabilization(series),
        audit_budget(series, c_tilde),
        audit_single_fetch(series),
        audit_capacity(series),
        audit_ledger_safety(series),
    ]
    if series.meta.get("protocol") == pm.PROTOCOL_SAPOS:
        audits.append(audit_blanking(series))
    report = PivotReport(
        nu=nu, c_tilde=c_tilde, k_cp=k_cp,
        n_indices=len(series),
        n_good=int(series.good.sum()),
        n_downloaded=int(series.downloaded.sum()),
        pp_indices=[k + 1 for k in np.nonzero(pp)[0].tolist()],
        cp_indices=[k + 1 for k in np.nonzero(cp)[0].tolist()],
        windows=cp_recurrence(cp, k_cp),
        audits=audits,
    )
    return report, series


def write_report(report: PivotReport, series: IndexSeries, json_path: str,
                 csv_path: str) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    good = series.good.astype(np.int64)
    downloaded = series.downloaded.astype(np.int64)
    columns = np.stack([np.arange(1, len(series) + 1), series.slots, good,
                        downloaded, np.cumsum(2 * good - 1),
                        np.cumsum(2 * downloaded - 1), series.pp, series.cp])
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "slot", "good", "downloaded", "x_prefix", "y_prefix",
                    "pp", "cp"])
        w.writerows(columns.T.tolist())
