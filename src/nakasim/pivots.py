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
take the series and read no trace.  They read a row's values by position,
and take the positions from `trace.LAYOUTS` by field name.
"""
from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Any, Optional

import numpy as np

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
# getters of the fields read from the values of the other kinds' rows
_bpo_counts = itemgetter(*_at(tr.BPO, "h", "a", "s"))
_fetched = itemgetter(*_at(tr.CONTENT_FETCHED, "node", "header", "paid"))
_pretended = itemgetter(*_at(tr.PRETEND_EMPTY, "node", "header"))
_switched = itemgetter(*_at(tr.CHAIN_SWITCHED, "node", "new", "height"))
_output = itemgetter(*_at(tr.LEDGER_OUTPUT, "node", "len", "tip"))
_proved = itemgetter(*_at(tr.PROOF_INCLUDED, "carrier", "target"))
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
    rows and their values tuples, which are read by position."""

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
    # node -> the slots, headers and paid fractions of its fetches, in order
    node_fetches: dict[int, tuple[list[int], list[int], list[float]]]
    ledger: list[tuple]                           # LedgerOutput rows
    proofs: list[tuple]                           # ProofIncluded rows
    blanks: list[tuple]                           # Blanked rows

    def __len__(self) -> int:
        return len(self.slots)


def classify(run_trace: tr.Trace, nu: int) -> IndexSeries:
    """Read the trace into the tables the audits share, once per kind, and
    build the index series: slot classes from production counts, download
    success from the processed map, and the pivot flags of both."""
    meta = run_trace.meta
    horizon = _meta_field(meta, "horizon_slots")
    honest = list(_meta_field(meta, "honest_nodes"))

    counts: dict[int, tuple[int, int]] = {}
    for slot, _, values in run_trace.of_kind(tr.BPO):
        h, a, s = _bpo_counts(values)
        counts[slot] = (h, a + s)

    processed: dict[tuple[int, int], int] = {}

    def held(key: tuple[int, int], slot: int) -> None:
        # the kinds are read one after the other: keep the earliest slot
        if slot < processed.get(key, slot + 1):
            processed[key] = slot

    headers: dict[int, tuple] = {}
    produced_at: dict[int, list[int]] = {}
    for slot, _, b in run_trace.of_kind(tr.BLOCK_PRODUCED):
        headers[b[_HEADER]] = b
        if b[_CLS] == "honest":
            produced_at.setdefault(b[_BPO_SLOT], []).append(b[_HEADER])
            held((b[_PRODUCER], b[_HEADER]), slot)
    fetches = run_trace.of_kind(tr.CONTENT_FETCHED)
    node_fetches: dict[int, tuple[list[int], list[int], list[float]]] = {}
    for slot, _, values in fetches:
        node, header, paid = _fetched(values)
        at, heads, paids = node_fetches.setdefault(node, ([], [], []))
        at.append(slot)
        heads.append(header)
        paids.append(float(paid))
        held((node, header), slot)
    for slot, _, values in run_trace.of_kind(tr.PRETEND_EMPTY):
        held(_pretended(values), slot)
    tips: dict[int, list[tuple[int, int, int]]] = {}
    for slot, _, values in run_trace.of_kind(tr.CHAIN_SWITCHED):
        node, new, height = _switched(values)
        tips.setdefault(node, []).append((slot, new, height))

    slots = sorted(counts)
    n = len(slots)
    good = np.zeros(n, dtype=bool)
    downloaded = np.zeros(n, dtype=bool)
    block = np.full(n, -1, dtype=np.int64)

    nonempty = set(slots)
    for k, t in enumerate(slots):
        h, a = counts[t]
        if h != 1 or a != 0:
            continue
        if any((t + d) in nonempty for d in range(1, nu + 1)):
            continue
        blocks = produced_at.get(t, [])
        if len(blocks) != 1:
            continue
        good[k] = True
        b = blocks[0]
        block[k] = b
        deadline = t + nu
        downloaded[k] = all(processed.get((p, b), horizon + nu + 1) <= deadline
                            for p in honest)
    return IndexSeries(np.asarray(slots, dtype=np.int64), good, downloaded,
                       block, nu, pivot_flags_walk(good),
                       pivot_flags_walk(downloaded), meta, honest, headers,
                       processed, tips, fetches, node_fetches,
                       run_trace.of_kind(tr.LEDGER_OUTPUT),
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
    queries: list[tuple[int, int, int]] = []   # (query slot, kind, k)
    for k in range(len(series)):
        if series.downloaded[k]:
            t = int(series.slots[k])
            queries.append((t - 1, 0, k))
            queries.append((t + series.nu, 1, k))
    queries.sort()
    before: dict[int, int] = {}
    for slot, kind, k in queries:
        if kind == 0:
            before[k] = lmin_at(slot)
        else:
            result.checked += 1
            after = lmin_at(slot)
            if after < before[k] + 1:
                result.fail({"index": k + 1, "slot": int(series.slots[k]),
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
    cps = [(int(series.slots[k]) + series.nu, int(series.block[k]), k + 1)
           for k in range(len(series)) if series.cp[k]]
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
                j = max(bisect.bisect_right(slots, start_slot) - 1, 0)
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
            or series.meta.get("policy") != "longest-header-chain"):
        result.inconclusive = True
        return result
    table, processed = series.headers, series.processed

    required = math.floor(c_tilde - 1e-9)
    last_cp_slot = 0
    for k in range(len(series)):
        t = int(series.slots[k])
        if series.good[k] and not series.downloaded[k]:
            deadline = t + series.nu
            b = int(series.block[k])
            for p in series.honest:
                if processed.get((p, b), deadline + 1) <= deadline:
                    continue
                slots, heads, _ = series.node_fetches.get(p, ([], [], []))
                lo = bisect.bisect_left(slots, t)
                hi = bisect.bisect_right(slots, deadline, lo)
                count = 0
                for header in heads[lo:hi]:
                    info = table.get(header)
                    if info is not None and last_cp_slot < info[_BPO_SLOT] <= t:
                        count += 1
                result.checked += 1
                if count < required:
                    result.fail({"index": k + 1, "slot": t, "node": p,
                                 "fetched": count, "required": c_tilde})
        if series.cp[k]:
            last_cp_slot = t
    if result.checked == 0:
        result.inconclusive = True
    return result


def audit_single_fetch(series: IndexSeries) -> AuditResult:
    """Each production opportunity's content is fetched at most once per node
    (per header on plain PoS, where equivocating copies are distinct)."""
    per_bpo = series.meta.get("protocol") != "pos"
    table = series.headers
    seen: set = set()
    result = AuditResult("single-fetch", True)
    for slot, _, values in series.fetches:
        node, header, _ = _fetched(values)
        if per_bpo:
            info = table.get(header)
            key = (node, info[_BPO_SLOT], info[_BPO_NODE], info[_BPO_SEQ]) \
                if info else (node, header)
        else:
            key = (node, header)
        result.checked += 1
        if key in seen:
            result.fail({"node": node, "header": header, "slot": slot})
        seen.add(key)
    return result


def audit_capacity(series: IndexSeries) -> AuditResult:
    """Tokens paid out at fetch completions over any window of w slots stay
    within capacity * tau * w + 1 (one block of carry-over).  Partially paid
    downloads settle the remainder at completion, so the paid fraction is
    what the window bound constrains, not the completion count."""
    rate = (_meta_field(series.meta, "capacity")
            * _meta_field(series.meta, "tau"))
    result = AuditResult("capacity", True)
    for node, (slots, _, paid) in sorted(series.node_fetches.items()):
        # paid(i..j) <= rate*(slot_j - slot_i + 1) + 1 for all i<=j reduces
        # to a running-minimum check on b_k = cum_before_k - rate*slot_k.
        run_min = math.inf
        min_at = None
        cum = 0.0
        for s, w in zip(slots, paid):
            b = cum - rate * s
            if b < run_min:
                run_min = b
                min_at = s
            cum += w
            if (cum - rate * s) - run_min > rate + 1.0 + 1e-9:
                result.fail({"node": node, "slot": s, "window_start": min_at})
            result.checked += 1
    return result


def audit_ledger_safety(series: IndexSeries) -> AuditResult:
    """All confirmed prefixes (across nodes and time) are consistent."""
    table = series.headers
    result = AuditResult("ledger-safety", True)
    max_len, max_tip = 0, 0
    for slot, _, values in series.ledger:
        node, ln, tip = _output(values)
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
        carrier_id, target_id = _proved(values)
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
        if info is not None and info[_CLS] == "honest":
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
    if series.meta.get("protocol") == "sapos":
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
    x_prefix = np.cumsum(2 * series.good.astype(np.int64) - 1)
    y_prefix = np.cumsum(2 * series.downloaded.astype(np.int64) - 1)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "slot", "good", "downloaded", "x_prefix", "y_prefix",
                    "pp", "cp"])
        for k in range(len(series)):
            w.writerow([k + 1, int(series.slots[k]), int(series.good[k]),
                        int(series.downloaded[k]), int(x_prefix[k]),
                        int(y_prefix[k]), int(series.pp[k]),
                        int(series.cp[k])])
