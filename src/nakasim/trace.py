"""Run traces: an ordered list of per-slot events plus a metadata record.

Events serialize to JSON Lines with sorted keys, so identical runs produce
byte-identical files.  The first record of a file is always the Meta record
describing the scenario that produced the trace.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

META = "Meta"
BPO = "Bpo"
BLOCK_PRODUCED = "BlockProduced"
HEADER_DELIVERED = "HeaderDelivered"
CONTENT_UPLOADED = "ContentUploaded"
CONTENT_FETCHED = "ContentFetched"
PRETEND_EMPTY = "PretendEmpty"
CHAIN_SWITCHED = "ChainSwitched"
EQUIVOCATION_SEEN = "EquivocationSeen"
PROOF_INCLUDED = "ProofIncluded"
BLANKED = "Blanked"
ADVERSARY_RELEASE = "AdversaryRelease"
LEAD_SAMPLE = "LeadSample"
LEDGER_OUTPUT = "LedgerOutput"

KINDS = (META, BPO, BLOCK_PRODUCED, HEADER_DELIVERED, CONTENT_UPLOADED,
         CONTENT_FETCHED, PRETEND_EMPTY, CHAIN_SWITCHED, EQUIVOCATION_SEEN,
         PROOF_INCLUDED, BLANKED, ADVERSARY_RELEASE, LEAD_SAMPLE,
         LEDGER_OUTPUT)


@dataclass
class TraceEvent:
    slot: int
    kind: str
    data: dict

    def to_json(self) -> str:
        return json.dumps({"slot": self.slot, "kind": self.kind, **self.data},
                          sort_keys=True, separators=(",", ":"))


class Trace:
    """Slot-ordered event log. Appending out of slot order is a bug."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._last_slot = -(1 << 60)

    def emit(self, slot: int, kind: str, **data: Any) -> None:
        if not self.enabled:
            return
        if slot < self._last_slot:
            raise AssertionError(f"trace slot went backwards: {slot} after {self._last_slot}")
        self._last_slot = slot
        self.events.append(TraceEvent(slot, kind, data))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def meta(self) -> dict:
        if self.events and self.events[0].kind == META:
            return self.events[0].data
        raise ValueError("trace has no Meta record")


def write_jsonl(trace: Iterable[TraceEvent], path: str) -> None:
    """Write events atomically (temp file + rename)."""
    import os
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for ev in trace:
            fh.write(ev.to_json())
            fh.write("\n")
    os.replace(tmp, path)


def read_jsonl(path: str) -> Trace:
    trace = Trace()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            slot = rec.pop("slot")
            kind = rec.pop("kind")
            if kind not in KINDS:
                raise ValueError(f"{path}:{line_no}: unknown event kind {kind!r}")
            trace.emit(slot, kind, **rec)
    return trace
