"""Run traces: an ordered list of per-slot events plus a metadata record.

Events serialize to JSON Lines with sorted keys, so identical runs produce
byte-identical files.  The first record of a file is always the Meta record
describing the scenario that produced the trace.  `TraceEvent.to_json`
encodes one event through the module-level `_ENCODER`; `write_jsonl` makes
one C encoder with the same settings per file (`json.encoder`'s
`c_make_encoder`, with its own markers dict, so a circular value still
raises `ValueError`) and writes 4,096 lines per `write` call.  Without the
`_json` accelerator it encodes each event with `_ENCODER.encode`; the
choice is made once, at import.

`read_jsonl` parses a file 4,096 lines at a time: the non-blank lines of a
batch are joined into one JSON array and decoded by a single `json.loads`
(a JSON string cannot hold a raw newline, so a line boundary never falls
inside a value).  A batch that does not decode to one record per line is
parsed again line by line, which names the bad line.

Besides the event list, a `Trace` keeps one list per kind, filled by `emit`
and by `read_jsonl`; `of_kind` returns a copy of that list and never scans
the events.

Reading a file and auditing it allocate hundreds of thousands of dicts and
events, none of which can form a reference cycle, so `read_jsonl` (and
`pivots.analyze_trace`) run under `collector_paused`: the cyclic garbage
collector makes no passes inside them, and its prior state is restored on
the way out, also on an exception.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
from dataclasses import dataclass
from itertools import islice
from json.encoder import (c_make_encoder, encode_basestring,
                          encode_basestring_ascii)
from typing import Any, Callable, Iterable, Iterator, Optional

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

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_BATCH_LINES = 4096


def _encoder_maker(make_c: Optional[Callable]) -> Callable[[], Callable]:
    """How `write_jsonl` makes the encoder it uses for one file: called as
    `encode(record, 0)`, the encoder returns the record's JSON in chunks.
    With the C accelerator `make_c`, one C encoder with `_ENCODER`'s
    settings and a fresh markers dict; without it, `_ENCODER.encode`."""
    if make_c is None:
        def encode(rec: dict, _level: int) -> tuple[str]:
            return (_ENCODER.encode(rec),)
        return lambda: encode
    e = _ENCODER
    strings = encode_basestring_ascii if e.ensure_ascii else encode_basestring
    return lambda: make_c({}, e.default, strings, e.indent, e.key_separator,
                          e.item_separator, e.sort_keys, e.skipkeys,
                          e.allow_nan)


_new_file_encoder = _encoder_maker(c_make_encoder)


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled, then put
    back the state it had, also when the block raises.  Nests: an inner
    pause leaves the collector as the outer one set it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(slots=True)
class TraceEvent:
    slot: int
    kind: str
    data: dict

    def to_json(self) -> str:
        return _ENCODER.encode({"slot": self.slot, "kind": self.kind, **self.data})


class Trace:
    """Slot-ordered event log. Appending out of slot order is a bug."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._by_kind: dict[str, list[TraceEvent]] = {k: [] for k in KINDS}
        self._last_slot = -(1 << 60)

    def emit(self, slot: int, kind: str, **data: Any) -> None:
        if not self.enabled:
            return
        if slot < self._last_slot:
            raise AssertionError(f"trace slot went backwards: {slot} after {self._last_slot}")
        try:
            of_kind = self._by_kind[kind]
        except KeyError:
            raise ValueError(f"unknown event kind {kind!r}") from None
        self._last_slot = slot
        ev = TraceEvent(slot, kind, data)
        self.events.append(ev)
        of_kind.append(ev)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """The events of one kind in trace order, as a new list."""
        return list(self._by_kind.get(kind, ()))

    @property
    def meta(self) -> dict:
        if self.events and self.events[0].kind == META:
            return self.events[0].data
        raise ValueError("trace has no Meta record")


def write_jsonl(trace: Iterable[TraceEvent], path: str) -> None:
    """Write events atomically (temp file + rename), each line the bytes of
    `TraceEvent.to_json`, one `write` per `_BATCH_LINES` events."""
    encode = _new_file_encoder()
    events = iter(trace)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        while batch := list(islice(events, _BATCH_LINES)):
            chunks: list[str] = []
            for ev in batch:
                chunks += encode({"slot": ev.slot, "kind": ev.kind, **ev.data}, 0)
                chunks.append("\n")
            fh.write("".join(chunks))
    os.replace(tmp, path)


@collector_paused()
def read_jsonl(path: str) -> Trace:
    """Read a trace written by `write_jsonl`. A bad record raises with the
    file and line: invalid JSON or an unknown kind as `ValueError`, a
    missing `slot` or `kind` as `KeyError`, a slot that goes backwards as
    `AssertionError`."""
    trace = Trace()
    events, by_kind = trace.events, trace._by_kind
    last_slot = trace._last_slot
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        while batch := list(islice(fh, _BATCH_LINES)):
            first, line_no = line_no + 1, line_no + len(batch)
            lines = [s for s in map(str.strip, batch) if s]
            try:
                recs = json.loads("[" + ",".join(lines) + "]")
            except json.JSONDecodeError:
                recs = None
            if recs is None or len(recs) != len(lines):
                recs = _parse_lines(path, batch, first)
            done = len(events)
            try:
                for rec in recs:
                    slot = rec.pop("slot")
                    kind = rec.pop("kind")
                    of_kind = by_kind.get(kind)
                    if of_kind is None:
                        raise ValueError(f"unknown event kind {kind!r}")
                    if slot < last_slot:
                        raise AssertionError(
                            f"trace slot went backwards: {slot} after {last_slot}")
                    last_slot = slot
                    ev = TraceEvent(slot, kind, rec)
                    events.append(ev)
                    of_kind.append(ev)
            except (KeyError, ValueError, AssertionError) as exc:
                where = _line_of(batch, first, len(events) - done)
                what = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise type(exc)(f"{path}:{where}: {what}") from None
    trace._last_slot = last_slot
    return trace


def _parse_lines(path: str, batch: list[str], first: int) -> list:
    """Decode a batch one line at a time; the first bad line raises."""
    recs = []
    for line_no, line in enumerate(batch, first):
        line = line.strip()
        if not line:
            continue
        try:
            recs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    return recs


def _line_of(batch: list[str], first: int, index: int) -> int:
    """Line number of the batch's `index`-th non-blank line (from 0)."""
    for line_no, line in enumerate(batch, first):
        if line.strip():
            if index == 0:
                return line_no
            index -= 1
    raise IndexError(index)
