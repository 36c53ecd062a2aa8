"""Run traces: an ordered list of per-slot events plus a metadata record.

Events serialize to JSON Lines with sorted keys, so identical runs produce
byte-identical files.  The first record of a file is always the Meta record
describing the scenario that produced the trace.  `TraceEvent.to_json`
encodes one event through the module-level `_ENCODER`: it is the reference
line form, whose bytes `write_jsonl` reproduces.

`LAYOUTS` declares the fields of every kind but Meta and AdversaryRelease,
each with its JSON type.  `Trace.emit` records each event as one row
`(slot, kind, values)`.  A laid-out kind's values come positionally, in
its `LAYOUTS` order, and are kept as that tuple; so is a keyword emit whose
keys are exactly the layout's.  Any other keyword emit (every Meta and
AdversaryRelease event among them) keeps its data dict.  No dict and no
`TraceEvent` is made while simulating: a `Trace` builds its rows into
events, each row once, the first time `events`, iteration or `of_kind`
asks for them.

At import one line encoder is compiled per laid-out kind from generated
source, as `dataclasses` builds `__init__`: `line(slot, values, encode)`
takes a row's values in layout order, its keys are sorted in advance, and
it returns the whole line as one f-string.  `write_jsonl` writes a `Trace`
from its rows, building no events, and turns other events into rows the
way `emit` does.  A row whose slot or values do not fit its kind's layout
(a dict row, a value of another type, a bool for an int, a non-finite
float, a slot that is not an int) is encoded instead by one C encoder with
`_ENCODER`'s settings made per file (`json.encoder`'s `c_make_encoder`,
with its own markers dict, so a circular value still raises `ValueError`).
That encoder also writes the `json` fields of laid-out kinds.  Without the
`_json` accelerator it is `_ENCODER.encode`; the choice is made once, at
import.  `write_jsonl` writes 4,096 lines per `write` call, to a temporary
file that it renames into place, or removes if the write fails.

`read_jsonl` parses a file 1,024 lines at a time: the non-blank lines of a
batch are joined into one JSON array and decoded in one call (a JSON
string cannot hold a raw newline, so a line boundary never falls inside a
value).  `json.loads` is the reference decoder, and orjson decodes a batch
only where it returns the same values and types.  It does not for an int
outside [-2**63, 2**64), which it makes a float, so a batch that holds a
run of 19 or more digits goes to `json.loads`; so does a batch that orjson
rejects (NaN, ±Infinity, a number that overflows a double, a lone
surrogate escape, invalid JSON).  One difference is kept: orjson 3.8 has
no nesting limit, so a record nested deeper than the interpreter's
recursion limit, on which `json.loads` raises `RecursionError`, decodes.
A batch that does not decode to one record per line is parsed again line
by line by `json.loads`, which names the bad line.  Each event gets the
module's constant for its kind, not the decoder's copy of the string.
orjson is imported on the first decode, not with this module, so a command
that reads no trace does not pay for loading it.

Besides the event list, a `Trace` keeps one list per kind, filled as its
rows are built and by `read_jsonl`, which builds events directly;
`of_kind` returns a copy of that list and never scans the events.

Simulating, writing a file, reading it and auditing it allocate hundreds
of thousands of dicts and events, none of which can form a reference
cycle, so `sim.Simulation.run`, `write_jsonl`, `read_jsonl` and
`pivots.analyze_trace` run under `collector_paused`: the cyclic garbage
collector makes no passes inside them, and its prior state is restored on
the way out, also on an exception.
"""
from __future__ import annotations

import contextlib
import gc
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, islice
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

# kind -> {field: JSON type}: "int", "bool", "str", a finite "float", or
# "json" for the lists, which the file's encoder writes.  Meta (the nested
# scenario) and AdversaryRelease (free-form tags, a content that is None or
# an int) have no fixed layout.
LAYOUTS: dict[str, dict[str, str]] = {
    BPO: {"h": "int", "a": "int", "s": "int", "winners": "json"},
    BLOCK_PRODUCED: {"producer": "int", "header": "int", "parent": "int",
                     "height": "int", "bpo_slot": "int", "bpo_node": "int",
                     "bpo_seq": "int", "cls": "str", "private": "bool"},
    HEADER_DELIVERED: {"node": "int", "header": "int", "pushed": "bool"},
    CONTENT_UPLOADED: {"commitment": "int", "header": "int"},
    CONTENT_FETCHED: {"node": "int", "header": "int", "via": "str",
                      "paid": "float"},
    PRETEND_EMPTY: {"node": "int", "header": "int"},
    CHAIN_SWITCHED: {"node": "int", "old": "int", "new": "int",
                     "height": "int", "switch": "bool"},
    EQUIVOCATION_SEEN: {"node": "int", "bpo_slot": "int", "bpo_node": "int",
                        "bpo_seq": "int", "headers": "json"},
    PROOF_INCLUDED: {"node": "int", "carrier": "int", "target": "int",
                     "other": "int"},
    BLANKED: {"node": "int", "block": "int"},
    LEAD_SAMPLE: {"lead": "int"},
    LEDGER_OUTPUT: {"node": "int", "len": "int", "tip": "int"},
}

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_STRING = (encode_basestring_ascii if _ENCODER.ensure_ascii
           else encode_basestring)
_BATCH_LINES = 4096
_READ_LINES = 1024
_CANON = {kind: kind for kind in KINDS}
# a run of 19 digits in a batch, which may be an int that orjson turns into
# a float, is a run of 19 zeros once every digit is mapped to "0"
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
_LONG_DIGITS = b"0" * 19


def _encoder_maker(make_c: Optional[Callable]) -> Callable[[], Callable]:
    """How `write_jsonl` makes the encoder it uses for one file: called as
    `encode(value, 0)`, the encoder returns the value's JSON in chunks.
    With the C accelerator `make_c`, one C encoder with `_ENCODER`'s
    settings and a fresh markers dict; without it, `_ENCODER.encode`."""
    if make_c is None:
        def encode(value: Any, _level: int) -> tuple[str]:
            return (_ENCODER.encode(value),)
        return lambda: encode
    e = _ENCODER
    return lambda: make_c({}, e.default, _STRING, e.indent, e.key_separator,
                          e.item_separator, e.sort_keys, e.skipkeys,
                          e.allow_nan)


_new_file_encoder = _encoder_maker(c_make_encoder)

# kind -> the fields of its layout, in the order `emit` takes their values
_FIELDS = {kind: tuple(layout) for kind, layout in LAYOUTS.items()}
# kind -> the number of values `emit` takes positionally: its layout's
# width, or None for a free-form kind, which takes keyword data only
_WIDTH = {kind: len(_FIELDS[kind]) if kind in LAYOUTS else None
          for kind in KINDS}

# layout type -> (the test that local `v` does not hold a value of it, the
# f-string replacement field that writes the value as `_ENCODER` does)
_FIELD_CODE = {
    "int": ("type(%(v)s) is not int", "{%(v)s}"),
    "bool": ("type(%(v)s) is not bool", '{"true" if %(v)s else "false"}'),
    "str": ("type(%(v)s) is not str", "{_string(%(v)s)}"),
    "float": ("type(%(v)s) is not float or not _isfinite(%(v)s)",
              "{%(v)s!r}"),
    "json": (None, '{"".join(encode(%(v)s, 0))}'),
}


def _compile_line_encoder(kind: str, layout: dict[str, str]) -> Callable:
    """The line encoder of one laid-out kind, compiled from generated
    source: `line(slot, values, encode)` returns the JSON line of the row
    `(slot, kind, values)`, newline included, with the bytes of
    `TraceEvent.to_json`, or None when `slot` is not an int or a value does
    not fit its field's type.  `values` holds one value per field of
    `layout`, in its order.  `encode` is the file's encoder, which writes
    the `json` fields."""
    if not (kind.isidentifier() and all(map(str.isidentifier, layout))):
        raise ValueError(f"{kind}: kinds and fields must be identifiers")
    names, misfits = [], []
    values = {"slot": "{slot}", "kind": _STRING(kind)}
    for i, (field, of) in enumerate(layout.items()):
        misfit, write = _FIELD_CODE[of]
        local = {"v": f"v{i}"}
        names.append(f"v{i},")
        if misfit is not None:
            misfits.append(misfit % local)
        values[field] = write % local
    body = ",".join(f"{_STRING(key)}:{values[key]}" for key in sorted(values))
    src = (f"def line_{kind}(slot, values, encode):\n"
           f"    {''.join(names)} = values\n"
           f"    if type(slot) is not int or {' or '.join(misfits) or 'False'}:\n"
           f"        return None\n"
           f"    return f'{{{{{body}}}}}\\n'\n")
    namespace = {"_string": _STRING, "_isfinite": math.isfinite}
    exec(src, namespace)
    return namespace[f"line_{kind}"]


_LINE_ENCODERS = {kind: _compile_line_encoder(kind, layout)
                  for kind, layout in LAYOUTS.items()}


def _values(kind: str, data: dict) -> tuple | dict:
    """The values of an event given by keyword, as its row holds them: a
    tuple in layout order when `kind` is laid out and `data` has exactly
    its layout's keys, else `data` itself."""
    fields = _FIELDS.get(kind)
    if fields is not None and len(data) == len(fields):
        try:
            return tuple(map(data.__getitem__, fields))
        except KeyError:
            pass
    return data


def _data(kind: str, values: tuple | dict) -> dict:
    """A row's values as its event's data dict."""
    if type(values) is tuple:
        return dict(zip(_FIELDS[kind], values))
    return values


def _misuse(kind: str, values: tuple, data: dict) -> TypeError:
    """Why `emit` refuses positional `values` for `kind`."""
    width = _WIDTH[kind]
    if width is None:
        return TypeError(f"{kind} takes keyword data, not positional values")
    if data:
        return TypeError(f"{kind} takes its values positionally or by "
                         f"keyword, not both")
    return TypeError(f"{kind} takes {width} values "
                     f"({', '.join(_FIELDS[kind])}), got {len(values)}")


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
    """Slot-ordered event log. Appending out of slot order is a bug.

    `emit` records each event as one row `(slot, kind, values)`: a tuple of
    values in `LAYOUTS` order for a laid-out kind given positionally or by
    exactly its layout's keywords, else the keyword data dict.  The rows
    still pending become `TraceEvent`s, filed by kind as well, when
    `events`, iteration or `of_kind` first asks for them, each row once.
    `len`, `meta` and `write_jsonl` read the rows as they are."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._rows: list[tuple] = []            # emitted, not yet events
        self._events: list[TraceEvent] = []
        self._by_kind: dict[str, list[TraceEvent]] = {k: [] for k in KINDS}
        self._last_slot = -(1 << 60)

    def emit(self, slot: int, kind: str, *values: Any, **data: Any) -> None:
        """Record one event: a laid-out kind's values positionally, in its
        `LAYOUTS` order, or any kind's data by keyword.  Positional values
        with keywords, a count other than the layout's width, or any for a
        free-form kind raise `TypeError`."""
        if not self.enabled:
            return
        if not slot >= self._last_slot:     # also true for a NaN slot
            raise AssertionError(f"trace slot went backwards: {slot} after {self._last_slot}")
        try:
            width = _WIDTH[kind]
        except KeyError:
            raise ValueError(f"unknown event kind {kind!r}") from None
        if values:
            if data or len(values) != width:
                raise _misuse(kind, values, data)
        else:
            values = _values(kind, data)
        self._last_slot = slot
        self._rows.append((slot, kind, values))

    @collector_paused()
    def _build(self) -> None:
        """Turn the pending rows into events, filed by kind as well."""
        rows, self._rows = self._rows, []
        events, by_kind = self._events, self._by_kind
        for slot, kind, values in rows:
            ev = TraceEvent(slot, kind, _data(kind, values))
            events.append(ev)
            by_kind[kind].append(ev)

    @property
    def events(self) -> list[TraceEvent]:
        """Every event in trace order, the pending rows built first."""
        if self._rows:
            self._build()
        return self._events

    @events.setter
    def events(self, events: list[TraceEvent]) -> None:
        if self._rows:
            self._build()
        self._events = events

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._events) + len(self._rows)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """The events of one kind in trace order, as a new list."""
        if self._rows:
            self._build()
        return list(self._by_kind.get(kind, ()))

    @property
    def meta(self) -> dict:
        if self._events:
            kind, data = self._events[0].kind, self._events[0].data
        elif self._rows:
            _, kind, data = self._rows[0]
        else:
            kind = None
        if kind == META:
            return data
        raise ValueError("trace has no Meta record")


@collector_paused()
def write_jsonl(trace: Iterable[TraceEvent], path: str) -> None:
    """Write events atomically (temp file + rename), each line the bytes of
    `TraceEvent.to_json`, one `write` per `_BATCH_LINES` events.  A `Trace`
    is written from its rows, and builds no events; other events are
    turned into rows first.  If the write fails, the temp file is removed
    and the exception re-raised."""
    encode = _new_file_encoder()
    line_of = _LINE_ENCODERS
    built, pending = ((trace._events, trace._rows) if isinstance(trace, Trace)
                      else (trace, ()))
    rows = chain(((ev.slot, ev.kind, _values(ev.kind, ev.data))
                  for ev in built), pending)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            while batch := list(islice(rows, _BATCH_LINES)):
                chunks: list[str] = []
                for slot, kind, values in batch:
                    if (type(values) is not tuple or (
                            line := line_of[kind](slot, values, encode)) is None):
                        chunks += encode({"slot": slot, "kind": kind,
                                          **_data(kind, values)}, 0)
                        line = "\n"
                    chunks.append(line)
                fh.write("".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@collector_paused()
def read_jsonl(path: str) -> Trace:
    """Read a trace written by `write_jsonl`. A bad record raises with the
    file and line: invalid JSON, a record that is not an object, an unknown
    kind or a slot that is not a number (NaN included) as `ValueError`, a
    missing `slot` or `kind` as `KeyError`, a slot that goes backwards as
    `AssertionError`."""
    trace = Trace()
    events, by_kind = trace._events, trace._by_kind
    last_slot = trace._last_slot
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        while batch := list(islice(fh, _READ_LINES)):
            first, line_no = line_no + 1, line_no + len(batch)
            lines = [s for s in map(str.strip, batch) if s]
            try:
                recs = _decode("[" + ",".join(lines) + "]")
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
                    if not slot >= last_slot:   # also true for a NaN slot
                        if slot != slot:
                            raise ValueError(
                                f"slot is not a number: {slot!r}")
                        raise AssertionError(
                            f"trace slot went backwards: {slot} after {last_slot}")
                    last_slot = slot
                    ev = TraceEvent(slot, _CANON[kind], rec)
                    events.append(ev)
                    of_kind.append(ev)
            except (KeyError, ValueError, AssertionError) as exc:
                where = _line_of(batch, first, len(events) - done)
                what = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise type(exc)(f"{path}:{where}: {what}") from None
            except (TypeError, AttributeError):
                where = _line_of(batch, first, len(events) - done)
                what = _not_an_event(json.loads(batch[where - first]))
                raise ValueError(f"{path}:{where}: {what}") from None
    trace._last_slot = last_slot
    return trace


def _decode(text: str) -> Any:
    """`json.loads(text)`, by orjson where it returns the same value: not
    when `text` holds a run of 19 digits, which may be an int outside
    [-2**63, 2**64) that orjson makes a float, nor when orjson rejects
    `text` (NaN, Infinity, a number that overflows a double, a lone
    surrogate escape, or invalid JSON)."""
    import orjson
    raw = text.encode()
    if _LONG_DIGITS not in raw.translate(_DIGITS_TO_ZERO):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


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


def _not_an_event(rec: Any) -> str:
    """Why a decoded record on which the reader raised `TypeError` or
    `AttributeError` is not an event."""
    if not isinstance(rec, dict):
        return f"record is not a JSON object: {rec!r:.60}"
    if isinstance(rec["kind"], (list, dict)):
        return f"unknown event kind {rec['kind']!r:.60}"
    return f"slot is not a number: {rec['slot']!r:.60}"


def _line_of(batch: list[str], first: int, index: int) -> int:
    """Line number of the batch's `index`-th non-blank line (from 0)."""
    for line_no, line in enumerate(batch, first):
        if line.strip():
            if index == 0:
                return line_no
            index -= 1
    raise IndexError(index)
