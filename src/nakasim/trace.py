"""Run traces: an ordered list of per-slot events plus a metadata record.

A trace has one record form, the row `(slot, kind, values)`.  `LAYOUTS`
declares the typed fields of every kind but Meta and AdversaryRelease, and
a laid-out kind's `values` is a tuple in that order; Meta and
AdversaryRelease keep their keyword data dict.  A keyword emit and
`read_jsonl` make a keyed record's tuple with its kind's one getter
(`operator.itemgetter` over the layout's fields), and both refuse a record
whose keys are not exactly its layout's, so no laid-out event keeps a dict.

Rows serialize to JSON Lines with sorted keys, so identical runs produce
byte-identical files; the first record is always the Meta record of the
scenario that produced the trace.  At import one line encoder is compiled
per laid-out kind from generated source, as `dataclasses` builds
`__init__`: `line(slot, values, encode)` returns the whole line as one
f-string, with the bytes `_ENCODER` gives the record.  A run writes few
distinct `str` and `float` field values (seed 1 of each bench workload
has at most four distinct `paid` values), so the encoders look up their
JSON text in `_TEXT`, and make and store it only on a miss, after the
value passed its field's exact-type and finiteness test.  Equal keys of
those types have the same text, except 0.0 and -0.0, which are never
stored.  `_TEXT` is cleared when it holds `_TEXT_BOUND` values, so its
size is bounded whatever the trace.  A row whose slot or values do not
fit its layout (a value of another type, a bool for an int, a non-finite
float, a slot that is not an int), the `json` fields and the free-form
kinds are encoded by one C encoder with `_ENCODER`'s settings made per
file (`json.encoder`'s `c_make_encoder`, with its own markers
dict, so a circular value still raises `ValueError`).  `write_jsonl`
writes 4,096 lines per `write` call, to a temporary file that it renames
into place, or removes if the write fails.

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
by line by `json.loads`, which names the bad line.  Each row gets the
module's constant for its kind, not the decoder's copy of the string.
orjson is imported on the first decode, not with this module, so a command
that reads no trace does not pay for loading it.

Simulating, writing a file, reading it and auditing it allocate hundreds
of thousands of objects, none of which can form a reference cycle, so
`sim.Simulation.run`, `write_jsonl`, `read_jsonl` and
`pivots.analyze_trace` run under `collector_paused`: the cyclic garbage
collector makes no passes inside them, and its prior state is restored on
the way out, also on an exception.  The allocation count keeps rising
inside a pause, so turning the collector back on alone would leave the
first container allocated after it to start a generation-0 pass over
everything the pause left alive.  The outermost pause that found the
collector on therefore first moves every tracked object into the oldest
generation (`gc.freeze()` then `gc.unfreeze()`, one splice of the
generation lists each, which also zeroes the generation-0 count), so no
young pass rescans them.  They are still freed by reference counting, and
any cyclic garbage made inside a pause is reclaimed by the next full
collection.  If the caller holds frozen objects (`gc.get_freeze_count()`
is not 0), the pause skips the promotion, so it never unfreezes objects
it did not freeze.
"""
from __future__ import annotations

import contextlib
import gc
import json
import math
import os
from itertools import islice
from json.encoder import (c_make_encoder, encode_basestring,
                          encode_basestring_ascii)
from operator import itemgetter
from typing import Any, Callable, Iterator

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
# the producer classes a BlockProduced row's `cls` takes
CLS_HONEST, CLS_ADVERSARY, CLS_SPV = "honest", "adversary", "spv"

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_STRING = (encode_basestring_ascii if _ENCODER.ensure_ascii
           else encode_basestring)
_BATCH_LINES = 4096
_READ_LINES = 1024
# a run of 19 digits in a batch, which may be an int that orjson turns into
# a float, is a run of 19 zeros once every digit is mapped to "0"
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
_LONG_DIGITS = b"0" * 19


def _new_file_encoder() -> Callable:
    """The encoder `write_jsonl` uses for one file: a C encoder with
    `_ENCODER`'s settings and a fresh markers dict.  Called as
    `encode(value, 0)`, it returns the value's JSON in chunks."""
    e = _ENCODER
    return c_make_encoder({}, e.default, _STRING, e.indent, e.key_separator,
                          e.item_separator, e.sort_keys, e.skipkeys,
                          e.allow_nan)


# kind -> the fields of its layout, in the order of its rows' values
_FIELDS = {kind: tuple(layout) for kind, layout in LAYOUTS.items()}
# kind -> the number of values `emit` takes positionally: its layout's
# width, or None for a free-form kind, which takes keyword data only
_WIDTH = {kind: len(_FIELDS[kind]) if kind in LAYOUTS else None
          for kind in KINDS}


def _getter(fields: tuple[str, ...]) -> Callable[[dict], tuple]:
    """`record -> the tuple of its values of fields`, by `itemgetter`, which
    returns a bare value for one field; a missing field raises KeyError."""
    get = itemgetter(*fields)
    return get if len(fields) > 1 else lambda record: (get(record),)


# laid-out kind -> the getter of a keyed record's values, in layout order
_GET = {kind: _getter(fields) for kind, fields in _FIELDS.items()}
# kind -> how `read_jsonl` makes a row of a decoded record: the module's
# constant for the kind, the getter of its values (None for a free-form
# kind, which keeps the record) and the record's number of keys, with
# `slot` and `kind`
_READ_AS = {kind: (kind, _GET.get(kind), (_WIDTH[kind] or 0) + 2)
            for kind in KINDS}

# str or finite float field value -> its JSON text, for the values the
# line encoders wrote; cleared when it holds _TEXT_BOUND of them
_TEXT: dict[Any, str] = {}
_TEXT_BOUND = 4096


def _remember(value: Any, text: str) -> str:
    if len(_TEXT) >= _TEXT_BOUND:
        _TEXT.clear()
    _TEXT[value] = text
    return text


def _str_text(value: str) -> str:
    return _remember(value, _STRING(value))


def _float_text(value: float) -> str:
    # 0.0 and -0.0 are equal keys with different text: neither is kept
    return _remember(value, repr(value)) if value else repr(value)


# layout type -> (the test that local `v` does not hold a value of it, the
# f-string replacement field that writes the value as `_ENCODER` does); a
# str or float is written from `_TEXT`, or on a miss by the function that
# makes its text and stores it
_FIELD_CODE = {
    "int": ("type(%(v)s) is not int", "{%(v)s}"),
    "bool": ("type(%(v)s) is not bool", '{"true" if %(v)s else "false"}'),
    "str": ("type(%(v)s) is not str",
            "{_text(%(v)s) or _str_text(%(v)s)}"),
    "float": ("type(%(v)s) is not float or not _isfinite(%(v)s)",
              "{_text(%(v)s) or _float_text(%(v)s)}"),
    "json": (None, '{"".join(encode(%(v)s, 0))}'),
}


def _compile_line_encoder(kind: str, layout: dict[str, str]) -> Callable:
    """The line encoder of one laid-out kind, compiled from generated
    source: `line(slot, values, encode)` returns the JSON line of the row
    `(slot, kind, values)`, newline included, with the bytes `_ENCODER`
    gives its record, or None when `slot` is not an int or a value does
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
    namespace = {"_isfinite": math.isfinite, "_text": _TEXT.get,
                 "_str_text": _str_text, "_float_text": _float_text}
    exec(src, namespace)
    return namespace[f"line_{kind}"]


_LINE_ENCODERS = {kind: _compile_line_encoder(kind, layout)
                  for kind, layout in LAYOUTS.items()}


def _misfit(kind: str, record: dict) -> str:
    """Why the keys of a keyed `record` of a laid-out kind, besides `slot`
    and `kind`, are not its layout's fields."""
    fields = _FIELDS[kind]
    wrong = [f"missing {f}" for f in fields if f not in record]
    wrong += [f"extra {f}" for f in sorted(record)
              if f not in fields and f not in ("slot", "kind")]
    return f"{kind} takes the fields {', '.join(fields)}: {', '.join(wrong)}"


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
    pause leaves the collector as the outer one set it.

    A pause that found the collector on promotes every tracked object to
    the oldest generation before it turns the collector back on, unless
    the caller holds frozen objects, so the objects the block left alive
    start no young pass.  Cyclic garbage made in the block waits for the
    next full collection."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class Trace:
    """Slot-ordered event log: one list of rows `(slot, kind, values)`.
    Appending out of slot order is a bug.

    `values` is a tuple in `LAYOUTS` order for a laid-out kind, and the
    keyword data dict for Meta and AdversaryRelease.  `emit` and
    `read_jsonl` append to the rows; `len`, `meta` and iteration read them,
    and `of_kind` files them by kind, each row once."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._rows: list[tuple] = []
        self._by_kind: dict[str, list[tuple]] = {k: [] for k in KINDS}
        self._filed = 0                 # rows filed in _by_kind so far
        self._last_slot = -(1 << 60)

    def emit(self, slot: int, kind: str, *values: Any, **data: Any) -> None:
        """Record one event: a laid-out kind's values positionally, in its
        `LAYOUTS` order, or any kind's data by keyword, turned into a
        laid-out kind's values by its getter.  Positional values with
        keywords, a count other than the layout's width, any for a
        free-form kind, and keywords that are not exactly a laid-out
        kind's fields raise `TypeError`."""
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
        elif width is None:
            values = data
        elif data.keys() == LAYOUTS[kind].keys():
            values = _GET[kind](data)
        else:
            raise TypeError(_misfit(kind, data))
        self._last_slot = slot
        self._rows.append((slot, kind, values))

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def of_kind(self, kind: str) -> list[tuple]:
        """The rows of one kind in trace order, as a new list."""
        rows, by_kind = self._rows, self._by_kind
        if self._filed < len(rows):
            for row in islice(rows, self._filed, None):
                by_kind[row[1]].append(row)
            self._filed = len(rows)
        return list(by_kind.get(kind, ()))

    @property
    def meta(self) -> dict:
        if self._rows and self._rows[0][1] == META:
            return self._rows[0][2]
        raise ValueError("trace has no Meta record")


@contextlib.contextmanager
def replaced_atomically(path: str, newline: str | None = None):
    """A text file written beside `path` and renamed to it when the block
    ends; if the block raises, it is removed and the exception re-raised."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@collector_paused()
def write_jsonl(trace: Trace, path: str) -> None:
    """Write a trace's rows atomically (`replaced_atomically`), each line
    the bytes of `_ENCODER.encode` of its record, one `write` per
    `_BATCH_LINES` rows."""
    encode = _new_file_encoder()
    line_of = _LINE_ENCODERS
    rows = iter(trace._rows)
    with replaced_atomically(path) as fh:
        while batch := list(islice(rows, _BATCH_LINES)):
            chunks: list[str] = []
            for slot, kind, values in batch:
                if type(values) is tuple:
                    line = line_of[kind](slot, values, encode)
                    if line is not None:
                        chunks.append(line)
                        continue
                    values = dict(zip(_FIELDS[kind], values))
                chunks += encode({"slot": slot, "kind": kind, **values}, 0)
                chunks.append("\n")
            fh.write("".join(chunks))


@collector_paused()
def read_jsonl(path: str) -> Trace:
    """Read a trace written by `write_jsonl`. A bad record raises
    `ValueError` with the file and line: invalid JSON, a record that is not
    an object, a missing `slot` or `kind`, an unknown kind, a slot that is
    not a number (NaN included) or that goes backwards, or a laid-out
    record whose keys are not exactly its layout's."""
    trace = Trace()
    rows, read_as = trace._rows, _READ_AS
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
            done = len(rows)
            try:
                for rec in recs:
                    slot = rec["slot"]
                    how = read_as.get(rec["kind"])
                    if how is None:
                        raise ValueError(
                            f"unknown event kind {rec['kind']!r}")
                    if not slot >= last_slot:   # also true for a NaN slot
                        if slot != slot:
                            raise ValueError(
                                f"slot is not a number: {slot!r}")
                        raise ValueError(
                            f"trace slot went backwards: {slot} after {last_slot}")
                    last_slot = slot
                    kind, get, width = how
                    if get is None:
                        del rec["slot"], rec["kind"]
                        values = rec
                    elif len(rec) == width:
                        values = get(rec)   # KeyError for a wrong field
                    else:
                        raise ValueError(_misfit(kind, rec))
                    rows.append((slot, kind, values))
            except KeyError as exc:
                where = _line_of(batch, first, len(rows) - done)
                what = (_misfit(kind, rec)      # a field is wrong
                        if "slot" in rec and "kind" in rec
                        else f"missing {exc}")
                raise ValueError(f"{path}:{where}: {what}") from None
            except ValueError as exc:
                where = _line_of(batch, first, len(rows) - done)
                raise ValueError(f"{path}:{where}: {exc}") from None
            except TypeError:
                where = _line_of(batch, first, len(rows) - done)
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
    """Why a decoded record on which the reader raised `TypeError` is not
    an event."""
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
