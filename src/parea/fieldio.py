"""Portable ASCII field files (`.pfld`) and CSV export.

File layout::

    PFLD 1
    m=<int>
    counts=<int> ... <int>
    lower=<real> ...
    upper=<real> ...
    kind=scalar | kind=vector c=<m> | kind=skew | kind=alt3
    <whitespace-separated decimal values>

The layout comes from the field classes in `grids`. A field of order k
(scalar 0, vector 1, skew 2, alt3 3) carries C(m, k) blocks of node values,
one per strictly increasing index tuple in lexicographic order, each in flat
C order (last axis fastest); its class names the kind tag and the CSV column
template. Each block starts on a new line and holds 8 values per line, the
last line of a block shorter when the node count is not a multiple of 8.
Values are written with 17 significant digits so a write/read round trip is
lossless for IEEE doubles.

Writers go through a field `_CHUNK_LINES` lines (or CSV rows) at a time, so
a write holds one chunk, whatever the field size. Both format each distinct
float64 once while a `_StringTable` holds it: one table a `.pfld` file, of
at most a chunk's worth of magnitudes (as `"%.17g" % -x` is
`"-" + "%.17g" % x` for every finite x >= 0, `-0.0` too), and one a CSV value
column, of at most `_CHUNK_LINES` bit patterns (`-0.0`, "-0", stays apart
from `0.0`); a full table starts over. A chunk of at most half distinct
values goes through its table, a `.pfld` one taking variants of the strings
for minus signs and line breaks; any other is formatted by one `%` call,
over a line template or the column's values. A coordinate column is its
axis's nodes, formatted once a write. The bytes are those of formatting
every value in turn.

The reader streams the file: it decodes `_READ_CHUNK` bytes at a time as
ASCII with universal newlines, parses the header, then splits each chunk
of the body and converts its tokens with `float` into one preallocated
array, carrying a token cut by a chunk edge into the next chunk. A chunk
whose first 512 tokens are at most half distinct calls `float` once per
distinct token string, through a table kept for that chunk only. So any
token `float` accepts (`1_0`, `+1e3`, `-0`) reads bit for bit as `float`
reads it; tabs and blank lines separate values like spaces, and the text
is never held whole. A wrong value count is reported before a bad token,
and counts every token in the file; the array is allocated only when the
file is large enough to hold the values its header declares. The kind line
must be exactly `kind=<tag>`, or `kind=vector c=<m>`: a trailing token
makes the header malformed. Every malformed file raises `FieldFormatError`.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re

import numpy as np

from .grids import (
    Alternating3Field,
    GridDomain,
    ScalarField,
    SkewField,
    VectorField,
    build_domain,
)

FORMAT_TAG = "PFLD 1"
_VALUES_PER_LINE = 8
# Lines (or CSV rows) formatted and written per step; bounds the memory a
# write holds in strings, whatever the field size.
_CHUNK_LINES = 4096
# The ASCII line boundaries of `str.splitlines` (the file is read with
# universal newlines, so no '\r' is left).
_LINE_BREAK = re.compile(r"[\n\v\f\x1c\x1d\x1e]")
_HEADER_LINES = 6
# Bytes read and decoded per step; bounds the text a read holds, whatever the
# file size. The read-side twin of `_CHUNK_LINES`.
_READ_CHUNK = 1 << 18
# A chunk goes through a table when at most this share of its values differ:
# the reader's share of its first `_TABLE_PROBE` tokens, a writer's of the
# chunk's keys in its string table. A table of all-distinct values only
# costs time.
_TABLE_PROBE = 512
_TABLE_SHARE = 0.5
# The one format of a real in every artifact; `%` applies it to many values
# in one call.
_REAL_FORMAT = "%.17g"
_MAGNITUDE = np.uint64(2 ** 63 - 1)  # every bit of a float64 but its sign
_SENTINEL = np.uint64(2 ** 64 - 1)  # above every finite float64's bit pattern
# A `.pfld` chunk's strings are joined this many lines at a time, so that the
# text and the list it is joined from stay small beside the string table.
_JOIN_LINES = 512


class FieldFormatError(ValueError):
    """Raised for malformed `.pfld` content."""


def format_real(x) -> str:
    """The decimal form of a real in every parea artifact: 17 significant
    digits, enough to read back the same IEEE double."""
    return _REAL_FORMAT % float(x)


def _strings(values: np.ndarray, end: str) -> np.ndarray:
    """`format_real` of each of `values` followed by `end`, in one `%` call:
    a line a value, split with `end` kept when it is the line break."""
    template = _REAL_FORMAT + end if end == "\n" else _REAL_FORMAT + end + "\n"
    text = template * len(values) % tuple(values.tolist())
    return np.array(text.splitlines(end == "\n"), dtype=object)


def format_rows(columns):
    """A table's text, `_CHUNK_LINES` rows at a time in one `%` call each: cells
    of an integer column as `%d`, of a real column as `format_real` writes."""
    template = " ".join("%d" if np.issubdtype(c.dtype, np.integer) else _REAL_FORMAT
                        for c in columns) + "\n"
    for start in range(0, len(columns[0]), _CHUNK_LINES):
        rows = list(zip(*(c[start:start + _CHUNK_LINES].tolist() for c in columns)))
        yield template * len(rows) % tuple(itertools.chain.from_iterable(rows))


# The field class each `kind=` tag names.
_KINDS = {cls.kind: cls
          for cls in (ScalarField, VectorField, SkewField, Alternating3Field)}


def _kind_line(cls, m: int) -> str:
    """The exact `kind=` line of a field class; a vector's also states its
    component count."""
    return f"kind={cls.kind} c={m}" if cls is VectorField else f"kind={cls.kind}"


def write_field(field, destination) -> None:
    """Write a field to `.pfld` text; the inverse of `read_field`."""
    if getattr(field, "kind", None) is None:
        raise TypeError(f"unsupported field type {type(field).__name__}")
    domain = field.domain
    header = [
        FORMAT_TAG,
        f"m={domain.m}",
        "counts=" + " ".join(str(n) for n in domain.counts),
        "lower=" + " ".join(format_real(x) for x in domain.lower),
        "upper=" + " ".join(format_real(x) for x in domain.upper),
        _kind_line(type(field), domain.m),
    ]
    step = _CHUNK_LINES * _VALUES_PER_LINE
    table = _StringTable(step, " ")
    with open(destination, "w", encoding="ascii") as out:
        out.write("\n".join(header) + "\n")
        for block in field.blocks:
            for start in range(0, block.size, step):
                out.writelines(_chunk_text(block.flat[start:start + step], table))


class _StringTable:
    """Formatted float64 values, at most `bound` of them: sorted bit patterns
    under a last sentinel entry above every finite one, for a search to land
    on, and each pattern's string followed by `end`. The first insertion
    gives both arrays their full length, so that the table then grows in
    place instead of leaving freed arrays of every length in the heap, where
    later commands' peaks would sit above them."""

    def __init__(self, bound: int, end: str):
        self.bound, self.end = bound, end
        self._bits, self._strings, self.size = np.array([_SENTINEL]), np.array([None]), 1

    def lookup(self, keys: np.ndarray):
        """`(strings, index)`, `strings[index[n]]` the string of the bit pattern
        `keys[n]`, or None when more than `_TABLE_SHARE` of the keys differ.
        A table of at most an eighth as many entries as there are keys that
        holds them all answers with no sort; otherwise the table formats and
        keeps the keys it lacks, started over from these keys when full."""
        bits, strings = self._bits[:self.size], self._strings[:self.size]
        if 8 * self.size <= keys.size and (
                bits[index := np.searchsorted(bits, keys)] == keys).all():
            return strings, index
        keys, index = np.unique(keys, return_inverse=True)
        if keys.size > _TABLE_SHARE * index.size:
            return None
        if self._bits.size == 1:
            self._bits = np.full(self.bound + 1, _SENTINEL)
            self._strings = np.empty(self.bound + 1, object)
        pos = np.searchsorted(self._bits[:self.size], keys)
        new = self._bits[pos] != keys
        strings = np.empty(keys.size, object)
        strings[~new] = self._strings[pos[~new]]
        if self.size + new.sum() > self._bits.size:
            # full: start over from these keys, the rest dropped first
            self._strings[:] = None
            self.size = keys.size - new.sum() + 1
            self._bits[:self.size] = np.append(keys[~new], _SENTINEL)
            self._strings[:self.size - 1] = strings[~new]
            pos = np.searchsorted(self._bits[:self.size], keys)
        strings[new] = _strings(keys[new].view(np.float64), self.end)
        size = self.size + new.sum()
        self._bits[:size] = np.insert(self._bits[:self.size], pos[new], keys[new])
        self._strings[:size] = np.insert(self._strings[:self.size], pos[new], strings[new])
        self.size = size
        return strings, index


def _chunk_text(values: np.ndarray, table: _StringTable):
    """The text of a chunk of a block's lines, in parts of `_JOIN_LINES`
    lines; `values`, a fresh array, is overwritten. A chunk whose magnitudes
    the table refuses goes through a `%` template, any other through the
    table's strings."""
    negative = np.signbit(values)
    mags = values.view(np.uint64)
    mags &= _MAGNITUDE
    strings, index = table.lookup(mags) or (None, None)
    if strings is None:
        np.negative(values, out=values, where=negative)  # the signs back
        yield _line_template(values.size) % tuple(values.tolist())
        return
    del mags, values  # the chunk's copy is read no more
    strings, index = _variants(strings, index, negative, lambda s: "-" + s)
    ends = np.r_[_VALUES_PER_LINE - 1:index.size:_VALUES_PER_LINE, index.size - 1]
    strings, index = _variants(strings, index, ends, lambda s: np.array(
        "".join(s.tolist()).replace(" ", "\n").splitlines(True), dtype=object))
    step = _JOIN_LINES * _VALUES_PER_LINE
    for start in range(0, index.size, step):
        yield "".join(strings[index[start:start + step]].tolist())


def _variants(strings, index, where, make):
    """`strings` with `make(s)` appended for each s that `index[where]`
    points at, and `index[where]` pointing at those."""
    picked = index[where]
    used = np.zeros(len(strings), bool)
    used[picked] = True
    index[where] = np.cumsum(used)[picked] + (len(strings) - 1)
    return np.concatenate([strings, make(strings[used])]), index


def _line_template(count: int) -> str:
    """The `%` template of `count` values written 8 to a line."""
    full, rest = divmod(count, _VALUES_PER_LINE)
    line = " ".join([_REAL_FORMAT] * _VALUES_PER_LINE) + "\n"
    return line * full + (" ".join([_REAL_FORMAT] * rest) + "\n" if rest else "")


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise FieldFormatError(f"malformed header: expected '{key}=...', got {line!r}")
    return line[len(prefix):]


def _split_header(text: str, final: bool = True) -> tuple[list[str], str] | None:
    """The header lines and the body after them, with the line boundaries
    `str.splitlines` uses. With `final=False`, `text` is a prefix of the
    file: None while it holds fewer than `_HEADER_LINES` line breaks."""
    lines, pos = [], 0
    for match in _LINE_BREAK.finditer(text):
        lines.append(text[pos:match.start()])
        pos = match.end()
        if len(lines) == _HEADER_LINES:
            return lines, text[pos:]
    if not final:
        return None
    if pos < len(text):
        lines.append(text[pos:])
    if len(lines) < _HEADER_LINES:
        raise FieldFormatError("malformed header: file too short")
    return lines, ""


def _text_chunks(raw):
    """The text of a binary file, `_READ_CHUNK` bytes at a time, decoded as
    ASCII with universal newlines: a '\\r' is held back until the next chunk
    shows whether a '\\n' follows it."""
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    offset = 0
    while data := raw.read(_READ_CHUNK):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FieldFormatError(
                f"not an ASCII file: byte {data[exc.start]:#04x} at offset "
                f"{offset + exc.start}") from None
        offset += len(data)
        yield newlines.decode(text)
    yield newlines.decode("", final=True)


def _read_header(chunks) -> tuple[list[str], str]:
    """The header lines and the start of the body, reading only the chunks
    the header spans."""
    head = ""
    for text in chunks:
        head += text
        # only a chunk with a line break can complete the header
        if _LINE_BREAK.search(text) and (split := _split_header(head, final=False)):
            return split
    return _split_header(head)


def _parse_kind(line: str, m: int) -> type:
    """The field class the `kind=` line names; the line's tokens must be
    exactly those `write_field` writes."""
    tokens = line.split()
    if not tokens:
        raise FieldFormatError("malformed header: empty kind line")
    kind = _header_value(tokens[0], "kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise FieldFormatError(f"malformed header: unknown kind {kind!r}")
    expected = _kind_line(cls, m)
    if tokens != expected.split():
        raise FieldFormatError(
            f"malformed header: expected {expected!r}, got {line.strip()!r}")
    return cls


def _first_bad_token(tokens: list[str]) -> FieldFormatError:
    """The error for the first token that is not a finite decimal."""
    for tok in tokens:
        try:
            x = float(tok)
        except ValueError:
            return FieldFormatError(f"bad numeric token {tok!r}")
        if not math.isfinite(x):
            return FieldFormatError(f"non-finite token {tok!r}")
    raise AssertionError("every token is a finite decimal")


def _parse_header(lines: list[str]) -> tuple[type, GridDomain]:
    """The field class and the domain the six header lines declare."""
    if lines[0].strip() != FORMAT_TAG:
        raise FieldFormatError(f"malformed header: bad format tag {lines[0]!r}")
    try:
        m = int(_header_value(lines[1].strip(), "m"))
        counts = [int(t) for t in _header_value(lines[2].strip(), "counts").split()]
        lower = [float(t) for t in _header_value(lines[3].strip(), "lower").split()]
        upper = [float(t) for t in _header_value(lines[4].strip(), "upper").split()]
        domain = build_domain(m, lower, upper, counts)
        cls = _parse_kind(lines[5], m)
    except FieldFormatError:
        raise
    except ValueError as exc:
        raise FieldFormatError(f"malformed header: {exc}") from exc
    return cls, domain


class _FloatTable(dict):
    """A chunk's tokens and their floats, each converted on first sight."""

    def __missing__(self, tok: str) -> float:
        x = self[tok] = float(tok)
        return x


def _convert(tokens: list[str], out: np.ndarray) -> FieldFormatError | None:
    """Convert `tokens` with `float` into `out`; the error for the first one
    that is not a finite decimal, if any."""
    try:
        if len(set(probe := tokens[:_TABLE_PROBE])) <= _TABLE_SHARE * len(probe):
            converted = map(_FloatTable().__getitem__, tokens)
        else:
            converted = map(float, tokens)
        out[:] = np.fromiter(converted, dtype=np.float64, count=len(tokens))
    except ValueError:
        return _first_bad_token(tokens)
    if not np.isfinite(out).all():
        return _first_bad_token(tokens)
    return None


def read_field(source):
    """Read a `.pfld` file; returns the field type the header declares."""
    with open(source, "rb") as raw:
        chunks = _text_chunks(raw)
        lines, body = _read_header(chunks)
        try:
            cls, domain = _parse_header(lines)
        except FieldFormatError:
            for _ in chunks:  # a byte that is not ASCII, anywhere, is reported first
                pass
            raise
        # Python ints: a hostile `counts=` line cannot wrap the expected count
        shape = cls.value_shape(domain)
        expected = math.prod(shape)
        # A file of n bytes holds at most (n + 1) // 2 values, so a count it
        # cannot hold allocates nothing. A file of unknown size (a pipe) grows
        # the array as its values arrive.
        size = os.fstat(raw.fileno()).st_size
        values = np.empty(min(expected, (size + 1) // 2))
        found, error, carry = 0, None, ""
        # a trailing space ends the last token
        for text in itertools.chain([body], chunks, [" "]):
            text = carry + text
            tokens = text.split()
            carry = tokens.pop() if text and not text[-1].isspace() else ""
            end = found + len(tokens)
            if error is None and end <= expected:
                if end > values.size:
                    grown = np.empty(min(expected, 2 * end))
                    grown[:found] = values[:found]
                    values = grown
                error = _convert(tokens, values[found:end])
            found = end
            del tokens  # before the next chunk is split
    if found != expected:
        raise FieldFormatError(
            f"count mismatch: expected {expected} values, found {found}")
    if error is not None:
        raise error
    return cls._adopt(domain, values.reshape(shape))


def write_csv(field, destination) -> None:
    """One row per node: coordinates then value(s), flat C node order."""
    domain: GridDomain = field.domain
    header = ",".join([f"x{k + 1}" for k in range(domain.m)] + field.column_names)
    blocks = field.blocks
    columns = domain.m + len(blocks)
    ends = [","] * (columns - 1) + ["\n"]
    # a coordinate's strings are its axis's nodes, indexed by position: no sort
    axes = [_strings(domain.axis_nodes(k), ends[k]) for k in range(domain.m)]
    tables = [_StringTable(_CHUNK_LINES, end) for end in ends[domain.m:]]

    def rows(start: int) -> str:
        stop = min(start + _CHUNK_LINES, domain.node_count)
        cells = np.empty((stop - start, columns), dtype=object)
        for k, pos in enumerate(np.unravel_index(np.arange(start, stop), domain.counts)):
            cells[:, k] = axes[k][pos]
        for k, (block, table) in enumerate(zip(blocks, tables), domain.m):
            values = block.flat[start:stop]
            strings, index = table.lookup(values.view(np.uint64)) or (None, None)
            cells[:, k] = _strings(values, ends[k]) if strings is None else strings[index]
        return "".join(cells.reshape(-1).tolist())

    with open(destination, "w", encoding="ascii") as out:
        out.write(header + "\n")
        for start in range(0, domain.node_count, _CHUNK_LINES):
            out.write(rows(start))
