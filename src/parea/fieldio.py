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
a write holds one chunk, whatever the field size. A chunk of a block or CSV
value column is reduced to its distinct float64 bit patterns (`-0.0`, "-0",
stays apart from `0.0`), formatted in one `%` call; a CSV coordinate column
is its axis's nodes, formatted once a write. Each string ends with the
separator that follows it (a CSV comma or newline; a block's space, or a
newline variant where a value ends a line), so a chunk is written as one
`join`. The bytes are those of formatting every value in turn.

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
# A chunk is converted through a table when at most this share of its first
# `_TABLE_PROBE` tokens differ: a table of all-distinct tokens only costs time.
_TABLE_PROBE = 512
_TABLE_SHARE = 0.5
# The one format of a real in every artifact; `%` applies it to many values
# in one call.
_REAL_FORMAT = "%.17g"


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


def _distinct_strings(values, end: str) -> tuple[np.ndarray, np.ndarray]:
    """`(strings, inverse)`, `strings[inverse[n]]` the n-th value (flat C order)
    followed by `end`; each distinct float64 bit pattern is formatted once."""
    flat = np.ravel(values).astype(np.float64, copy=False)
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    return _strings(bits.view(np.float64), end), inverse


def _write_lines(out, lines: int, chunk, *args) -> None:
    """Write `lines` lines, `_CHUNK_LINES` at a time: `chunk(*args, start, stop)`
    gives lines start..stop-1 as strings that carry their separators."""
    for start in range(0, lines, _CHUNK_LINES):
        out.write("".join(chunk(*args, start, min(start + _CHUNK_LINES, lines)).tolist()))


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
    with open(destination, "w", encoding="ascii") as out:
        out.write("\n".join(header) + "\n")
        for block in field.blocks:
            _write_lines(out, -(-block.size // _VALUES_PER_LINE), _block_lines, block.flat)


def _block_lines(values, start: int, stop: int) -> np.ndarray:
    """Lines start..stop-1 of a block's flat `values`. Every 8th value and the
    last end a line: newline variants, made only for the values they hold."""
    strings, index = _distinct_strings(
        values[start * _VALUES_PER_LINE:stop * _VALUES_PER_LINE], " ")
    ends = np.r_[_VALUES_PER_LINE - 1:index.size:_VALUES_PER_LINE, index.size - 1]
    variants, which = np.unique(index[ends], return_inverse=True)
    index[ends] = which + len(strings)
    newline = "".join(strings[variants].tolist()).replace(" ", "\n").splitlines(True)
    return np.concatenate([strings, np.array(newline, dtype=object)])[index]


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


def _convert(tokens: list[str], out: np.ndarray) -> FieldFormatError | None:
    """Convert `tokens` with `float` into `out`; the error for the first one
    that is not a finite decimal, if any."""
    try:
        if len(set(probe := tokens[:_TABLE_PROBE])) <= _TABLE_SHARE * len(probe):
            table = {tok: float(tok) for tok in dict.fromkeys(tokens)}
            converted = map(table.__getitem__, tokens)
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

    def rows(start: int, stop: int) -> np.ndarray:
        cells = np.empty((stop - start, columns), dtype=object)
        for k, pos in enumerate(np.unravel_index(np.arange(start, stop), domain.counts)):
            cells[:, k] = axes[k][pos]
        for k, block in enumerate(blocks, domain.m):
            strings, inverse = _distinct_strings(block.flat[start:stop], ends[k])
            cells[:, k] = strings[inverse]
        return cells.reshape(-1)

    with open(destination, "w", encoding="ascii") as out:
        out.write(header + "\n")
        _write_lines(out, domain.node_count, rows)
