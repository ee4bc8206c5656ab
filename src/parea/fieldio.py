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

Writers format each distinct value once: every block, or CSV value column,
is reduced to its distinct float64 bit patterns (which keep `-0.0`, "-0",
apart from `0.0`), formatted with `format_real`'s template in one `%` call;
a CSV coordinate column is its axis's nodes, indexed by node position. Each
string ends with the separator that follows it (a CSV comma or row's
newline; a block's space, or a newline variant where a value ends a line),
so `_CHUNK_LINES` lines are written at a time as one `join` of strings
gathered through the index. The bytes are those of formatting every value
in turn, and the text of a whole file is never held in memory.

The reader streams the file: it decodes `_READ_CHUNK` bytes at a time as
ASCII with universal newlines, parses the header, then splits each chunk
of the body and converts its tokens with `float` into one preallocated
array, carrying a token cut by a chunk edge into the next chunk. So any
token `float` accepts (`1_0`, `+1e3`) is read as `float` reads it; tabs and
blank lines separate values like spaces, and the file's text is never held
whole. A wrong value count is reported before a bad token, and counts
every token in the file; the array is allocated only when the file is
large enough to hold the values its header declares. The kind line must
be exactly `kind=<tag>`, or `kind=vector c=<m>`: a trailing token makes the
header malformed. Every malformed file raises `FieldFormatError`.
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


def _write_lines(out, strings: np.ndarray, index: np.ndarray, per_line: int) -> None:
    """Write `strings[index]` in order, `_CHUNK_LINES` lines of `per_line`
    strings at a time; each string carries the separator that follows it."""
    step = _CHUNK_LINES * per_line
    for start in range(0, index.size, step):
        out.write("".join(strings[index[start:start + step]].tolist()))


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
            strings, index = _distinct_strings(block, " ")
            # every 8th value and the block's last end a line: they point at
            # "\n" variants, made only for the distinct values they hold
            ends = np.r_[_VALUES_PER_LINE - 1:index.size:_VALUES_PER_LINE, index.size - 1]
            variants, which = np.unique(index[ends], return_inverse=True)
            index[ends] = which + len(strings)
            newline = "".join(strings[variants].tolist()).replace(" ", "\n").splitlines(True)
            strings = np.concatenate([strings, np.array(newline, dtype=object)])
            _write_lines(out, strings, index, _VALUES_PER_LINE)


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
        out[:] = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
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
    columns = domain.m + len(field.blocks)
    ends = [","] * (columns - 1) + ["\n"]
    index = np.empty(domain.counts + (columns,), dtype=np.intp)
    tables, offset = [], 0
    for k in range(domain.m):
        # a coordinate's distinct values are its axis's nodes, indexed by
        # each node's position on that axis: no sort
        tables.append(_strings(domain.axis_nodes(k), ends[k]))
        index[..., k] = np.arange(offset, offset + domain.counts[k]).reshape(
            (-1,) + (1,) * (domain.m - 1 - k))
        offset += domain.counts[k]
    for k, block in enumerate(field.blocks, domain.m):
        strings, inverse = _distinct_strings(block, ends[k])
        tables.append(strings)
        np.add(inverse.reshape(domain.counts), offset, out=index[..., k])
        del inverse  # before the next column is sorted
        offset += strings.size
    strings = np.concatenate(tables)
    with open(destination, "w", encoding="ascii") as out:
        out.write(header + "\n")
        _write_lines(out, strings, index.reshape(-1), columns)
