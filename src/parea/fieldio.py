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

Writers format each distinct value once: every block (or CSV column) is
reduced to its distinct float64 bit patterns, which are formatted with
`format_real`'s template in one `%` call, and the strings are scattered back
through the inverse index. Bit patterns rather than values keep `-0.0`
("-0") apart from `0.0`. Lines are formatted and written `_CHUNK_LINES` at
a time, so the text of a whole file is never held in memory. The bytes
written are the same as formatting every value in turn.

The reader parses the header, then splits the body once and converts the
tokens with `float`, so any token `float` accepts (`1_0`, `+1e3`) is read
as `float` reads it; tabs and blank lines separate values like spaces.
The kind line must be exactly `kind=<tag>`, or `kind=vector c=<m>`: a
trailing token makes the header malformed. Every malformed file raises
`FieldFormatError`.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

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
# The one format of a real in every artifact; `%` applies it to many values
# in one call.
_REAL_FORMAT = "%.17g"


class FieldFormatError(ValueError):
    """Raised for malformed `.pfld` content."""


def format_real(x) -> str:
    """The decimal form of a real in every parea artifact: 17 significant
    digits, enough to read back the same IEEE double."""
    return _REAL_FORMAT % float(x)


def _format_columns(columns) -> tuple[np.ndarray, np.ndarray]:
    """Strings for equally sized arrays, each formatted once per distinct
    float64 bit pattern of its array: returns `(strings, index)` with
    `strings[index[n, k]]` the text of the n-th value (flat C order) of
    `columns[k]`."""
    tables, indices, offset = [], [], 0
    for col in columns:
        flat = np.ravel(col).astype(np.float64, copy=False)
        bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
        values = tuple(bits.view(np.float64).tolist())
        text = (_REAL_FORMAT + "\n") * len(values) % values
        tables.append(np.array(text.split("\n")[:-1], dtype=object))
        indices.append(inverse + offset)
        offset += bits.size
    return np.concatenate(tables), np.stack(indices, axis=1)


def _write_rows(out, strings: np.ndarray, index: np.ndarray, sep: str) -> None:
    """Write one line per row of `index`, its cells' strings joined by `sep`."""
    template = sep.join(["%s"] * index.shape[1]) + "\n"
    for start in range(0, index.shape[0], _CHUNK_LINES):
        cells = strings[index[start:start + _CHUNK_LINES]]
        out.write(template * cells.shape[0] % tuple(cells.ravel().tolist()))


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
            strings, index = _format_columns([block])
            full = index.shape[0] - index.shape[0] % _VALUES_PER_LINE
            _write_rows(out, strings, index[:full].reshape(-1, _VALUES_PER_LINE), " ")
            if full < index.shape[0]:
                _write_rows(out, strings, index[full:].reshape(1, -1), " ")


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise FieldFormatError(f"malformed header: expected '{key}=...', got {line!r}")
    return line[len(prefix):]


def _split_header(text: str) -> tuple[list[str], str]:
    """The header lines and the body after them, with the line boundaries
    `str.splitlines` uses."""
    lines, pos = [], 0
    for match in _LINE_BREAK.finditer(text):
        lines.append(text[pos:match.start()])
        pos = match.end()
        if len(lines) == _HEADER_LINES:
            return lines, text[pos:]
    if pos < len(text):
        lines.append(text[pos:])
    if len(lines) < _HEADER_LINES:
        raise FieldFormatError("malformed header: file too short")
    return lines, ""


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


def read_field(source):
    """Read a `.pfld` file; returns the field type the header declares."""
    try:
        text = Path(source).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"not an ASCII file: {exc}") from exc
    lines, body = _split_header(text)
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

    tokens = body.split()
    # Python ints: a hostile `counts=` line cannot wrap the expected count.
    shape = cls.value_shape(domain)
    expected = math.prod(shape)
    if len(tokens) != expected:
        raise FieldFormatError(
            f"count mismatch: expected {expected} values, found {len(tokens)}")
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=expected)
    except ValueError:
        raise _first_bad_token(tokens) from None
    if not np.isfinite(values).all():
        raise _first_bad_token(tokens)

    return cls(domain, values.reshape(shape))


def write_csv(field, destination) -> None:
    """One row per node: coordinates then value(s), flat C node order."""
    domain: GridDomain = field.domain
    header = ",".join([f"x{k + 1}" for k in range(domain.m)] + field.column_names)
    strings, index = _format_columns(list(domain.meshes()) + list(field.blocks))
    with open(destination, "w", encoding="ascii") as out:
        out.write(header + "\n")
        _write_rows(out, strings, index, ",")
