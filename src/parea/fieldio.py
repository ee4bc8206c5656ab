"""Portable ASCII field files (`.pfld`) and CSV export.

File layout::

    PFLD 1
    m=<int>
    counts=<int> ... <int>
    lower=<real> ...
    upper=<real> ...
    kind=scalar | kind=vector c=<m> | kind=skew | kind=alt3
    <whitespace-separated decimal values>

Values are written with 17 significant digits so a write/read round trip is
lossless for IEEE doubles. Scalar fields carry one block of node values in
flat C order (last axis fastest); vector fields carry m consecutive blocks;
skew fields m(m-1)/2 blocks in (i<j) lexicographic pair order; alternating
3-tensors C(m,3) blocks in lexicographic triple order. Each block starts on
a new line and holds 8 values per line, the last line of a block shorter
when the node count is not a multiple of 8.

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
Every malformed file raises `FieldFormatError`.
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
    SingularMask,
    SkewField,
    VectorField,
    _AlternatingField,
    alternating_indices,
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


def _blocks_of(field) -> tuple[str, list[np.ndarray]]:
    if isinstance(field, ScalarField):
        return "kind=scalar", [field.values]
    if isinstance(field, VectorField):
        return f"kind=vector c={field.domain.m}", list(field.values)
    if isinstance(field, _AlternatingField):
        return f"kind={field.kind}", list(field.entries)
    raise TypeError(f"unsupported field type {type(field).__name__}")


def write_field(field, destination) -> None:
    """Write a field to `.pfld` text; the inverse of `read_field`."""
    kind_line, blocks = _blocks_of(field)
    domain = field.domain
    header = [
        FORMAT_TAG,
        f"m={domain.m}",
        "counts=" + " ".join(str(n) for n in domain.counts),
        "lower=" + " ".join(format_real(x) for x in domain.lower),
        "upper=" + " ".join(format_real(x) for x in domain.upper),
        kind_line,
    ]
    with open(destination, "w", encoding="ascii") as out:
        out.write("\n".join(header) + "\n")
        for block in blocks:
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


# The field class each `kind=` tag names.
_KINDS = {"scalar": ScalarField, "vector": VectorField,
          **{cls.kind: cls for cls in (SkewField, Alternating3Field)}}


def _parse_kind(line: str, m: int) -> tuple[type, int]:
    """The field class the `kind=` line names and its number of value blocks."""
    tokens = line.split()
    if not tokens:
        raise FieldFormatError("malformed header: empty kind line")
    kind = _header_value(tokens[0], "kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise FieldFormatError(f"malformed header: unknown kind {kind!r}")
    if cls is ScalarField:
        return cls, 1
    if cls is VectorField:
        if len(tokens) != 2:
            raise FieldFormatError("malformed header: vector kind needs c=<m>")
        c = int(_header_value(tokens[1], "c"))
        if c != m:
            raise FieldFormatError(f"malformed header: vector c={c} != m={m}")
        return cls, m
    return cls, len(alternating_indices(m, cls.order))


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
        cls, nblocks = _parse_kind(lines[5], m)
    except FieldFormatError:
        raise
    except ValueError as exc:
        raise FieldFormatError(f"malformed header: {exc}") from exc

    tokens = body.split()
    # Python ints: a hostile `counts=` line cannot wrap the expected count.
    expected = nblocks * math.prod(domain.counts)
    if len(tokens) != expected:
        raise FieldFormatError(
            f"count mismatch: expected {expected} values, found {len(tokens)}")
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=expected)
    except ValueError:
        raise _first_bad_token(tokens) from None
    if not np.isfinite(values).all():
        raise _first_bad_token(tokens)

    blocks = values.reshape((nblocks,) + domain.counts)
    return cls(domain, blocks[0] if cls is ScalarField else blocks)


def _csv_columns(field) -> tuple[list[str], list[np.ndarray]]:
    if isinstance(field, ScalarField):
        return ["value"], [field.values]
    if isinstance(field, VectorField):
        return [f"v{k + 1}" for k in range(field.domain.m)], list(field.values)
    if isinstance(field, _AlternatingField):
        names = [field.column_prefix + "".join(f"_{i + 1}" for i in idx)
                 for idx in field.indices]
        return names, list(field.entries)
    if isinstance(field, SingularMask):
        return ["flag"], [field.flags.astype(float)]
    raise TypeError(f"unsupported field type {type(field).__name__}")


def write_csv(field, destination) -> None:
    """One row per node: coordinates then value(s), flat C node order."""
    domain: GridDomain = field.domain
    names, cols = _csv_columns(field)
    header = ",".join([f"x{k + 1}" for k in range(domain.m)] + names)
    strings, index = _format_columns(list(domain.meshes()) + cols)
    with open(destination, "w", encoding="ascii") as out:
        out.write(header + "\n")
        _write_rows(out, strings, index, ",")
