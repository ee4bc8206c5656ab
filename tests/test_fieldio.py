import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parea import fieldio
from parea.cli import main
from parea.fieldio import (
    FieldFormatError,
    _split_header,
    _strings,
    format_real,
    read_field,
    write_csv,
    write_field,
)
from parea.grids import (
    Alternating3Field,
    ScalarField,
    SkewField,
    VectorField,
    build_domain,
    pair_indices,
    sample,
    sample_vector,
    triple_indices,
)
from parea.horizontal import curl_matrix, horizontal_normal
from parea.integrability import frobenius_tensor
from parea.scenarios import builtin_scenario


@pytest.fixture
def domain():
    return build_domain(2, [0.1, 0], [1, 1], [6, 5])


# Every dimension; the first axis is longer than the others, so that an axis
# mix-up changes the layout. The loop keeps one test per kind.
_DIMENSIONS = range(2, 7)


def _domain_of_dimension(m):
    return build_domain(m, [0.1] + [0] * (m - 1), [1] * m, [6] + [5] * (m - 1))


def _assert_round_trip(tmp_path, field):
    """The field comes back bit for bit, as the same class, on the same domain."""
    path = tmp_path / f"{type(field).__name__}_{field.domain.m}.pfld"
    write_field(field, path)
    back = read_field(path)
    assert type(back) is type(field)
    assert back.domain == field.domain
    assert np.array_equal(_field_blocks(back)[1].view(np.uint64),
                          _field_blocks(field)[1].view(np.uint64))


def test_scalar_round_trip_exact(tmp_path):
    for m in _DIMENSIONS:
        d = _domain_of_dimension(m)
        rng = np.random.default_rng(m)
        _assert_round_trip(tmp_path, ScalarField(d, rng.standard_normal(d.counts) * 1e3))


def test_vector_round_trip(tmp_path):
    for m in _DIMENSIONS:
        d = _domain_of_dimension(m)
        f = sample_vector(d, [lambda *x, k=k: x[k] * x[m - 1 - k] - k for k in range(m)])
        _assert_round_trip(tmp_path, f)


def test_skew_round_trip(tmp_path):
    for m in _DIMENSIONS:
        d = _domain_of_dimension(m)
        f = sample_vector(d, [lambda *x, k=k: x[k] * x[(k + 1) % m] ** 2
                              for k in range(m)])
        _assert_round_trip(tmp_path, curl_matrix(f))


def test_alt3_round_trip(tmp_path):
    """Includes the empty field at m = 2, which has no triples."""
    for m in _DIMENSIONS:
        d = _domain_of_dimension(m)
        entries = np.random.default_rng(m).standard_normal((math.comb(m, 3),) + d.counts)
        _assert_round_trip(tmp_path, Alternating3Field(d, entries))


def test_write_field_refuses_singular_mask(tmp_path, domain):
    """A singular mask is a plain bool array, not a field: it has no `.pfld`
    kind, so nothing is written."""
    mask = np.ones(domain.counts, dtype=bool)
    path = tmp_path / "mask.pfld"
    with pytest.raises(TypeError, match="ndarray"):
        write_field(mask, path)
    assert not path.exists()


def test_header_structure(tmp_path, domain):
    f = sample(domain, lambda x, y: x)
    path = tmp_path / "f.pfld"
    write_field(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "PFLD 1"
    assert lines[1] == "m=2"
    assert lines[2] == "counts=6 5"
    assert lines[5] == "kind=scalar"


def test_bad_tag(tmp_path):
    path = tmp_path / "bad.pfld"
    path.write_text("PFLD 2\nm=2\ncounts=5 5\nlower=0 0\nupper=1 1\nkind=scalar\n")
    with pytest.raises(FieldFormatError, match="malformed header"):
        read_field(path)


def test_count_mismatch(tmp_path, domain):
    f = sample(domain, lambda x, y: x)
    path = tmp_path / "f.pfld"
    write_field(f, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # drop the last value line
    with pytest.raises(FieldFormatError, match="count mismatch"):
        read_field(path)


def _replace_first_value(path, replacement):
    lines = path.read_text().splitlines()
    tokens = lines[6].split()
    tokens[0] = replacement
    lines[6] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")


def test_non_finite_token(tmp_path, domain):
    f = sample(domain, lambda x, y: x)
    path = tmp_path / "f.pfld"
    write_field(f, path)
    _replace_first_value(path, "nan")
    with pytest.raises(FieldFormatError, match="non-finite"):
        read_field(path)


def test_bad_numeric_token(tmp_path, domain):
    f = sample(domain, lambda x, y: x)
    path = tmp_path / "f.pfld"
    write_field(f, path)
    _replace_first_value(path, "zap")
    with pytest.raises(FieldFormatError, match="bad numeric token"):
        read_field(path)


def test_vector_component_count_checked(tmp_path, domain):
    f = sample_vector(domain, [lambda x, y: x, lambda x, y: y])
    path = tmp_path / "v.pfld"
    write_field(f, path)
    path.write_text(path.read_text().replace("kind=vector c=2", "kind=vector c=3"))
    with pytest.raises(FieldFormatError, match="c=3"):
        read_field(path)


def test_csv_export(tmp_path, domain):
    f = sample(domain, lambda x, y: x * y)
    path = tmp_path / "f.csv"
    write_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + domain.node_count
    # last node is the upper corner, value 1*1
    assert lines[-1] == "1,1,1"


def test_csv_vector_headers(tmp_path, domain):
    f = sample_vector(domain, [lambda x, y: x, lambda x, y: y])
    path = tmp_path / "v.csv"
    write_csv(f, path)
    assert path.read_text().splitlines()[0] == "x1,x2,v1,v2"


def _write_peak(write, field, path) -> int:
    """tracemalloc's peak over one write, the field already built."""
    tracemalloc.start()
    try:
        write(field, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _distinct_fields(n: int) -> tuple[ScalarField, VectorField]:
    """A seeded random scalar and vector field on n^2 nodes: a distinct value
    at every node."""
    d = build_domain(2, [0.1, 0.1], [1.3, 1.3], [n, n])
    rng = np.random.default_rng(0)
    return (ScalarField(d, rng.standard_normal(d.counts)),
            VectorField(d, rng.standard_normal((2,) + d.counts)))


def test_csv_write_peak_memory(tmp_path):
    """`write_csv` holds one chunk of rows: its strings, and each value
    column's distinct-value table for those rows. At 257^2, a seeded random
    vector field peaks at 2.1 node arrays; a whole-write (nodes, columns)
    index and whole-column tables took it to 29.0, and a list of per-column
    indices and both coordinate meshes to 39.7."""
    field = _distinct_fields(257)[1]
    peak = _write_peak(write_csv, field, tmp_path / "v.csv")
    assert peak < 3 * 8 * field.domain.node_count


def test_few_distinct_csv_write_peak_memory(tmp_path):
    """Each value column of a CSV write keeps its own string table, whose
    arrays take 4,097 entries at its first insertion. The 12-column CSV of
    `heisenberg(3)`'s F at 7^6 (14 distinct values) peaks at 2.2 MB in
    tracemalloc, 0.4 MB above a writer that kept one chunk's table a
    column."""
    field = builtin_scenario("heisenberg(3)").build(7, 0)["f"]
    assert _write_peak(write_csv, field, tmp_path / "f.csv") < 2.6e6


def test_write_peak_memory_does_not_grow_with_the_field(tmp_path):
    """At 513^2, with a distinct value at every node, a `.pfld` write of a
    scalar field and a CSV write of a vector field hold no more than at
    257^2. Whole-block string tables and indices took them to 32.4 and
    60.9 MB."""
    peaks = {}
    for n in (257, 513):
        scalar, vector = _distinct_fields(n)
        peaks[n] = (_write_peak(write_field, scalar, tmp_path / "s.pfld"),
                    _write_peak(write_csv, vector, tmp_path / "v.csv"))
    assert peaks[513][0] < 8e6
    assert peaks[513][1] < 2e6
    for small, large in zip(peaks[257], peaks[513]):
        assert large <= 1.1 * small


# --------------------------------------------------------------------------
# Byte identity with the one-value-at-a-time writer
# --------------------------------------------------------------------------

def _reference_fmt(x) -> str:
    return format(float(x), ".17g")


def _field_blocks(field) -> tuple[str, np.ndarray]:
    m = field.domain.m
    if isinstance(field, ScalarField):
        return "kind=scalar", field.values[None]
    if isinstance(field, VectorField):
        return f"kind=vector c={m}", field.values
    if isinstance(field, SkewField):
        return "kind=skew", field.values
    return "kind=alt3", field.values


def _reference_pfld(field) -> bytes:
    """`.pfld` bytes formatted value by value: 8 values a line, each block
    starting on a new line."""
    kind_line, blocks = _field_blocks(field)
    d = field.domain
    lines = [
        "PFLD 1",
        f"m={d.m}",
        "counts=" + " ".join(str(n) for n in d.counts),
        "lower=" + " ".join(_reference_fmt(x) for x in d.lower),
        "upper=" + " ".join(_reference_fmt(x) for x in d.upper),
        kind_line,
    ]
    for block in blocks:
        flat = block.ravel(order="C")
        for start in range(0, flat.size, 8):
            lines.append(" ".join(_reference_fmt(x) for x in flat[start:start + 8]))
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_csv(field) -> bytes:
    d = field.domain
    _, blocks = _field_blocks(field)
    if isinstance(field, ScalarField):
        names = ["value"]
    elif isinstance(field, VectorField):
        names = [f"v{k + 1}" for k in range(d.m)]
    elif isinstance(field, SkewField):
        names = [f"h_{i + 1}_{j + 1}" for i, j in field.indices]
    else:
        names = [f"t_{k + 1}_{i + 1}_{j + 1}" for k, i, j in field.indices]
    cols = [mesh.ravel() for mesh in d.meshes()] + [block.ravel() for block in blocks]
    lines = [",".join([f"x{k + 1}" for k in range(d.m)] + names)]
    for idx in range(d.node_count):
        lines.append(",".join(_reference_fmt(c[idx]) for c in cols))
    return ("\n".join(lines) + "\n").encode("ascii")


_SPECIAL_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320,
                  sys.float_info.min, 1e308, -1e308, sys.float_info.max,
                  -sys.float_info.max, 0.1, 1.0, -1.0]
_REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL_REALS)


@st.composite
def _fields(draw):
    m = draw(st.sampled_from([2, 3]))
    counts = tuple(draw(st.integers(5, 7 if m == 2 else 5)) for _ in range(m))
    domain = build_domain(m, [-1.5] * m, [draw(st.sampled_from([1.0, 0.3, 1e5]))] * m,
                          counts)
    kind = draw(st.sampled_from(["scalar", "vector", "skew", "alt3"]))
    nblocks = {"scalar": 1, "vector": m, "skew": len(pair_indices(m)),
               "alt3": len(triple_indices(m))}[kind]
    shape = (nblocks,) + counts
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(_REALS, min_size=1, max_size=4)) + [-0.0, 0.0])
        picks = draw(arrays(np.intp, shape, elements=st.integers(0, pool.size - 1)))
        values = pool[picks]
    else:
        values = draw(arrays(np.float64, shape, elements=_REALS, unique=True))
    if kind == "scalar":
        return ScalarField(domain, values[0])
    if kind == "vector":
        return VectorField(domain, values)
    if kind == "skew":
        return SkewField(domain, values)
    return Alternating3Field(domain, values)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(field=_fields())
def test_writers_match_value_by_value_layout(tmp_path, field):
    pfld = tmp_path / "f.pfld"
    write_field(field, pfld)
    assert pfld.read_bytes() == _reference_pfld(field)

    csv = tmp_path / "f.csv"
    write_csv(field, csv)
    assert csv.read_bytes() == _reference_csv(field)

    back = read_field(pfld)
    assert type(back) is type(field)
    assert back.domain == field.domain
    assert np.array_equal(_field_blocks(back)[1].view(np.uint64),
                          _field_blocks(field)[1].view(np.uint64))


def _chunk_edge_fields():
    """Fields whose writes cross chunk edges: a 183^2 scalar field is 4,187
    lines a block, past one 4,096-line chunk, its last line holding 1 value;
    half of its values come from a pool with both zeros, so line ends
    repeat."""
    d = build_domain(2, [0.1, -1.0], [1.3, 1.0], [183, 183])
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 0.1, -2.5])
    values = np.where(rng.random(d.counts) < 0.5, rng.standard_normal(d.counts),
                      pool[rng.integers(0, pool.size, d.counts)])
    d3 = _domain_of_dimension(3)
    return [ScalarField(d, values),
            sample_vector(d3, [lambda *x, k=k: x[k] - x[2 - k] for k in range(3)]),
            SkewField(d3, np.random.default_rng(6).standard_normal((3,) + d3.counts))]


def test_writers_match_value_by_value_layout_across_chunk_edges(tmp_path, monkeypatch):
    fields = _chunk_edge_fields()
    for chunk in (1, 3, fieldio._CHUNK_LINES):
        monkeypatch.setattr(fieldio, "_CHUNK_LINES", chunk)
        for field in fields:
            write_field(field, tmp_path / "f.pfld")
            assert (tmp_path / "f.pfld").read_bytes() == _reference_pfld(field)
            write_csv(field, tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_bytes() == _reference_csv(field)


def _count_formatted(monkeypatch) -> list:
    """The `(count, end)` of each `fieldio._strings` call that formats a
    value."""
    calls = []
    strings = fieldio._strings

    def counted(values, end):
        if len(values):
            calls.append((len(values), end))
        return strings(values, end)

    monkeypatch.setattr(fieldio, "_strings", counted)
    return calls


def _count_sorts(monkeypatch) -> list:
    """The `np.unique` calls a write makes: one a chunk that is sorted."""
    sorts = []
    unique = np.unique

    def counted(*args, **kwargs):
        sorts.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return sorts


def _chunks_of(bases: np.ndarray, lines: int, shape) -> np.ndarray:
    """Values whose `lines`-value chunks repeat the rows of `bases` in turn."""
    return np.tile(bases, (1, lines // bases.shape[1])).reshape(shape)


def test_csv_chunks_reuse_the_previous_table(tmp_path, monkeypatch):
    """A CSV value column keeps one string table. A chunk whose values the
    table, of at most an eighth as many entries as the chunk's rows, all
    holds is looked up with no sort; a chunk with a value the table lacks (a
    new value, or -0.0 beside 0.0) is sorted and only that value is
    formatted. The bytes are those of the value-by-value writer."""
    monkeypatch.setattr(fieldio, "_CHUNK_LINES", 64)
    formatted = _count_formatted(monkeypatch)
    d = build_domain(2, [0.0, 0.0], [1.0, 1.0], [10, 32])  # 5 chunks of two rows
    first = np.array([[0.0, 0.5, 0.25, 0.0],  # sorted: 3 formatted
                      [0.5, 0.0, 0.0, 0.5],  # held: no sort
                      [0.5, -0.0, 0.25, 0.0],  # -0.0 is new: sorted, 1 formatted
                      [-0.0, -0.0, 0.5, 0.25],  # held: no sort
                      [1.0, 0.5, 0.5, 0.25]])  # 1.0 is new: sorted, 1 formatted
    # the second column takes the chunks in reverse: sorted 3 times (3, 1
    # and 1 formatted), then held twice
    field = VectorField(d, np.stack([_chunks_of(first, 64, d.counts),
                                     _chunks_of(first[::-1], 64, d.counts)]))
    sorts = _count_sorts(monkeypatch)
    write_csv(field, tmp_path / "v.csv")
    assert len(sorts) == 6
    assert formatted == [(10, ","), (32, ","),  # the coordinate columns
                         (3, ","), (3, "\n"), (1, "\n"), (1, ","), (1, "\n"), (1, ",")]
    assert (tmp_path / "v.csv").read_bytes() == _reference_csv(field)


def test_csv_values_seen_two_chunks_back_are_not_formatted_again(tmp_path, monkeypatch):
    """A CSV value column's first and third chunks hold the same values (both
    zeros among them) and its second others: the column's table still holds
    the first chunk's strings at the third, so each value is formatted once.
    A table of the last chunk only formatted 12 values."""
    monkeypatch.setattr(fieldio, "_CHUNK_LINES", 64)
    formatted = _count_formatted(monkeypatch)
    d = build_domain(2, [0.0, 0.0], [1.0, 1.0], [6, 32])  # 3 chunks of two rows
    bases = np.array([[0.0, -0.0, 0.5, 1.5], [2.5, -3.0, 0.25, 7.0],
                      [0.0, -0.0, 0.5, 1.5]])
    field = ScalarField(d, _chunks_of(bases, 64, d.counts))
    write_csv(field, tmp_path / "f.csv")
    assert sum(n for n, end in formatted if end == "\n") == 8
    assert (tmp_path / "f.csv").read_bytes() == _reference_csv(field)


def test_pfld_write_peak_memory(tmp_path):
    """A block is written one chunk of lines at a time. At 257^2, a seeded
    random scalar field (a distinct value at every node) peaks at 5.3 node
    arrays: its chunks are formatted by one `%` call over a line template,
    with no string per value. Per-chunk string tables with newline variants
    took it to 8.1 node arrays, whole-block string tables to 15.4, and a
    newline variant of every value to 24.0."""
    field = _distinct_fields(257)[0]
    peak = _write_peak(write_field, field, tmp_path / "f.pfld")
    assert peak < 6 * 8 * field.domain.node_count


def _signed_pool_fields(pool: np.ndarray, seed: int) -> list:
    """A scalar, a vector and an alt3 field whose values are ± values of
    `pool`, drawn with a seeded generator."""
    rng = np.random.default_rng(seed)
    fields = []
    for cls, m, n in ((ScalarField, 2, 23), (VectorField, 2, 17), (Alternating3Field, 4, 5)):
        d = build_domain(m, [0.0] * m, [1.0] * m, [n] * m)
        shape = cls.value_shape(d)
        values = pool[rng.integers(0, pool.size, shape)] * rng.choice([-1.0, 1.0], shape)
        fields.append(cls(d, values))
    return fields


_SUBNORMALS_AND_ZEROS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-320, sys.float_info.min]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(extra=st.lists(_REALS, min_size=0, max_size=6), seed=st.integers(0, 2 ** 32 - 1))
def test_signed_pool_fields_match_value_by_value_layout(tmp_path, monkeypatch, extra, seed):
    """Fields of ± values of a pool that holds both zeros and subnormals (so
    `-0.0` and negative subnormals take minus variants of a magnitude's
    string in `.pfld`, and their own strings in CSV), written with chunks of
    1, 3 and 4,096 lines: a `.pfld` string table is shared by the file's
    chunks and blocks, a CSV one by a column's chunks, and either is started
    over when 1- or 3-line chunks fill it."""
    pool = np.array(_SUBNORMALS_AND_ZEROS + extra)
    for chunk in (1, 3, fieldio._CHUNK_LINES):
        monkeypatch.setattr(fieldio, "_CHUNK_LINES", chunk)
        for field in _signed_pool_fields(pool, seed):
            write_field(field, tmp_path / "f.pfld")
            assert (tmp_path / "f.pfld").read_bytes() == _reference_pfld(field)
            write_csv(field, tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_bytes() == _reference_csv(field)


def _count_paths(monkeypatch) -> dict:
    """How often `write_field` formats a chunk by a line template, how often
    it asks the string table, and the chunks sorted."""
    counts = {"template": 0, "lookup": 0}

    def counted(name, call):
        def wrapper(*args):
            counts[name] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(fieldio, "_line_template",
                        counted("template", fieldio._line_template))
    monkeypatch.setattr(fieldio._StringTable, "lookup",
                        counted("lookup", fieldio._StringTable.lookup))
    counts["sorts"] = _count_sorts(monkeypatch)
    return counts


def test_repeating_and_all_distinct_chunks_alternate(tmp_path, monkeypatch):
    """Within a block and across blocks, 4-line chunks alternate between
    all-distinct values (a line template) and values from a small signed
    pool (the string table, or no sort at all once the table holds the
    pool); the bytes are those of the value-by-value writer."""
    monkeypatch.setattr(fieldio, "_CHUNK_LINES", 4)
    d = build_domain(2, [0.0, 0.0], [1.0, 1.0], [13, 11])  # 143 values: 5 chunks a block
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, d.node_count))
    pool = np.array([0.0, -0.0, 0.5, -0.5, 5e-324])
    for k in range(2):
        for c, start in enumerate(range(0, d.node_count, 32)):
            if (c + k) % 2 == 0:
                part = values[k, start:start + 32]
                part[:] = pool[rng.integers(0, pool.size, part.size)]
    field = VectorField(d, values.reshape((2,) + d.counts))
    counts = _count_paths(monkeypatch)
    write_field(field, tmp_path / "f.pfld")
    assert (tmp_path / "f.pfld").read_bytes() == _reference_pfld(field)
    # every chunk asks the table; the 5 all-distinct ones sort and take a
    # line template; of the 5 repeating, the first and the 2-line last one
    # of block 0 sort (the no-sort path needs a table of no more entries
    # than the chunk has lines), and the 3 others do not
    assert counts["template"] == 5 and counts["lookup"] == 10
    assert len(counts["sorts"]) == 5 + 2


def test_a_full_table_starts_over(tmp_path, monkeypatch):
    """With 2- and 3-line chunks a `.pfld` table's bound is 16 and 24
    magnitudes, and a CSV column's 2 and 3 values. Repeating chunks that
    bring new values fill a table; it then starts over from the chunk at
    hand, never holding more than its bound, and the bytes are those of the
    value-by-value writer."""
    sizes = {}
    lookup = fieldio._StringTable.lookup

    def recording(table, keys):
        found = lookup(table, keys)
        sizes.setdefault(table, []).append(table.size - 1)  # the sentinel is no value
        return found

    monkeypatch.setattr(fieldio._StringTable, "lookup", recording)
    d = build_domain(3, [0.0] * 3, [1.0] * 3, [6, 5, 5])
    rng = np.random.default_rng(8)
    for chunk in (2, 3):
        monkeypatch.setattr(fieldio, "_CHUNK_LINES", chunk)
        # runs of 4 * chunk values share one signed value: a CSV chunk holds
        # one value, a `.pfld` chunk two or three magnitudes
        run = np.arange(d.node_count * 3) // (4 * chunk)
        values = (run * 0.125 + 1.0) * rng.choice([-1.0, 1.0], run[-1] + 1)[run]
        field = SkewField(d, values.reshape((3,) + d.counts))
        for write, reference, bound in ((write_field, _reference_pfld, 8 * chunk),
                                        (write_csv, _reference_csv, chunk)):
            sizes.clear()
            write(field, tmp_path / "f")
            assert (tmp_path / "f").read_bytes() == reference(field)
            assert max(max(s) for s in sizes.values()) <= bound
            for s in sizes.values():  # every table started over
                assert any(b < a for a, b in zip(s, s[1:]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=st.integers(0, 2 ** 63 - 1))
def test_a_negative_value_is_its_magnitude_with_a_minus(bits):
    """The identity the writer's sign folding rests on: for every finite
    float64 x >= 0 (zero and subnormals included), `%.17g` of -x is "-"
    followed by `%.17g` of x."""
    x = float(np.uint64(bits).view(np.float64))
    if math.isfinite(x):
        assert "%.17g" % -x == "-" + "%.17g" % x
        assert format_real(-x) == "-" + format_real(x)


def _repeating_alt3(m: int, n: int) -> Alternating3Field:
    """An alt3 field in m dimensions on n^m nodes whose 4,096-line chunks each
    draw from 8,192 magnitudes of their own, with random signs: at most a
    quarter of a chunk distinct, so every chunk goes through the string
    table, which fills every fourth chunk and starts over."""
    d = build_domain(m, [0.0] * m, [1.0] * m, [n] * m)
    shape = Alternating3Field.value_shape(d)
    rng = np.random.default_rng(m)
    chunk = fieldio._CHUNK_LINES * 8
    chunks = -(-d.node_count // chunk)  # a block's
    own = (np.arange(shape[0])[:, None] * chunks + np.arange(d.node_count) // chunk)
    own = own * (chunk // 4) + rng.integers(0, chunk // 4, own.shape)
    values = (1.0 + own * 2.0 ** -20) * rng.choice([-1.0, 1.0], own.shape)
    return Alternating3Field(d, values.reshape(shape))


def test_string_table_peak_does_not_grow_with_blocks_or_size(tmp_path):
    """The string table holds at most one chunk's magnitudes, so a repeating
    alt3 field of 4 blocks (15^4 nodes, 0.2 M values) and one of 10 blocks
    (11^5 nodes, 1.6 M values) peak alike, at 4.3 and 4.4 MB: the table at
    its bound, one chunk's sort, variants and text."""
    small = _repeating_alt3(4, 15)
    large = _repeating_alt3(5, 11)
    peaks = [_write_peak(write_field, f, tmp_path / "f.pfld") for f in (small, large)]
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(peaks) < 7e6


def test_batched_formatting_matches_format_real():
    """One `%` template over an array's values, and a string table over a
    column of them twice (half distinct, so the table takes it), give the
    strings of `format_real`, and of `format(x, ".17g")`, value by value,
    each followed by the separator it was asked for."""
    edges = _SPECIAL_REALS + [-sys.float_info.min, 1e16, 1e17, -1e17, 1 / 3,
                              2.0 ** 53 + 2, 123456789.0, 1e-300, 1e300]
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 4000, dtype=np.uint64, endpoint=False)
    random = bits.view(np.float64)
    column = np.concatenate([edges, random[np.isfinite(random)]])
    for col in (column, column[::-1]):
        for end in (" ", ",", "\n"):
            twice = np.concatenate([col, col])
            strings, index = fieldio._StringTable(col.size, end).lookup(
                twice.view(np.uint64))
            for got in (_strings(col, end).tolist() * 2, strings[index].tolist()):
                assert got == [format_real(x) + end for x in twice]
                assert got == [_reference_fmt(x) + end for x in twice]


_GOLDEN = Path(__file__).parent / "data" / "fieldio_golden_sha256.json"
class _FlagField(ScalarField):
    """A scalar field whose CSV column is `flag`: a singular mask's CSV export,
    its nodes written as 0 and 1."""

    column = "flag"


_GOLDEN_SCENARIOS = ("example_2_2", "example_4_2", "example_4_3", "smooth_roundtrip",
                     "random_smooth", "heisenberg(1)", "heisenberg(2)", "heisenberg(3)")


def test_golden_artifact_digests(tmp_path):
    """Every built-in scenario at resolution 5: the `scenario` command's files
    plus the curl (skew), Frobenius (alt3) and singular-mask exports, against
    SHA-256 digests of the value-by-value writer's output."""
    for name in _GOLDEN_SCENARIOS:
        out = tmp_path / name
        main(["scenario", name, "--resolution", "5", "--out", str(out)])
        data = builtin_scenario(name).build(5, 0)
        f = data["f"]
        extra = {"curl": curl_matrix(f)}
        if "u" in data:
            mask = horizontal_normal(data["u"], f)[1]
            extra["singular"] = _FlagField(f.domain, mask)
        nu = data["nu"] if "nu" in data else horizontal_normal(data["u"], f)[0]
        blocks = list(frobenius_tensor(nu, f).blocks)  # none for m = 2
        extra["frobenius"] = Alternating3Field(
            f.domain, np.reshape(blocks, (-1,) + f.domain.counts))
        for key, fld in extra.items():
            if key != "singular":
                write_field(fld, out / f"{key}.pfld")
            write_csv(fld, out / f"{key}.csv")
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert digests == json.loads(_GOLDEN.read_text())


# --------------------------------------------------------------------------
# Reader semantics
# --------------------------------------------------------------------------

def test_reader_uses_float_token_semantics(tmp_path, domain):
    tokens = ["1_0", "+1e3", "-0", ".5", "5.", "1E-3", "-2_5.0_1"]
    tokens += [str(k) for k in range(domain.node_count - len(tokens))]
    body = ("\t".join(tokens[:3]) + "\n\n  \n" + " \t ".join(tokens[3:10]) + "\n\n"
            + "\n".join(tokens[10:]) + "\n\n")
    path = tmp_path / "t.pfld"
    path.write_text("PFLD 1\nm=2\ncounts=6 5\nlower=0.1 0\nupper=1 1\nkind=scalar\n"
                    + body)
    values = read_field(path).values.ravel()
    assert values.tolist() == [float(t) for t in tokens]
    assert values[0] == 10.0 and values[1] == 1000.0
    assert np.signbit(values[2])


# A few distinct token strings, spelled so that equal floats differ as text:
# each chunk of a body made of them goes through the reader's token table.
_REPEATED = ["0", "-0", "0.0", "1_0", "10", "+1e3", "1000", ".5", "-2.25", "1", "1.0"]
_HEADER_40X50 = "PFLD 1\nm=2\ncounts=40 50\nlower=0 0\nupper=1 1\nkind=scalar\n"


def _repeating_body(count: int) -> list[str]:
    picks = np.random.default_rng(1).integers(len(_REPEATED), size=count)
    return [_REPEATED[k] for k in picks]


def _spaced(tokens) -> str:
    """The tokens, each followed by a space, a tab, a newline or blank lines."""
    separators = [" ", "\t", "\n", "\n\n \t\n", "  "]
    picks = np.random.default_rng(2).integers(len(separators), size=len(tokens))
    return "".join(tok + separators[k] for tok, k in zip(tokens, picks))


def _count_float_calls(monkeypatch) -> list:
    """The arguments of every `float` call `fieldio` makes from now on."""
    calls = []

    def counting(x):
        calls.append(x)
        return float(x)

    monkeypatch.setattr(fieldio, "float", counting, raising=False)
    return calls


def test_repeating_chunks_read_as_float_reads_each_token(tmp_path, monkeypatch):
    """Through the token table, at any chunk size, every value has the bits
    `float` gives its token: `-0` stays apart from `0`, `1_0` reads as 10."""
    tokens = _repeating_body(2000)
    path = tmp_path / "r.pfld"
    path.write_text(_HEADER_40X50 + _spaced(tokens))
    expected = np.array([float(t) for t in tokens]).tobytes()
    calls = _count_float_calls(monkeypatch)
    assert read_field(path).values.tobytes() == expected
    # one chunk holds the whole body: one call per distinct token, and the
    # four header reals
    assert len(calls) <= len(_REPEATED) + 4
    for chunk in (7, 64, 1000):  # tokens and blank lines cut by chunk edges
        monkeypatch.setattr(fieldio, "_READ_CHUNK", chunk)
        assert read_field(path).values.tobytes() == expected


@pytest.mark.parametrize("first, second, message", [
    ("inf", "zap", "non-finite token 'inf'"),
    ("zap", "nan", "bad numeric token 'zap'"),
    ("-nan", "1e", "non-finite token '-nan'"),
])
def test_repeating_chunks_report_the_first_bad_token(tmp_path, monkeypatch, first,
                                                      second, message):
    """The first bad token in file order, even when the table converts a
    later one first; a wrong count before either."""
    tokens = _repeating_body(2000)
    tokens[500], tokens[900] = first, second
    path, short = tmp_path / "bad.pfld", tmp_path / "short.pfld"
    path.write_text(_HEADER_40X50 + _spaced(tokens))
    short.write_text(_HEADER_40X50 + _spaced(tokens[:-1]))
    for chunk in (64, fieldio._READ_CHUNK):
        monkeypatch.setattr(fieldio, "_READ_CHUNK", chunk)
        with pytest.raises(FieldFormatError) as error:
            read_field(path)
        assert str(error.value) == message
        with pytest.raises(FieldFormatError) as error:
            read_field(short)
        assert str(error.value) == "count mismatch: expected 2000 values, found 1999"


def test_a_repeating_file_calls_float_once_per_distinct_token_a_chunk(tmp_path,
                                                                     monkeypatch):
    """heisenberg(3)'s F at 5^6: 93,750 tokens of a few distinct strings."""
    field = builtin_scenario("heisenberg(3)").build(5)["f"]
    path = tmp_path / "f.pfld"
    write_field(field, path)
    body = path.read_text().split("\n", 6)[6].split()
    distinct = len(set(body))
    # conversions: the body after the header, each chunk, the decoder's
    # flush and the final space
    steps = -(-path.stat().st_size // fieldio._READ_CHUNK) + 3
    calls = _count_float_calls(monkeypatch)
    assert read_field(path).values.tobytes() == field.values.tobytes()
    assert len(calls) <= steps * distinct + 12  # 12 header reals
    assert len(body) > 100 * (steps * distinct + 12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.text(alphabet="ab =\n\t\v\f\x1c\x1d\x1e\x1f", max_size=40))
def test_header_split_matches_splitlines(text):
    lines = text.splitlines()
    if len(lines) < 6:
        with pytest.raises(FieldFormatError, match="too short"):
            _split_header(text)
        return
    header, body = _split_header(text)
    assert header == lines[:6]
    assert body.split() == " ".join(lines[6:]).split()


# --------------------------------------------------------------------------
# Malformed files: always FieldFormatError, always exit 4
# --------------------------------------------------------------------------

def _valid_vector_bytes(tmp_path) -> bytes:
    d = build_domain(2, [0.1, 0], [1, 1], [6, 5])
    path = tmp_path / "valid.pfld"
    write_field(sample_vector(d, [lambda x, y: x * y - 0.5, lambda x, y: -y]), path)
    return path.read_bytes()


def test_empty_kind_line_exits_4(tmp_path):
    d = build_domain(2, [0, 0], [1, 1], [5, 5])
    u, f = tmp_path / "u.pfld", tmp_path / "f.pfld"
    write_field(sample(d, lambda x, y: x * y), u)
    write_field(sample_vector(d, [lambda x, y: -y, lambda x, y: x]), f)
    for kind_line in ("", "   "):
        lines = u.read_text().splitlines()
        lines[5] = kind_line
        u.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_field(u)
        code = main(["check-integrability", "--u", str(u), "--f", str(f),
                     "--out", str(tmp_path / "out")])
        assert code == 4


@pytest.mark.parametrize("kind, bad_line", [
    ("scalar", "kind=scalar c=7 junk"),
    ("scalar", "kind=scalar junk"),
    ("skew", "kind=skew c=2"),
    ("alt3", "kind=alt3 junk"),
    ("vector", "kind=vector c=3 junk"),
])
def test_kind_line_must_be_exact(tmp_path, capsys, kind, bad_line):
    """Any token beyond `kind=<tag>`, or beyond `kind=vector c=<m>`, makes the
    header malformed: `read_field` raises and the CLI exits 4."""
    d = build_domain(3, [0, 0, 0], [1, 1, 1], [5, 5, 5])
    rng = np.random.default_rng(5)
    fields = {"scalar": ScalarField(d, rng.standard_normal(d.counts)),
              "vector": VectorField(d, rng.standard_normal((3,) + d.counts)),
              "skew": SkewField(d, rng.standard_normal((3,) + d.counts)),
              "alt3": Alternating3Field(d, rng.standard_normal((1,) + d.counts))}
    u, f = tmp_path / "u.pfld", tmp_path / "f.pfld"
    write_field(fields["scalar"], u)
    write_field(fields["vector"], f)
    bad = f if kind == "vector" else u
    write_field(fields[kind], bad)
    lines = bad.read_text().splitlines()
    assert bad_line.startswith(lines[5] + " ")  # the written line plus tokens
    lines[5] = bad_line
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="malformed header"):
        read_field(bad)
    capsys.readouterr()
    code = main(["evaluate", "--u", str(u), "--f", str(f), "--out", str(tmp_path / "out")])
    assert code == 4
    assert "malformed header" in capsys.readouterr().out


def test_infinite_bound_exits_4(tmp_path):
    d = build_domain(2, [0, 0], [1, 1], [5, 5])
    f = tmp_path / "f.pfld"
    write_field(sample_vector(d, [lambda x, y: -y, lambda x, y: x]), f)
    lines = f.read_text().splitlines()
    assert lines[3].startswith("lower=")
    lines[3] = "lower=-inf 0"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="non-finite"):
        read_field(f)
    code = main(["rank-analysis", "--f", str(f), "--out", str(tmp_path / "out")])
    assert code == 4


_FUZZ_ALPHABET = "0123456789.-+eE_=xnaifkscvtlr \t\n"


@st.composite
def _corruptions(draw, size):
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            start = draw(st.integers(0, 80))  # mostly the header
        else:
            start = draw(st.integers(0, size))
        end = draw(st.integers(start, min(size, start + draw(st.sampled_from([0, 1, 4, 40])))))
        if draw(st.integers(0, 9)) == 0:
            new = draw(st.binary(max_size=2))
        else:
            new = draw(st.text(alphabet=_FUZZ_ALPHABET, max_size=4)).encode("ascii")
        edits.append((start, end, new))
    truncate = draw(st.none() | st.integers(0, size))
    return edits, truncate


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_files_fail_as_field_format_errors(tmp_path, data):
    """A corrupted file either still reads or raises `FieldFormatError`,
    which the CLI reports with exit 4; any other exception fails the test."""
    valid = _valid_vector_bytes(tmp_path)
    edits, truncate = data.draw(_corruptions(len(valid)))
    content = valid
    for start, end, new in edits:
        content = content[:start] + new + content[end:]
    if truncate is not None:
        content = content[:truncate]
    path = tmp_path / "bad.pfld"
    path.write_bytes(content)
    try:
        read_field(path)
    except FieldFormatError:
        code = main(["rank-analysis", "--f", str(path), "--out", str(tmp_path / "out")])
        assert code == 4


# --------------------------------------------------------------------------
# Streamed reads: the chunk size never shows
# --------------------------------------------------------------------------

_HEADER = ("PFLD 1", "m=2", "counts=5 5", "lower=0 0", "upper=1 1", "kind=scalar")
# every line break the header may use, and every separator of body tokens
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
_SEPARATORS = [" ", "\t", "\n", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"]
_ODD_TOKENS = ["1_0", "+1e3", "-0", ".5", "5.", "zap", "1e", "nan", "-inf", "1__0"]


@st.composite
def _pfld_texts(draw):
    """A scalar 5x5 file whose body has 23 to 27 tokens, mostly finite
    decimals, each followed by one or more separators (none after the
    last one, sometimes); returns the text and the tokens."""
    text = "".join(line + draw(st.sampled_from(_LINE_BREAKS)) for line in _HEADER)
    finite = st.floats(allow_nan=False, allow_infinity=False).map(format_real)
    token = st.one_of(finite, finite, finite, st.sampled_from(_ODD_TOKENS))
    separator = st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=3).map("".join)
    tokens = draw(st.lists(token, min_size=23, max_size=27))
    for tok in tokens:
        text += tok + draw(separator)
    if draw(st.booleans()):
        text = text.rstrip("".join(_SEPARATORS))
    return text, tokens


def _expected_outcome(tokens):
    """What reading the tokens of a 25-value body gives: a count error
    first, then the first token that is not a finite decimal."""
    if len(tokens) != 25:
        return f"count mismatch: expected 25 values, found {len(tokens)}"
    for tok in tokens:
        try:
            if not math.isfinite(float(tok)):
                return f"non-finite token {tok!r}"
        except ValueError:
            return f"bad numeric token {tok!r}"
    return np.array([float(tok) for tok in tokens]).tobytes()


def _read_outcome(path):
    """The values' bytes a read returns, or the message of its error."""
    try:
        return read_field(path).values.tobytes()
    except FieldFormatError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_pfld_texts())
def test_chunk_size_does_not_change_a_read(tmp_path, monkeypatch, drawn):
    """Tokens and line breaks cut by chunk edges (a '\\r\\n' included) read as
    in one chunk: the same values, or the same first error."""
    text, tokens = drawn
    path = tmp_path / "t.pfld"
    path.write_bytes(text.encode("ascii"))
    assert _read_outcome(path) == _expected_outcome(tokens)
    for chunk in (1, 2, 7, 64):
        with monkeypatch.context() as patch:
            patch.setattr(fieldio, "_READ_CHUNK", chunk)
            assert _read_outcome(path) == _expected_outcome(tokens)


def test_a_count_the_file_cannot_hold_allocates_nothing(tmp_path, capsys):
    path = tmp_path / "hostile.pfld"
    path.write_text("PFLD 1\nm=2\ncounts=1000000 1000000\nlower=0 0\nupper=1 1\n"
                    "kind=scalar\n1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(FieldFormatError,
                           match="count mismatch: expected 1000000000000 values, found 3"):
            read_field(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["rank-analysis", "--f", str(path), "--out", str(tmp_path / "out")]) == 4
    assert "count mismatch" in capsys.readouterr().out


def test_a_byte_that_is_not_ascii_is_reported_first(tmp_path, monkeypatch):
    """Before a malformed header, a wrong count or a bad token, at any chunk
    size, as when the whole file was decoded first."""
    path = tmp_path / "bad.pfld"
    path.write_bytes(b"PFLD 1\nm=2\ncounts=5 5\nlower=0 0\nupper=1 1\nkind=bogus\n"
                     b"1 2 zap\n\xff\n")
    for chunk in (1, 7, fieldio._READ_CHUNK):
        with monkeypatch.context() as patch:
            patch.setattr(fieldio, "_READ_CHUNK", chunk)
            with pytest.raises(FieldFormatError,
                               match="not an ASCII file: byte 0xff at offset 61"):
                read_field(path)


def test_a_pipe_of_unknown_size_is_read(tmp_path, monkeypatch):
    """A file whose size the reader cannot know grows the values as they
    arrive."""
    d = build_domain(2, [0, 0], [1, 1], [9, 7])
    field = sample_vector(d, [lambda x, y: np.sin(3 * x) + y, lambda x, y: x * y - 1])
    source = tmp_path / "f.pfld"
    write_field(field, source)
    pipe = tmp_path / "f.fifo"
    os.mkfifo(pipe)
    monkeypatch.setattr(fieldio, "_READ_CHUNK", 64)
    writer = threading.Thread(target=pipe.write_bytes, args=(source.read_bytes(),),
                              daemon=True)
    writer.start()
    back = read_field(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.values.tobytes() == field.values.tobytes()
