import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parea.cli import main
from parea.fieldio import (
    FieldFormatError,
    _format_columns,
    _split_header,
    format_real,
    read_field,
    write_csv,
    write_field,
)
from parea.grids import (
    Alternating3Field,
    ScalarField,
    SingularMask,
    SkewField,
    VectorField,
    build_domain,
    pair_indices,
    sample,
    sample_vector,
    triple_indices,
)
from parea.horizontal import curl_matrix, horizontal_normal, singular_set
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
    """A mask has a CSV form but no `.pfld` kind, so nothing is written."""
    mask = SingularMask(domain, np.ones(domain.counts, dtype=bool), 1e-6)
    path = tmp_path / "mask.pfld"
    with pytest.raises(TypeError, match="SingularMask"):
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
        return "kind=skew", field.entries
    return "kind=alt3", field.entries


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
        names = [f"h_{i + 1}_{j + 1}" for i, j in field.pairs]
    else:
        names = [f"t_{k + 1}_{i + 1}_{j + 1}" for k, i, j in field.triples]
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


def test_batched_formatting_matches_format_real():
    """One `%` template over a column's distinct values gives the strings of
    `format_real`, and of `format(x, ".17g")`, value by value."""
    edges = _SPECIAL_REALS + [-sys.float_info.min, 1e16, 1e17, -1e17, 1 / 3,
                              2.0 ** 53 + 2, 123456789.0, 1e-300, 1e300]
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 4000, dtype=np.uint64, endpoint=False)
    random = bits.view(np.float64)
    column = np.concatenate([edges, random[np.isfinite(random)]])
    strings, index = _format_columns([column, column[::-1]])
    for k, col in enumerate([column, column[::-1]]):
        got = strings[index[:, k]].tolist()
        assert got == [format_real(x) for x in col]
        assert got == [_reference_fmt(x) for x in col]


_GOLDEN = Path(__file__).parent / "data" / "fieldio_golden_sha256.json"
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
            extra["singular"] = singular_set(data["u"], f)
        nu = data["nu"] if "nu" in data else horizontal_normal(data["u"], f)[0]
        extra["frobenius"] = frobenius_tensor(nu, f)
        for key, fld in extra.items():
            if not isinstance(fld, SingularMask):
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
