"""The per-axis stencils against pinned digests and an independent formula.

`tests/data/stencil_golden_sha256.json` holds the SHA-256 of
`axis_derivative` and `axis_derivative_adjoint` on seeded inputs, along
every axis, at the grids whose artifacts the benchmark and the other
goldens pin. `stencil_digests` recomputes it:

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \\
        import test_stencils as t; print(json.dumps(t.stencil_digests(), indent=1))"

The reference tests check every axis of m = 2..6 at n = 5, 9 and 17
against a slice-based three-point formula; the n = 17 middle axes are
where the batched product's last bits differ from other product shapes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from parea.grids import (
    MAX_DIMENSION,
    MIN_DIMENSION,
    VectorField,
    axis_derivative,
    axis_derivative_adjoint,
    build_domain,
    gradient_values,
)
from parea.horizontal import _normal_derivatives, curl_matrix

_GOLDEN = Path(__file__).parent / "data" / "stencil_golden_sha256.json"
# (n, m): 33^2 and 65^2 (solve), 257^2 (planar), 7^6 (highdim), and the
# resolutions of the rank, audit and minimize goldens
_GOLDEN_GRIDS = ((33, 2), (65, 2), (257, 2), (9, 3), (7, 4), (5, 6), (7, 6))


def _domain(counts):
    """A box whose spacing differs on every axis."""
    m = len(counts)
    return build_domain(m, [-1.0 - 0.5 * k for k in range(m)],
                        [1.0 + 0.25 * k for k in range(m)], counts)


def _values(counts, seed):
    return np.random.default_rng(seed).standard_normal(counts)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def stencil_digests() -> dict:
    """SHA-256 of the stencil and its adjoint along every axis of each
    `_GOLDEN_GRIDS` grid, on standard normal values seeded by the grid."""
    out = {}
    for n, m in _GOLDEN_GRIDS:
        domain = _domain((n,) * m)
        values = _values(domain.counts, 100 * m + n)
        for axis in range(m):
            key = f"{n}^{m}/axis{axis}"
            out[f"{key}/derivative"] = _digest(axis_derivative(domain, values, axis))
            out[f"{key}/adjoint"] = _digest(axis_derivative_adjoint(domain, values, axis))
    return out


def test_stencil_golden_digests():
    assert stencil_digests() == json.loads(_GOLDEN.read_text())


def test_out_buffer_keeps_the_golden_bits():
    golden = json.loads(_GOLDEN.read_text())
    for n, m in ((257, 2), (7, 4), (7, 6)):
        domain = _domain((n,) * m)
        values = _values(domain.counts, 100 * m + n)
        out = np.empty(domain.counts)
        for axis in range(m):
            axis_derivative(domain, values, axis, out=out)
            assert _digest(out) == golden[f"{n}^{m}/axis{axis}/derivative"]


# --------------------------------------------------------------------------
# Reference formula, adjoint, layout
# --------------------------------------------------------------------------

_NS = (5, 9, 17)
_DIMS = range(MIN_DIMENSION, MAX_DIMENSION + 1)
# 17^6 is 24M nodes: above this many, an axis is tested on a grid that is n
# long on that axis and 7 long on the others
_CUBE_CAP = 2_000_000


def _axis_counts(m, n, axis):
    if n ** m <= _CUBE_CAP:
        return (n,) * m
    return tuple(n if k == axis else 7 for k in range(m))


def _three_point(domain, values, axis):
    """The stencil by slices, and each node's sum of |coefficient * value|."""
    c = 0.5 / domain.spacing[axis]
    v = np.moveaxis(values, axis, 0)
    terms = np.zeros((3,) + v.shape)  # the three products of each row
    terms[0, 1:-1], terms[1, 1:-1] = c * v[2:], -c * v[:-2]
    terms[:, 0] = (-3.0 * c) * v[0], (4.0 * c) * v[1], -c * v[2]
    terms[:, -1] = (3.0 * c) * v[-1], (-4.0 * c) * v[-2], c * v[-3]
    ref = terms[0] + terms[1] + terms[2]
    bound = np.abs(terms).sum(axis=0)
    return np.moveaxis(ref, 0, axis), np.moveaxis(bound, 0, axis)


@pytest.mark.parametrize("m", _DIMS)
@pytest.mark.parametrize("n", _NS)
def test_stencil_matches_the_three_point_formula(m, n):
    ulp = np.finfo(float).eps
    for axis in range(m):
        domain = _domain(_axis_counts(m, n, axis))
        values = _values(domain.counts, 10 * m + n)
        got = axis_derivative(domain, values, axis)
        ref, bound = _three_point(domain, values, axis)
        assert got.shape == domain.counts
        assert np.all(np.abs(got - ref) <= 4 * ulp * bound), (m, n, axis)


@pytest.mark.parametrize("m", _DIMS)
@pytest.mark.parametrize("n", _NS)
def test_adjoint_is_the_transpose(m, n):
    for axis in range(m):
        domain = _domain(_axis_counts(m, n, axis))
        x = _values(domain.counts, 10 * m + n)
        y = _values(domain.counts, 10 * m + n + 1)
        dx = axis_derivative(domain, x, axis)
        dty = axis_derivative_adjoint(domain, y, axis)
        scale = np.abs(dx).ravel() @ np.abs(y).ravel() + np.abs(x).ravel() @ np.abs(dty).ravel()
        assert abs(np.vdot(dx, y) - np.vdot(x, dty)) <= 1e-13 * scale, (m, n, axis)


@pytest.mark.parametrize("m", _DIMS)
@pytest.mark.parametrize("n", _NS)
def test_stencils_return_c_contiguous_arrays(m, n):
    for axis in range(m):
        domain = _domain(_axis_counts(m, n, axis))
        values = _values(domain.counts, 10 * m + n)
        plain = axis_derivative(domain, values, axis)
        out = np.empty(domain.counts)
        into = axis_derivative(domain, values, axis, out=out)
        adjoint = axis_derivative_adjoint(domain, values, axis)
        for arr in (plain, into, adjoint):
            assert arr.flags.c_contiguous and arr.shape == domain.counts
        assert np.shares_memory(into, out) and np.array_equal(plain, out)


# --------------------------------------------------------------------------
# Derivatives written into their slots
# --------------------------------------------------------------------------

# the curl and the normal's derivatives hold up to m^2 node arrays, so the
# grids above this many nodes keep n on the middle axes 1 and m - 2 only
_SLOT_CAP = 120_000


def _slot_counts(m, n):
    if n ** m <= _SLOT_CAP:
        return (n,) * m
    return tuple(n if k in (1, m - 2) else 5 for k in range(m))


@pytest.mark.parametrize("m", _DIMS)
@pytest.mark.parametrize("n", _NS)
def test_curl_and_normal_derivatives_keep_their_bits(m, n):
    domain = _domain(_slot_counts(m, n))
    f = VectorField(domain, _values((m,) + domain.counts, 10 * m + n))
    old_curl = np.stack([axis_derivative(domain, f.values[j], i)
                         - axis_derivative(domain, f.values[i], j)
                         for i in range(m) for j in range(i + 1, m)])
    curl = curl_matrix(f).values
    assert np.array_equal(curl, old_curl)
    nu = f.values / np.sqrt(np.sum(f.values ** 2, axis=0))
    dnu, _, _ = _normal_derivatives(domain, nu, curl)
    old_dnu = np.empty((m,) + nu.shape)
    for j, component in enumerate(nu):
        old_dnu[:, j] = gradient_values(domain, component)
    assert np.array_equal(dnu, old_dnu)
