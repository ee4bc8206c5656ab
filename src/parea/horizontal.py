"""Pointwise geometry of the weighted gradient direction.

For a scalar field w and a vector field F, the weight is D = |grad(w) + F|
and the horizontal normal is the unit field nu = (grad(w) + F) / D, defined
off the singular set where D (nearly) vanishes. The curl matrix
h_ij = d_i F_j - d_j F_i and the tangential operator
delta_k = d_k - nu_k nu_j d_j tie the two together through a structure
identity whose discrete residual is computed here.

Masked nodes always carry zeros rather than non-finite values; consumers
must honour the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    GridDomain,
    ScalarField,
    SingularMask,
    SkewField,
    VectorField,
    axis_derivative,
    gradient,
    gradient_values,
    index_positions,
    integrate_values,
    pair_indices,
    require_same_domain,
)

DEFAULT_SINGULAR_TOL = 1e-6


def _horizontal(w: ScalarField, f: VectorField
                ) -> tuple[GridDomain, np.ndarray, np.ndarray]:
    """The shared kernel: grad(w) + F, shape (m, *counts), and its pointwise
    norm D."""
    domain = require_same_domain(w, f)
    hat = gradient_values(domain, w.values) + f.values
    return domain, hat, np.sqrt(np.sum(hat ** 2, axis=0))


def weight(w: ScalarField, f: VectorField) -> ScalarField:
    """Pointwise Euclidean norm of grad(w) + F (nonnegative)."""
    domain, _, d = _horizontal(w, f)
    return ScalarField(domain, d)


def _singular_flags(d: np.ndarray, tau: float) -> np.ndarray:
    """Nodes where D < tau * field_scale(D), i.e. tau * max(1, max D) since D >= 0."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return d < tau * max(1.0, float(d.max()))


def singular_set(w: ScalarField, f: VectorField,
                 tau: float = DEFAULT_SINGULAR_TOL) -> SingularMask:
    """Flag nodes where the weight drops below tau * field_scale(weight);
    the mask of `horizontal_normal`."""
    domain, _, d = _horizontal(w, f)
    return SingularMask(domain, _singular_flags(d, tau), tau)


def _normal_and_weight(w: ScalarField, f: VectorField,
                       tau: float = DEFAULT_SINGULAR_TOL
                       ) -> tuple[VectorField, SingularMask, np.ndarray]:
    """`horizontal_normal` and the weight D, from one `_horizontal` call."""
    domain, hat, d = _horizontal(w, f)
    flags = _singular_flags(d, tau)
    safe = np.where(flags, 1.0, d)
    nu = np.where(flags, 0.0, hat / safe)
    return VectorField(domain, nu), SingularMask(domain, flags, tau), d


def horizontal_normal(w: ScalarField, f: VectorField,
                      tau: float = DEFAULT_SINGULAR_TOL
                      ) -> tuple[VectorField, SingularMask]:
    """Unit field (grad(w) + F)/|grad(w) + F|; zero (and flagged) on the mask."""
    nu, mask, _ = _normal_and_weight(w, f, tau)
    return nu, mask


def curl_matrix(f: VectorField) -> SkewField:
    """Skew matrix field with entries d_i F_j - d_j F_i."""
    domain = f.domain
    pairs = pair_indices(domain.m)
    entries = np.empty((len(pairs),) + domain.counts)
    for p, (i, j) in enumerate(pairs):
        entries[p] = (axis_derivative(domain, f.values[j], i)
                      - axis_derivative(domain, f.values[i], j))
    return SkewField(domain, entries)


def tangential_derivative(nu: VectorField, f: ScalarField) -> VectorField:
    """Component k of grad(f) minus its projection onto nu: d_k f - nu_k nu.grad(f)."""
    domain = require_same_domain(nu, f)
    g = gradient(f)
    along = np.sum(nu.values * g.values, axis=0)
    return VectorField(domain, g.values - nu.values * along)


def _normal_derivatives(domain: GridDomain, nu: np.ndarray, curl_entries: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dnu[i, j] = d_i nu_j, shape (m, m, *counts); the advection
    c_j = nu_k d_k nu_j; and the contraction s_i = nu_k h_ik, read from the
    curl's upper-triangle entries (h_ik = -h_ki)."""
    dnu = np.empty((domain.m,) + nu.shape)
    for j, component in enumerate(nu):
        dnu[:, j] = gradient_values(domain, component)
    c = np.einsum("k...,kj...->j...", nu, dnu)
    # pairs come lexicographically, so each s_i sums its terms in increasing k
    s = np.zeros_like(nu)
    for (i, k), p in index_positions(domain.m, 2).items():
        s[i] += nu[k] * curl_entries[p]
        s[k] -= nu[i] * curl_entries[p]
    return dnu, c, s


def _curl_identity_residual(domain: GridDomain, nu: np.ndarray, d: np.ndarray,
                            h: np.ndarray, mask: np.ndarray | None) -> SkewField:
    """LHS - RHS of the identity
    delta_i nu_j - delta_j nu_i = (h_ij - nu_j nu_k h_ik - nu_i nu_k h_kj)/D,
    for the curl's upper-triangle entries h, zeroed on masked nodes."""
    dnu, c, s = _normal_derivatives(domain, nu, h)
    safe_d = np.where(mask, 1.0, d) if mask is not None else d
    out = np.empty_like(h)
    for p, (i, j) in enumerate(pair_indices(domain.m)):
        lhs = dnu[i, j] - dnu[j, i] - nu[i] * c[j] + nu[j] * c[i]
        rhs = (h[p] - nu[j] * s[i] + nu[i] * s[j]) / safe_d
        out[p] = lhs - rhs
    if mask is not None:
        out[:, mask] = 0.0
    return SkewField(domain, out)


def structure_identity_residual(u: ScalarField, f: VectorField,
                                tau: float = DEFAULT_SINGULAR_TOL) -> SkewField:
    """Discrete residual of the structure identity for the normal of u.

    Evaluated off the singular mask only; masked nodes carry 0. For smooth
    inputs with weight bounded below the max residual decays at second
    order under refinement.
    """
    nu, mask, d = _normal_and_weight(u, f, tau)
    return _curl_identity_residual(nu.domain, nu.values, d, curl_matrix(f).entries,
                                   mask.flags)


@dataclass(frozen=True)
class SingularStats:
    """Flagged fraction plus the largest fully-flagged discrete ball radius."""
    fraction: float
    ball_radius: int


def singular_stats(mask: SingularMask) -> SingularStats:
    """Fraction of flagged nodes and the largest radius r such that some full
    Chebyshev ball of radius r (entirely inside the grid) is all flagged.

    A box of side 2r + 1 is r repeated 3-point erosions, nodes outside the
    grid counted as unflagged, so the search erodes once per radius until
    nothing is left."""
    flags = mask.flags
    radius = 0
    eroded = flags.copy()
    for r in range(1, min((n - 1) // 2 for n in mask.domain.counts) + 1):
        for axis in range(eroded.ndim):
            a = np.moveaxis(eroded, axis, 0)  # a view: the AND writes into eroded
            a[1:-1] &= a[:-2] & a[2:]
            a[0] = a[-1] = False
        if not eroded.any():
            break
        radius = r
    return SingularStats(fraction=int(flags.sum()) / flags.size, ball_radius=radius)


@dataclass(frozen=True)
class ResidualNorms:
    """Max-norm and area-weighted L1 norm of a residual field's magnitude."""
    max: float
    l1: float


def _pointwise_magnitude(field) -> np.ndarray:
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        return np.sqrt(np.sum(field.values ** 2, axis=0))
    # alternating fields: the largest stored entry (zeros when there is none)
    return np.max(np.abs(field.entries), axis=0, initial=0.0)


def residual_norms(field, mask: SingularMask | None = None) -> ResidualNorms:
    """Report both the engineering max-norm and the integral L1 norm,
    restricted to unmasked nodes when a mask is given."""
    mag = _pointwise_magnitude(field)
    if mask is not None:
        mag = np.where(mask.flags, 0.0, mag)
    mx = float(mag.max()) if mag.size else 0.0
    l1 = integrate_values(field.domain, mag)
    return ResidualNorms(max=mx, l1=l1)
