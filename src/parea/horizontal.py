"""Pointwise geometry of the weighted gradient direction.

For a scalar field w and a vector field F, the weight is D = |grad(w) + F|
and the horizontal normal is the unit field nu = (grad(w) + F) / D, defined
off the singular set where D (nearly) vanishes; `_horizontal` computes both,
D as `grids.pointwise_norm`. The curl matrix h_ij = d_i F_j - d_j F_i and
the tangential operator delta_k = d_k - nu_k nu_j d_j tie the two together
through a structure identity whose discrete residual is computed here.

Masked nodes always carry zeros rather than non-finite values; consumers
must honour the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    GridDomain,
    ScalarField,
    SkewField,
    VectorField,
    axis_derivative,
    gradient_values,
    index_positions,
    pair_indices,
    pointwise_norm,
    require_same_domain,
)

DEFAULT_SINGULAR_TOL = 1e-6


def _horizontal(w: ScalarField, f: VectorField
                ) -> tuple[GridDomain, np.ndarray, np.ndarray]:
    """The shared kernel: grad(w) + F, shape (m, *counts), built in place, and
    the weight D, its `grids.pointwise_norm`: every weight is computed here."""
    domain = require_same_domain(w, f)
    hat = gradient_values(domain, w.values)
    del w  # w is not read again: a temporary handed over is freed here
    hat += f.values
    return domain, hat, pointwise_norm(hat)


def weight(w: ScalarField, f: VectorField) -> ScalarField:
    """Pointwise Euclidean norm of grad(w) + F (nonnegative)."""
    domain, _, d = _horizontal(w, f)
    return ScalarField._adopt(domain, d)


def _singular_flags(d: np.ndarray, tau: float) -> np.ndarray:
    """Nodes where D < tau * field_scale(D), i.e. tau * max(1, max D) since D >= 0."""
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    return d < tau * max(1.0, float(d.max()))


def horizontal_normal(w: ScalarField, f: VectorField,
                      tau: float = DEFAULT_SINGULAR_TOL
                      ) -> tuple[VectorField, np.ndarray, ScalarField]:
    """Unit field (grad(w) + F)/|grad(w) + F|, divided in place and zero on the
    singular mask D < tau * field_scale(D), and the weight D, all from one
    `_horizontal` call. The mask is a read-only bool array of shape `counts`."""
    domain, hat, d = _horizontal(w, f)
    mask = _singular_flags(d, tau)
    mask.setflags(write=False)
    np.divide(hat, d, out=hat, where=~mask)
    hat[:, mask] = 0.0
    return VectorField._adopt(domain, hat), mask, ScalarField._adopt(domain, d)


def curl_matrix(f: VectorField) -> SkewField:
    """Skew matrix field with entries d_i F_j - d_j F_i."""
    domain = f.domain
    pairs = pair_indices(domain.m)
    entries = np.empty((len(pairs),) + domain.counts)
    for p, (i, j) in enumerate(pairs):
        entries[p] = (axis_derivative(domain, f.values[j], i)
                      - axis_derivative(domain, f.values[i], j))
    return SkewField._adopt(domain, entries)


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
    nu, mask, d = horizontal_normal(u, f, tau)
    return _curl_identity_residual(nu.domain, nu.values, d.values,
                                   curl_matrix(f).values, mask)


@dataclass(frozen=True)
class SingularStats:
    """Flagged fraction plus the largest fully-flagged discrete ball radius."""
    fraction: float
    ball_radius: int


def singular_stats(mask: np.ndarray) -> SingularStats:
    """Fraction of flagged nodes and the largest radius r such that some full
    Chebyshev ball of radius r (entirely inside the grid) is all flagged.

    A box of side 2r + 1 is r repeated 3-point erosions, nodes outside the
    grid counted as unflagged, so the search erodes once per radius until
    nothing is left."""
    radius = 0
    eroded = mask.copy()
    for r in range(1, min((n - 1) // 2 for n in mask.shape) + 1):
        for axis in range(eroded.ndim):
            a = np.moveaxis(eroded, axis, 0)  # a view: the AND writes into eroded
            a[1:-1] &= a[:-2] & a[2:]
            a[0] = a[-1] = False
        if not eroded.any():
            break
        radius = r
    return SingularStats(fraction=float(mask.mean()), ball_radius=radius)
