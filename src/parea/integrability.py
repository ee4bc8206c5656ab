"""Frobenius-type integrability of the distribution annihilated by the
contact form built from (w, F), and the first-order compatibility system a
prescribed (nu, D, F) triple must satisfy to come from a potential.

The classifying object is the alternating 3-tensor
T_kij = nu_k h_ij + nu_i h_jk + nu_j h_ki (h the curl matrix of F); the
distribution is integrable at a node iff T vanishes there. The weight
prefactor of the underlying 3-form is deliberately dropped: classification
is by vanishing and the weight is positive off the singular set. For m = 2
the tensor is empty and every unmasked node is integrable.

Two residuals probe the compatibility system: `tangential_curl_residual`
(the antisymmetrized tangential derivative of nu against the curl matrix)
and `normal_contraction_residual` (the contraction of nu against the
exterior derivative of the weighted normal form, expanded so only first
derivatives are needed). `weight_equation_residual` is the same condition
rewritten as a first-order system in D; for unit nu the two agree up to
sign and a discrete product-rule term.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import IntEnum

import numpy as np

from .grids import (
    Alternating3Field,
    GridDomain,
    ScalarField,
    SkewField,
    VectorField,
    divergence,
    field_scale,
    gradient_values,
    index_positions,
    require_same_domain,
    triple_indices,
)
from .horizontal import (
    DEFAULT_SINGULAR_TOL,
    _curl_identity_residual,
    _normal_derivatives,
    curl_matrix,
    horizontal_normal,
)

DEFAULT_CLASSIFY_TOL = 1e-4


class IntegrabilityLabel(IntEnum):
    SINGULAR = 0
    INTEGRABLE = 1
    NONINTEGRABLE = 2


def _frobenius_blocks(v: np.ndarray, e: np.ndarray):
    """T on each increasing triple in turn, one node array at a time, from
    the normal's values v and the curl's upper-triangle entries e."""
    pos = index_positions(v.shape[0], 2)
    for k, i, j in triple_indices(v.shape[0]):
        block = v[k] * e[pos[i, j]]  # (a - b) + c, summed in place
        block -= v[i] * e[pos[k, j]]
        block += v[j] * e[pos[k, i]]
        yield block


def _node_max(blocks: Iterable[np.ndarray], counts: tuple[int, ...]) -> np.ndarray:
    """The per-node max |T|, one block at a time; zero for m = 2."""
    tmax = np.zeros(counts)
    for block in blocks:
        np.maximum(tmax, np.abs(block), out=tmax)
    return tmax


class FrobeniusTensor:
    """T_kij = nu_k h_ij + nu_i h_jk + nu_j h_ki on increasing triples, never
    formed whole: it keeps the normal's values and the curl's triangle entries,
    forms each block once for the per-node max |T| (`node_max`), and `blocks`
    forms them again one at a time, as `fieldio.write_field` writes them. With
    k < i < j the curl entries are read as h_ij - h_kj + h_ki; the sign is exact."""

    kind = Alternating3Field.kind

    def __init__(self, nu: VectorField, f: VectorField):
        self.domain = require_same_domain(nu, f)
        self._normal, self._curl = nu.values, curl_matrix(f).values
        self.node_max = _node_max(self.blocks, self.domain.counts)

    @property
    def blocks(self):
        return _frobenius_blocks(self._normal, self._curl)

    def max_abs(self) -> float:
        return float(self.node_max.max())


def frobenius_tensor(nu: VectorField, f: VectorField) -> FrobeniusTensor:
    """The streamed Frobenius tensor of nu against the curl of F; empty for m = 2."""
    return FrobeniusTensor(nu, f)


def integrability_labels(mask: np.ndarray, blocks: Iterable[np.ndarray],
                         eta: float) -> np.ndarray:
    """Per-node int8 labels from the singular mask and the Frobenius tensor's
    blocks, one node array per triple: off the mask a node is integrable iff
    its max |T| is below eta * field_scale(T). The max is taken one block at
    a time, so blocks streamed from `_frobenius_blocks` never form the whole
    tensor."""
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    tmax = _node_max(blocks, mask.shape)
    scale = field_scale(tmax)  # the max-norm of the tensor, read off tmax
    labels = np.full(mask.shape, IntegrabilityLabel.NONINTEGRABLE, dtype=np.int8)
    labels[tmax < eta * scale] = IntegrabilityLabel.INTEGRABLE
    labels[mask] = IntegrabilityLabel.SINGULAR
    return labels


def classify_integrability(w: ScalarField, f: VectorField,
                           tau: float = DEFAULT_SINGULAR_TOL,
                           eta: float = DEFAULT_CLASSIFY_TOL
                           ) -> tuple[np.ndarray, FrobeniusTensor]:
    """Label each node singular / integrable / nonintegrable: the int8 labels
    and the streamed Frobenius tensor whose per-node max they were read from.

    Off the mask a node is integrable iff the max tensor entry is below
    eta * field_scale(T). The threshold separates second-order discretization
    residuals of truly integrable data from order-one values at the shipped
    resolutions; it is resolution dependent.
    """
    if not (0 < tau < np.inf and 0 < eta < np.inf):  # before any tensor is formed
        raise ValueError("tau and eta must be positive and finite")
    nu, mask = horizontal_normal(w, f, tau)[:2]  # the weight is freed at once
    del w  # a field handed over is freed before the curl is formed
    tensor = frobenius_tensor(nu, f)
    # node_max, read as a one-block tensor, has the same per-node max: one rule
    return integrability_labels(mask, (tensor.node_max,), eta), tensor


def _check_triple(nu: VectorField, d: ScalarField, f: VectorField) -> GridDomain:
    domain = require_same_domain(nu, d, f)
    if not np.all(d.values > 0):
        raise ValueError("weight must be positive on the evaluation region")
    return domain


def tangential_curl_residual(nu: VectorField, d: ScalarField,
                             f: VectorField) -> SkewField:
    """Residual of
    delta_i nu_j - delta_j nu_i = (h_ij - nu_j nu_k h_ik - nu_i nu_k h_kj)/D
    for a prescribed triple (nu, D, F) with D > 0 and nu unit."""
    domain = _check_triple(nu, d, f)
    return _curl_identity_residual(domain, nu.values, d.values, curl_matrix(f).values,
                                   None)


def _triple_derivatives(nu: VectorField, d: ScalarField, f: VectorField):
    """For a checked triple, with its domain: grad(D), dnu[i, j] = d_i nu_j,
    the advection c_k = nu_j d_j nu_k, nu . grad(D) and the contraction
    s_k = nu_i h_ki of nu against the curl of F."""
    domain = _check_triple(nu, d, f)
    dd = gradient_values(domain, d.values)
    dnu, c, s = _normal_derivatives(domain, nu.values, curl_matrix(f).values)
    return domain, dd, dnu, c, np.einsum("i...,i...->...", nu.values, dd), s


def normal_contraction_residual(nu: VectorField, d: ScalarField,
                                f: VectorField) -> VectorField:
    """Componentwise residual of the contracted-closedness condition on the
    weighted normal form:
    res_k = nu_k nu_i d_i D - d_k D + nu_j (d_j nu_k - d_k nu_j) D - nu_i h_ik.
    """
    domain, dd, dnu, a, nu_dot_dd, s = _triple_derivatives(nu, d, f)
    v = nu.values
    # a[k] = nu_j (d_j nu_k - d_k nu_j), reduced in place from the advection;
    # dnu (m^2 node arrays) is freed before the result is formed
    a -= np.einsum("j...,kj...->k...", v, dnu)
    del dnu
    return VectorField(domain, v * nu_dot_dd - dd + a * d.values + s)


def weight_equation_residual(nu: VectorField, d: ScalarField,
                             f: VectorField) -> VectorField:
    """Residual of the first-order system in the weight:
    res_k = delta_k D - nu_j (d_j nu_k) D + nu_j h_jk."""
    domain, dd, _, advect, nu_dot_dd, s = _triple_derivatives(nu, d, f)
    # delta_k D = d_k D - nu_k nu . grad(D)
    return VectorField(domain, dd - nu.values * nu_dot_dd - advect * d.values - s)


def codazzi_residual_2d(nu: VectorField, d: ScalarField,
                        f: VectorField) -> ScalarField:
    """div(D * nu_perp) - h_12 with nu_perp = (nu_2, -nu_1) and h = curl(F).

    The planar reduction of the contracted-closedness condition: for
    D nu = grad(u) + F, D nu_perp = (u_y + F_2, -u_x - F_1), whose divergence
    is h_12 = d_1 F_2 - d_2 F_1 (2 for the rotation field F = (-y, x));
    only defined for m = 2.
    """
    domain = require_same_domain(nu, d, f)
    if domain.m != 2:
        raise ValueError("codazzi_residual_2d requires m = 2")
    perp = np.stack([nu.values[1], -nu.values[0]])
    flux = VectorField(domain, d.values * perp)
    return ScalarField(domain, divergence(flux).values - curl_matrix(f).entry(0, 1))


def renormalize_normal(nu: VectorField) -> VectorField:
    """Rescale nu to unit length pointwise.

    File round-off must not masquerade as nonintegrability, so fields read
    from disk are renormalized before use; a pointwise norm below 0.5 is an
    error (the data is not a unit field).
    """
    norms = np.sqrt(np.sum(nu.values ** 2, axis=0))
    if np.any(norms < 0.5):
        raise ValueError("normal field norm below 0.5; not a unit field")
    return VectorField(nu.domain, nu.values / norms)
