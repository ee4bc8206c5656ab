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

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .grids import (
    Alternating3Field,
    GridDomain,
    ScalarField,
    SingularMask,
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


def _frobenius_entries(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """T on increasing triples, shape (ntriples, *counts), from the normal's
    values v and the curl's upper-triangle entries e."""
    m = v.shape[0]
    pos = index_positions(m, 2)
    triples = triple_indices(m)
    entries = np.empty((len(triples),) + v.shape[1:])
    for t, (k, i, j) in enumerate(triples):
        entries[t] = v[k] * e[pos[i, j]] - v[i] * e[pos[k, j]] + v[j] * e[pos[k, i]]
    return entries


def frobenius_tensor(nu: VectorField, f: VectorField) -> Alternating3Field:
    """T_kij = nu_k h_ij + nu_i h_jk + nu_j h_ki on increasing triples.

    For k < i < j the curl entries are read from the upper triangle as
    h_ij - h_kj + h_ki, and the sign is exact in floating point."""
    domain = require_same_domain(nu, f)
    # the curl is freed when the fill returns, before the field copies the entries
    return Alternating3Field(domain, _frobenius_entries(nu.values, curl_matrix(f).entries))


@dataclass(frozen=True)
class ClassificationField:
    """Per-node integrability labels with the thresholds that produced them,
    and the horizontal normal, singular mask and Frobenius tensor they were
    read from."""

    domain: GridDomain
    labels: np.ndarray
    tau: float
    eta: float
    normal: VectorField
    mask: SingularMask
    tensor: Alternating3Field

    def fraction(self, label: IntegrabilityLabel) -> float:
        return float(np.mean(self.labels == int(label)))


def classify_integrability(w: ScalarField, f: VectorField,
                           tau: float = DEFAULT_SINGULAR_TOL,
                           eta: float = DEFAULT_CLASSIFY_TOL) -> ClassificationField:
    """Label each node singular / integrable / nonintegrable.

    Off the mask a node is integrable iff the max tensor entry is below
    eta * field_scale(T). The threshold separates second-order discretization
    residuals of truly integrable data from order-one values at the shipped
    resolutions; it is resolution dependent.
    """
    labels, nu, mask, entries = _classify(w, f, curl_matrix(f).entries, tau, eta)
    # the curl is freed by now, before the field copies the tensor entries
    return ClassificationField(domain=nu.domain, labels=labels, tau=tau, eta=eta,
                               normal=nu, mask=mask,
                               tensor=Alternating3Field(nu.domain, entries))


def _classify(w: ScalarField, f: VectorField, curl_entries: np.ndarray, tau: float,
              eta: float) -> tuple[np.ndarray, VectorField, SingularMask, np.ndarray]:
    """The labels, normal, mask and Frobenius tensor entries of
    `classify_integrability`, from the curl entries of f, so that a caller
    holding the curl builds it once."""
    if not (tau > 0 and eta > 0):
        raise ValueError("tau and eta must be positive")
    nu, mask = horizontal_normal(w, f, tau)  # checks that w and f share a domain
    entries = _frobenius_entries(nu.values, curl_entries)
    tmax = np.max(np.abs(entries), axis=0, initial=0.0)  # zeros for m = 2
    scale = field_scale(tmax)  # the max-norm of the tensor, read off tmax
    labels = np.where(
        mask.flags,
        int(IntegrabilityLabel.SINGULAR),
        np.where(tmax < eta * scale,
                 int(IntegrabilityLabel.INTEGRABLE),
                 int(IntegrabilityLabel.NONINTEGRABLE)),
    ).astype(np.int8)
    return labels, nu, mask, entries


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
    return _curl_identity_residual(domain, nu.values, d.values, curl_matrix(f).entries,
                                   None)


def _triple_derivatives(nu: VectorField, d: ScalarField, f: VectorField):
    """For a checked triple, with its domain: grad(D), dnu[i, j] = d_i nu_j,
    the advection c_k = nu_j d_j nu_k, nu . grad(D) and the contraction
    s_k = nu_i h_ki of nu against the curl of F."""
    domain = _check_triple(nu, d, f)
    dd = gradient_values(domain, d.values)
    dnu, c, s = _normal_derivatives(domain, nu.values, curl_matrix(f).entries)
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


def codazzi_residual_2d(nu: VectorField, d: ScalarField) -> ScalarField:
    """div(D * nu_perp) - 2 with nu_perp = (nu_2, -nu_1).

    The planar reduction of the contracted-closedness condition for the
    standard rotation field F = (-y, x); only defined for m = 2.
    """
    domain = require_same_domain(nu, d)
    if domain.m != 2:
        raise ValueError("codazzi_residual_2d requires m = 2")
    perp = np.stack([nu.values[1], -nu.values[0]])
    flux = VectorField(domain, d.values * perp)
    return ScalarField(domain, divergence(flux).values - 2.0)


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
