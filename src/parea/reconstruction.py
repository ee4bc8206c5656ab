"""Recovering a potential from a prescribed unit normal and weight.

Given (nu, D, F) the candidate gradient is U = D*nu - F. When its discrete
curl vanishes (within tolerance), a potential u with grad(u) = U is built by
trapezoidal line integration along the axis-ordered staircase path from a
base node; integrating again with the axis order reversed gives a
path-independence audit. A least-squares mode is available for noisy inputs:
it runs LSQR (Paige & Saunders, ACM TOMS 8, 1982) on the stacked gradient
operator plus one gauge row that pins u at the base node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    GridDomain,
    ScalarField,
    SkewField,
    VectorField,
    derivative_matrix,
    field_scale,
    require_same_domain,
)
from .horizontal import DEFAULT_SINGULAR_TOL, curl_matrix, horizontal_normal
from .integrability import _check_triple

DEFAULT_CLOSEDNESS_TOL = 1e-3


class NotClosedError(Exception):
    """The candidate gradient has a curl above tolerance; no potential exists."""

    def __init__(self, max_abs: float, pair: tuple[int, int],
                 node: tuple[int, ...], bound: float):
        self.max_abs = max_abs
        self.pair = pair
        self.node = node
        self.bound = bound
        super().__init__(
            f"curl entry ({pair[0] + 1},{pair[1] + 1}) = {max_abs:.6g} at node "
            f"{node} exceeds closedness bound {bound:.6g}")


def candidate_gradient(nu: VectorField, d: ScalarField,
                       f: VectorField) -> VectorField:
    """U = D*nu - F, the field that must be a gradient for nu to be the
    horizontal normal of some potential with weight D."""
    domain = _check_triple(nu, d, f)
    return VectorField(domain, d.values * nu.values - f.values)


def closedness_residual(u: VectorField) -> SkewField:
    """Discrete curl of the candidate gradient."""
    return curl_matrix(u)


@dataclass(frozen=True)
class PotentialResult:
    """Recovered potential plus the audits that qualified it.

    `path_discrepancy` is the max difference against re-integration with the
    reversed axis order (staircase mode) or the max residual |grad(u) - U|
    (least-squares mode).
    """

    field: ScalarField
    closedness_max: float
    path_discrepancy: float
    method: str


def _anchored_cumtrapz(values: np.ndarray, axis: int, h: float,
                       base_index: int) -> np.ndarray:
    """Cumulative trapezoid along `axis`, shifted to vanish at base_index."""
    a = np.moveaxis(values, axis, 0)
    inc = 0.5 * h * (a[1:] + a[:-1])
    ct = np.concatenate([np.zeros((1,) + a.shape[1:]), np.cumsum(inc, axis=0)])
    ct = ct - ct[base_index]
    return np.moveaxis(ct, 0, axis)


def _staircase(domain: GridDomain, u_values: np.ndarray,
               base: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    m = domain.m
    out = np.zeros(domain.counts)
    for pos, axis in enumerate(order):
        anchored = _anchored_cumtrapz(u_values[axis], axis,
                                      domain.spacing[axis], base[axis])
        free = set(order[:pos + 1])
        index = tuple(slice(None) if k in free else base[k] for k in range(m))
        contrib = anchored[index]
        shape = tuple(domain.counts[k] if k in free else 1 for k in range(m))
        out += contrib.reshape(shape)
    return out


def _gradient_operator(domain: GridDomain):
    """The stacked gradient on `domain` as a scipy CSR matrix, one block of
    rows per axis."""
    from scipy import sparse

    m = domain.m
    blocks = []
    for axis in range(m):
        mats = []
        for k in range(m):
            if k == axis:
                mats.append(sparse.csr_matrix(derivative_matrix(domain, axis)))
            else:
                mats.append(sparse.identity(domain.counts[k], format="csr"))
        op = mats[0]
        for mat in mats[1:]:
            op = sparse.kron(op, mat, format="csr")
        blocks.append(op)
    return sparse.vstack(blocks, format="csr")


def _sym_ortho(a, b):
    """Stable Givens rotation (c, s, r) with [c s; -s c] [a; b] = [r; 0]."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    elif a == 0:
        return 0, np.sign(b), abs(b)
    elif abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / math.sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / math.sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsqr(system, transpose, b: np.ndarray, atol: float, btol: float,
          iter_lim: int) -> tuple[np.ndarray, int, int]:
    """min ||system @ x - b|| by LSQR (Paige & Saunders, ACM TOMS 8, 1982);
    returns (x, istop, itn).

    A transcription of scipy's BSD-licensed `scipy.sparse.linalg.lsqr` for
    damp=0, x0=None, conlim=1e8, without calc_var or show: the same scalar
    recurrences, the same stopping tests in the same order and the same
    `np.linalg.norm` calls, so the same bits, istop and itn. With damp=0,
    scipy's dampsq, psi and res2 terms are exact zeros and are left out. The
    vectors are updated in place; `transpose` is system.T, for the adjoint
    products.
    """
    n = system.shape[1]
    eps = np.finfo(np.float64).eps
    ctol = 1 / 1e8  # 1/conlim
    itn = istop = anorm = ddnorm = xxnorm = z = sn2 = 0
    cs2 = -1

    # the first vectors of the bidiagonalization: beta*u = b, alfa*v = A'u
    bnorm = np.linalg.norm(b)
    beta = bnorm.copy()
    x = np.zeros(n)
    if beta > 0:
        u = (1 / beta) * b
        v = transpose @ u
        alfa = np.linalg.norm(v)
    else:  # b = 0 (or NaN)
        u, v, alfa = b.copy(), x.copy(), 0
    if alfa > 0:
        np.multiply(v, 1 / alfa, out=v)
    w = v.copy()
    dk = np.empty(n)
    rhobar, phibar = alfa, beta
    if alfa * beta == 0:  # b = 0 or A'b = 0: x = 0 is the solution
        return x, istop, itn

    while itn < iter_lim:
        itn = itn + 1
        # the next step of the bidiagonalization:
        # beta*u = A v - alfa*u, alfa*v = A'u - beta*v
        np.multiply(u, alfa, out=u)
        np.subtract(system @ v, u, out=u)
        beta = np.linalg.norm(u)
        if beta > 0:
            np.multiply(u, 1 / beta, out=u)
            anorm = math.sqrt(anorm**2 + alfa**2 + beta**2)
            np.multiply(v, beta, out=v)
            np.subtract(transpose @ u, v, out=v)
            alfa = np.linalg.norm(v)
            if alfa > 0:
                np.multiply(v, 1 / alfa, out=v)

        # a plane rotation turns the lower-bidiagonal matrix upper-bidiagonal
        cs, sn, rho = _sym_ortho(rhobar, beta)
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi

        # update x and w; dk then serves as scratch for t1*w
        t1 = phi / rho
        t2 = -theta / rho
        np.multiply(w, 1 / rho, out=dk)
        ddnorm = ddnorm + np.linalg.norm(dk)**2
        np.multiply(w, t1, out=dk)
        np.add(x, dk, out=x)
        np.multiply(w, t2, out=w)
        np.add(v, w, out=w)

        # a plane rotation on the right removes theta and estimates norm(x)
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = math.sqrt(xxnorm + zbar**2)
        gamma = math.sqrt(gambar**2 + theta**2)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2

        # the convergence tests, from the estimated cond(A), ||r|| and ||A'r||
        acond = anorm * math.sqrt(ddnorm)
        rnorm = math.sqrt(phibar**2)
        arnorm = alfa * abs(tau)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + eps)
        test3 = 1 / (acond + eps)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm
        # machine-precision versions first, so that atol, btol or ctol of 0
        # act as eps, eps and 1/eps
        if itn >= iter_lim:
            istop = 7
        if 1 + test3 <= 1:
            istop = 6
        if 1 + test2 <= 1:
            istop = 5
        if 1 + t1 <= 1:
            istop = 4
        if test3 <= ctol:
            istop = 3
        if test2 <= atol:
            istop = 2
        if test1 <= rtol:
            istop = 1
        if istop != 0:
            break
    return x, istop, itn


def integration_base(domain: GridDomain, base: tuple[int, ...] | None,
                     tol: float, method: str) -> tuple[int, ...]:
    """Check `integrate_potential`'s base, tol and method on `domain` and
    return the base node (default: the lowest-index corner); raises
    ValueError on any of them, so a caller can validate before it writes."""
    base = (0,) * domain.m if base is None else tuple(int(b) for b in base)
    if len(base) != domain.m or any(
            not 0 <= b < n for b, n in zip(base, domain.counts)):
        raise ValueError(f"base {base} outside the grid")
    if method not in ("staircase", "least-squares"):
        raise ValueError(f"unknown method {method!r}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"closedness tol must be finite and nonnegative, got {tol}")
    return base


def integrate_potential(u: VectorField, base: tuple[int, ...] | None = None,
                        tol: float = DEFAULT_CLOSEDNESS_TOL,
                        method: str = "staircase") -> PotentialResult:
    """Invert a (numerically) closed discrete one-form into a potential.

    The potential vanishes at the base node (default: the lowest-index
    corner). Staircase integration walks axis 1 first, then axis 2, and so
    on; the closedness tolerance is deliberately looser than the
    integrability classification threshold because the path accumulates
    O(h^2) node errors over O(1/h) steps. `tol` must satisfy
    0 <= tol < inf; tol = 0 demands exact closedness.
    """
    domain = u.domain
    base = integration_base(domain, base, tol, method)
    residual = closedness_residual(u)
    scale = field_scale(u)
    bound = tol * scale
    abs_entries = np.abs(residual.entries)
    max_abs = float(abs_entries.max())
    if max_abs > bound:
        flat_pos = int(np.argmax(abs_entries))
        pair_pos, node_flat = divmod(flat_pos, domain.node_count)
        node = tuple(int(i) for i in np.unravel_index(node_flat, domain.counts))
        raise NotClosedError(max_abs=max_abs, pair=residual.indices[pair_pos],
                             node=node, bound=bound)

    if method == "staircase":
        forward = _staircase(domain, u.values, base, tuple(range(domain.m)))
        backward = _staircase(domain, u.values, base,
                              tuple(reversed(range(domain.m))))
        discrepancy = float(np.max(np.abs(forward - backward)))
        potential = forward
    else:
        # scipy is imported here, so no other command pays for loading it
        from scipy import sparse

        rhs = u.values.reshape(domain.m, -1).ravel()
        gauge = sparse.csr_matrix(
            (np.ones(1), ([0], [int(np.ravel_multi_index(base, domain.counts))])),
            shape=(1, domain.node_count))
        system = sparse.vstack([_gradient_operator(domain), gauge], format="csr")
        # the adjoint products go through an explicit CSR transpose: the same
        # sums in the same (ascending row) order as scipy's own transposed
        # product, so the same bits, but faster
        transpose = system.T.tocsr()
        target = np.concatenate([rhs, [0.0]])
        solution = _lsqr(system, transpose, target, atol=1e-14, btol=1e-14,
                         iter_lim=10 * domain.node_count)[0]
        potential = solution.reshape(domain.counts)
        potential = potential - potential[base]
        # the gradient is the system's rows above the gauge row, each summed
        # as the gradient operator's own row
        fit = (system @ potential.ravel())[:rhs.size].reshape(domain.m, *domain.counts)
        discrepancy = float(np.max(np.abs(fit - u.values)))

    return PotentialResult(field=ScalarField(domain, potential),
                           closedness_max=max_abs,
                           path_discrepancy=discrepancy, method=method)


@dataclass(frozen=True)
class NormalCheck:
    """How well a potential reproduces a prescribed normal and weight."""

    normal_max_error: float
    weight_max_error: float
    mask_fraction: float


def verify_normal(u: ScalarField, nu: VectorField, d: ScalarField,
                  f: VectorField, tau: float = DEFAULT_SINGULAR_TOL) -> NormalCheck:
    """Report max |(grad u + F)/|grad u + F| - nu| and the relative weight
    mismatch, both off the singular mask of (u, F). Mismatches are reported,
    never raised."""
    domain = require_same_domain(u, nu, d, f)
    computed_nu, mask, computed_d = horizontal_normal(u, f, tau)
    off = ~mask.flags
    diff = np.sqrt(np.sum((computed_nu.values - nu.values) ** 2, axis=0))
    normal_err = float(diff[off].max()) if off.any() else 0.0
    wdiff = np.abs(computed_d.values - d.values) / field_scale(d)
    weight_err = float(wdiff[off].max()) if off.any() else 0.0
    return NormalCheck(normal_max_error=normal_err,
                       weight_max_error=weight_err,
                       mask_fraction=mask.fraction)
