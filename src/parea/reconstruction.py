"""Recovering a potential from a prescribed unit normal and weight.

Given (nu, D, F) the candidate gradient is U = D*nu - F. When its discrete
curl vanishes (within tolerance), a potential u with grad(u) = U is built by
trapezoidal line integration along the axis-ordered staircase path from a
base node; integrating again with the axis order reversed gives a
path-independence audit. A least-squares mode is available for noisy inputs:
it runs LSQR (Paige & Saunders, ACM TOMS 8, 1982) on the stacked gradient
operator plus one gauge row that pins u at the base node, both applied
without a matrix.
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
    pointwise_norm,
    require_same_domain,
)
from .horizontal import curl_matrix, horizontal_normal
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


def _strided(a: np.ndarray, offset: int, shape: tuple[int, ...],
             strides: tuple[int, ...]) -> np.ndarray:
    """A view of the contiguous float64 array `a` from entry `offset`, with
    strides in bytes."""
    return np.ndarray(shape, np.float64, a, 8 * offset, strides)


class _StackedGradient:
    """The least-squares system [G_0; ...; G_{m-1}; e_base^T] on `domain`,
    matrix-free: G_k applies `grids.derivative_matrix`'s stencil along axis
    k, and the gauge row reads u at the node `base`.

    `matvec` and `rmatvec` return the bits of scipy's CSR products of that
    stacked matrix. A CSR product starts each sum at +0.0 and adds
    data * x[col] in stored (ascending) order: a row of G_k adds its columns
    in ascending order, and a column of the transpose adds its rows in
    ascending stacked order, axis blocks in turn and the gauge row last.
    With q = c * x, an interior row is q[i+1] - q[i-1], because (-c) * x is
    -(c * x) exactly; a column adds row 0's term, then q[j-1], then subtracts
    q[j+1], then adds row n-1's term.

    The interior terms are whole-array operations on the flat arrays, where
    neighbours along an axis sit `step` entries apart (the product of the
    later counts). They also reach the boundary layers: the forward product
    then overwrites those rows, and the adjoint zeroes q on them. Adding a
    zero changes a sum at most in the sign of a zero; so does leaving out the
    leading +0.0, and a CSR sum is never -0.0, so one final `+= 0.0` gives
    the same bits. The boundary terms are computed in contiguous scratch and
    copied to and from their layers, because arithmetic on strided layers
    is slow where `step` is small. Each product writes into `out` and
    allocates no array of nodes.
    """

    def __init__(self, domain: GridDomain, base: tuple[int, ...]):
        nodes = domain.node_count
        self.shape = (domain.m * nodes + 1, nodes)
        self._base = int(np.ravel_multi_index(base, domain.counts))
        self._q = np.empty(nodes)
        self._axes = []
        for axis, n in enumerate(domain.counts):
            pre = math.prod(domain.counts[:axis])
            step = math.prod(domain.counts[axis + 1:])
            mat = derivative_matrix(domain, axis)
            qv = self._q.reshape(pre, n, step)
            # byte strides of (row 0, row n-1) and of (rows 0..2, rows
            # n-3..n-1) as arrays over (.., pre, step)
            rows = (8 * (n - 1) * step, 8 * n * step, 8)
            slabs = (8 * (n - 3) * step, 8 * step, 8 * n * step, 8)
            self._axes.append(dict(
                shape=(pre, n, step), c=mat[1, 2], rows=rows, slabs=slabs,
                # row 0's coefficients on columns 0..2, row n-1's on n-3..n-1
                coefs=np.stack([mat[0, :3], mat[-1, -3:]]).reshape(2, 3, 1, 1),
                q_rows=_strided(self._q, 0, (2, pre, step), rows),
                q_first=qv[:, 1:4].transpose(1, 0, 2), q_last=qv[:, -2],
                terms=np.empty((2, 3, pre, step)), pair=np.empty((2, pre, step)),
                layers=np.empty((3, pre, step))))

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = [G; e_base^T] x, for contiguous x and out."""
        nodes = self.shape[1]
        q, q_coef = self._q, None
        for axis, ax in enumerate(self._axes):
            step = ax["shape"][2]
            terms, pair = ax["terms"], ax["pair"]
            if ax["c"] != q_coef:  # c * x is the same flat array on every axis
                np.multiply(x, ax["c"], out=q)
                q_coef = ax["c"]
            block = out[axis * nodes:(axis + 1) * nodes]
            np.subtract(q[2 * step:], q[:-2 * step], out=block[step:-step])
            # rows 0 and n-1: three terms each, in column order
            terms[...] = _strided(x, 0, terms.shape, ax["slabs"])
            terms *= ax["coefs"]
            np.add(terms[:, 0], terms[:, 1], out=pair)
            pair += terms[:, 2]
            _strided(out, axis * nodes, pair.shape, ax["rows"])[...] = pair
        out[-1] = x[self._base]
        out += 0.0
        return out

    def rmatvec(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = [G; e_base^T]^T y, for contiguous y and out."""
        nodes = self.shape[1]
        q = self._q
        for axis, ax in enumerate(self._axes):
            pre, n, step = ax["shape"]
            terms, pair, layers = ax["terms"], ax["pair"], ax["layers"]
            ov = out.reshape(pre, n, step)
            first = ov[:, :3].transpose(1, 0, 2)
            last = ov[:, -3:].transpose(1, 0, 2)
            np.multiply(y[axis * nodes:(axis + 1) * nodes], ax["c"], out=q)
            ax["q_rows"][...] = 0.0
            # terms[0, j] is row 0's term on column j, terms[1, j] row n-1's
            # on column n-3+j
            pair[...] = _strided(y, axis * nodes, pair.shape, ax["rows"])
            np.multiply(ax["coefs"], pair[:, None], out=terms)
            if axis == 0:
                # the first block writes q[j-1] - q[j+1]; columns 0..2 are
                # rewritten from row 0's term on, and the last layer has no
                # q[j+1]
                np.subtract(q[:-2 * step], q[2 * step:], out=out[step:-step])
                layers[...] = ax["q_first"]
                terms[0, 2] += layers[0]
                terms[0] -= layers
                first[...] = terms[0]
                ov[:, -1] = ax["q_last"]
            else:
                layers[...] = first
                layers += terms[0]
                first[...] = layers
                out[step:] += q[:-step]
                out[:-step] -= q[step:]
            layers[...] = last
            layers += terms[1]
            last[...] = layers
        out[self._base] += y[-1]
        out += 0.0
        return out


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


def _lsqr(op, b: np.ndarray, atol: float, btol: float,
          iter_lim: int) -> tuple[np.ndarray, int, int]:
    """min ||A x - b|| by LSQR (Paige & Saunders, ACM TOMS 8, 1982), where
    `op.matvec(x, out)` and `op.rmatvec(y, out)` write A x and A^T y into
    `out` and return it, and `op.shape` is A's; returns (x, istop, itn).

    A transcription of scipy's BSD-licensed `scipy.sparse.linalg.lsqr` for
    damp=0, x0=None, conlim=1e8, without calc_var or show: the same scalar
    recurrences, the same stopping tests in the same order and the same
    `np.linalg.norm` calls, so the same bits, istop and itn. With damp=0,
    scipy's dampsq, psi and res2 terms are exact zeros and are left out. The
    vectors are updated in place, and the products go into two buffers.
    """
    n = op.shape[1]
    eps = np.finfo(np.float64).eps
    ctol = 1 / 1e8  # 1/conlim
    itn = istop = anorm = ddnorm = xxnorm = z = sn2 = 0
    cs2 = -1

    # the first vectors of the bidiagonalization: beta*u = b, alfa*v = A'u
    bnorm = np.linalg.norm(b)
    beta = bnorm.copy()
    x = np.zeros(n)
    av, atu = np.empty(op.shape[0]), np.empty(n)
    if beta > 0:
        u = (1 / beta) * b
        v = op.rmatvec(u, np.empty(n))
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
        np.subtract(op.matvec(v, av), u, out=u)
        beta = np.linalg.norm(u)
        if beta > 0:
            np.multiply(u, 1 / beta, out=u)
            anorm = math.sqrt(anorm**2 + alfa**2 + beta**2)
            np.multiply(v, beta, out=v)
            np.subtract(op.rmatvec(u, atu), v, out=v)
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
    bound = tol * field_scale(u)
    max_abs = residual.max_abs()  # no |residual| copy unless it is refused
    if max_abs > bound:
        flat_pos = int(np.argmax(np.abs(residual.values)))
        pair_pos, node_flat = divmod(flat_pos, domain.node_count)
        node = tuple(int(i) for i in np.unravel_index(node_flat, domain.counts))
        raise NotClosedError(max_abs=max_abs, pair=residual.indices[pair_pos],
                             node=node, bound=bound)
    del residual

    if method == "staircase":
        forward = _staircase(domain, u.values, base, tuple(range(domain.m)))
        backward = _staircase(domain, u.values, base,
                              tuple(reversed(range(domain.m))))
        discrepancy = float(np.max(np.abs(forward - backward)))
        potential = forward
    else:
        system = _StackedGradient(domain, base)
        target = np.concatenate([u.values.ravel(), [0.0]])
        solution = _lsqr(system, target, atol=1e-14, btol=1e-14,
                         iter_lim=10 * domain.node_count)[0]
        potential = solution.reshape(domain.counts)
        potential = potential - potential[base]
        # the gradient is the system's rows above the gauge row, each summed
        # as the least-squares fit sums it, into `target`, which LSQR copied
        fit = system.matvec(potential.ravel(), target)[:-1].reshape(u.values.shape)
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
                  f: VectorField) -> NormalCheck:
    """Report max |(grad u + F)/|grad u + F| - nu| and the relative weight
    mismatch, both off the singular mask of (u, F). Mismatches are reported,
    never raised."""
    domain = require_same_domain(u, nu, d, f)
    computed_nu, mask, computed_d = horizontal_normal(u, f)
    off = ~mask
    diff = computed_nu.values - nu.values
    del computed_nu  # freed before the difference's norm allocates
    diff = pointwise_norm(diff)
    normal_err = float(diff[off].max()) if off.any() else 0.0
    wdiff = np.abs(computed_d.values - d.values) / field_scale(d)
    weight_err = float(wdiff[off].max()) if off.any() else 0.0
    return NormalCheck(normal_max_error=normal_err,
                       weight_max_error=weight_err,
                       mask_fraction=float(mask.mean()))
