"""Value-level linear algebra of real skew-symmetric matrices.

Skew matrices have purely imaginary eigenvalue pairs +-i*lambda_j, so their
rank is even. The lambda_j are the singular values of S, which arrive in
equal pairs. Spectra come from one batched SVD (`paired_spectrum`) on a
single matrix or a stack (..., m, m), never from -S^2, whose eigenvalues
bury exact zeros in eps * lambda_max^2 noise. A nonsymmetric solver is
never needed.

The numerical rank is the number of paired singular values above
tol * lambda_1, counted twice. `skew_ranks` counts it on dense stacks by
the SVD alone, and is the reference for `triangle_ranks`, which ranks
matrices given by their upper-triangle entries (the storage of a
`SkewField`, so every matrix it sees is exactly skew by construction).
`triangle_ranks` first certifies the matrices whose rank is not in doubt.
With k = floor(m/2), scale S by R = |S|_F / sqrt(2) = sqrt(sum_j
lambda_j^2), so R >= lambda_1, and let P = sqrt(sum_I Pf(S_I / R)^2) over
the principal submatrices of order 2k (for even m, P = |Pf(S / R)|). The
squared Pfaffians of those submatrices are their determinants, whose sum is
the elementary symmetric function of degree 2k of the eigenvalues, so
P = prod_j lambda_j / R^k. Every lambda_j / R is at most 1, hence
lambda_k / lambda_1 >= lambda_k / R >= P. A matrix with
P > max(4 tol, 1e-12) therefore has rank 2k, and the SVD would say so too:
its computed singular values lie within c(m) eps lambda_1 of the exact ones
(backward stability and Weyl's bound), and the computed P within about
1e-14 of the exact one for m <= 6 (at most 15 products of three entries of
magnitude <= 1), so the computed ratio stays above tol with room to spare.
Every other matrix (rank deficient or close to it, zero or non-finite) is
built dense and goes through the SVD, so each reported rank is exactly the
one the SVD reports. The entries are divided by their largest magnitude
before R and the Pfaffians are formed, so neither huge nor subnormal
entries overflow or underflow the test.

Rank-two matrices factor as S = lambda * (nu_perp nu^T - nu nu_perp^T) with
nu_perp = S nu / |S nu|; the factorization takes nu from the symmetric
matrix -S^2, which is safe once the rank is known to be two.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .fieldio import format_real
from .grids import MAX_DIMENSION, dense_skew, index_positions, pair_indices

DEFAULT_RANK_TOL = 1e-9
# `triangle_ranks` works on blocks of this many matrices, so its scaled
# copies and the dense matrices it builds stay small beside the entries.
_CERTIFY_BLOCK = 4096


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix stored by its strict upper triangle."""

    m: int
    triangle: tuple[float, ...]

    def __post_init__(self):
        expected = len(pair_indices(self.m))
        if len(self.triangle) != expected:
            raise ValueError(
                f"need {expected} upper-triangle entries for m={self.m}")

    @property
    def matrix(self) -> np.ndarray:
        return dense_skew(self.triangle, self.m)

    @classmethod
    def from_matrix(cls, mat, tol: float = 1e-12) -> "SkewMatrix":
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if np.max(np.abs(arr + arr.T)) > tol * scale:
            raise ValueError("matrix is not skew-symmetric")
        m = arr.shape[0]
        triangle = tuple(float(arr[i, j]) for i, j in pair_indices(m))
        return cls(m=m, triangle=triangle)


def _dense(s, stack: bool = False) -> np.ndarray:
    """S as a float array; with `stack`, any (..., m, m) stack of matrices."""
    if isinstance(s, SkewMatrix):
        return s.matrix
    arr = np.asarray(s, dtype=float)
    if (arr.ndim < 2 or (arr.ndim > 2 and not stack)
            or arr.shape[-2] != arr.shape[-1]):
        raise ValueError("matrix must be square")
    return arr


def write_skew_matrix(s, destination) -> None:
    """Text form: `SKEW m=<int>` then the upper-triangle entries."""
    if not isinstance(s, SkewMatrix):
        s = SkewMatrix.from_matrix(s)
    body = " ".join(format_real(x) for x in s.triangle)
    Path(destination).write_text(f"SKEW m={s.m}\n{body}\n", encoding="ascii")


def read_skew_matrix(source) -> SkewMatrix:
    text = Path(source).read_text(encoding="ascii").split()
    if len(text) < 2 or text[0] != "SKEW" or not text[1].startswith("m="):
        raise ValueError("malformed skew matrix file")
    m = int(text[1][2:])
    entries = tuple(float(t) for t in text[2:])
    return SkewMatrix(m=m, triangle=entries)


def paired_spectrum(s) -> np.ndarray:
    """All lambda_j >= 0 (with multiplicity) from the eigenvalue pairs
    +-i*lambda_j, in descending order; length floor(m/2). A stack
    (..., m, m) gives one spectrum per matrix, shape (..., floor(m/2)).

    The lambda_j are the singular values of S, which arrive in equal pairs;
    averaging each pair keeps exact zeros clean (going through -S^2 would
    bury them in eps * lambda_max^2 noise)."""
    sigma = np.linalg.svd(_dense(s, stack=True), compute_uv=False)
    return 0.5 * (sigma[..., 0:-1:2] + sigma[..., 1::2])


def _pfaffian(e: np.ndarray, pos: Mapping, idx: tuple[int, ...]) -> np.ndarray:
    """Pfaffian of the principal submatrix on the increasing indices `idx`
    (even in number), expanded along its first row; e[pos[i, j]] holds
    entry (i, j) of every matrix of the stack."""
    if len(idx) == 2:
        return e[pos[idx]]
    first, rest = idx[0], idx[1:]
    total = 0.0
    for n, j in enumerate(rest):
        term = e[pos[first, j]] * _pfaffian(e, pos, rest[:n] + rest[n + 1:])
        total = total - term if n % 2 else total + term
    return total


def _certified_full_rank(e: np.ndarray, m: int, tol: float) -> np.ndarray:
    """Which matrices, given by upper-triangle entries e of shape
    (npairs, n), provably have rank 2 * floor(m/2) at threshold tol:
    P > max(4 tol, 1e-12) (see the module docstring). False wherever the
    SVD has to decide."""
    # zero and non-finite matrices turn into NaN here and fail the test
    with np.errstate(divide="ignore", invalid="ignore"):
        e = e / np.maximum(e.max(axis=0), -e.min(axis=0))  # max |entry|, no |e| copy
    r2 = np.einsum("p...,p...->...", e, e)  # R^2 in units of the largest entry
    pos = index_positions(m, 2)
    orders = ([tuple(range(m))] if m % 2 == 0
              else [tuple(i for i in range(m) if i != d) for d in range(m)])
    pf2 = sum(_pfaffian(e, pos, idx) ** 2 for idx in orders)
    c = max(4.0 * tol, 1e-12)
    return pf2 > c * c * r2 ** (m // 2)  # P > c


def skew_ranks(s, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Numerical rank of every matrix of a stack (..., m, m), shape (...):
    the number of paired singular values above tol * largest, times two.
    Ranks are even by construction, and 0 exactly where a matrix vanishes."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    lams = paired_spectrum(s)
    return 2 * np.count_nonzero(lams > tol * lams[..., :1], axis=-1)


def triangle_ranks(entries: np.ndarray, m: int,
                   tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """`skew_ranks` of the matrices with upper-triangle entries `entries`
    (shape (npairs, ...), entries[p] the (i, j) entry for pair_indices(m)[p],
    2 <= m <= 6), shape (...). Matrices certified full rank by the
    normalized Pfaffian bound skip the SVD; only the rest are built dense,
    a block at a time, so every rank is the one the SVD gives."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (2 <= m <= MAX_DIMENSION and len(entries) == len(pair_indices(m))):
        raise ValueError(f"need 2 <= m <= {MAX_DIMENSION} and one row per pair")
    shape = entries.shape[1:]
    flat = entries.reshape(entries.shape[0], -1)
    ranks = np.full(flat.shape[1], 2 * (m // 2))
    for lo in range(0, flat.shape[1], _CERTIFY_BLOCK):
        block = flat[:, lo:lo + _CERTIFY_BLOCK]
        doubt = np.flatnonzero(~_certified_full_rank(block, m, tol))
        if doubt.size:
            dense = np.moveaxis(dense_skew(block[:, doubt], m), -1, 0)
            ranks[lo + doubt] = skew_ranks(dense, tol)
    return ranks.reshape(shape)


def skew_rank(s, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of one skew matrix (see `skew_ranks`)."""
    return int(skew_ranks(_dense(s), tol))


def spectral_pairs(s, tol: float = DEFAULT_RANK_TOL) -> list[float]:
    """The positive imaginary parts lambda_j of the eigenvalue pairs,
    descending, with multiplicities; empty for the zero matrix."""
    lams = paired_spectrum(_dense(s))
    if lams.size == 0 or lams[0] == 0.0:
        return []
    return [float(x) for x in lams[lams > tol * lams[0]]]


def alignment_residual(s, nu) -> np.ndarray:
    """S - S nu nu^T - nu nu^T S; vanishes only if S is carried by nu
    (which forces rank(S) <= 2)."""
    mat = _dense(s)
    v = np.asarray(nu, dtype=float)
    outer = np.outer(v, v)
    return mat - mat @ outer - outer @ mat


@dataclass(frozen=True)
class Rank2Factorization:
    """S = lam * (nu_perp nu^T - nu nu_perp^T) with orthonormal nu, nu_perp."""

    nu: np.ndarray
    nu_perp: np.ndarray
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise ValueError("nu is not a unit vector")
        if abs(np.linalg.norm(self.nu_perp) - 1.0) > 1e-12:
            raise ValueError("nu_perp is not a unit vector")
        if abs(float(self.nu @ self.nu_perp)) > 1e-10:
            raise ValueError("nu and nu_perp are not orthogonal")

    def reconstruct(self) -> np.ndarray:
        return self.lam * (np.outer(self.nu_perp, self.nu)
                           - np.outer(self.nu, self.nu_perp))


def rank2_factorize(s, tol: float = DEFAULT_RANK_TOL) -> Rank2Factorization:
    """Factor a rank-2 skew matrix; nu is a unit eigenvector of -S^2 for the
    top eigenvalue lam^2 and nu_perp = S nu / |S nu| fixes the orientation."""
    mat = _dense(s)
    rank = skew_rank(mat, tol)
    if rank != 2:
        raise ValueError(f"rank2_factorize needs rank 2, got rank {rank}")
    sym = -(mat @ mat)
    ev, vecs = np.linalg.eigh(sym)
    lam = float(np.sqrt(max(ev[-1], 0.0)))
    nu = vecs[:, -1]
    snu = mat @ nu
    nu_perp = snu / np.linalg.norm(snu)
    return Rank2Factorization(nu=nu, nu_perp=nu_perp, lam=lam)


@dataclass(frozen=True)
class Rank2Audit:
    """Structure relations of a rank-2 skew matrix U probed with a vector nu:
    U^2 nu is nonzero, nu _|_ U nu _|_ U^2 nu, {U nu, U^2 nu} spans range(U),
    and both are eigenvectors of U^2 with eigenvalue rho = -|U^2 nu|^2/|U nu|^2.
    """

    rho: float
    u_nu_norm: float
    u2_nu_norm: float
    orthogonality: float
    span_residual: float
    eigen_residual: float
    passed: bool


def rank2_audit(u, nu, tol: float = DEFAULT_RANK_TOL) -> Rank2Audit:
    mat = _dense(u)
    v = np.asarray(nu, dtype=float)
    rank = skew_rank(mat, tol)
    if rank != 2:
        raise ValueError(f"rank2_audit needs rank 2, got rank {rank}")
    unu = mat @ v
    scale = max(1.0, float(np.max(np.abs(mat)))) * max(1.0, float(np.linalg.norm(v)))
    if np.linalg.norm(unu) <= tol * scale:
        raise ValueError("nu is (numerically) in the kernel of U")
    u2nu = mat @ unu
    n1 = float(np.linalg.norm(unu))
    n2 = float(np.linalg.norm(u2nu))
    rho = -(n2 ** 2) / (n1 ** 2)
    ortho = max(abs(float(v @ unu)), abs(float(unu @ u2nu))) / (scale ** 2)
    # range(U) against span{U nu, U^2 nu} via an orthonormal basis
    q, _ = np.linalg.qr(np.stack([unu, u2nu], axis=1))
    proj = mat - q @ (q.T @ mat)
    span_res = float(np.linalg.norm(proj) / np.linalg.norm(mat))
    e1 = np.linalg.norm(mat @ u2nu - rho * unu) / (abs(rho) * n1)
    e2 = np.linalg.norm(mat @ (mat @ u2nu) - rho * u2nu) / (abs(rho) * n2)
    eigen_res = float(max(e1, e2))
    passed = (n2 > 0 and ortho <= 1e-10 and span_res <= 1e-9
              and eigen_res <= 1e-9)
    return Rank2Audit(rho=rho, u_nu_norm=n1, u2_nu_norm=n2,
                      orthogonality=ortho, span_residual=span_res,
                      eigen_residual=eigen_res, passed=passed)
