"""Grid domains, node-sampled fields, and finite-difference calculus.

Everything downstream works on node-centered rectangular grids: a box
[lower_i, upper_i] per axis with counts_i nodes including both endpoints.
Derivatives use second-order central differences at interior nodes and
second-order one-sided three-point stencils on the faces, so every operator
is total on the stored data and exact on per-axis quadratic polynomials.
Each per-axis stencil is one `np.matmul` of the 1-D matrix with the values,
batched over the axes before the stencil's, and returns a C-contiguous array;
its last bits follow the BLAS build and the product's shape. Integration is
the tensor-product trapezoidal rule (exact on per-axis linear integrands).

Fields are immutable after construction and all operations here are pure,
so values can be shared freely between threads. Flat value ordering is C
order (last axis varies fastest); the file format in `fieldio` relies on
this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

MIN_DIMENSION = 2
MAX_DIMENSION = 6
MIN_COUNT = 5


def _frozen_array(values, copy: bool = True) -> np.ndarray:
    """`values` as a read-only C-ordered float array: a copy, or with
    `copy=False` the array itself wherever its dtype and order allow."""
    arr = (np.array if copy else np.asarray)(values, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box in R^m with a fixed number of nodes per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.counts)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        # computed once per instance: every stencil call reads it, and the
        # cache sits outside the fields, so equality and hashing ignore it
        return tuple(
            (u - l) / (n - 1) for l, u, n in zip(self.lower, self.upper, self.counts)
        )

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((u - l) ** 2 for l, u in zip(self.lower, self.upper)))

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.linspace(self.lower[axis], self.upper[axis], self.counts[axis])

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays, one per axis, each of shape `counts`."""
        axes = [self.axis_nodes(k) for k in range(self.m)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        """True at nodes lying on any face of the box."""
        mask = np.zeros(self.counts, dtype=bool)
        for axis in range(self.m):
            faces = np.moveaxis(mask, axis, 0)  # a view: writes land in mask
            faces[0] = faces[-1] = True
        return mask


def check_dimension(m: int) -> None:
    """Raise ValueError unless MIN_DIMENSION <= m <= MAX_DIMENSION."""
    if not MIN_DIMENSION <= m <= MAX_DIMENSION:
        raise ValueError(
            f"dimension m={m} out of range [{MIN_DIMENSION}, {MAX_DIMENSION}]")


def build_domain(m: int, lower: Sequence[float], upper: Sequence[float],
                 counts: Sequence[int]) -> GridDomain:
    """Validate and construct a grid domain."""
    check_dimension(m)
    lower = tuple(float(x) for x in lower)
    upper = tuple(float(x) for x in upper)
    counts = tuple(int(n) for n in counts)
    if len(lower) != m or len(upper) != m or len(counts) != m:
        raise ValueError("lower/upper/counts must each have m entries")
    for axis, n in enumerate(counts):
        if n < MIN_COUNT:
            raise ValueError(f"counts[{axis}]={n} too small (need >= {MIN_COUNT})")
    for axis, (l, u) in enumerate(zip(lower, upper)):
        if not u > l:
            raise ValueError(f"degenerate box on axis {axis}: [{l}, {u}]")
        if not math.isfinite(u - l):
            raise ValueError(f"non-finite box on axis {axis}: [{l}, {u}]")
    return GridDomain(lower=lower, upper=upper, counts=counts)


@lru_cache(maxsize=None)
def alternating_indices(m: int, order: int) -> tuple[tuple[int, ...], ...]:
    """The storage order of every alternating tensor: strictly increasing
    index tuples of length `order`, lexicographic."""
    return tuple(itertools.combinations(range(m), order))


@lru_cache(maxsize=None)
def index_positions(m: int, order: int) -> Mapping[tuple[int, ...], int]:
    """Read-only map from each strictly increasing index tuple to its
    position in `alternating_indices(m, order)`."""
    return MappingProxyType(
        {idx: p for p, idx in enumerate(alternating_indices(m, order))})


def pair_indices(m: int) -> tuple[tuple[int, int], ...]:
    """Strictly increasing index pairs (i, j), lexicographic."""
    return alternating_indices(m, 2)


def triple_indices(m: int) -> tuple[tuple[int, int, int], ...]:
    """Strictly increasing index triples (k, i, j), lexicographic."""
    return alternating_indices(m, 3)


def dense_skew(entries, m: int) -> np.ndarray:
    """Dense skew matrices from upper-triangle entries: entries[p] is the
    (i, j) entry for pair_indices(m)[p], so entries of shape (npairs, ...)
    give matrices of shape (m, m, ...) with out[j, i] = -out[i, j]."""
    entries = np.asarray(entries, dtype=float)
    # triu_indices lists the pairs in the same lexicographic order
    rows, cols = np.triu_indices(m, 1)
    out = np.zeros((m, m) + entries.shape[1:])
    out[rows, cols] = entries
    out[cols, rows] = -entries
    return out


class _Field:
    """A per-node alternating tensor of order `order`: `values` stacks one node
    array per strictly increasing index tuple of `alternating_indices(m,
    order)`, shape (C(m, order), *counts), with no leading axis at order 0.
    Every other index tuple reads as the stored entry times the sign of its
    sorting permutation, or zero at a repeated index, so antisymmetry holds
    by construction.

    A subclass declares its `order`, its `.pfld` kind tag and its CSV column
    template, which each 1-based index tuple fills; `fieldio` reads the
    whole layout from these.

    The constructor copies `values`, so a caller's array never aliases a
    field. parea's own producers, which hand over an array they have just
    allocated and keep no other use of, build through `_adopt` instead: the
    same checks, without the copy."""

    order = 0
    kind: str
    column: str

    def __init__(self, domain: GridDomain, values):
        self._set(domain, _frozen_array(values))

    @classmethod
    def _adopt(cls, domain: GridDomain, values: np.ndarray):
        """A field that takes over `values`, a fresh array nothing else
        writes to, marking it read-only instead of copying it."""
        field = cls.__new__(cls)
        field._set(domain, _frozen_array(values, copy=False))
        return field

    def _set(self, domain: GridDomain, arr: np.ndarray) -> None:
        shape = self.value_shape(domain)
        if arr.shape != shape:
            raise ValueError(f"values shape {arr.shape} != {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite value in {type(self).__name__}")
        self.domain = domain
        self.values = arr

    @classmethod
    def value_shape(cls, domain: GridDomain) -> tuple[int, ...]:
        blocks = (len(alternating_indices(domain.m, cls.order)),)
        return (blocks if cls.order else ()) + domain.counts

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return alternating_indices(self.domain.m, self.order)

    @property
    def blocks(self) -> np.ndarray:
        """`values` with the block axis at every order: one node array per
        index tuple."""
        return self.values.reshape((len(self.indices),) + self.domain.counts)

    @property
    def column_names(self) -> list[str]:
        return [self.column.format(*(i + 1 for i in idx)) for idx in self.indices]

    def entry(self, *index: int) -> np.ndarray:
        """Signed per-node entry for a tuple of `order` indices in 0..m-1; a
        zero array at a repeated index."""
        if len(index) != self.order:
            raise ValueError(f"{type(self).__name__} has order {self.order}, "
                             f"so entry takes {self.order} indices, not {len(index)}")
        m = self.domain.m
        if not all(0 <= i < m for i in index):
            raise ValueError(f"entry indices run over 0..{m - 1} (m={m}), got {index}")
        if len(set(index)) < self.order:
            return np.zeros(self.domain.counts)
        stored = self.blocks[index_positions(m, self.order)[tuple(sorted(index))]]
        inversions = sum(a > b for a, b in itertools.combinations(index, 2))
        return -stored if inversions % 2 else stored

    def max_abs(self) -> float:
        v = self.values  # max(|max|, |min|): no |v| temporary
        return float(max(abs(v.max()), abs(v.min()))) if v.size else 0.0

    def __repr__(self):
        return f"{type(self).__name__}(m={self.domain.m}, shape={self.domain.counts})"


class ScalarField(_Field):
    """One real value per grid node."""

    kind, column = "scalar", "value"


class VectorField(_Field):
    """m real components per grid node, stacked as values[k] = component k."""

    order, kind, column = 1, "vector", "v{}"

    def norm(self) -> ScalarField:
        """Pointwise Euclidean norm."""
        return ScalarField._adopt(self.domain, pointwise_norm(self.values))


class SkewField(_Field):
    """Per-node skew-symmetric m x m matrix, stored as upper-triangle entries
    on pair_indices(m)."""

    order, kind, column = 2, "skew", "h_{}_{}"

    def dense(self) -> np.ndarray:
        """Dense per-node matrices, shape (m, m, *counts)."""
        return dense_skew(self.values, self.domain.m)


class Alternating3Field(_Field):
    """Per-node fully antisymmetric 3-tensor, stored on triple_indices(m).

    Empty for m < 3 (there are no strictly increasing triples).
    """

    order, kind, column = 3, "alt3", "t_{}_{}_{}"


def pointwise_norm(stack: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """sqrt(sum_k stack[k]^2 + eps^2) at each node of a stack of node arrays,
    adding the squares in axis order and then eps^2: the bits of
    np.sqrt(np.sum(stack ** 2, axis=0)) at eps = 0 and of the solver's
    s = p0*p0; s += pk*pk; s += eps*eps; sqrt(s) (squares are never -0.0, so
    adding eps^2 = +0.0 changes no bit). Its only temporaries are the result
    and one square at a time."""
    out = np.square(stack[0])
    for k in range(1, len(stack)):  # indexing: no slice view, for the solver
        out += np.square(stack[k])
    out += eps * eps
    return np.sqrt(out, out=out)


def field_scale(field) -> float:
    """max(1, max-norm of a field's stored values or of an array); relative
    tolerances use this."""
    arr = np.asarray(getattr(field, "values", field))
    return float(max(1.0, abs(arr.max()), abs(arr.min()))) if arr.size else 1.0


def require_same_domain(*fields) -> GridDomain:
    """The domain all `fields` share, skipping None (an absent H)."""
    first, *rest = (f.domain for f in fields if f is not None)
    if any(d != first for d in rest):
        raise ValueError("fields live on different domains")
    return first


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def sample(domain: GridDomain, evaluator: Callable) -> ScalarField:
    """Evaluate `evaluator(x1, ..., xm)` at every node.

    The evaluator receives full coordinate arrays (numpy broadcasting); a
    scalar return value is broadcast to the whole grid.
    """
    meshes = domain.meshes()
    values = np.asarray(evaluator(*meshes), dtype=float)
    values = np.broadcast_to(values, domain.counts)
    if not np.isfinite(values).all():
        raise ValueError("evaluator produced a non-finite value")
    return ScalarField(domain, values)


def sample_vector(domain: GridDomain, evaluators: Sequence[Callable]) -> VectorField:
    """Sample one evaluator per component."""
    if len(evaluators) != domain.m:
        raise ValueError("need exactly m component evaluators")
    comps = [sample(domain, ev).values for ev in evaluators]
    return VectorField(domain, np.stack(comps))


# --------------------------------------------------------------------------
# Stencils
# --------------------------------------------------------------------------

# One grid's axes at most: a process that meets many grids keeps the last ones.
@lru_cache(maxsize=MAX_DIMENSION)
def _derivative_matrix(n: int, h: float) -> np.ndarray:
    # Central differences inside, one-sided three-point rows on the faces.
    c = 0.5 / h
    mat = np.zeros((n, n))
    rows = np.arange(1, n - 1)
    mat[rows, rows - 1] = -c
    mat[rows, rows + 1] = c
    mat[0, 0], mat[0, 1], mat[0, 2] = -3.0 * c, 4.0 * c, -c
    mat[n - 1, n - 1], mat[n - 1, n - 2], mat[n - 1, n - 3] = 3.0 * c, -4.0 * c, c
    mat.setflags(write=False)
    return mat


def derivative_matrix(domain: GridDomain, axis: int) -> np.ndarray:
    """The 1-D differentiation matrix used along `axis` (read-only)."""
    return _derivative_matrix(domain.counts[axis], domain.spacing[axis])


def _apply_axis_matrix(mat: np.ndarray, values: np.ndarray, axis: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    # The last axis is values @ mat.T; any other is mat @ values viewed as
    # (n, rest) at axis 0, or as (prod(counts[:axis]), n, rest), one product
    # batched over the earlier axes. `out`, when given, is C-contiguous of
    # the result's shape, so the same view of it takes the product.
    if axis == values.ndim - 1:
        return np.matmul(values, mat.T, out=out)
    n = values.shape[axis]
    shape = (n, -1) if axis == 0 else (math.prod(values.shape[:axis]), n, -1)
    flat = None if out is None else out.reshape(shape)
    return np.matmul(mat, values.reshape(shape), out=flat).reshape(values.shape)


def axis_derivative(domain: GridDomain, values: np.ndarray, axis: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Apply the per-axis stencil to an array of shape domain.counts, into the
    C-contiguous array `out` when one is given."""
    return _apply_axis_matrix(derivative_matrix(domain, axis), values, axis, out)


def axis_derivative_adjoint(domain: GridDomain, values: np.ndarray,
                            axis: int) -> np.ndarray:
    """Apply the transpose of the per-axis stencil (used by the solver)."""
    return _apply_axis_matrix(derivative_matrix(domain, axis).T, values, axis)


def gradient_values(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    """The per-axis stencils of an array of shape domain.counts, stacked:
    out[k] = axis_derivative(domain, values, k), shape (m, *counts)."""
    out = np.empty((domain.m,) + domain.counts)
    for k in range(domain.m):
        axis_derivative(domain, values, k, out=out[k])
    return out


def gradient(f: ScalarField) -> VectorField:
    """Second-order discrete gradient; exact on per-axis quadratics."""
    return VectorField._adopt(f.domain, gradient_values(f.domain, f.values))


def divergence(v: VectorField) -> ScalarField:
    """Sum of the per-axis stencils applied to matching components."""
    domain = v.domain
    acc = axis_derivative(domain, v.values[0], 0)
    for k in range(1, domain.m):
        acc += axis_derivative(domain, v.values[k], k)
    return ScalarField._adopt(domain, acc)


# --------------------------------------------------------------------------
# Quadrature
# --------------------------------------------------------------------------

@lru_cache(maxsize=MAX_DIMENSION)  # one grid's axes, as `_derivative_matrix`
def _trapezoid_vector(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w.setflags(write=False)
    return w


def quadrature_weights(domain: GridDomain) -> np.ndarray:
    """Tensor-product trapezoid weight for every node, shape domain.counts."""
    out = _trapezoid_vector(domain.counts[0], domain.spacing[0])
    for axis in range(1, domain.m):
        w = _trapezoid_vector(domain.counts[axis], domain.spacing[axis])
        out = np.multiply.outer(out, w)
    return out


def integrate(f: ScalarField) -> float:
    """Tensor-product trapezoidal rule over the whole box."""
    return integrate_values(f.domain, f.values)


def integrate_values(domain: GridDomain, values: np.ndarray) -> float:
    """Tensor-product trapezoidal rule for an array of shape domain.counts."""
    acc = values
    for axis in range(domain.m - 1, -1, -1):
        w = _trapezoid_vector(domain.counts[axis], domain.spacing[axis])
        acc = acc @ w
    return float(acc)
