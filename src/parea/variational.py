"""The weighted-area functional: evaluation, first variation, line profiles,
Dirichlet minimization, and the uniqueness audit.

The functional is  integral( |grad(u) + F| + H*u )  over the box, discretized
with the shared node stencils and trapezoid quadrature so second-order
behaviour is uniform across the package. Minimization replaces |.| by
sqrt(|.|^2 + eps^2) and follows a decreasing eps schedule; each stage runs
gradient descent with a backtracking (Armijo) line search on the interior
nodes, boundary nodes frozen. The functional is convex, so the continuation
converges to the same minimum irrespective of eps path, within tolerance.

H enters linearly and can make the functional unbounded below; the solver
caps iterations and reports non-convergence instead of asserting existence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .fieldio import format_rows
from .grids import (
    ScalarField,
    VectorField,
    axis_derivative_adjoint,
    divergence,
    field_scale,
    gradient,
    gradient_values,
    integrate_values,
    pair_indices,
    quadrature_weights,
    require_same_domain,
)
from .horizontal import (
    DEFAULT_SINGULAR_TOL,
    _horizontal,
    _singular_flags,
    curl_matrix,
    horizontal_normal,
)
from .integrability import (
    DEFAULT_CLASSIFY_TOL,
    IntegrabilityLabel,
    _frobenius_blocks,
    integrability_labels,
)
from .skewalg import DEFAULT_RANK_TOL, SkewMatrix, triangle_ranks


# --------------------------------------------------------------------------
# Constant antisymmetric coefficient maps
# --------------------------------------------------------------------------

def pairwise_rotation(m: int) -> SkewMatrix:
    """The block rotation coefficients a[2j,2j+1] = 1 = -a[2j+1,2j] that send
    (G_1, G_2, ...) to (G_2, -G_1, G_4, -G_3, ...); m must be even."""
    if m % 2 != 0:
        raise ValueError(f"the default pairwise rotation needs even m, got m={m}")
    return SkewMatrix(m, tuple(1.0 if j == i + 1 and i % 2 == 0 else 0.0
                               for i, j in pair_indices(m)))


def skew_transform(g: VectorField, a: SkewMatrix) -> VectorField:
    """Componentwise map (sum_k a[j,k] G_k)_j."""
    if a.m != g.domain.m:
        raise ValueError("coefficient dimension does not match the field")
    out = np.einsum("jk,k...->j...", a.matrix, g.values)
    return VectorField._adopt(g.domain, out)


def skew_divergence(f: VectorField, a: SkewMatrix) -> ScalarField:
    """divergence of the transformed field, sum a[j,k] d_j F_k."""
    return divergence(skew_transform(f, a))


# --------------------------------------------------------------------------
# Functional and first variation
# --------------------------------------------------------------------------

def functional(u: ScalarField, f: VectorField,
               h: ScalarField | None = None) -> float:
    """integral( |grad(u) + F| + H*u ) by trapezoid quadrature."""
    return _functional_from_weight(u, _horizontal(u, f)[2], h)


def _functional_from_weight(u: ScalarField, d: np.ndarray,
                           h: ScalarField | None) -> float:
    """`functional` from the weight values d = |grad(u) + F| of u, for a
    caller that holds them already."""
    domain = u.domain if h is None else require_same_domain(u, h)
    if h is not None:
        d = d + h.values * u.values
    return integrate_values(domain, d)


def first_variation(u: ScalarField, phi: ScalarField, f: VectorField,
                    h: ScalarField | None = None,
                    tau: float = DEFAULT_SINGULAR_TOL) -> tuple[float, float]:
    """One-sided derivatives of eps -> functional(u + eps*phi) at 0.

    Both sides share integral( nu . grad(phi) + H*phi ); the singular set S
    adds integral_S |grad(phi)| on the right and subtracts it on the left, so
    right - left = 2 integral_S |grad(phi)| >= 0, zero iff grad(phi) = 0 on S.
    """
    domain = require_same_domain(u, phi, f)
    nu, mask, _ = horizontal_normal(u, f, tau)
    gphi = gradient(phi).values
    common = np.einsum("k...,k...->...", nu.values, gphi)
    if h is not None:
        require_same_domain(u, h)
        common = common + h.values * phi.values
    mag = np.sqrt(np.sum(gphi ** 2, axis=0))
    singular_part = integrate_values(domain, np.where(mask, mag, 0.0))
    base = integrate_values(domain, common)
    return base + singular_part, base - singular_part


@dataclass(frozen=True)
class LineProfile:
    """Functional values along the segment u + eps*(v - u) on a uniform
    eps grid, with raw second differences as the convexity report."""

    eps: np.ndarray
    values: np.ndarray

    @property
    def second_differences(self) -> np.ndarray:
        v = self.values
        if v.size < 3:
            return np.zeros(0)
        return v[2:] - 2.0 * v[1:-1] + v[:-2]

    @property
    def min_second_difference(self) -> float:
        d = self.second_differences
        return float(d.min()) if d.size else 0.0


def line_profile(u: ScalarField, v: ScalarField, f: VectorField,
                 h: ScalarField | None, eps_grid) -> LineProfile:
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size < 2:
        raise ValueError("eps grid must be a 1-D sequence with >= 2 points")
    steps = np.diff(eps)
    if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, abs(steps[0])):
        raise ValueError("eps grid must be uniform")
    domain = require_same_domain(u, v, f)
    direction = v.values - u.values
    values = []
    for e in eps:
        ue = ScalarField(domain, u.values + e * direction)
        values.append(functional(ue, f, h))
    return LineProfile(eps=eps, values=np.asarray(values))


# --------------------------------------------------------------------------
# Dirichlet minimization
# --------------------------------------------------------------------------

class SolverDivergenceError(RuntimeError):
    """Line-search step underflow; carries the failing stage diagnostics."""

    def __init__(self, eps: float, iteration: int, step: float,
                 objective: float, residual: float):
        self.eps = eps
        self.iteration = iteration
        self.step = step
        self.objective = objective
        self.residual = residual
        super().__init__(
            f"step underflow at eps={eps:g}, iteration {iteration}: "
            f"step={step:.3g}, objective={objective:.12g}, residual={residual:.3g}")


# Line-search step control: sufficient-decrease factor, shrink factor, the step
# below which a stage has diverged, first step as a share of field_scale(u)/|grad|.
_ARMIJO = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-18
_INITIAL_STEP_SCALE = 0.1
# The continuation's smoothing parameters, one stage each.
_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class MinimizeOptions:
    """Stopping rule for the smoothed descent: at most max_iterations steps
    per eps stage, and 0 < first_order_tol < inf."""

    max_iterations: int = 25000
    first_order_tol: float = 1e-5

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.first_order_tol < np.inf:
            raise ValueError("first_order_tol must be positive and finite")


@dataclass(frozen=True)
class StageLog:
    eps: float
    iterations: int
    objective: float
    residual: float
    converged: bool
    # "tol" (residual within the bound), "cap" (max_iterations reached) or
    # "zero-gradient" (the squared gradient norm is 0: no descent direction)
    stop_reason: str
    # float64 arrays indexed by iteration 0..iterations, compared whole by `__eq__`
    objectives: np.ndarray
    residuals: np.ndarray

    def _scalars(self) -> tuple:
        return (self.eps, self.iterations, self.objective, self.residual,
                self.converged, self.stop_reason)

    def __eq__(self, other):
        if not isinstance(other, StageLog):
            return NotImplemented
        return (self._scalars() == other._scalars()
                and np.array_equal(self.objectives, other.objectives)
                and np.array_equal(self.residuals, other.residuals))

    def __hash__(self):
        return hash(self._scalars())


@dataclass(frozen=True)
class MinimizeResult:
    field: ScalarField
    converged: bool
    stages: tuple[StageLog, ...]

    def log_chunks(self):
        """The convergence log a chunk at a time: stage iteration objective residual."""
        yield "stage iteration objective residual\n"
        for snum, stage in enumerate(self.stages):
            steps = np.arange(stage.iterations + 1)
            yield from format_rows([np.full_like(steps, snum), steps,
                                    stage.objectives, stage.residuals])

    def log_text(self) -> str:
        """The whole convergence log, the join of `log_chunks`."""
        return "".join(self.log_chunks())


class _SmoothedObjective:
    """Quadrature-weighted objective sum W*(sqrt(|grad u + F|^2 + eps^2) + H u)
    with its exact discrete gradient (boundary rows zeroed).

    `value` returns the objective together with the state (p, s) =
    (grad u + F, sqrt(|p|^2 + eps^2)) it computed on the way; `gradient` builds
    the gradient from that state alone. A line search can therefore test a
    trial point on its value and pay for the adjoint stencils only once it
    accepts it.

    A solve makes tens of thousands of these calls on arrays of a few
    thousand nodes, so call overhead outweighs arithmetic: they work in
    place, reduce through ndarray methods and zero the boundary rows through
    a flat index computed once. The floating-point operations and their
    order are those of the plain expressions (|p|^2 is summed over the
    components in axis order, as np.sum(p * p, axis=0) does), so every
    iterate is bit for bit the same. Each stencil still goes through
    `grids.axis_derivative` or `axis_derivative_adjoint` by its module-level
    name, where `perfbench` counts stencil calls.
    """

    def __init__(self, f: VectorField, h: ScalarField | None):
        self.domain = f.domain
        self.f_values = f.values
        self.h_values = None if h is None else h.values
        self.weights = quadrature_weights(self.domain)
        self.boundary = self.domain.boundary_mask()
        self._boundary_flat = np.flatnonzero(self.boundary)
        self._weighted_h = None if h is None else self.weights * self.h_values

    def value(self, u: np.ndarray, eps: float
              ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        # p = grad(u) + F;  s = sqrt(sum_k p_k^2 + eps^2)
        p = gradient_values(self.domain, u)
        p += self.f_values
        s = p[0] * p[0]
        for k in range(1, self.domain.m):
            s += p[k] * p[k]
        s += eps * eps
        np.sqrt(s, out=s)
        total = s if self.h_values is None else s + self.h_values * u
        return float((self.weights * total).sum()), (p, s)

    def gradient(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        p, s = state
        scale = self.weights / s
        grad = np.zeros(self.domain.counts)
        for k in range(self.domain.m):
            grad += axis_derivative_adjoint(self.domain, scale * p[k], k)
        if self._weighted_h is not None:
            grad += self._weighted_h
        grad.reshape(-1)[self._boundary_flat] = 0.0
        return grad

    def residual(self, grad: np.ndarray) -> float:
        """Interior first-order residual: sup-norm of the objective gradient
        over interior nodes (boundary rows are zero already)."""
        return float(np.abs(grad).max())


def first_order_residual(u: ScalarField, f: VectorField,
                         h: ScalarField | None = None,
                         eps: float = 1e-6) -> float:
    """Interior stationarity residual of the smoothed objective at u."""
    obj = _SmoothedObjective(f, h)
    _, state = obj.value(u.values, eps)
    return obj.residual(obj.gradient(state))


def minimize(f: VectorField, h: ScalarField | None, boundary: ScalarField,
             init: ScalarField, opts: MinimizeOptions | None = None
             ) -> MinimizeResult:
    """Minimize the functional over interior node values, boundary frozen.

    `boundary` supplies the Dirichlet data on the boundary nodes (its
    interior values are ignored); `init` must match it there exactly. Each
    eps stage descends until the interior first-order residual drops below
    first_order_tol * field_scale(boundary) or the iteration cap; the
    recorded objective sequence is non-increasing within every stage.
    """
    opts = opts or MinimizeOptions()
    domain = require_same_domain(f, boundary, init) if h is None else \
        require_same_domain(f, boundary, init, h)
    obj = _SmoothedObjective(f, h)
    bmask = obj.boundary
    if not np.array_equal(init.values[bmask], boundary.values[bmask]):
        raise ValueError("init does not match the boundary data on boundary nodes")

    u = np.array(init.values, dtype=float)
    stages: list[StageLog] = []
    all_converged = True
    bound = opts.first_order_tol * field_scale(boundary)
    # Step memory survives the continuation: consecutive stages differ only
    # in the smoothing, so the curvature information stays useful.
    step = None
    prev_du = None
    prev_dg = None

    for eps in _EPS_SCHEDULE:
        value, state = obj.value(u, eps)
        grad = obj.gradient(state)
        res = obj.residual(grad)
        objectives, residuals = array("d", [value]), array("d", [res])
        it = 0
        while res > bound and it < opts.max_iterations:
            gnorm2 = float((grad * grad).sum())
            if gnorm2 == 0.0:
                break
            if prev_du is not None:
                denom = float((prev_du * prev_dg).sum())
                if denom > 0:
                    step = float((prev_du * prev_du).sum()) / denom
                # else keep the previous accepted step
            if step is None or not np.isfinite(step) or step <= 0:
                step = _INITIAL_STEP_SCALE * field_scale(u) / np.sqrt(gnorm2)
            while True:
                trial = u - step * grad
                trial_value, trial_state = obj.value(trial, eps)
                if trial_value <= value - _ARMIJO * step * gnorm2:
                    break
                step *= _SHRINK
                if step < _MIN_STEP:
                    raise SolverDivergenceError(eps=eps, iteration=it, step=step,
                                                objective=value, residual=res)
            trial_grad = obj.gradient(trial_state)
            prev_du = trial - u
            prev_dg = trial_grad - grad
            u, value, grad = trial, trial_value, trial_grad
            it += 1
            res = obj.residual(grad)
            objectives.append(value)
            residuals.append(res)
        converged = res <= bound
        if converged:
            stop_reason = "tol"
        elif it >= opts.max_iterations:
            stop_reason = "cap"
        else:
            stop_reason = "zero-gradient"
        all_converged = all_converged and converged
        stages.append(StageLog(eps=eps, iterations=it, objective=value, residual=res,
                               converged=converged, stop_reason=stop_reason,
                               objectives=np.array(objectives),
                               residuals=np.array(residuals)))

    return MinimizeResult(field=ScalarField(domain, u), converged=all_converged,
                          stages=tuple(stages))


# --------------------------------------------------------------------------
# Uniqueness audit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessReport:
    """Measurements comparing two candidate minimizers; draws no conclusions.

    Hypothesis flags are computed only off the joint singular mask: the
    rank flag marks nodes where the curl matrix has rank >= 3, the
    nonintegrability flag marks nodes where either candidate's contact
    distribution is classified nonintegrable, and divb_sign records the
    pointwise sign of the transformed divergence.
    """

    normal_max: float
    normal_l1: float
    gradient_max: float
    gradient_l1: float
    rank_condition_flags: np.ndarray
    nonintegrable_flags: np.ndarray
    divb_sign: np.ndarray
    orthogonality_residual: float
    orthogonality_pointwise: float
    functional_gap: float
    joint_mask_fraction: float
    epsilon_mask_fractions: tuple[tuple[float, float], ...]

    @property
    def rank_condition_fraction(self) -> float:
        return float(self.rank_condition_flags.mean())

    @property
    def nonintegrable_fraction(self) -> float:
        return float(self.nonintegrable_flags.mean())

    @property
    def divb_positive_fraction(self) -> float:
        return float(np.mean(self.divb_sign > 0))


def pointwise_skew_rank(field, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Numerical rank of a skew matrix field at every node (always even),
    from the upper-triangle entries it stores."""
    return triangle_ranks(field.values, field.domain.m, tol)


def uniqueness_audit(u: ScalarField, v: ScalarField, f: VectorField,
                     h: ScalarField | None, a: SkewMatrix,
                     tau: float = DEFAULT_SINGULAR_TOL,
                     eta: float = DEFAULT_CLASSIFY_TOL) -> UniquenessReport:
    """Agreement metrics, per-node uniqueness-hypothesis flags, and the transformed
    orthogonality residual: the max over eps in {0, 1/2, 1} of the quadrature
    inner product |< (grad(u_eps) + F)^a , grad(v) - grad(u) >| (the pointwise
    sup of the integrand is reported alongside). Like every callee a pipeline
    hands fields to, it frees each node array at its last read: the curl sits
    beside one normal at a time, and u's is formed again for the difference."""
    domain = require_same_domain(u, v, f)
    # one curl for the ranks and both classifications, whose labels stream
    # the Frobenius blocks and so never hold a tensor
    h_curl = curl_matrix(f)
    high_rank = pointwise_skew_rank(h_curl) >= 3

    # each candidate's functional reads the weight that came with its normal,
    # so the functional gap needs no kernel call of its own
    nu_u, mask_u, d = horizontal_normal(u, f, tau)
    functional_u = _functional_from_weight(u, d.values, h)
    del d
    labels_u = integrability_labels(
        mask_u, _frobenius_blocks(nu_u.values, h_curl.values), eta)
    del nu_u  # formed again below, once the curl is gone
    nu_v, mask_v, d = horizontal_normal(v, f, tau)
    functional_v = _functional_from_weight(v, d.values, h)
    del d
    labels_v = integrability_labels(
        mask_v, _frobenius_blocks(nu_v.values, h_curl.values), eta)
    del h_curl
    joint = mask_u | mask_v
    off = ~joint
    rank_flags = high_rank & off
    nonintegrable = int(IntegrabilityLabel.NONINTEGRABLE)
    noninteg = ((labels_u == nonintegrable) | (labels_v == nonintegrable)) & off
    del high_rank, labels_u, labels_v

    normal_diff = horizontal_normal(u, f, tau)[0].values - nu_v.values
    del nu_v
    normal_diff = np.sqrt(np.sum(normal_diff ** 2, axis=0))
    normal_diff = np.where(off, normal_diff, 0.0)
    normal_max, normal_l1 = float(normal_diff.max()), integrate_values(domain, normal_diff)
    del normal_diff
    gu = gradient(u).values
    direction = gradient(v).values - gu  # -(gu - gv) exactly, so the same squares
    del gu
    grad_diff = np.sqrt(np.sum(direction ** 2, axis=0))
    gradient_max, gradient_l1 = float(grad_diff.max()), integrate_values(domain, grad_diff)
    del grad_diff

    db = skew_divergence(f, a).values
    db_tol = 1e-12 * field_scale(db)
    sign = np.zeros(domain.counts, dtype=np.int8)
    sign[db > db_tol] = 1
    sign[db < -db_tol] = -1
    del db

    ortho = 0.0
    ortho_pointwise = 0.0
    eps_masks = []
    for e in (0.0, 0.5, 1.0):
        # one kernel for the transform and the mask; it frees u_eps once read
        _, shifted, d = _horizontal(
            ScalarField._adopt(domain, u.values + e * (v.values - u.values)), f)
        eps_masks.append((e, float(_singular_flags(d, tau).mean())))
        del d
        transformed = skew_transform(VectorField._adopt(domain, shifted), a).values
        del shifted
        dots = np.einsum("k...,k...->...", transformed, direction)
        del transformed
        ortho = max(ortho, abs(float(np.sum(quadrature_weights(domain) * dots))))
        ortho_pointwise = max(ortho_pointwise, float(np.max(np.abs(dots))))
        del dots  # before the next eps allocates

    gap = abs(functional_u - functional_v)

    rank_flags.setflags(write=False)
    noninteg.setflags(write=False)
    sign.setflags(write=False)
    return UniquenessReport(
        normal_max=normal_max,
        normal_l1=normal_l1,
        gradient_max=gradient_max,
        gradient_l1=gradient_l1,
        rank_condition_flags=rank_flags,
        nonintegrable_flags=noninteg,
        divb_sign=sign,
        orthogonality_residual=ortho,
        orthogonality_pointwise=ortho_pointwise,
        functional_gap=gap,
        joint_mask_fraction=float(joint.mean()),
        epsilon_mask_fractions=tuple(eps_masks),
    )
