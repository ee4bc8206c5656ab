import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parea.grids import (
    GridDomain,
    ScalarField,
    VectorField,
    build_domain,
    derivative_matrix,
    gradient,
    sample,
    sample_vector,
)
from parea.horizontal import horizontal_normal, weight
from parea.reconstruction import (
    NotClosedError,
    _lsqr,
    _StackedGradient,
    candidate_gradient,
    closedness_residual,
    integrate_potential,
    verify_normal,
)
from parea.scenarios import builtin_scenario


def rotation_setup(n=17, lower=(0.1, 0.0)):
    d = build_domain(2, lower, [1, 1], [n, n])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u = sample(d, lambda x, y: x * y)
    nu, _, _ = horizontal_normal(u, f)
    return d, f, u, nu, weight(u, f)


class TestCandidateGradient:
    def test_bilinear_pair_recovers_gradient(self):
        # D*nu - F = (y, x) = grad(xy)
        d, f, u, nu, dd = rotation_setup(n=9)
        x, y = d.meshes()
        cand = candidate_gradient(nu, dd, f)
        assert np.max(np.abs(cand.values[0] - y)) < 1e-13
        assert np.max(np.abs(cand.values[1] - x)) < 1e-13

    def test_aligned_field_gives_zero(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        nu = VectorField(d, np.stack([np.zeros(d.counts), np.ones(d.counts)]))
        dd = ScalarField(d, np.full(d.counts, 2.0))
        f = VectorField(d, dd.values * nu.values)
        cand = candidate_gradient(nu, dd, f)
        assert np.all(cand.values == 0.0)

    def test_four_dim_example(self):
        # U = D nu - F = (-y1, -x1, y2, -x2) by hand
        data = builtin_scenario("example_4_2").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        a, b, c, e = data["domain"].meshes()
        assert np.max(np.abs(cand.values[0] + b)) == 0.0
        assert np.max(np.abs(cand.values[1] + a)) == 0.0
        assert np.max(np.abs(cand.values[2] - e)) == 0.0
        assert np.max(np.abs(cand.values[3] + c)) == 0.0

    def test_positive_weight_required(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        nu = VectorField(d, np.stack([np.ones(d.counts), np.zeros(d.counts)]))
        dd = ScalarField(d, np.zeros(d.counts))
        f = VectorField(d, np.zeros((2,) + d.counts))
        with pytest.raises(ValueError, match="positive"):
            candidate_gradient(nu, dd, f)


class TestClosednessResidual:
    def test_exact_gradient(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample_vector(d, [lambda x, y: y, lambda x, y: x])
        assert np.max(np.abs(closedness_residual(u).values)) < 1e-13

    def test_four_dim_obstruction(self):
        # entry (1,2) closes, entry (3,4) sits at -2
        data = builtin_scenario("example_4_2").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        res = closedness_residual(cand)
        assert np.max(np.abs(res.entry(0, 1))) <= 1e-12
        assert np.max(np.abs(res.entry(2, 3) + 2.0)) <= 1e-12

    def test_sampled_gradient_round_off_only(self):
        # exact commutation of the per-axis stencils keeps the curl of any
        # discrete gradient at round-off level
        from parea.grids import gradient
        for n in (17, 33):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = sample(d, lambda x, y: np.sin(2 * x) * np.cos(y))
            assert np.max(np.abs(closedness_residual(gradient(u)).values)) <= 1e-12


class TestIntegratePotential:
    def test_exact_linear_data(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample_vector(d, [lambda x, y: y, lambda x, y: x])
        result = integrate_potential(u)
        x, y = d.meshes()
        assert np.max(np.abs(result.field.values - x * y)) < 1e-14
        assert result.field.values[0, 0] == 0.0

    def test_zero_field(self):
        # least squares must stop at once on a zero right-hand side: LSQR
        # past its beta = 0 exit divides by zero and returns NaN
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        u = VectorField(d, np.zeros((2,) + d.counts))
        for method in ("staircase", "least-squares"):
            result = integrate_potential(u, method=method)
            assert np.all(result.field.values == 0.0)
            assert result.path_discrepancy == 0.0

    def test_refuses_non_closed(self):
        data = builtin_scenario("example_4_2").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        with pytest.raises(NotClosedError) as info:
            integrate_potential(cand)
        assert info.value.pair == (2, 3)
        assert info.value.max_abs == pytest.approx(2.0, abs=1e-12)

    def test_refusal_names_a_negative_largest_entry(self):
        # curl entries h_02 = -2 x z^2 (2 + y) and h_12 = -x^2 z^2: the
        # largest |entry| is negative and sits at the far corner only
        d = build_domain(3, [0, 0, 0], [1, 1, 1], [5, 5, 5])
        cand = sample_vector(d, [lambda x, y, z: 0 * x, lambda x, y, z: 0 * x,
                                 lambda x, y, z: -x * x * z * z * (2 + y)])
        entries = closedness_residual(cand).values
        assert -entries.min() > entries.max()
        with pytest.raises(NotClosedError) as info:
            integrate_potential(cand)
        assert info.value.max_abs == float(np.max(np.abs(entries))) == -entries.min()
        assert info.value.pair == (0, 2)
        assert info.value.node == (4, 4, 4)

    def test_gauge_base_change_constant(self):
        d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [17, 17])
        from parea.grids import gradient
        u = gradient(sample(d, lambda x, y: np.sin(x) + x * y))
        r0 = integrate_potential(u)
        r1 = integrate_potential(u, base=(8, 8))
        diff = r0.field.values - r1.field.values
        assert np.max(diff) - np.min(diff) <= 1e-12

    def test_path_audit_bounded_by_stokes(self):
        # inject a curl large enough to dominate the trapezoid quadrature
        # floor: U = grad(f) + eta * (y, 0) has curl entry -eta, and the
        # forward/reverse discrepancy obeys the circulation bound
        d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [33, 33])
        from parea.grids import gradient
        eta = 5e-2
        base = gradient(sample(d, lambda x, y: 0.1 * np.sin(2 * x) * y)).values
        _, y = d.meshes()
        u = VectorField(d, base + eta * np.stack([y, np.zeros(d.counts)]))
        result = integrate_potential(u, tol=0.1)
        assert result.closedness_max == pytest.approx(eta, rel=1e-6)
        bound = 2.0 * result.closedness_max * d.diameter
        assert 0 < result.path_discrepancy <= bound

    def test_path_audit_quadrature_floor(self):
        # for an exactly closed one-form the audit reports only the O(h^2)
        # trapezoid floor, shrinking at second order
        from parea.grids import gradient
        gaps = []
        for n in (33, 65):
            d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [n, n])
            u = gradient(sample(d, lambda x, y: np.sin(2 * x) * y))
            gaps.append(integrate_potential(u).path_discrepancy)
        assert 3.4 <= gaps[0] / gaps[1] <= 4.6

    def test_base_outside_grid_rejected(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        u = VectorField(d, np.zeros((2,) + d.counts))
        with pytest.raises(ValueError, match="outside"):
            integrate_potential(u, base=(5, 0))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        data = builtin_scenario("example_4_2").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        with pytest.raises(ValueError, match="tol"):
            integrate_potential(cand, tol=tol)

    def test_zero_tol_accepts_exactly_closed(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample_vector(d, [lambda x, y: y, lambda x, y: x])
        assert integrate_potential(u, tol=0.0).closedness_max == 0.0

    def test_least_squares_matches_staircase(self):
        # both integrators land on the same potential within discretization
        # error; the least-squares fit itself must be near machine level
        data = builtin_scenario("smooth_roundtrip").build(counts=17)
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        stair = integrate_potential(cand)
        lsq = integrate_potential(cand, method="least-squares")
        gap = np.max(np.abs(stair.field.values - lsq.field.values))
        assert gap <= 5e-3
        assert lsq.path_discrepancy <= 1e-8


def _csr_system(domain: GridDomain, base: tuple[int, ...]):
    """The least-squares system as a scipy CSR matrix, the oracle for
    `_StackedGradient`: one Kronecker product of the per-axis stencil with
    identities per axis, stacked, plus the gauge row at `base`."""
    from scipy import sparse

    blocks = []
    for axis in range(domain.m):
        mats = [sparse.csr_matrix(derivative_matrix(domain, axis)) if k == axis
                else sparse.identity(n, format="csr")
                for k, n in enumerate(domain.counts)]
        op = mats[0]
        for mat in mats[1:]:
            op = sparse.kron(op, mat, format="csr")
        blocks.append(op)
    gauge = sparse.csr_matrix(
        (np.ones(1), ([0], [int(np.ravel_multi_index(base, domain.counts))])),
        shape=(1, domain.node_count))
    return sparse.vstack(blocks + [gauge], format="csr")


def _stacked_system(u: VectorField, base: tuple[int, ...]):
    """The least-squares system as a CSR matrix, and its right-hand side."""
    domain = u.domain
    target = np.concatenate([u.values.reshape(domain.m, -1).ravel(), [0.0]])
    return _csr_system(domain, base), target


def _old_lsqr_potential(u: VectorField) -> np.ndarray:
    """The least-squares potential as scipy's LSQR computed it on the stacked
    system itself, whose adjoint products scipy forms from the CSR matrix."""
    from scipy.sparse import linalg as sparse_linalg

    domain = u.domain
    system, target = _stacked_system(u, (0,) * domain.m)
    solution = sparse_linalg.lsqr(system, target, atol=1e-14, btol=1e-14,
                                  iter_lim=10 * domain.node_count)[0]
    potential = solution.reshape(domain.counts)
    return potential - potential[(0,) * domain.m]


class TestLeastSquaresAdjoint:
    """LSQR's adjoint products through the explicit CSR transpose add the same
    terms in the same order as scipy's transposed product: same bits."""

    @pytest.mark.parametrize("n", [33, 65])
    def test_planar_bit_identical(self, n):
        data = builtin_scenario("smooth_roundtrip").build(counts=n)
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        lsq = integrate_potential(cand, method="least-squares")
        assert np.array_equal(lsq.field.values.view(np.uint64),
                              _old_lsqr_potential(cand).view(np.uint64))

    @pytest.mark.parametrize("m, n", [(3, 9), (4, 7)])
    def test_higher_dimensions_bit_identical(self, m, n):
        d = build_domain(m, [0.1] * m, [1.0] * m, [n] * m)
        phi = sample(d, lambda *x: np.sin(sum((k + 1) * c for k, c in enumerate(x)))
                     + x[0] * x[-1] ** 2)
        cand = gradient(phi)
        lsq = integrate_potential(cand, method="least-squares")
        assert np.array_equal(lsq.field.values.view(np.uint64),
                              _old_lsqr_potential(cand).view(np.uint64))


def _smooth_gradient(m: int, n: int) -> VectorField:
    d = build_domain(m, [0.1] * m, [1.0] * m, [n] * m)
    return gradient(sample(d, lambda *x: np.sin(sum((k + 1) * c for k, c in enumerate(x)))
                           + x[0] * x[-1] ** 2))


class _CsrProducts:
    """A CSR system in `_lsqr`'s operator interface: its products, and
    those of its explicit CSR transpose, copied into the buffers."""

    def __init__(self, system):
        self.shape = system.shape
        self._system, self._transpose = system, system.T.tocsr()

    def matvec(self, x, out):
        out[...] = self._system @ x
        return out

    def rmatvec(self, y, out):
        out[...] = self._transpose @ y
        return out


class TestLsqrTranscription:
    """parea's in-place LSQR against scipy's on the same CSR system: the same
    bits of x, the same stopping reason and the same iteration count."""

    @staticmethod
    def _compare(u: VectorField, base=None, iter_lim=None, matrix_free=False):
        from scipy.sparse import linalg as sparse_linalg

        base = base or (0,) * u.domain.m
        iter_lim = iter_lim or 10 * u.domain.node_count
        system, target = _stacked_system(u, base)
        op = _StackedGradient(u.domain, base) if matrix_free else _CsrProducts(system)
        x, istop, itn = _lsqr(op, target, atol=1e-14, btol=1e-14, iter_lim=iter_lim)
        ref = sparse_linalg.lsqr(system, target, atol=1e-14, btol=1e-14,
                                 iter_lim=iter_lim)
        assert np.array_equal(x.view(np.uint64), ref[0].view(np.uint64))
        assert (istop, itn) == (ref[1], ref[2])
        return istop, itn

    @pytest.mark.parametrize("m, n", [(2, 5), (2, 17), (3, 7), (4, 5)])
    def test_dimensions_and_smallest_grid(self, m, n):
        istop, itn = self._compare(_smooth_gradient(m, n))
        assert istop == 1 and itn > 1

    def test_base_off_the_corner(self):
        assert self._compare(_smooth_gradient(2, 9), base=(3, 5))[0] == 1

    @pytest.mark.parametrize("iter_lim", [1, 7])
    def test_iteration_cap(self, iter_lim):
        assert self._compare(_smooth_gradient(2, 9), iter_lim=iter_lim) == (7, iter_lim)

    def test_inconsistent_right_hand_side(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = VectorField(d, np.random.default_rng(3).standard_normal((2,) + d.counts))
        istop, itn = self._compare(u)
        assert istop == 2 and itn > 1  # the least-squares test, not the fit

    def test_zero_right_hand_side(self):
        d = build_domain(3, [0, 0, 0], [1, 1, 1], [5, 5, 5])
        assert self._compare(VectorField(d, np.zeros((3,) + d.counts))) == (0, 0)

    @pytest.mark.parametrize("counts, base", [((17, 6), (4, 5)),
                                              ((7, 5, 9), (6, 0, 3))])
    def test_matrix_free_operator_end_to_end(self, counts, base):
        m = len(counts)
        d = build_domain(m, [0.1] * m, [1.0 + 0.3 * k for k in range(m)], counts)
        u = gradient(sample(d, lambda *x: np.sin(sum((k + 1) * c for k, c in enumerate(x)))
                            + x[0] * x[-1] ** 2))
        istop, itn = self._compare(u, base=base, matrix_free=True)
        assert istop == 1 and itn > 1


# The largest count per axis drawn for each dimension, so that a drawn grid
# stays below about 16k nodes.
_MAX_COUNT = {2: 40, 3: 12, 4: 7, 5: 6, 6: 5}


@st.composite
def _operator_cases(draw):
    """A grid with m = 2..6 and per-axis counts and spacings (some equal,
    some not), a base node anywhere on it, and how to fill the vectors."""
    m = draw(st.integers(2, 6))
    counts = [draw(st.integers(5, _MAX_COUNT[m])) for _ in range(m)]
    lower = [draw(st.sampled_from([0.0, 0.1, -2.5])) for _ in range(m)]
    widths = [draw(st.sampled_from([1.0, 0.37, 2.0, 1e-3, 1e3])) for _ in range(m)]
    domain = build_domain(m, lower, [lo + w for lo, w in zip(lower, widths)], counts)
    base = tuple(draw(st.integers(0, n - 1)) for n in counts)
    return domain, base, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def _planted_vector(rng, size: int, pooled: bool) -> np.ndarray:
    """Values of magnitude 1e-200..1e200 with a quarter planted +0.0 or -0.0;
    or, pooled, a few values and both zeros, so that many sums cancel."""
    if pooled:
        pool = np.array([1.5, -1.5, 3e-200, -7e150, 0.0, -0.0])
        return pool[rng.integers(0, pool.size, size)]
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-200, 200, size)
    zeros = rng.random(size) < 0.25
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return values


class TestStackedGradient:
    """The matrix-free system against its CSR matrix: the same bits, signed
    zeros included, for the product and for scipy's transposed product."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_operator_cases())
    def test_products_match_csr_bits(self, case):
        domain, base, seed, pooled = case
        rng = np.random.default_rng(seed)
        op, system = _StackedGradient(domain, base), _csr_system(domain, base)
        assert op.shape == system.shape
        x = _planted_vector(rng, op.shape[1], pooled)
        y = _planted_vector(rng, op.shape[0], pooled)
        # every entry of `out` is written, whatever it held before
        got = op.matvec(x, np.full(op.shape[0], np.nan))
        assert np.array_equal(got.view(np.uint64), (system @ x).view(np.uint64))
        got = op.rmatvec(y, np.full(op.shape[1], np.nan))
        assert np.array_equal(got.view(np.uint64), (system.T @ y).view(np.uint64))

    def test_products_allocate_no_node_array(self):
        # numpy's own iteration buffers stay far below one array of nodes
        d = build_domain(2, [0, 0], [1, 2], [257, 129])
        op = _StackedGradient(d, (3, 4))
        x, y = np.ones(op.shape[1]), np.ones(op.shape[0])
        av, atu = np.empty(op.shape[0]), np.empty(op.shape[1])
        tracemalloc.start()
        try:
            op.matvec(x, av)
            op.rmatvec(y, atu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d.node_count // 4


class TestVerifyNormal:
    def test_exact_linear_case(self):
        d, f, u, nu, dd = rotation_setup(n=17)
        result = integrate_potential(candidate_gradient(nu, dd, f))
        check = verify_normal(result.field, nu, dd, f)
        assert check.normal_max_error <= 1e-12
        assert check.weight_max_error <= 1e-12

    def test_mismatch_reported_not_raised(self):
        d, f, u, nu, dd = rotation_setup(n=9)
        wrong = VectorField(d, np.stack([np.ones(d.counts), np.zeros(d.counts)]))
        check = verify_normal(u, wrong, dd, f)
        assert check.normal_max_error > 0.5

    def test_round_trip_second_order(self):
        errors = []
        for n in (33, 65, 129):
            d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [n, n])
            f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
            u_star = sample(d, lambda x, y: np.sin(x) + x * y)
            nu, _, _ = horizontal_normal(u_star, f)
            dd = weight(u_star, f)
            result = integrate_potential(candidate_gradient(nu, dd, f))
            shifted = u_star.values - u_star.values[0, 0]
            errors.append(np.max(np.abs(result.field.values - shifted)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6


class TestNegativeControl:
    def test_compatible_but_not_integrable_refused(self):
        # the constant-normal linear-weight data satisfies the tangential
        # compatibility yet no potential exists; closedness must fail hard
        data = builtin_scenario("example_4_3").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        res = closedness_residual(cand)
        assert np.max(np.abs(res.values)) > 0.5
        with pytest.raises(NotClosedError):
            integrate_potential(cand)
