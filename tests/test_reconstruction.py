import numpy as np
import pytest

from parea.grids import (
    ScalarField,
    VectorField,
    build_domain,
    sample,
    sample_vector,
)
from parea.horizontal import horizontal_normal, weight
from parea.reconstruction import (
    NotClosedError,
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
    nu, _ = horizontal_normal(u, f)
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
        assert np.max(np.abs(closedness_residual(u).entries)) < 1e-13

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
            assert np.max(np.abs(closedness_residual(gradient(u)).entries)) <= 1e-12


class TestIntegratePotential:
    def test_exact_linear_data(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample_vector(d, [lambda x, y: y, lambda x, y: x])
        result = integrate_potential(u)
        x, y = d.meshes()
        assert np.max(np.abs(result.field.values - x * y)) < 1e-14
        assert result.field.values[0, 0] == 0.0

    def test_zero_field(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        u = VectorField(d, np.zeros((2,) + d.counts))
        result = integrate_potential(u)
        assert np.all(result.field.values == 0.0)

    def test_refuses_non_closed(self):
        data = builtin_scenario("example_4_2").build()
        cand = candidate_gradient(data["nu"], data["d"], data["f"])
        with pytest.raises(NotClosedError) as info:
            integrate_potential(cand)
        assert info.value.pair == (2, 3)
        assert info.value.max_abs == pytest.approx(2.0, abs=1e-12)

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
            nu, _ = horizontal_normal(u_star, f)
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
        assert np.max(np.abs(res.entries)) > 0.5
        with pytest.raises(NotClosedError):
            integrate_potential(cand)
