import itertools
import math
import tracemalloc

import numpy as np
import pytest

from parea import grids
from parea.grids import (
    MAX_DIMENSION,
    Alternating3Field,
    ScalarField,
    SkewField,
    VectorField,
    axis_derivative,
    build_domain,
    divergence,
    field_scale,
    gradient,
    gradient_values,
    integrate,
    quadrature_weights,
    sample,
    sample_vector,
)
from parea.horizontal import curl_matrix
from parea.scenarios import builtin_scenario


def unit_square(n=9):
    return build_domain(2, [0, 0], [1, 1], [n, n])


class TestBuildDomain:
    def test_spacing_unit_square(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        assert d.spacing == (0.25, 0.25)

    def test_cached_spacing_leaves_equality_and_hash_alone(self):
        # spacing is cached on first read; equal boxes stay equal, hash
        # alike and serve as one dict key whether or not it has been read
        a = build_domain(3, [0, 0, 0], [1, 2, 3], [5, 9, 7])
        b = build_domain(3, [0, 0, 0], [1, 2, 3], [5, 9, 7])
        assert a.spacing == (0.25, 0.25, 0.5)
        assert "spacing" in vars(a) and "spacing" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != build_domain(3, [0, 0, 0], [1, 2, 3], [5, 9, 9])

    def test_spacing_m4(self):
        d = build_domain(4, [0, -1, 0, -1], [1, 0, 1, 0], [9, 9, 9, 9])
        assert d.spacing == (0.125, 0.125, 0.125, 0.125)

    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="dimension"):
            build_domain(1, [0], [1], [5])

    def test_dimension_too_large(self):
        with pytest.raises(ValueError, match="dimension"):
            build_domain(7, [0] * 7, [1] * 7, [5] * 7)

    def test_counts_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            build_domain(2, [0, 0], [1, 1], [5, 4])

    def test_degenerate_box(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_domain(2, [0, 1], [1, 1], [5, 5])

    @pytest.mark.parametrize("lower, upper", [
        ([-np.inf, 0], [1, 1]),
        ([0, 0], [np.inf, 1]),
        ([0, -1e308], [1, 1e308]),  # finite bounds, infinite extent
    ])
    def test_non_finite_box(self, lower, upper):
        with pytest.raises(ValueError, match="non-finite"):
            build_domain(2, lower, upper, [5, 5])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="m entries"):
            build_domain(3, [0, 0], [1, 1, 1], [5, 5, 5])


class TestFieldConstructor:
    def test_public_constructor_copies(self):
        d = unit_square(5)
        source = np.zeros(d.counts)
        f = ScalarField(d, source)
        source[0, 0] = 1.0  # the caller's array stays the caller's
        assert f.values[0, 0] == 0.0
        assert source.flags.writeable and not f.values.flags.writeable

    def test_adopted_array_is_read_only(self):
        d = unit_square(5)
        fresh = np.ones((2,) + d.counts)
        v = VectorField._adopt(d, fresh)
        assert np.shares_memory(v.values, fresh)
        with pytest.raises(ValueError, match="read-only"):
            fresh[0, 0, 0] = 2.0

    def test_adopt_checks_like_the_constructor(self):
        d = unit_square(5)
        with pytest.raises(ValueError, match="shape"):
            VectorField._adopt(d, np.ones((3,) + d.counts))
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField._adopt(d, np.full(d.counts, np.nan))


class TestSample:
    def test_product_at_corner(self):
        d = unit_square(5)
        f = sample(d, lambda x, y: x * y)
        assert f.values[4, 4] == 1.0

    def test_zero_evaluator(self):
        d = unit_square(5)
        f = sample(d, lambda x, y: 0.0)
        assert np.all(f.values == 0.0)

    def test_sine_midpoint(self):
        d = build_domain(2, [0, 0], [np.pi, 1], [5, 5])
        f = sample(d, lambda x, y: np.sin(x))
        assert f.values[2, 0] == pytest.approx(1.0, abs=1e-15)

    def test_non_finite_rejected(self):
        d = unit_square(5)
        with pytest.raises(ValueError, match="non-finite"):
            sample(d, lambda x, y: np.where(x > 0.5, np.inf, 1.0))


class TestGradient:
    def test_coordinate_function_exact(self):
        d = unit_square(9)
        g = gradient(sample(d, lambda x, y: x))
        assert np.array_equal(g.values[0], np.ones(d.counts))
        assert np.array_equal(g.values[1], np.zeros(d.counts))

    def test_bilinear_exact_everywhere(self):
        # stencils are exact on bilinear data; dyadic grid keeps it exact in
        # floating point too
        d = unit_square(9)
        x, y = d.meshes()
        g = gradient(sample(d, lambda x, y: x * y))
        assert np.array_equal(g.values[0], y)
        assert np.array_equal(g.values[1], x)

    def test_constant_gives_zero(self):
        d = unit_square(7)
        g = gradient(sample(d, lambda x, y: 3.25))
        assert np.all(g.values == 0.0)

    def test_quadratic_exact(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        x, y = d.meshes()
        g = gradient(sample(d, lambda x, y: x * x + 3 * x * y + y * y))
        assert np.max(np.abs(g.values[0] - (2 * x + 3 * y))) < 1e-13
        assert np.max(np.abs(g.values[1] - (3 * x + 2 * y))) < 1e-13

    @pytest.mark.parametrize("m", range(2, 7))
    def test_out_buffer_matches_allocating_path(self, m):
        # the stencil written into a slot of a stacked buffer is bit for bit
        # the freshly allocated one on every axis, the middle axes included
        counts = (5, 6, 7, 5, 6, 5)[:m]
        d = build_domain(m, [0.0] * m, [1.0 + 0.1 * k for k in range(m)], counts)
        values = np.random.default_rng(m).standard_normal(counts)
        stacked = np.empty((m,) + counts)
        for axis in range(m):
            expected = axis_derivative(d, values, axis)
            returned = axis_derivative(d, values, axis, out=stacked[axis])
            assert np.array_equal(returned, expected)
            assert stacked[axis].tobytes() == expected.tobytes()
        assert gradient_values(d, values).tobytes() == stacked.tobytes()

    def test_axis_caches_hold_one_grid(self):
        # the derivative matrices and trapezoid vectors are cached per
        # (count, spacing); after stencils and quadrature on 20 grids of
        # distinct spacings each cache holds at most one grid's axes, and a
        # matrix rebuilt after eviction is the same
        first = build_domain(3, [0.0] * 3, [1.0, 1.5, 2.0], [5, 6, 7])
        before = [grids.derivative_matrix(first, axis).copy() for axis in range(3)]
        for k in range(20):
            d = build_domain(2, [0.0, 0.0], [1.0 + 0.1 * k, 2.0], [5 + k, 9])
            values = np.random.default_rng(k).standard_normal(d.counts)
            gradient_values(d, values)
            integrate(ScalarField(d, values))
        for cache in (grids._derivative_matrix, grids._trapezoid_vector):
            assert cache.cache_info().currsize <= MAX_DIMENSION
        for axis in range(3):
            assert np.array_equal(grids.derivative_matrix(first, axis), before[axis])


class TestDivergence:
    def test_identity_field(self):
        d = unit_square(9)
        v = sample_vector(d, [lambda x, y: x, lambda x, y: y])
        assert np.max(np.abs(divergence(v).values - 2.0)) == 0.0

    def test_rotation_field(self):
        d = unit_square(9)
        v = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
        assert np.all(divergence(v).values == 0.0)

    def test_quadratic_axis(self):
        d = unit_square(9)
        x, _ = d.meshes()
        v = sample_vector(d, [lambda x, y: x * x, lambda x, y: 0.0])
        assert np.max(np.abs(divergence(v).values - 2 * x)) < 1e-13

    def test_laplacian_of_quadratic_exact(self):
        d = unit_square(9)
        lap = divergence(gradient(sample(d, lambda x, y: x * x + y * y)))
        assert np.max(np.abs(lap.values - 4.0)) < 1e-12


class TestIntegrate:
    def test_constant(self):
        d = unit_square(5)
        assert integrate(sample(d, lambda x, y: 1.0)) == 1.0

    def test_linear_x(self):
        d = unit_square(5)
        assert integrate(sample(d, lambda x, y: 2 * x)) == pytest.approx(1.0, abs=1e-14)

    def test_linear_sum(self):
        d = unit_square(5)
        assert integrate(sample(d, lambda x, y: x + y)) == pytest.approx(1.0, abs=1e-14)

    def test_linearity(self):
        d = unit_square(7)
        rng = np.random.default_rng(11)
        a = ScalarField(d, rng.standard_normal(d.counts))
        b = ScalarField(d, rng.standard_normal(d.counts))
        combo = ScalarField(d, 2.0 * a.values - 3.0 * b.values)
        assert integrate(combo) == pytest.approx(
            2.0 * integrate(a) - 3.0 * integrate(b), abs=1e-13)

    def test_odd_function_on_symmetric_box(self):
        d = build_domain(2, [-1, -1], [1, 1], [33, 33])
        f = sample(d, lambda x, y: x ** 3 + np.sin(y))
        assert abs(integrate(f)) <= 1e-12 * field_scale(f)

    def test_weights_sum_to_volume(self):
        d = build_domain(3, [0, 0, 0], [2, 1, 1], [7, 5, 9])
        assert np.sum(quadrature_weights(d)) == pytest.approx(2.0, abs=1e-13)


class TestConvergence:
    def test_gradient_second_order(self):
        # doubling both axis counts must shrink the max-norm error by ~4
        errs = []
        for n in (17, 33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            x, y = d.meshes()
            g = gradient(sample(d, lambda x, y: np.sin(2 * x + y)))
            exact0 = 2 * np.cos(2 * x + y)
            exact1 = np.cos(2 * x + y)
            errs.append(max(np.max(np.abs(g.values[0] - exact0)),
                            np.max(np.abs(g.values[1] - exact1))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.4 <= coarse / fine <= 4.6


class TestFieldContainers:
    def test_values_read_only(self):
        d = unit_square(5)
        f = sample(d, lambda x, y: x)
        with pytest.raises(ValueError):
            f.values[0, 0] = 7.0

    def test_vector_needs_matching_domain(self):
        d = unit_square(5)
        with pytest.raises(ValueError, match="shape"):
            VectorField(d, np.zeros((3, 5, 5)))

    def test_skew_dense_matches_entries(self):
        d = build_domain(4, [0] * 4, [1] * 4, [5] * 4)
        rng = np.random.default_rng(0)
        h = SkewField(d, rng.standard_normal((6,) + d.counts))
        dense = h.dense()
        assert dense.shape == (4, 4) + d.counts
        for i in range(4):
            for j in range(4):
                assert np.array_equal(dense[i, j], h.entry(i, j))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls, order", [(SkewField, 2), (Alternating3Field, 3)])
    def test_entry_reads_antisymmetric_tensor(self, cls, order, m):
        d = build_domain(m, [0] * m, [1] * m, [5] * m)
        stored = np.random.default_rng(m).standard_normal(
            (math.comb(m, order),) + d.counts)
        # the full tensor: each stored entry copied to every permutation of
        # its increasing index tuple, times the permutation's sign
        tensor = np.zeros((m,) * order + d.counts)
        for p, idx in enumerate(itertools.combinations(range(m), order)):
            for perm in itertools.permutations(range(order)):
                sign = round(np.linalg.det(np.eye(order)[list(perm)]))
                tensor[tuple(idx[q] for q in perm)] = sign * stored[p]
        field = cls(d, stored)
        for index in itertools.product(range(m), repeat=order):
            assert np.array_equal(field.entry(*index), tensor[index])

    def test_entry_checks_arity(self):
        """An index tuple whose length is not the field's order is an error
        naming the order, not a zero array or a bare KeyError."""
        h = curl_matrix(builtin_scenario("heisenberg(2)").build(5, 0)["f"])
        assert np.array_equal(h.entry(0, 1), h.values[0])
        for index in [(), (0,), (0, 0, 1), (0, 1, 2)]:
            with pytest.raises(ValueError, match="order 2"):
                h.entry(*index)
        with pytest.raises(ValueError, match="order 0"):
            sample(h.domain, lambda *x: x[0]).entry(0)

    def test_entry_checks_range(self):
        """An index outside 0..m-1 is an error naming m, not a bare KeyError
        (nor a zero array when it repeats)."""
        f = builtin_scenario("heisenberg(2)").build(5, 0)["f"]
        h = curl_matrix(f)
        for index in [(0, 7), (-1, 0), (0, -3), (4, 4), (0, 4)]:
            with pytest.raises(ValueError, match=r"0\.\.3 \(m=4\)"):
                h.entry(*index)
        with pytest.raises(ValueError, match="m=4"):
            f.entry(4)
        assert np.array_equal(h.entry(3, 2), -h.values[-1])

    def test_field_scale_floors_at_one(self):
        d = unit_square(5)
        small = sample(d, lambda x, y: 1e-3 * x)
        assert field_scale(small) == 1.0
        big = sample(d, lambda x, y: 5.0 * x)
        assert field_scale(big) == 5.0

    def test_max_abs_matches_the_max_of_abs(self):
        """max(|max|, |min|) is the float of max |v|; an array holding NaN
        scales as 1.0, holding inf as inf, and an empty one as 1.0."""
        rng = np.random.default_rng(3)
        d = unit_square(5)
        for values in (rng.standard_normal(d.counts), -np.abs(rng.standard_normal(d.counts)),
                       np.full(d.counts, -0.0), 7.0 * np.eye(5) - 2.0):
            assert ScalarField(d, values).max_abs() == float(np.max(np.abs(values)))
            assert field_scale(values) == max(1.0, float(np.max(np.abs(values))))
        assert field_scale(np.array([3.0, np.nan, -4.0])) == 1.0
        assert field_scale(np.array([3.0, -np.inf])) == np.inf
        assert field_scale(np.zeros(0)) == 1.0

    def test_max_abs_allocates_no_field_sized_temporary(self):
        """np.max(np.abs(v)) took a temporary the size of the curl (peak 1.0
        of it, 15 node arrays at 5^6)."""
        f = builtin_scenario("heisenberg(3)").build(5, 0)["f"]
        h = curl_matrix(f)
        for call in (h.max_abs, lambda: field_scale(h)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * h.values.nbytes
