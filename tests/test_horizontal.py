import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from parea.grids import (
    ScalarField,
    VectorField,
    axis_derivative,
    build_domain,
    field_scale,
    gradient,
    gradient_values,
    pair_indices,
    sample,
    sample_vector,
)
from parea.horizontal import (
    curl_matrix,
    horizontal_normal,
    singular_stats,
    structure_identity_residual,
    weight,
)
from parea import horizontal as horizontal_module
from parea import runner as runner_module
from parea import variational as variational_module
from parea.cli import main
from parea.reconstruction import verify_normal
from parea.runner import _derive_normal_weight
from parea.scenarios import builtin_scenario, random_smooth_field, random_smooth_scalar
from parea.variational import functional, pairwise_rotation, uniqueness_audit


def rotation_pair(lower=(0.1, 0.0), upper=(1.0, 1.0), n=33):
    d = build_domain(2, lower, upper, [n, n])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u = sample(d, lambda x, y: x * y)
    return d, f, u


class TestWeight:
    def test_bilinear_pair(self):
        # grad(xy) + (-y, x) = (0, 2x); exact on the bilinear stencil
        d, f, u = rotation_pair(lower=(0.0, 0.0), n=9)
        x, _ = d.meshes()
        assert np.max(np.abs(weight(u, f).values - 2 * x)) < 1e-14

    def test_exact_cancellation(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: np.sin(x) * y)
        f = VectorField(d, -gradient(u).values)
        assert np.all(weight(u, f).values == 0.0)

    def test_constant_field(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: 0.0)
        f = sample_vector(d, [lambda x, y: 3.0, lambda x, y: 4.0])
        assert np.max(np.abs(weight(u, f).values - 5.0)) == 0.0


def singular_mask(u, f, tau=1e-6):
    return horizontal_normal(u, f, tau)[1]


class TestSingularSet:
    def test_empty_off_origin(self):
        d, f, u = rotation_pair()
        assert not singular_mask(u, f).any()

    def test_zero_line_flagged(self):
        d = build_domain(2, [-1, 0], [1, 1], [65, 65])
        f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
        u = sample(d, lambda x, y: x * y)
        mask = singular_mask(u, f)
        # D = |2x|: exactly the x = 0 node column
        expected = np.zeros(d.counts, dtype=bool)
        expected[32, :] = True
        assert np.array_equal(mask, expected)

    def test_full_mask(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: x * x + y)
        f = VectorField(d, -gradient(u).values)
        assert singular_mask(u, f).all()

    def test_tau_must_be_positive(self):
        d, f, u = rotation_pair(n=9)
        with pytest.raises(ValueError):
            horizontal_normal(u, f, 0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan, -1.0])
    def test_tau_must_be_positive_and_finite(self, tau):
        # an infinite tau masked every node: singular_fraction read 1
        d, f, u = rotation_pair(n=9)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            horizontal_normal(u, f, tau)


def seeded_pair(m, n, seed):
    """A smooth (u, F) pair, and the same u with F = -grad(u) on the lower
    half of the first axis, so the singular mask is neither empty nor full."""
    d = build_domain(m, [-1.0] * m, [1.0] * m, [n] * m)
    u = random_smooth_scalar(d, seed, 2)
    f = random_smooth_field(d, seed + 100, 2)
    cancel = np.where(d.meshes()[0] < 0, -gradient(u).values, f.values)
    return u, f, VectorField(d, cancel)


@pytest.mark.parametrize("m, n", [(2, 17), (3, 9), (4, 6)])
@pytest.mark.parametrize("seed", range(4))
class TestOneKernel:
    def test_singular_set_is_the_normal_mask(self, m, n, seed):
        u, f, g = seeded_pair(m, n, seed)
        for field in (f, g):
            for tau in (1e-6, 1e-2, 0.5):
                _, mask, d = horizontal_normal(u, field, tau)
                # the weight of the same kernel call, and the singular set
                # by its definition D < tau * field_scale(D)
                assert np.array_equal(d.values, weight(u, field).values)
                assert np.array_equal(mask, d.values < tau * field_scale(d))

    def test_weight_is_norm_of_shifted_gradient(self, m, n, seed):
        u, f, g = seeded_pair(m, n, seed)
        for field in (f, g):
            expected = np.sqrt(np.sum((gradient(u).values + field.values) ** 2, axis=0))
            assert np.array_equal(weight(u, field).values, expected)


class TestHorizontalNormal:
    def test_bilinear_pair_unit_y(self):
        d, f, u = rotation_pair()
        nu, mask, _ = horizontal_normal(u, f)
        assert not mask.any()
        assert np.max(np.abs(nu.values[0])) < 1e-13
        assert np.max(np.abs(nu.values[1] - 1.0)) < 1e-13

    def test_shifted_pair_same_normal(self):
        d, f, _ = rotation_pair()
        v = sample(d, lambda x, y: x * y + y)
        nu, mask, _ = horizontal_normal(v, f)
        assert not mask.any()
        assert np.max(np.abs(nu.values[1] - 1.0)) < 1e-13

    def test_constant_direction(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: 0.0)
        f = sample_vector(d, [lambda x, y: 1.0, lambda x, y: 0.0])
        nu, _, _ = horizontal_normal(u, f)
        assert np.array_equal(nu.values[0], np.ones(d.counts))

    def test_unit_norm_off_mask(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        u = ScalarField(d, 0.2 * random_smooth_scalar(d, 5, 2).values)
        f = sample_vector(d, [lambda x, y: 2.0 + 0 * x, lambda x, y: 1.0 + 0 * x])
        nu, mask, _ = horizontal_normal(u, f)
        norms = np.sqrt(np.sum(nu.values ** 2, axis=0))
        assert np.max(np.abs(norms[~mask] - 1.0)) <= 1e-12

    def test_masked_nodes_zeroed(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: x * y)
        f = VectorField(d, -gradient(u).values)
        nu, mask, _ = horizontal_normal(u, f)
        assert mask.all()
        assert np.all(nu.values == 0.0)

    def test_invariant_under_constant_shift(self):
        # dyadic data keeps the shift exact, so the invariance is exact
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = sample_vector(d, [lambda x, y: -y, lambda x, y: x + 0.25])
        u = sample(d, lambda x, y: x * y)
        u_shift = ScalarField(d, u.values + 0.5)
        nu1, _, _ = horizontal_normal(u, f)
        nu2, _, _ = horizontal_normal(u_shift, f)
        assert np.array_equal(nu1.values, nu2.values)


class TestCurlMatrix:
    def test_rotation_field(self):
        d, f, _ = rotation_pair(lower=(0.0, 0.0), n=9)
        h = curl_matrix(f)
        assert np.array_equal(h.entry(0, 1), np.full(d.counts, 2.0))
        assert np.array_equal(h.entry(1, 0), np.full(d.counts, -2.0))
        assert np.all(h.entry(0, 0) == 0.0)

    def test_gradient_of_quadratic_exactly_curl_free(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        phi = sample(d, lambda x, y: x * x + 3 * x * y - y * y)
        h = curl_matrix(gradient(phi))
        assert np.max(np.abs(h.values)) < 1e-13

    def test_gradient_curl_round_off_only(self):
        # per-axis stencils commute exactly, so the curl of any sampled
        # gradient sits at round-off level regardless of resolution
        for n in (17, 33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            phi = sample(d, lambda x, y: np.sin(2 * x) * np.cos(y))
            assert np.max(np.abs(curl_matrix(gradient(phi)).values)) <= 1e-11

    def test_two_block_field_m4(self):
        d = build_domain(4, [0, 0, 0, 0], [1, 1, 1, 1], [5, 5, 5, 5])
        f = sample_vector(d, [
            lambda a, b, c, e: -b, lambda a, b, c, e: a,
            lambda a, b, c, e: -e, lambda a, b, c, e: c,
        ])
        h = curl_matrix(f)
        for (i, j) in h.indices:
            expected = 2.0 if (i, j) in ((0, 1), (2, 3)) else 0.0
            assert np.array_equal(h.entry(i, j), np.full(d.counts, expected))


def reference_identity_residual(u, f, tau=1e-6):
    """The structure identity residual built pair by pair, node stencil by
    node stencil: the reference for the batched form."""
    d = u.domain
    nu, mask, _ = horizontal_normal(u, f, tau)
    v, flags = nu.values, mask
    dnu = np.empty((d.m, d.m) + d.counts)
    for i in range(d.m):
        for j in range(d.m):
            dnu[i, j] = axis_derivative(d, v[j], i)
    c = np.einsum("k...,kj...->j...", v, dnu)
    h = curl_matrix(f)
    s = np.einsum("k...,ik...->i...", v, h.dense())
    safe_d = np.where(flags, 1.0, weight(u, f).values)
    out = []
    for i, j in pair_indices(d.m):
        lhs = dnu[i, j] - dnu[j, i] - v[i] * c[j] + v[j] * c[i]
        rhs = (h.entry(i, j) - v[j] * s[i] + v[i] * s[j]) / safe_d
        out.append(np.where(flags, 0.0, lhs - rhs))
    return np.stack(out)


class TestStructureIdentity:
    @pytest.mark.parametrize("m, n", [(2, 17), (3, 9), (4, 6), (5, 5), (6, 5)])
    def test_matches_pairwise_reference(self, m, n):
        u, f, g = seeded_pair(m, n, 7)
        for field in (f, g):
            assert np.array_equal(structure_identity_residual(u, field).values,
                                  reference_identity_residual(u, field))

    def test_bilinear_pair_tiny_residual(self):
        d, f, u = rotation_pair()
        res = structure_identity_residual(u, f)
        assert np.max(np.abs(res.values)) <= 1e-10

    def test_zero_field_second_order(self):
        errs = []
        for n in (17, 33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = sample(d, lambda x, y: np.sin(x + 2 * y) + 2 * x)
            f = sample_vector(d, [lambda x, y: 2.0 + 0 * x, lambda x, y: 0 * x])
            errs.append(np.max(np.abs(structure_identity_residual(u, f).values)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    def test_random_smooth_second_order(self):
        errs = []
        for n in (33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = ScalarField(d, 0.3 * random_smooth_scalar(d, 2, 2).values)
            base = np.stack([np.full(d.counts, 2.0), np.full(d.counts, 3.0)])
            f = VectorField(d, base + 0.3 * random_smooth_field(d, 3, 2).values)
            dmin = weight(u, f).values.min()
            assert dmin >= 0.1 * field_scale(weight(u, f))
            errs.append(np.max(np.abs(structure_identity_residual(u, f).values)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_masked_nodes_carry_zero(self):
        d = build_domain(2, [-1, 0], [1, 1], [17, 17])
        f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
        u = sample(d, lambda x, y: x * y)
        res = structure_identity_residual(u, f)
        assert np.all(res.values[:, 8, :] == 0.0)  # the x = 0 column


class TestSingularStats:
    def rotation_mask(self, lower, n=65):
        d = build_domain(2, lower, [1, 1], [n, n])
        f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
        u = sample(d, lambda x, y: x * y)
        return singular_mask(u, f)

    def test_empty(self):
        stats = singular_stats(self.rotation_mask([0.1, 0]))
        assert stats.fraction == 0.0
        assert stats.ball_radius == 0

    def test_full(self):
        d = build_domain(2, [0, 0], [1, 1], [65, 65])
        u = sample(d, lambda x, y: x + y)
        f = VectorField(d, -gradient(u).values)
        stats = singular_stats(singular_mask(u, f))
        assert stats.fraction == 1.0
        assert stats.ball_radius == 32

    def test_line(self):
        stats = singular_stats(self.rotation_mask([-1, 0]))
        assert stats.fraction == pytest.approx(1 / 65)
        assert stats.ball_radius == 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_radius_matches_box_search(self, m):
        rng = np.random.default_rng(m)
        for trial in range(40):
            counts = tuple(int(n) for n in rng.integers(5, 12 if m < 4 else 8, m))
            d = build_domain(m, [0] * m, [1] * m, counts)
            flags = rng.random(counts) > 10.0 ** rng.uniform(-3, -0.3)
            stats = singular_stats(flags)
            assert stats.ball_radius == box_search_radius(flags)

    def test_no_scipy_ndimage(self):
        code = ("import sys, parea.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy.ndimage')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


def box_search_radius(flags) -> int:
    """Largest r <= min((n - 1) // 2) with an all-flagged box of side 2r + 1
    inside the grid, by trying every centre and radius."""
    best = 0
    for r in range(1, min((n - 1) // 2 for n in flags.shape) + 1):
        ranges = [range(r, n - r) for n in flags.shape]
        if any(flags[tuple(slice(c - r, c + r + 1) for c in centre)].all()
               for centre in itertools.product(*ranges)):
            best = r
    return best


def same_bits(a, b):
    """Equal values and equal signs, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestInPlaceKernel:
    """`_horizontal` adds F into the gradient stack and sums the squares one
    component at a time, and `horizontal_normal` divides that stack in place:
    each is bit for bit the plain expression it replaced, signed zeros and the
    masked nodes included."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_plain_expressions(self, m):
        n = 9 if m <= 3 else 5
        d = build_domain(m, [-1.0] * m, [1.0] * m, [n] * m)
        w = random_smooth_scalar(d, 30 + m, 2)
        grad = gradient_values(d, w.values)
        # F = -grad(w) exactly on the slab x_1 < 0, so grad(w) + F vanishes
        # there and the slab is masked; seeded noise elsewhere
        noise = np.random.default_rng(m).standard_normal(grad.shape)
        f = VectorField(d, np.where(d.meshes()[0] < 0, 0.0, noise) - grad)
        plain = grad + f.values
        plain_d = np.sqrt(np.sum(plain ** 2, axis=0))

        _, hat, norm = horizontal_module._horizontal(w, f)
        assert same_bits(hat, plain) and same_bits(norm, plain_d)
        nu, mask, weight_field = horizontal_normal(w, f)
        assert mask.any() and not mask.all()
        expected = np.where(mask, 0.0, plain / np.where(mask, 1.0, plain_d))
        assert same_bits(nu.values, expected)
        assert same_bits(weight_field.values, plain_d)
        assert same_bits(weight(w, f).values, plain_d)


class TestOneKernelCall:
    """Callers that need the normal, its mask and the weight of one (u, F)
    take all three from one `_horizontal` call (they made two; `evaluate`
    made three)."""

    @pytest.fixture
    def calls(self, monkeypatch, data):  # counts from after the scenario is built
        count = []
        kernel = horizontal_module._horizontal

        def counting(w, f):
            count.append(1)
            return kernel(w, f)

        # every module's own binding of the kernel, not only the defining one
        for module in (horizontal_module, variational_module, runner_module):
            monkeypatch.setattr(module, "_horizontal", counting, raising=False)
        return count

    @pytest.fixture
    def data(self):
        return builtin_scenario("smooth_roundtrip").build(17, 0)

    def test_verify_normal(self, calls, data):
        check = verify_normal(data["u"], data["nu"], data["d"], data["f"])
        assert check.normal_max_error < 1e-12
        assert len(calls) == 1

    def test_derive_normal_weight(self, calls, data):
        nu, d = _derive_normal_weight({"u": data["u"], "f": data["f"]})
        assert np.array_equal(nu.values, data["nu"].values)
        assert np.array_equal(d.values, data["d"].values)
        assert len(calls) == 1

    def test_structure_identity_residual(self, calls, data):
        structure_identity_residual(data["u"], data["f"])
        assert len(calls) == 1

    def test_evaluate(self, calls, tmp_path):
        # random_smooth builds (u, F) without the kernel
        code = main(["evaluate", "--scenario", "random_smooth", "--resolution", "9",
                     "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1

    def test_uniqueness_audit(self, calls, data):
        # two normals, the first formed again for the normal difference once
        # the curl is freed, and three eps-interpolants; the functional gap
        # reuses the two normals' weights
        u, f = data["u"], data["f"]
        v = ScalarField(u.domain, u.values + u.domain.meshes()[1])
        report = uniqueness_audit(u, v, f, None, pairwise_rotation(2))
        assert len(calls) == 6
        assert report.functional_gap == abs(functional(u, f) - functional(v, f))


class TestTracedNormal:
    """The benchmark's tracer spans the normal by rebinding
    `horizontal_normal` wherever a `parea` module holds it, so each command
    that forms a normal must reach it through that name."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        target = horizontal_module.horizontal_normal

        def counting(*args, **kwargs):
            count.append(1)
            return target(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "parea" or name.startswith("parea.")) and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, attr, counting)
        return count

    def test_every_command_reaches_the_traced_name(self, calls, tmp_path):
        scenario = tmp_path / "scenario"
        assert main(["scenario", "smooth_roundtrip", "--resolution", "9",
                     "--out", str(scenario)]) == 0
        inputs = [f"--{key}={scenario / key}.pfld" for key in ("nu", "d", "f")]
        commands = {
            "reconstruct": ["reconstruct", *inputs],
            "evaluate": ["evaluate", "--scenario", "random_smooth", "--resolution", "9"],
            "check-integrability": ["check-integrability", "--scenario", "random_smooth",
                                    "--resolution", "9"],
        }
        reached = {}
        for name, argv in commands.items():
            calls.clear()
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            reached[name] = len(calls)
        assert all(reached.values()), reached
