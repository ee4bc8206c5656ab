import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from parea import grids as grids_module
from parea import horizontal as horizontal_module
from parea import integrability as integrability_module
from parea import variational as variational_module
from parea.cli import main
from parea.grids import (
    ScalarField,
    VectorField,
    build_domain,
    field_scale,
    gradient,
    integrate,
    sample,
    sample_vector,
)
from parea.variational import (
    MinimizeOptions,
    first_order_residual,
    first_variation,
    functional,
    line_profile,
    minimize,
    pairwise_rotation,
    pointwise_skew_rank,
    skew_divergence,
    skew_transform,
    uniqueness_audit,
)
from parea import fieldio
from parea.fieldio import format_real, read_field, write_field
from parea.horizontal import curl_matrix, horizontal_normal
from parea.integrability import classify_integrability, integrability_labels
from parea.reconstruction import integrate_potential
from parea.scenarios import (
    builtin_scenario,
    heisenberg_field,
    interior_bump,
    random_smooth_field,
    random_smooth_scalar,
    seeded_init,
)
from parea.skewalg import SkewMatrix


def rotation_setup(lower=(0.0, 0.0), n=65):
    d = build_domain(2, lower, [1, 1], [n, n])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u = sample(d, lambda x, y: x * y)
    return d, f, u


class TestFunctional:
    def test_bilinear_value(self):
        d, f, u = rotation_setup()
        assert functional(u, f) == pytest.approx(1.0, abs=1e-13)

    def test_zero_everything(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u = sample(d, lambda x, y: 0.0)
        f = VectorField(d, np.zeros((2,) + d.counts))
        h = sample(d, lambda x, y: x - y)
        assert functional(u, f, h) == 0.0

    def test_shifted_candidate_value(self):
        d, f, _ = rotation_setup()
        v = sample(d, lambda x, y: x * y + y)
        assert functional(v, f) == pytest.approx(2.0, abs=1e-13)

    def test_constant_shift_identity(self):
        d, f, u = rotation_setup(n=17)
        h = sample(d, lambda x, y: np.cos(x) * y)
        c = 0.8125
        shifted = ScalarField(d, u.values + c)
        expected = functional(u, f, h) + c * integrate(h)
        assert functional(shifted, f, h) == pytest.approx(expected, abs=1e-10)


class TestSkewTransform:
    def test_planar_rotation(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        g = sample_vector(d, [lambda x, y: x, lambda x, y: y])
        a = SkewMatrix.from_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        out = skew_transform(g, a)
        x, y = d.meshes()
        assert np.array_equal(out.values[0], y)
        assert np.array_equal(out.values[1], -x)

    def test_zero_field(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        g = VectorField(d, np.zeros((2,) + d.counts))
        out = skew_transform(g, pairwise_rotation(2))
        assert np.all(out.values == 0.0)

    def test_pairwise_convention_matches_block_swap(self):
        # (G1, G2, G3, G4) -> (G2, -G1, G4, -G3) on each block
        d = build_domain(4, [0] * 4, [1] * 4, [5] * 4)
        g = random_smooth_field(d, 4, 1)
        out = skew_transform(g, pairwise_rotation(4))
        assert np.array_equal(out.values[0], g.values[1])
        assert np.array_equal(out.values[1], -g.values[0])
        assert np.array_equal(out.values[2], g.values[3])
        assert np.array_equal(out.values[3], -g.values[2])

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_pairwise_rotation_is_the_block_rotation(self, m):
        block = np.zeros((m, m))
        for j in range(m // 2):
            block[2 * j, 2 * j + 1] = 1.0
            block[2 * j + 1, 2 * j] = -1.0
        a = pairwise_rotation(m)
        assert a.m == m
        assert np.array_equal(a.matrix, block)

    def test_pointwise_orthogonality(self):
        d = build_domain(3, [0] * 3, [1] * 3, [7] * 3)
        g = random_smooth_field(d, 5, 2)
        a = SkewMatrix.from_matrix(np.array([[0, 1, -2], [-1, 0, 3], [2, -3, 0]], dtype=float))
        dots = np.einsum("k...,k...->...", skew_transform(g, a).values, g.values)
        assert np.max(np.abs(dots)) <= 1e-12 * field_scale(g) ** 2

    def test_exact_antisymmetry_required(self):
        with pytest.raises(ValueError, match="skew"):
            SkewMatrix.from_matrix(np.array([[0.0, 1.0], [-0.999, 0.0]]))


class TestSkewDivergence:
    def test_rotation_field_exact(self):
        d, f, _ = rotation_setup(n=65)
        db = skew_divergence(f, pairwise_rotation(2))
        assert np.array_equal(db.values, np.full(d.counts, 2.0))

    def test_gradient_field_cancels(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        phi = sample(d, lambda x, y: np.sin(2 * x) * np.cos(3 * y))
        db = skew_divergence(gradient(phi), pairwise_rotation(2))
        assert np.max(np.abs(db.values)) <= 1e-12

    def test_zero_coefficients(self):
        d, f, _ = rotation_setup(n=9)
        a = SkewMatrix.from_matrix(np.zeros((2, 2)))
        assert np.all(skew_divergence(f, a).values == 0.0)


class TestFirstVariation:
    def test_empty_mask_sides_agree(self):
        d, f, u = rotation_setup(lower=(0.1, 0.0), n=33)
        phi = sample(d, lambda x, y: np.sin(x) * y)
        right, left = first_variation(u, phi, f)
        assert right == left

    def test_full_mask_splits_symmetrically(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        u = sample(d, lambda x, y: np.cos(x) + y * y)
        f = VectorField(d, -gradient(u).values)
        phi = sample(d, lambda x, y: x * np.sin(3 * y))
        right, left = first_variation(u, phi, f)
        mag = integrate(gradient(phi).norm())
        assert right - left == pytest.approx(2.0 * mag, abs=1e-10)
        assert right == pytest.approx(mag, abs=1e-10)

    def test_full_mask_with_constant_phi_sides_agree(self):
        # right - left = 2 integral_S |grad(phi)|: 0 on a full mask too
        # when grad(phi) vanishes there
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        u = sample(d, lambda x, y: np.cos(x) + y * y)
        f = VectorField(d, -gradient(u).values)
        assert horizontal_normal(u, f)[1].all()
        phi = sample(d, lambda x, y: 1.0 + 0 * x)
        right, left = first_variation(u, phi, f)
        assert right == left

    def test_unit_normal_pairing(self):
        d, f, u = rotation_setup(lower=(0.1, 0.0), n=65)
        phi = sample(d, lambda x, y: y + 0 * x)
        right, left = first_variation(u, phi, f)
        assert right == pytest.approx(0.9, abs=1e-12)
        assert left == pytest.approx(0.9, abs=1e-12)

    def test_right_never_below_left(self):
        d = build_domain(2, [-1, 0], [1, 1], [33, 33])
        f = heisenberg_field(d)
        u = sample(d, lambda x, y: x * y)
        phi = sample(d, lambda x, y: np.sin(x + y))
        right, left = first_variation(u, phi, f)
        assert right >= left

    def test_h_shifts_both_sides_by_its_pairing_with_phi(self):
        # smooth_roundtrip's u and F, whose weight is bounded below, so the
        # singular set is empty and both sides are the derivative
        d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [33, 33])
        f = heisenberg_field(d)
        u = sample(d, lambda x, y: np.sin(x) + x * y)
        assert not horizontal_normal(u, f)[1].any()
        h = sample(d, lambda x, y: np.cos(2 * x) - y)
        phi = sample(d, lambda x, y: x * np.sin(3 * y))
        right, left = first_variation(u, phi, f, h)
        right0, left0 = first_variation(u, phi, f)
        shift = integrate(ScalarField(d, h.values * phi.values))
        assert abs(shift) > 0.1
        assert right - right0 == pytest.approx(shift, rel=1e-12)
        assert left - left0 == pytest.approx(shift, rel=1e-12)
        step = 1e-6
        moved = ScalarField(d, u.values + step * phi.values)
        quotient = (functional(moved, f, h) - functional(u, f, h)) / step
        assert right == pytest.approx(quotient, abs=1e-6)


def h_on_another_grid():
    """Fields on 9^4 nodes beside an H on 7^4."""
    d = build_domain(4, [0] * 4, [1] * 4, [9] * 4)
    other = build_domain(4, [0] * 4, [1] * 4, [7] * 4)
    u = sample(d, lambda a, b, c, e: a * b + 0.2 * c)
    return d, heisenberg_field(d), u, ScalarField(other, np.ones(other.counts))


class TestLineProfile:
    def test_constant_for_equal_fields(self):
        d, f, u = rotation_setup(n=17)
        profile = line_profile(u, u, f, None, np.linspace(0, 1, 5))
        assert np.max(np.abs(np.diff(profile.values))) == 0.0

    def test_affine_case(self):
        # profile integrand 2x + eps stays positive: value = 0.99 + 0.9 eps
        d, f, u = rotation_setup(lower=(0.1, 0.0), n=65)
        v = sample(d, lambda x, y: x * y + y)
        profile = line_profile(u, v, f, None, np.linspace(0, 1, 11))
        assert profile.values[0] == pytest.approx(0.99, abs=1e-13)
        assert profile.values[-1] == pytest.approx(1.89, abs=1e-13)
        assert np.max(np.abs(profile.second_differences)) <= 1e-10

    def test_random_instances_convex(self):
        rng_seeds = range(20)
        for seed in rng_seeds:
            d = build_domain(2, [0, 0], [1, 1], [17, 17])
            u = random_smooth_scalar(d, 3 * seed, 2)
            v = random_smooth_scalar(d, 3 * seed + 1, 2)
            f = random_smooth_field(d, 3 * seed + 2, 2)
            profile = line_profile(u, v, f, None, np.linspace(0, 1, 9))
            scale = field_scale(np.asarray(profile.values))
            assert profile.min_second_difference >= -1e-8 * scale

    def test_nonuniform_grid_rejected(self):
        d, f, u = rotation_setup(n=9)
        with pytest.raises(ValueError, match="uniform"):
            line_profile(u, u, f, None, np.array([0.0, 0.5, 0.6]))

    def test_h_on_another_grid_refused_before_any_kernel_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return horizontal_module._horizontal(*args)

        monkeypatch.setattr(variational_module, "_horizontal", counting)
        d, f, u, h = h_on_another_grid()
        with pytest.raises(ValueError, match="different domains"):
            line_profile(u, u, f, h, np.linspace(0, 1, 3))
        assert calls == []


class TestMinimize:
    def test_linear_boundary_descent_contract(self):
        d = build_domain(2, [0, 0], [1, 1], [33, 33])
        f = VectorField(d, np.zeros((2,) + d.counts))
        ell = sample(d, lambda x, y: 2 * x + y)
        init = seeded_init(ell, 3, amplitude=0.3)
        opts = MinimizeOptions(first_order_tol=1e-4, max_iterations=4000)
        result = minimize(f, None, ell, init, opts)
        assert result.converged
        assert [stage.stop_reason for stage in result.stages] == ["tol"] * 6
        assert functional(result.field, f) <= functional(init, f)
        assert first_order_residual(result.field, f, None) <= 1e-4 * field_scale(
            result.field)

    def test_boundary_nodes_frozen(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        boundary = sample(d, lambda x, y: x * y)
        init = seeded_init(boundary, 1)
        opts = MinimizeOptions(first_order_tol=1e-3, max_iterations=200)
        result = minimize(f, None, boundary, init, opts)
        bmask = d.boundary_mask()
        assert np.array_equal(result.field.values[bmask], boundary.values[bmask])

    def test_objective_monotone_within_stages(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        boundary = sample(d, lambda x, y: x * y)
        init = seeded_init(boundary, 2)
        opts = MinimizeOptions(first_order_tol=1e-4, max_iterations=500)
        result = minimize(f, None, boundary, init, opts)
        for stage in result.stages:
            diffs = np.diff(stage.objectives)
            assert np.all(diffs <= 1e-12)

    def test_mismatched_boundary_rejected(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = heisenberg_field(d)
        boundary = sample(d, lambda x, y: x * y)
        bad_init = sample(d, lambda x, y: x * y + 1.0)
        with pytest.raises(ValueError, match="boundary"):
            minimize(f, None, boundary, bad_init)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_unbounded_below_caps_and_reports(self):
        # strongly negative H drives the functional down forever; the solver
        # must hit the cap and report non-convergence, not assert existence
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = VectorField(d, np.zeros((2,) + d.counts))
        h = sample(d, lambda x, y: -100.0 + 0 * x)
        boundary = sample(d, lambda x, y: 0.0)
        opts = MinimizeOptions(max_iterations=30)
        result = minimize(f, h, boundary, boundary, opts)
        assert not result.converged
        assert all(stage.iterations == 30 for stage in result.stages)
        assert all(stage.stop_reason == "cap" for stage in result.stages)

    def test_gradient_formed_only_at_accepted_steps(self, monkeypatch):
        # a rejected Armijo trial is judged on its value alone: the adjoint
        # stencils run once per axis at each stage start and each accepted
        # step (they used to run for every trial)
        calls = []
        adjoint = variational_module.axis_derivative_adjoint

        def counting(*args, **kwargs):
            calls.append(1)
            return adjoint(*args, **kwargs)

        monkeypatch.setattr(variational_module, "axis_derivative_adjoint", counting)
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        boundary = sample(d, lambda x, y: x * y)
        opts = MinimizeOptions(first_order_tol=1e-4, max_iterations=500)
        result = minimize(f, None, boundary, seeded_init(boundary, 2), opts)
        steps = sum(stage.iterations for stage in result.stages)
        assert len(calls) == d.m * (steps + len(result.stages))

    def test_objective_stencils_go_through_the_shared_hook(self, monkeypatch):
        # every objective evaluation inside minimize applies the forward
        # stencil once per axis through grids.axis_derivative, where the
        # benchmark's stencil counter wraps it; a private fast path that
        # bypassed that name would break this count
        stencils = []
        values = []
        forward = grids_module.axis_derivative
        value = variational_module._SmoothedObjective.value

        def counting_stencil(*args, **kwargs):
            stencils.append(1)
            return forward(*args, **kwargs)

        def counting_value(*args, **kwargs):
            values.append(1)
            return value(*args, **kwargs)

        monkeypatch.setattr(grids_module, "axis_derivative", counting_stencil)
        monkeypatch.setattr(variational_module._SmoothedObjective, "value",
                            counting_value)
        for m, n in ((2, 17), (3, 9)):
            stencils.clear()
            values.clear()
            d = build_domain(m, [0] * m, [1] * m, [n] * m)
            f = random_smooth_field(d, 3, 1)
            boundary = sample(d, lambda *x: x[0] * x[1])
            opts = MinimizeOptions(first_order_tol=1e-6, max_iterations=40)
            minimize(f, None, boundary, seeded_init(boundary, 2), opts)
            assert len(values) > 2 * len(variational_module._EPS_SCHEDULE)
            assert len(stencils) == m * len(values)

    def test_log_text_format(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = heisenberg_field(d)
        boundary = sample(d, lambda x, y: x * y)
        opts = MinimizeOptions(first_order_tol=1e-3, max_iterations=50)
        result = minimize(f, None, boundary, seeded_init(boundary, 1), opts)
        lines = result.log_text().splitlines()
        assert lines[0] == "stage iteration objective residual"
        assert len(lines) > len(result.stages)

    def test_options_validation(self):
        # the eps schedule is a module constant now; the two options left
        # must be usable (nan, inf and negative values used to be accepted)
        for bad in ({"max_iterations": 0}, {"max_iterations": -3},
                    {"first_order_tol": 0.0}, {"first_order_tol": -1.0},
                    {"first_order_tol": float("nan")},
                    {"first_order_tol": float("inf")}):
            with pytest.raises(ValueError):
                MinimizeOptions(**bad)


_MINIMIZE_GOLDEN = Path(__file__).parent / "data" / "minimize_golden_sha256.json"


def test_minimize_golden_digests(tmp_path):
    """The solver's path, pinned: SHA-256 of the convergence log, the
    objective series and the minimizer CSV of `minimize` on two scenarios and
    two seeds at 17^2. summary.csv is left out, so that a new summary row
    does not move the pin."""
    digests = {}
    for name in ("heisenberg(1)", "random_smooth"):
        for seed in (1, 2):
            out = tmp_path / f"{name}_seed{seed}"
            assert main(["minimize", "--scenario", name, "--resolution", "17",
                         "--seed", str(seed), "--first-order-tol", "1e-4",
                         "--out", str(out)]) == 0
            for artifact in ("convergence.log", "convergence.dat", "minimizer.csv"):
                digests[f"{out.name}/{artifact}"] = hashlib.sha256(
                    (out / artifact).read_bytes()).hexdigest()
    assert digests == json.loads(_MINIMIZE_GOLDEN.read_text())


def test_stage_arrays_and_streamed_logs(tmp_path, monkeypatch):
    """Each stage keeps its objectives and residuals as float64 arrays of
    iterations + 1 values. `convergence.log` and `convergence.dat` match a
    line-by-line `format_real` reference built from them, on a solve whose
    later stages take 0 iterations, at any chunk size."""
    data = builtin_scenario("random_smooth").build(9, 0)
    result = minimize(data["f"], data.get("h"), data["u"], seeded_init(data["u"], 0),
                      MinimizeOptions(first_order_tol=1e-3))
    assert 0 in [stage.iterations for stage in result.stages]
    log, dat, offset = ["stage iteration objective residual"], ["# iteration objective"], 0
    for snum, stage in enumerate(result.stages):
        for values, last in ((stage.objectives, stage.objective),
                             (stage.residuals, stage.residual)):
            assert values.dtype == np.float64 and values.shape == (stage.iterations + 1,)
            assert values[-1] == last
        for it, (obj, res) in enumerate(zip(stage.objectives, stage.residuals)):
            log.append(f"{snum} {it} {format_real(obj)} {format_real(res)}")
            dat.append(f"{offset + it} {format_real(obj)}")
        offset += stage.iterations
    expected = {"convergence.log": "\n".join(log) + "\n",
                "convergence.dat": "\n".join(dat) + "\n"}
    assert result.log_text() == expected["convergence.log"]
    for chunk in (1, 3, fieldio._CHUNK_LINES):
        monkeypatch.setattr(fieldio, "_CHUNK_LINES", chunk)
        out = tmp_path / str(chunk)
        assert main(["minimize", "--scenario", "random_smooth", "--resolution", "9",
                     "--seed", "0", "--first-order-tol", "1e-3", "--out", str(out)]) == 0
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode()


def test_stage_logs_compare_and_hash_by_value():
    """Two identical solves give equal stages with equal hashes; one changed
    objective in a stage's history makes it unequal."""
    data = builtin_scenario("random_smooth").build(9, 0)
    a, b = (minimize(data["f"], data.get("h"), data["u"], seeded_init(data["u"], 0),
                     MinimizeOptions(first_order_tol=1e-3)) for _ in range(2))
    assert a.stages == b.stages
    assert [hash(s) for s in a.stages] == [hash(s) for s in b.stages]
    stage = a.stages[0]
    changed = stage.objectives.copy()
    changed[-1] = np.nextafter(changed[-1], np.inf)
    other = dataclasses.replace(stage, objectives=changed)
    assert other != stage and stage != other
    assert other == dataclasses.replace(stage, objectives=changed.copy())
    assert stage != (stage.eps, stage.iterations)


_MINIMIZE_ND_GOLDEN = Path(__file__).parent / "data" / "minimize_golden_nd_sha256.json"


def test_minimize_golden_digests_higher_dimensions():
    """The solver's path where the 2-D golden test does not reach: the
    middle-axis stencils of m = 3 with a nonzero H, and m = 4 without H.
    SHA-256 of the minimizer's values and of the convergence log."""
    d3 = build_domain(3, [0] * 3, [1] * 3, [9] * 3)
    b3 = sample(d3, lambda x, y, z: x * y + z)
    d4 = build_domain(4, [0] * 4, [1] * 4, [7] * 4)
    b4 = sample(d4, lambda a, b, c, e: a * b + c * e)
    cases = {
        "m3_9_h": (random_smooth_field(d3, 3, 1),
                   sample(d3, lambda x, y, z: 0.5 * np.cos(x) * y - z),
                   b3, seeded_init(b3, 4)),
        "m4_7": (heisenberg_field(d4), None, b4, seeded_init(b4, 2)),
    }
    opts = MinimizeOptions(max_iterations=40, first_order_tol=1e-8)
    digests = {}
    for name, (f, h, boundary, init) in cases.items():
        result = minimize(f, h, boundary, init, opts)
        digests[f"{name}/field"] = hashlib.sha256(
            result.field.values.tobytes()).hexdigest()
        digests[f"{name}/log"] = hashlib.sha256(
            result.log_text().encode()).hexdigest()
    assert digests == json.loads(_MINIMIZE_ND_GOLDEN.read_text())


class TestStationarityPairing:
    def test_first_variation_small_at_minimizer(self):
        # away from the singular set the discrete pairing with any boundary
        # vanishing direction is controlled by the first-order residual
        d = build_domain(2, [0, 0], [1, 1], [33, 33])
        base = np.stack([np.full(d.counts, 2.0), np.full(d.counts, 3.0)])
        f = VectorField(d, base + 0.2 * random_smooth_field(d, 7, 2).values)
        boundary = sample(d, lambda x, y: x * y)
        tol = 1e-5
        opts = MinimizeOptions(first_order_tol=tol, max_iterations=25000)
        result = minimize(f, None, boundary, seeded_init(boundary, 5), opts)
        assert result.converged
        phi = ScalarField(d, interior_bump(d).values)
        right, left = first_variation(result.field, phi, f)
        bound = 2.0 * tol * field_scale(boundary) * np.sum(np.abs(phi.values))
        assert abs(right) <= bound
        assert abs(left) <= bound


class TestPointwiseRank:
    def test_heisenberg_blocks(self):
        d = build_domain(4, [0] * 4, [1] * 4, [5] * 4)
        h = curl_matrix(heisenberg_field(d))
        ranks = pointwise_skew_rank(h)
        assert np.all(ranks == 4)

    def test_zero_field(self):
        d = build_domain(2, [0, 0], [1, 1], [5, 5])
        h = curl_matrix(VectorField(d, np.zeros((2,) + d.counts)))
        assert np.all(pointwise_skew_rank(h) == 0)


def rank2_linear_field(m, n=5, seed=3):
    """F = A x with a generic rank-2 skew A; its curl -2A is rank 2 everywhere."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(m), rng.standard_normal(m)
    mat = np.outer(a, b) - np.outer(b, a)
    d = build_domain(m, [-1.0] * m, [1.0] * m, [n] * m)
    x = np.stack(d.meshes())
    return VectorField(d, np.einsum("jk,k...->j...", mat, x))


@pytest.mark.parametrize("m", [4, 6])
class TestRankTwoCurl:
    def test_pointwise_rank_two(self, m):
        f = rank2_linear_field(m)
        assert np.all(pointwise_skew_rank(curl_matrix(f)) == 2)

    def test_audit_never_flags_rank_condition(self, m):
        f = rank2_linear_field(m)
        d = f.domain
        u = ScalarField(d, d.meshes()[0] * d.meshes()[1])
        v = ScalarField(d, u.values + 1e-2 * interior_bump(d).values)
        report = uniqueness_audit(u, v, f, None, pairwise_rotation(m))
        assert report.joint_mask_fraction < 1.0
        assert report.rank_condition_fraction == 0.0

    def test_rank_analysis_reports_rank_two(self, m, tmp_path):
        write_field(rank2_linear_field(m), tmp_path / "f.pfld")
        out = tmp_path / "out"
        assert main(["rank-analysis", "--f", str(tmp_path / "f.pfld"),
                     "--out", str(out)]) == 0
        summary = dict(line.split(",", 1) for line in
                       (out / "summary.csv").read_text().splitlines()[1:])
        assert summary["rank_min"] == "2"
        assert summary["rank_max"] == "2"


_RANK_GOLDEN = Path(__file__).parent / "data" / "rank_audit_golden_sha256.json"
_EVEN_M_SCENARIOS = ("example_2_2", "example_4_2", "smooth_roundtrip", "random_smooth",
                     "heisenberg(1)", "heisenberg(2)", "heisenberg(3)")


def rank_audit_digests(root: Path) -> dict:
    """SHA-256 of every file `rank-analysis` and `audit-uniqueness` write for
    each even-m built-in scenario at resolution 5 and for F = A x with a
    generic rank-2 A in m = 4 and 6. The audit's v is u plus a small interior
    bump; u is x_1 x_2 where the case has none."""
    cases = {name: (["--scenario", name, "--resolution", "5"],
                    builtin_scenario(name).build(5, 0)) for name in _EVEN_M_SCENARIOS}
    for m in (4, 6):
        f = rank2_linear_field(m)
        path = root / "inputs" / f"rank2_m{m}" / "f.pfld"
        path.parent.mkdir(parents=True)
        write_field(f, path)
        cases[f"rank2_m{m}"] = (["--f", str(path)], {"f": f})
    for name, (source, data) in cases.items():
        d = data["f"].domain
        inputs = root / "inputs" / name
        inputs.mkdir(parents=True, exist_ok=True)
        u = data["u"] if "u" in data else ScalarField(d, d.meshes()[0] * d.meshes()[1])
        v = ScalarField(d, u.values + 1e-2 * interior_bump(d).values)
        audit_inputs = ["--v", str(inputs / "v.pfld")]
        write_field(v, inputs / "v.pfld")
        if "u" not in data:
            write_field(u, inputs / "u.pfld")
            audit_inputs += ["--u", str(inputs / "u.pfld")]
        out = root / "out" / name
        assert main(["rank-analysis", *source, "--out", str(out / "rank")]) == 0
        assert main(["audit-uniqueness", *source, *audit_inputs,
                     "--out", str(out / "audit")]) == 0
    return {p.relative_to(root / "out").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((root / "out").rglob("*")) if p.is_file()}


def test_rank_audit_golden_digests(tmp_path):
    assert rank_audit_digests(tmp_path) == json.loads(_RANK_GOLDEN.read_text())


class TestUniquenessAudit:
    def test_shared_normal_pair_metrics(self):
        data = builtin_scenario("example_2_2").build()
        report = uniqueness_audit(data["u"], data["v"], data["f"], None, data["a"])
        assert report.normal_max <= 1e-12
        assert abs(report.gradient_max - 1.0) <= 1e-12
        assert report.rank_condition_fraction == 0.0
        assert report.nonintegrable_fraction == 0.0
        assert report.joint_mask_fraction == 0.0
        assert np.all(report.divb_sign == 1)
        # grad(v) - grad(u) = (0, 1) makes the transformed pairing vanish
        assert report.orthogonality_pointwise <= 1e-12

    def test_identical_fields(self):
        data = builtin_scenario("example_2_2").build()
        report = uniqueness_audit(data["u"], data["u"], data["f"], None, data["a"])
        assert report.normal_max == 0.0
        assert report.gradient_max == 0.0
        assert report.orthogonality_residual == 0.0
        assert report.functional_gap == 0.0

    def test_curl_built_once(self, monkeypatch):
        # the ranks and both classifications share one curl (it was built 3 times)
        calls = []

        def counting(f):
            calls.append(1)
            return curl_matrix(f)

        monkeypatch.setattr(variational_module, "curl_matrix", counting)
        monkeypatch.setattr(integrability_module, "curl_matrix", counting)
        d = build_domain(4, [0] * 4, [1] * 4, [5] * 4)
        f = heisenberg_field(d)
        u = sample(d, lambda a, b, c, e: a * b + 0.2 * c)
        v = ScalarField(d, u.values + 1e-3 * interior_bump(d).values)
        uniqueness_audit(u, v, f, None, pairwise_rotation(4))
        assert len(calls) == 1

    def test_h_on_another_grid_refused_before_the_curl(self, monkeypatch):
        calls = []

        def counting(f):
            calls.append(1)
            return curl_matrix(f)

        monkeypatch.setattr(variational_module, "curl_matrix", counting)
        d, f, u, h = h_on_another_grid()
        with pytest.raises(ValueError, match="different domains"):
            uniqueness_audit(u, u, f, h, pairwise_rotation(4))
        assert calls == []

    def test_full_rank_flags_m4(self):
        d = build_domain(4, [0] * 4, [1] * 4, [5] * 4)
        f = heisenberg_field(d)
        u = sample(d, lambda a, b, c, e: a * b + 0.2 * c)
        v = ScalarField(d, u.values + 1e-3 * interior_bump(d).values)
        report = uniqueness_audit(u, v, f, None, pairwise_rotation(4))
        assert report.rank_condition_fraction == 1.0
        assert report.epsilon_mask_fractions == ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))

    def test_m4_minimize_consistency(self):
        # with a full-rank curl there is no shallow valley: two seeded runs
        # coincide at solver tolerance and flag the rank condition off-mask
        d = build_domain(4, [0] * 4, [1] * 4, [7] * 4)
        f = heisenberg_field(d)
        x = d.meshes()
        boundary = ScalarField(d, x[0] * x[1])
        opts = MinimizeOptions(first_order_tol=1e-5, max_iterations=8000)
        fields = []
        for seed in (1, 2):
            result = minimize(f, None, boundary,
                              seeded_init(boundary, seed, amplitude=0.1), opts)
            assert result.converged
            fields.append(result.field)
        gap = np.max(np.abs(fields[0].values - fields[1].values))
        assert gap <= 5e-3 * field_scale(boundary)
        report = uniqueness_audit(fields[0], fields[1], f, None,
                                  pairwise_rotation(4))
        joint = report.joint_mask_fraction
        assert report.rank_condition_fraction == pytest.approx(1.0 - joint)
        assert report.orthogonality_residual <= 1e-4


class TestPeakMemory:
    """tracemalloc peaks at m = 6 on 5^6 nodes, in units of one Frobenius
    tensor (20 entries per node). Building the tensor through a list,
    np.stack and the field's copy held it three times at once (3.9 units);
    one preallocated fill left the fill and the copy (2.1), and the field
    now adopts the fill (1.95). The audit kept both candidates' tensors
    through its eps loop (5.6 units); its peak was then the rank step (3.6),
    then the second classification, with the curl and the first candidate's
    normal alive (3.5); its classifications now read labels without forming
    a tensor (2.1). The Frobenius tensor is now never formed whole: its
    blocks stream into the per-node max, so a classification holds the normal
    and the curl instead of the tensor (2.26 -> 1.31), and an in-process
    `check-integrability` of the heisenberg(3) files peaks in its read of F
    (2.2) instead of in the classification (2.64). The normal is built in
    place in the kernel's stack (0.96 -> 0.40), and the audit's eps loop
    frees each iteration's arrays before the next (2.07 -> 1.67). The audit
    now drops each node array once the last quantity read from it exists,
    and a Frobenius block is summed in place (1.67 -> 1.62); at m = 2 on
    129^2 its peak fell from 16.2 to 8.9 node arrays, with the derivative
    matrices cached. A classification now holds the curl beside one normal
    only, the audit forming the first normal again for the difference, and
    the pipelines free each input at its last read (audit 1.58 -> 1.28)."""

    @pytest.fixture(scope="class")
    def fields(self):
        d = build_domain(6, [-1.0] * 6, [1.0] * 6, [5] * 6)
        f = heisenberg_field(d)
        u = random_smooth_scalar(d, 1, 2)
        v = random_smooth_scalar(d, 2, 2)
        return u, v, f, 20 * d.node_count * 8

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return peak - before

    def test_check_integrability_peak(self, fields, tmp_path):
        # the workload's inputs: the heisenberg(3) scenario's u and F files
        main(["scenario", "heisenberg(3)", "--resolution", "5",
              "--out", str(tmp_path / "in")])
        argv = ["check-integrability", "--u", str(tmp_path / "in" / "u.pfld"),
                "--f", str(tmp_path / "in" / "f.pfld"), "--out", str(tmp_path / "out")]
        assert self.peak(lambda: main(argv)) <= 2.4 * fields[3]

    def test_horizontal_normal_peak(self, fields):
        # grad(w) + F, its squares, the quotient and the masked copy were
        # separate stacks (0.96 units); the normal is now the kernel's stack
        u, _, f, tensor_bytes = fields
        assert self.peak(lambda: horizontal_normal(u, f)) <= 0.5 * tensor_bytes

    def test_pointwise_skew_rank_peak(self, fields):
        # the dense (m, m, *counts) stack and the SVD's copy of it peaked at
        # 3.4 curls (5.5 for a rank-2 curl, which only the SVD ranks); now
        # a block of the nodes in doubt is the only dense part
        h = curl_matrix(fields[2])
        assert self.peak(lambda: pointwise_skew_rank(h)) < h.values.nbytes
        h2 = curl_matrix(rank2_linear_field(6))
        assert self.peak(lambda: pointwise_skew_rank(h2)) < 2.5 * h2.values.nbytes

    def test_uniqueness_audit_peak(self, fields):
        u, v, f, tensor_bytes = fields
        a = pairwise_rotation(6)
        assert self.peak(lambda: uniqueness_audit(u, v, f, None, a)) <= 1.35 * tensor_bytes

    def test_heisenberg_checks_peak(self):
        # at 7^6 (m = 6) the curl was kept beside the divergence (31.0 node
        # arrays); it is now dropped once its rank is read (25.1)
        scenario = builtin_scenario("heisenberg(3)")
        node_bytes = 8 * scenario.domain(7).node_count
        assert self.peak(lambda: scenario.run_checks(7)) <= 26.5 * node_bytes

    def test_check_integrability_peak_at_size(self, tmp_path):
        # the workload's files at 7^6: the pipeline held u and F through the
        # classification and the Frobenius write (35.3 node arrays); it now
        # hands them over and the classification frees u before the curl (31.2)
        data = builtin_scenario("heisenberg(3)").build(7)
        argv = ["check-integrability", "--out", str(tmp_path / "out")]
        for key in ("u", "f"):
            write_field(data[key], tmp_path / f"{key}.pfld")
            argv += [f"--{key}", str(tmp_path / f"{key}.pfld")]
        node_bytes = data["u"].values.nbytes
        del data
        assert self.peak(lambda: main(argv)) <= 32.5 * node_bytes

    def test_uniqueness_audit_peak_planar(self):
        # example_2_2 at 129^2 (m = 2: one curl entry, no Frobenius blocks):
        # the differences, the ranks, the labels and the eps loop's arrays
        # lived to the end (16.2 node arrays); each is now dropped at once (8.9)
        data = builtin_scenario("example_2_2").build(129)
        u, v, f, a = data["u"], data["v"], data["f"], data["a"]
        uniqueness_audit(u, v, f, None, a)  # caches the derivative matrices
        assert self.peak(lambda: uniqueness_audit(u, v, f, None, a)) <= 8.0 * u.values.nbytes

    def test_integrability_labels_peak(self):
        # one block: the node max and the block's |.| (8 bytes a node each);
        # the labels are int8, filled in place, where two int64 np.where
        # results made the peak 25 bytes a node
        rng = np.random.default_rng(0)
        block = rng.standard_normal((129, 129))
        mask = rng.random(block.shape) < 0.2
        labels = integrability_labels(mask, (block,), 1e-4)
        assert labels.dtype == np.int8
        assert self.peak(lambda: integrability_labels(mask, (block,), 1e-4)) <= 17 * block.size

    def test_integrate_potential_least_squares_peak(self):
        # smooth_roundtrip's gradient at 129^2: the refusal check took |curl|
        # and kept the curl through the solve (14.3 node arrays); it now reads
        # the max through max_abs and drops the curl first (12.3)
        g = gradient(builtin_scenario("smooth_roundtrip").build(129)["u"])
        integrate_potential(g, method="least-squares")  # caches the derivative matrices
        peak = self.peak(lambda: integrate_potential(g, method="least-squares"))
        assert peak <= 13.0 * g.values[0].nbytes

    def test_curl_matrix_peak(self, fields):
        # the field copied the entries it was handed (1.6 units); it now
        # adopts them (0.95, of which the 15 curl blocks are 0.75)
        assert self.peak(lambda: curl_matrix(fields[2])) <= 1.0 * fields[3]

    def test_classify_integrability_peak(self, fields):
        # |T| over all 20 blocks at once, beside the tensor and the field's
        # copy of it, peaked at 3.1 units; the per-node max now takes one
        # block at a time and the field adopts the tensor (2.3); the tensor
        # is now streamed, never formed whole (1.31)
        u, _, f, tensor_bytes = fields
        assert self.peak(lambda: classify_integrability(u, f)) <= 1.5 * tensor_bytes

    def test_read_field_peak(self, tmp_path):
        # a 7^6 vector field: holding the text, a copy of the body and a str
        # per token peaked at 16.7 times the values' bytes; the streamed
        # body peaks at 1.4
        d = build_domain(6, [-1.0] * 6, [1.0] * 6, [7] * 6)
        field = VectorField(d, np.random.default_rng(0).standard_normal((6,) + d.counts))
        path = tmp_path / "f.pfld"
        write_field(field, path)
        assert self.peak(lambda: read_field(path)) <= 2.5 * field.values.nbytes

    def test_read_field_peak_few_distinct(self, tmp_path):
        # heisenberg(3)'s F at 7^6 holds 14 distinct tokens, so every chunk
        # goes through its token table; the same bound holds
        field = builtin_scenario("heisenberg(3)").build(7)["f"]
        path = tmp_path / "f.pfld"
        write_field(field, path)
        assert self.peak(lambda: read_field(path)) <= 2.5 * field.values.nbytes
