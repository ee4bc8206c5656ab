import numpy as np
import pytest

from parea import grids as grids_module
from parea import skewalg as skewalg_module
from parea.grids import (
    Alternating3Field,
    ScalarField,
    VectorField,
    build_domain,
    field_scale,
    gradient,
    gradient_values,
    pair_indices,
    sample,
    sample_vector,
    triple_indices,
)
from parea.horizontal import (
    curl_matrix,
    horizontal_normal,
    structure_identity_residual,
    weight,
)
from parea.integrability import (
    DEFAULT_CLASSIFY_TOL,
    FrobeniusTensor,
    IntegrabilityLabel,
    classify_integrability,
    codazzi_residual_2d,
    frobenius_tensor,
    integrability_labels,
    normal_contraction_residual,
    renormalize_normal,
    tangential_curl_residual,
    weight_equation_residual,
)
from parea.scenarios import (
    builtin_scenario,
    heisenberg_field,
    random_smooth_field,
    random_smooth_scalar,
)


def constant_vector(domain, direction):
    direction = np.asarray(direction, dtype=float)
    comps = [np.full(domain.counts, c) for c in direction]
    return VectorField(domain, np.stack(comps))


def unit_box(m, n):
    return build_domain(m, [0.0] * m, [1.0] * m, [n] * m)


def stacked(t):
    """The streamed tensor's blocks stacked into one alt3 field, for entry
    reads; the tensor itself never forms them at once."""
    return Alternating3Field(t.domain, np.stack(list(t.blocks)))


class TestFrobeniusTensor:
    def test_empty_in_two_dimensions(self):
        d = unit_box(2, 9)
        f = heisenberg_field(d)
        nu = constant_vector(d, [0.0, 1.0])
        t = frobenius_tensor(nu, f)
        assert list(t.blocks) == []
        assert t.max_abs() == 0.0
        assert np.array_equal(t.node_max, np.zeros(d.counts))

    def test_m4_single_class(self):
        # h = block(2, 2); nu = e1 leaves only the (1,3,4) class, value 2
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        nu = constant_vector(d, [1.0, 0.0, 0.0, 0.0])
        t = stacked(frobenius_tensor(nu, f))
        for (k, i, j) in t.indices:
            expected = 2.0 if (k, i, j) == (0, 2, 3) else 0.0
            assert np.array_equal(t.entry(k, i, j), np.full(d.counts, expected))

    @pytest.mark.parametrize("m, n", [(3, 9), (4, 6), (6, 5)])
    def test_matches_entry_formula(self, m, n):
        d = unit_box(m, n)
        f = random_smooth_field(d, 11, 2)
        nu, _, _ = horizontal_normal(random_smooth_scalar(d, 12, 2), f)
        h, v = curl_matrix(f), nu.values
        expected = [v[k] * h.entry(i, j) + v[i] * h.entry(j, k) + v[j] * h.entry(k, i)
                    for k, i, j in triple_indices(m)]
        expected = np.stack(expected)
        t = frobenius_tensor(nu, f)
        # each read forms the blocks again; the per-node max is theirs
        for _ in range(2):
            assert np.array_equal(stacked(t).values, expected)
        assert np.array_equal(t.node_max, np.max(np.abs(expected), axis=0))
        assert t.max_abs() == np.max(np.abs(expected))

    def test_gradient_field_vanishes(self):
        d = unit_box(3, 9)
        phi = sample(d, lambda x, y, z: x * x + y * z)
        f = VectorField(d, gradient(phi).values)
        nu = constant_vector(d, [1.0, 0.0, 0.0])
        assert frobenius_tensor(nu, f).max_abs() < 1e-12

    def test_antisymmetric_reads(self):
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        nu = constant_vector(d, [0.5, 0.5, 0.5, 0.5])
        t = stacked(frobenius_tensor(nu, f))
        assert np.array_equal(t.entry(2, 0, 3), -t.entry(0, 2, 3))
        assert np.array_equal(t.entry(3, 0, 2), t.entry(0, 2, 3))
        assert np.all(t.entry(0, 0, 3) == 0.0)


class TestClassification:
    def test_plain_array_results(self):
        """The singular mask is a read-only bool array of shape `counts`, and
        the labels come as int8 beside the tensor they were read from."""
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        w = sample(d, lambda a, b, c, e: a * b)
        _, mask, _ = horizontal_normal(w, f)
        assert type(mask) is np.ndarray
        assert mask.dtype == bool and mask.shape == d.counts
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0, 0, 0] = not mask[0, 0, 0, 0]
        labels, tensor = classify_integrability(w, f)
        assert type(labels) is np.ndarray
        assert labels.dtype == np.int8 and labels.shape == d.counts
        assert isinstance(tensor, FrobeniusTensor)
        assert np.array_equal(labels == int(IntegrabilityLabel.SINGULAR), mask)

    def test_m4_generic_nonintegrable(self):
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        w = sample(d, lambda a, b, c, e: a * b + 0.3 * c - 0.1 * e + 0.5 * a)
        labels, _ = classify_integrability(w, f)
        off = labels != int(IntegrabilityLabel.SINGULAR)
        assert np.all(labels[off] == int(IntegrabilityLabel.NONINTEGRABLE))

    def test_curl_free_integrable(self):
        d = unit_box(3, 9)
        f = VectorField(d, np.zeros((3,) + d.counts))
        w = sample(d, lambda x, y, z: x + 2 * y + 3 * z)
        labels, _ = classify_integrability(w, f)
        assert np.all(labels == int(IntegrabilityLabel.INTEGRABLE))

    def test_m2_vacuously_integrable(self):
        d = build_domain(2, [0.1, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        w = sample(d, lambda x, y: x * y)
        labels, _ = classify_integrability(w, f)
        assert np.all(labels == int(IntegrabilityLabel.INTEGRABLE))

    def test_singular_labelled(self):
        d = build_domain(2, [-1, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        w = sample(d, lambda x, y: x * y)
        labels, _ = classify_integrability(w, f)
        assert labels[8, 0] == int(IntegrabilityLabel.SINGULAR)

    def test_carries_normal_mask_and_tensor(self):
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        w = sample(d, lambda a, b, c, e: a * b + 0.3 * c)
        labels, tensor = classify_integrability(w, f)
        nu, mask, _ = horizontal_normal(w, f)
        expected = frobenius_tensor(nu, f)
        assert np.array_equal(stacked(tensor).values, stacked(expected).values)
        # one labelling rule, on the tensor's per-node max or on its blocks
        assert np.array_equal(labels, integrability_labels(mask, expected.blocks,
                                                           DEFAULT_CLASSIFY_TOL))

    @pytest.mark.parametrize("tau, eta", [(np.inf, DEFAULT_CLASSIFY_TOL), (1e-6, np.inf),
                                          (1e-6, np.nan)])
    def test_thresholds_must_be_positive_and_finite(self, tau, eta):
        # an infinite eta labelled almost every node integrable
        d = unit_box(4, 5)
        w = sample(d, lambda a, b, c, e: a * b + 0.3 * c)
        with pytest.raises(ValueError, match="tau and eta must be positive and finite"):
            classify_integrability(w, heisenberg_field(d), tau, eta)
        mask = np.zeros(d.counts, dtype=bool)
        if eta != DEFAULT_CLASSIFY_TOL:
            with pytest.raises(ValueError, match="eta must be positive and finite"):
                integrability_labels(mask, (np.ones(d.counts),), eta)

    def test_labels_follow_the_threshold_rule(self):
        # singular on the mask, else integrable iff max |T| < eta * field_scale(T);
        # a NaN max is nonintegrable
        rng = np.random.default_rng(4)
        tmax = 3.0 * rng.random((9, 9))
        tmax[0, 0], tmax[1, 1] = np.nan, 0.5 * field_scale(tmax)
        mask = rng.random((9, 9)) < 0.3
        labels = integrability_labels(mask, (tmax,), 0.5)
        expected = np.where(mask, int(IntegrabilityLabel.SINGULAR),
                            np.where(tmax < 0.5 * field_scale(tmax),
                                     int(IntegrabilityLabel.INTEGRABLE),
                                     int(IntegrabilityLabel.NONINTEGRABLE)))
        assert labels.dtype == np.int8
        assert np.array_equal(labels, expected)

    def test_full_rank_blocks_never_integrable(self):
        # rank-4 curl: no unit direction makes the tensor vanish anywhere
        d = unit_box(4, 5)
        f = heisenberg_field(d)
        rng = np.random.default_rng(9)
        scale = None
        for _ in range(25):
            direction = rng.standard_normal(4)
            direction /= np.linalg.norm(direction)
            t = stacked(frobenius_tensor(constant_vector(d, direction), f))
            tmax = np.max(np.abs(t.values), axis=0)
            scale = field_scale(t) if scale is None else scale
            assert tmax.min() >= 1e-4 * scale


class TestTangentialCurlResidual:
    def test_derived_from_potential_second_order(self):
        errs = []
        for n in (33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = ScalarField(d, 0.3 * random_smooth_scalar(d, 21, 2).values)
            base = np.stack([np.full(d.counts, 2.0), np.full(d.counts, 3.0)])
            f = VectorField(d, base + 0.3 * random_smooth_field(d, 22, 2).values)
            nu, _, _ = horizontal_normal(u, f)
            res = tangential_curl_residual(nu, weight(u, f), f)
            errs.append(np.max(np.abs(res.values)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_constant_normal_zero_field(self):
        # both sides vanish identically; only boundary-stencil round-off on
        # the non-dyadic constant components survives
        data = builtin_scenario("example_4_3").build()
        res = tangential_curl_residual(data["nu"], data["d"], data["f"])
        assert np.max(np.abs(res.values)) <= 1e-13

    def test_nonzero_when_normal_not_adapted(self):
        # m=3 rotation in the first two axes, probe direction off the
        # eigenplanes: residual entries are (1,2): -1, (1,3): +1 by hand
        d = unit_box(3, 9)
        f = sample_vector(d, [lambda x, y, z: -y, lambda x, y, z: x,
                              lambda x, y, z: 0 * z])
        nu = constant_vector(d, [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)])
        one = ScalarField(d, np.ones(d.counts))
        res = tangential_curl_residual(nu, one, f)
        assert np.max(np.abs(res.entry(0, 1) + 1.0)) < 1e-13
        assert np.max(np.abs(res.entry(0, 2) - 1.0)) < 1e-13
        assert np.max(np.abs(res.entry(1, 2))) < 1e-13

    def test_requires_positive_weight(self):
        d = unit_box(2, 9)
        f = heisenberg_field(d)
        nu = constant_vector(d, [0.0, 1.0])
        bad = ScalarField(d, np.zeros(d.counts))
        with pytest.raises(ValueError, match="positive"):
            tangential_curl_residual(nu, bad, f)


class TestContractionResidual:
    def test_contracted_but_not_closed_case(self):
        data = builtin_scenario("example_4_2").build()
        res = normal_contraction_residual(data["nu"], data["d"], data["f"])
        assert np.max(np.abs(res.values)) <= 1e-12

    def test_unit_norm_failure_case(self):
        data = builtin_scenario("example_4_3").build()
        res = normal_contraction_residual(data["nu"], data["d"], data["f"])
        norms = np.sqrt(np.sum(res.values ** 2, axis=0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_derived_from_potential_second_order(self):
        errs = []
        for n in (33, 65):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = ScalarField(d, 0.3 * random_smooth_scalar(d, 31, 2).values)
            base = np.stack([np.full(d.counts, 2.0), np.full(d.counts, 3.0)])
            f = VectorField(d, base + 0.3 * random_smooth_field(d, 32, 2).values)
            nu, _, _ = horizontal_normal(u, f)
            res = normal_contraction_residual(nu, weight(u, f), f)
            errs.append(np.max(np.abs(res.values)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6


def renormalized_smooth_triple(n, seed):
    d = build_domain(2, [0, 0], [1, 1], [n, n])
    raw = random_smooth_field(d, seed, 2).values
    raw = np.stack([2.0 + 0.3 * raw[0], 0.3 * raw[1]])
    norms = np.sqrt(np.sum(raw ** 2, axis=0))
    nu = VectorField(d, raw / norms)
    dd = ScalarField(d, 1.0 + 0.3 * random_smooth_scalar(d, seed + 1, 2).values)
    assert np.all(dd.values > 0)
    f = VectorField(d, 0.5 * random_smooth_field(d, seed + 2, 2).values)
    return nu, dd, f


class TestWeightEquationEquivalence:
    def test_sign_flip_agreement_second_order(self):
        # the two formulations agree up to sign and a discrete product-rule
        # term once nu is renormalized at nodes
        for seed in (100, 200):
            gaps = []
            for n in (65, 129):
                nu, dd, f = renormalized_smooth_triple(n, seed)
                r1 = normal_contraction_residual(nu, dd, f).values
                r2 = weight_equation_residual(nu, dd, f).values
                gap = min(np.max(np.abs(r1 + r2)), np.max(np.abs(r1 - r2)))
                gaps.append(gap)
            assert gaps[0] <= 1e-2
            assert 3.4 <= gaps[0] / gaps[1] <= 4.6

    def test_same_example_cases(self):
        data = builtin_scenario("example_4_2").build()
        res = weight_equation_residual(data["nu"], data["d"], data["f"])
        assert np.max(np.abs(res.values)) <= 1e-12


def smooth_triple(m, n, seed):
    """A smooth (u, F) pair with the weight bounded away from zero, and the
    (nu, D) it induces."""
    d = build_domain(m, [0.1] * m, [1.0] * m, [n] * m)
    u = ScalarField(d, 0.3 * random_smooth_scalar(d, seed, 2).values)
    base = np.stack([np.full(d.counts, 2.0 + k) for k in range(m)])
    f = VectorField(d, base + 0.5 * random_smooth_field(d, seed + 1, 2).values)
    nu, mask, _ = horizontal_normal(u, f)
    assert not mask.any()
    return u, nu, weight(u, f), f


def dense_reference_residuals(nu, dd, f):
    """The tangential-curl, normal-contraction and weight-equation residuals
    written with the dense (m, m, *counts) curl and einsum contractions."""
    d = nu.domain
    v, w = nu.values, dd.values
    dnu = np.empty((d.m, d.m) + d.counts)
    for j in range(d.m):
        dnu[:, j] = gradient_values(d, v[j])
    hmat = curl_matrix(f).dense()
    c = np.einsum("k...,kj...->j...", v, dnu)
    s = np.einsum("k...,ik...->i...", v, hmat)
    tangential = []
    for i, j in pair_indices(d.m):
        lhs = dnu[i, j] - dnu[j, i] - v[i] * c[j] + v[j] * c[i]
        rhs = (hmat[i, j] - v[j] * s[i] + v[i] * s[j]) / w
        tangential.append(lhs - rhs)
    grad_d = gradient_values(d, w)
    nu_dot_dd = np.einsum("i...,i...->...", v, grad_d)
    nu_h = np.einsum("i...,ik...->k...", v, hmat)
    a = c - np.einsum("j...,kj...->k...", v, dnu)
    contraction = v * nu_dot_dd - grad_d + a * w - nu_h
    weight_eq = grad_d - v * nu_dot_dd - c * w + nu_h
    return np.stack(tangential), contraction, weight_eq


@pytest.mark.parametrize("m, n", [(2, 17), (3, 9), (4, 6), (5, 5), (6, 5)])
class TestTriangleContractions:
    """The residuals read nu _| h from the curl's stored triangle; they must
    equal the dense-matrix reference bit for bit."""

    def test_match_dense_reference(self, m, n):
        _, nu, dd, f = smooth_triple(m, n, 40 + m)
        tangential, contraction, weight_eq = dense_reference_residuals(nu, dd, f)
        assert np.array_equal(tangential_curl_residual(nu, dd, f).values, tangential)
        assert np.array_equal(normal_contraction_residual(nu, dd, f).values,
                              contraction)
        assert np.array_equal(weight_equation_residual(nu, dd, f).values, weight_eq)

    def test_no_dense_curl(self, m, n, monkeypatch):
        u, nu, dd, f = smooth_triple(m, n, 40 + m)
        calls = []
        real = grids_module.dense_skew

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grids_module, "dense_skew", counting)
        monkeypatch.setattr(skewalg_module, "dense_skew", counting)
        structure_identity_residual(u, f)
        tangential_curl_residual(nu, dd, f)
        normal_contraction_residual(nu, dd, f)
        weight_equation_residual(nu, dd, f)
        assert calls == []


class TestCodazzi:
    def test_bilinear_pair_zero(self):
        d = build_domain(2, [0.1, 0], [1, 1], [17, 17])
        f = heisenberg_field(d)
        u = sample(d, lambda x, y: x * y)
        nu, _, _ = horizontal_normal(u, f)
        res = codazzi_residual_2d(nu, weight(u, f), f)
        assert np.max(np.abs(res.values)) < 1e-12

    def test_constant_data(self):
        d = unit_box(2, 9)
        nu = constant_vector(d, [1.0, 0.0])
        one = ScalarField(d, np.ones(d.counts))
        res = codazzi_residual_2d(nu, one, heisenberg_field(d))
        assert np.array_equal(res.values, np.full(d.counts, -2.0))

    def test_potential_data_round_off_only(self):
        # D*nu_perp from potential-derived data is (p2, -p1) exactly, and the
        # commuting stencils make its divergence exactly 2 up to round-off
        for n in (33, 65):
            d = build_domain(2, [0.1, 0], [1, 1], [n, n])
            f = heisenberg_field(d)
            u = sample(d, lambda x, y: x * y + 0.1 * np.sin(x + y))
            nu, _, _ = horizontal_normal(u, f)
            res = codazzi_residual_2d(nu, weight(u, f), f)
            assert np.max(np.abs(res.values)) <= 1e-11

    def test_non_rotation_field(self):
        # the residual subtracts curl(F)'s entry h_12, not the rotation
        # field's constant 2: for F = (-x^2 y, cos(x) y) it is round-off only
        d = build_domain(2, [0.1, 0.1], [1, 1], [33, 33])
        f = sample_vector(d, [lambda x, y: -x * x * y, lambda x, y: np.cos(x) * y])
        u = sample(d, lambda x, y: np.sin(x) + x * y + 3 * x)
        nu, _, _ = horizontal_normal(u, f)
        res = codazzi_residual_2d(nu, weight(u, f), f)
        assert np.max(np.abs(res.values)) <= 1e-10

    def test_perturbed_weight_second_order(self):
        # scaling the weight by (1+x) gives the closed form
        # div((1+x) D nu_perp) - 2 = p2 + 2x with p2 = 2x + 0.1 x cos(xy);
        # the discrete residual must approach it at second order
        errs = []
        for n in (33, 65):
            d = build_domain(2, [0.1, 0], [1, 1], [n, n])
            f = heisenberg_field(d)
            u = sample(d, lambda x, y: x * y + 0.1 * np.sin(x * y))
            nu, _, _ = horizontal_normal(u, f)
            x, y = d.meshes()
            dd = weight(u, f)
            scaled = ScalarField(d, (1.0 + x) * dd.values)
            res = codazzi_residual_2d(nu, scaled, f)
            exact = 4.0 * x + 0.1 * x * np.cos(x * y)
            errs.append(np.max(np.abs(res.values - exact)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_m2_only(self):
        d = unit_box(3, 5)
        nu = constant_vector(d, [1.0, 0.0, 0.0])
        one = ScalarField(d, np.ones(d.counts))
        with pytest.raises(ValueError, match="m = 2"):
            codazzi_residual_2d(nu, one, constant_vector(d, [0.0, 0.0, 0.0]))


class TestRenormalize:
    def test_rescaches_to_unit(self):
        d = unit_box(2, 9)
        raw = VectorField(d, np.stack([np.full(d.counts, 0.6),
                                       np.full(d.counts, 0.6)]))
        nu = renormalize_normal(raw)
        norms = np.sqrt(np.sum(nu.values ** 2, axis=0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-15

    def test_rejects_degenerate(self):
        d = unit_box(2, 9)
        raw = VectorField(d, np.stack([np.full(d.counts, 0.1),
                                       np.zeros(d.counts)]))
        with pytest.raises(ValueError, match="0.5"):
            renormalize_normal(raw)
