"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion report lines and timings.
"""

import time

import numpy as np

from parea.grids import (
    ScalarField,
    VectorField,
    build_domain,
    field_scale,
    sample,
    sample_vector,
)
from parea.horizontal import (
    curl_matrix,
    horizontal_normal,
    structure_identity_residual,
    weight,
)
from parea.integrability import (
    normal_contraction_residual,
    tangential_curl_residual,
    weight_equation_residual,
)
from parea.reconstruction import (
    NotClosedError,
    candidate_gradient,
    closedness_residual,
    integrate_potential,
    verify_normal,
)
from parea.runner import ExperimentConfig, run
from parea.scenarios import (
    builtin_scenario,
    random_smooth_field,
    random_smooth_scalar,
    seeded_init,
)
from parea.skewalg import (
    alignment_residual,
    rank2_audit,
    rank2_factorize,
    skew_rank,
    spectral_pairs,
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
    uniqueness_audit,
)

RATIO_BAND = (3.4, 4.6)


def report(number: int, description: str, ok: bool, elapsed: float,
           limit: float) -> None:
    state = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{state}] criterion {number:2d}: {description} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_01_shared_normal_reproduction():
    start = time.time()
    d = build_domain(2, [0.1, 0], [1, 1], [65, 65])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u = sample(d, lambda x, y: x * y)
    v = sample(d, lambda x, y: x * y + y)
    report_obj = uniqueness_audit(u, v, f, None, pairwise_rotation(2))
    ok = (report_obj.normal_max <= 1e-12
          and abs(report_obj.gradient_max - 1.0) <= 1e-12
          and report_obj.rank_condition_fraction == 0.0
          and report_obj.nonintegrable_fraction == 0.0)
    report(1, "shared-normal pair: normals equal, gradients differ by one, "
              "no rank or nonintegrability flags", ok, time.time() - start, 1.0)


def test_criterion_02_rotation_field_structure():
    start = time.time()
    data1 = builtin_scenario("heisenberg(1)").build()
    h1 = curl_matrix(data1["f"])
    curl_ok = (np.array_equal(h1.entry(0, 1), np.full((65, 65), 2.0))
               and np.array_equal(h1.entry(1, 0), np.full((65, 65), -2.0)))
    from parea.variational import skew_divergence
    db = skew_divergence(data1["f"], data1["a"])
    div_ok = np.array_equal(db.values, np.full((65, 65), 2.0))
    data2 = builtin_scenario("heisenberg(2)").build()
    ranks = pointwise_skew_rank(curl_matrix(data2["f"]))
    rank_ok = bool(np.all(ranks == 4))
    report(2, "pairwise rotation: exact curl blocks, exact transformed "
              "divergence, full rank everywhere", curl_ok and div_ok and rank_ok,
           time.time() - start, 1.0)


def _roundtrip_errors(n: int):
    d = build_domain(2, [0.2, 0.2], [1.2, 1.2], [n, n])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u_star = sample(d, lambda x, y: np.sin(x) + x * y)
    dd = weight(u_star, f)
    nu, _, _ = horizontal_normal(u_star, f)
    result = integrate_potential(candidate_gradient(nu, dd, f))
    shifted = u_star.values - u_star.values[0, 0]
    err = float(np.max(np.abs(result.field.values - shifted)))
    check = verify_normal(result.field, nu, dd, f)
    return err, check.normal_max_error, check.weight_max_error


def test_criterion_03_potential_round_trip():
    start = time.time()
    levels = (33, 65, 129)
    errs, nerrs, werrs = zip(*[_roundtrip_errors(n) for n in levels])
    h65 = 1.0 / 64.0
    lo, hi = RATIO_BAND
    ok = errs[1] <= 2.0 * h65 * h65
    for seq in (errs,):
        for coarse, fine in zip(seq, seq[1:]):
            ok = ok and lo <= coarse / fine <= hi
    # verification errors decay at the same overall rate (two halvings)
    for seq in (nerrs, werrs):
        ok = ok and lo * lo <= seq[0] / seq[2] <= hi * hi
    report(3, "round trip recovers the potential at second order, "
              "verification errors decay alike", ok, time.time() - start, 10.0)


def test_criterion_04_negative_controls():
    start = time.time()
    data = builtin_scenario("example_4_2").build()
    contraction = normal_contraction_residual(data["nu"], data["d"], data["f"])
    cand = candidate_gradient(data["nu"], data["d"], data["f"])
    entry = closedness_residual(cand).entry(2, 3)
    raised = False
    try:
        integrate_potential(cand)
    except NotClosedError:
        raised = True
    ok = (float(np.max(np.abs(contraction.values))) <= 1e-12
          and float(np.max(np.abs(entry + 2.0))) <= 1e-12
          and raised)
    data3 = builtin_scenario("example_4_3").build()
    curl_res = tangential_curl_residual(data3["nu"], data3["d"], data3["f"])
    con = normal_contraction_residual(data3["nu"], data3["d"], data3["f"])
    norms = np.sqrt(np.sum(con.values ** 2, axis=0))
    ok = (ok and float(np.max(np.abs(curl_res.values))) <= 1e-12
          and float(np.max(np.abs(norms - 1.0))) <= 1e-10)
    report(4, "negative controls: contracted-but-not-closed refuses, "
              "compatible-but-obstructed has unit contraction residual",
           ok, time.time() - start, 2.0)


def test_criterion_05_skew_property_suite():
    start = time.time()
    ok = True
    for m in range(2, 7):
        rng = np.random.default_rng(1000 + m)
        for _ in range(10_000):
            a = rng.standard_normal((m, m))
            s = a - a.T
            lams = np.asarray(spectral_pairs(s))
            ok = ok and skew_rank(s) % 2 == 0
            tr = float(np.trace(s @ s))
            ok = ok and abs(2 * np.sum(lams ** 2) + tr) <= 1e-9 * max(1.0, abs(tr))
            if not ok:
                break
        rng2 = np.random.default_rng(2000 + m)
        for _ in range(10_000):
            va = rng2.standard_normal(m)
            vb = rng2.standard_normal(m)
            s = np.outer(va, vb) - np.outer(vb, va)
            norm = np.linalg.norm(s)
            fac = rank2_factorize(s)
            ok = ok and np.linalg.norm(s - fac.reconstruct()) <= 1e-10 * norm
            ok = ok and np.max(np.abs(alignment_residual(s, fac.nu))) <= 1e-10 * norm
            audit = rank2_audit(s, fac.nu)
            ok = ok and audit.passed
            ok = ok and abs(audit.rho + fac.lam ** 2) <= 1e-9 * fac.lam ** 2
            if not ok:
                break
        if not ok:
            break
    report(5, "skew suite: even ranks, paired-spectrum trace identity, "
              "rank-two factorization and structure audit", ok,
           time.time() - start, 30.0)


def test_criterion_06_structure_identity_refines():
    start = time.time()
    ok = True
    for seed in (11, 12, 13):
        errs = []
        for n in (33, 65, 129):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            u = ScalarField(d, 0.3 * random_smooth_scalar(d, seed, 2).values)
            base = np.stack([np.full(d.counts, 2.0), np.full(d.counts, 3.0)])
            f = VectorField(d, base + 0.3 * random_smooth_field(d, seed + 50, 2).values)
            dd = weight(u, f)
            ok = ok and float(dd.values.min()) >= 0.1 * field_scale(dd)
            errs.append(float(np.max(np.abs(structure_identity_residual(u, f).values))))
        for coarse, fine in zip(errs, errs[1:]):
            ok = ok and RATIO_BAND[0] <= coarse / fine <= RATIO_BAND[1]
    report(6, "structure identity residual refines at second order on "
              "seeded smooth data", ok, time.time() - start, 10.0)


def test_criterion_07_convexity_and_variation():
    start = time.time()
    ok = True
    eps_grid = np.linspace(0.0, 1.0, 9)
    for seed in range(100):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        u = random_smooth_scalar(d, 4 * seed, 2)
        v = random_smooth_scalar(d, 4 * seed + 1, 2)
        f = random_smooth_field(d, 4 * seed + 2, 2)
        h = random_smooth_scalar(d, 4 * seed + 3, 2)
        profile = line_profile(u, v, f, h, eps_grid)
        scale = field_scale(np.asarray(profile.values))
        ok = ok and profile.min_second_difference >= -1e-8 * scale
        if not ok:
            break
    d = build_domain(2, [0.1, 0], [1, 1], [65, 65])
    f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
    u = sample(d, lambda x, y: x * y)
    v = sample(d, lambda x, y: x * y + y)
    affine = line_profile(u, v, f, None, np.linspace(0, 1, 11))
    ok = ok and float(np.max(np.abs(affine.second_differences))) <= 1e-10
    # full-mask construction: F = -grad(u) makes the whole box singular
    d2 = build_domain(2, [0, 0], [1, 1], [33, 33])
    u2 = sample(d2, lambda x, y: np.cos(x) + y * y)
    from parea.grids import gradient, integrate
    f2 = VectorField(d2, -gradient(u2).values)
    phi = sample(d2, lambda x, y: x * np.sin(3 * y))
    right, left = first_variation(u2, phi, f2)
    sing = integrate(gradient(phi).norm())
    ok = ok and abs((right - left) - 2.0 * sing) <= 1e-10
    report(7, "profiles convex on 100 seeded instances, affine case flat, "
              "full-mask variation splits by twice the singular term",
           ok, time.time() - start, 30.0)


def test_criterion_08_minimizer_consistency():
    start = time.time()
    data = builtin_scenario("heisenberg(1)").build()
    f, boundary, a = data["f"], data["u"], data["a"]
    opts = MinimizeOptions(first_order_tol=2e-6, max_iterations=18000)
    scale = field_scale(boundary)
    results = []
    ok = True
    for seed in (1, 2):
        init = seeded_init(boundary, seed)
        result = minimize(f, None, boundary, init, opts)
        ok = ok and functional(result.field, f) <= functional(init, f)
        ok = ok and result.stages[-1].residual <= 1e-5 * scale
        ok = ok and first_order_residual(result.field, f, None) <= 1e-5 * scale
        results.append(result.field)
    w1, w2 = results
    ok = ok and float(np.max(np.abs(w1.values - w2.values))) <= 5e-3 * scale
    audit = uniqueness_audit(w1, w2, f, None, a)
    ok = ok and audit.orthogonality_residual <= 1e-4
    report(8, "two seeded runs agree within 5e-3, descend, satisfy "
              "first-order and transformed-orthogonality bounds",
           ok, time.time() - start, 120.0)


def test_criterion_09_weight_equation_equivalence():
    start = time.time()
    ok = True
    for seed in range(20):
        gaps = []
        for n in (65, 129):
            d = build_domain(2, [0, 0], [1, 1], [n, n])
            raw = random_smooth_field(d, 300 + seed, 2).values
            raw = np.stack([2.0 + 0.3 * raw[0], 0.3 * raw[1]])
            nu = VectorField(d, raw / np.sqrt(np.sum(raw ** 2, axis=0)))
            dd = ScalarField(
                d, 1.0 + 0.3 * random_smooth_scalar(d, 400 + seed, 2).values)
            f = VectorField(d, 0.5 * random_smooth_field(d, 500 + seed, 2).values)
            r1 = normal_contraction_residual(nu, dd, f).values
            r2 = weight_equation_residual(nu, dd, f).values
            gaps.append(min(float(np.max(np.abs(r1 + r2))),
                            float(np.max(np.abs(r1 - r2)))))
        ok = ok and gaps[0] <= 1e-2
        ok = ok and RATIO_BAND[0] <= gaps[0] / gaps[1] <= RATIO_BAND[1]
        if not ok:
            break
    report(9, "contracted-closedness and weight-equation residuals agree "
              "up to sign at second order on 20 seeded triples",
           ok, time.time() - start, 20.0)


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        config = ExperimentConfig(operation="scenario", scenario="random_smooth",
                                  out_dir=str(out), seed=17, resolution=(33,))
        assert run(config) == 0
        outputs.append(out)
    ok = True
    csvs = sorted(p.name for p in outputs[0].glob("*.csv"))
    ok = ok and len(csvs) > 0
    for name in csvs:
        ok = ok and ((outputs[0] / name).read_bytes()
                     == (outputs[1] / name).read_bytes())
    report(10, "re-running a seeded scenario reproduces every CSV "
               "byte-for-byte", ok, time.time() - start, 30.0)
