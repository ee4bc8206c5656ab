"""Built-in scenario library and seeded smooth-field generators.

Each scenario bundles a domain, deterministic field generators, and a list
of machine-checkable assertions; running the checks is the executable form
of the worked examples this package ships. Random fields are truncated
trigonometric series with integer frequencies up to `band`, so they are
analytic and reproducible from the seed alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    GridDomain,
    ScalarField,
    VectorField,
    build_domain,
    field_scale,
    sample,
    sample_vector,
)
from .horizontal import (
    curl_matrix,
    horizontal_normal,
    structure_identity_residual,
    weight,
)
from .integrability import (
    normal_contraction_residual,
    tangential_curl_residual,
)
from .reconstruction import (
    NotClosedError,
    candidate_gradient,
    closedness_residual,
    integrate_potential,
    verify_normal,
)
from .variational import (
    pairwise_rotation,
    pointwise_skew_rank,
    skew_divergence,
    uniqueness_audit,
)

REFINEMENT_RATIO_BAND = (3.4, 4.6)


class UnknownScenarioError(ValueError):
    """Raised for scenario names not in the library."""


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def heisenberg_field(domain: GridDomain) -> VectorField:
    """The standard pairwise rotation field (-x2, x1, -x4, x3, ...); m even."""
    if domain.m % 2 != 0:
        raise ValueError("heisenberg field needs even dimension")
    meshes = domain.meshes()
    comps = []
    for j in range(domain.m // 2):
        comps.append(-meshes[2 * j + 1])
        comps.append(meshes[2 * j])
    return VectorField(domain, np.stack(comps))


def _trig_series(domain: GridDomain, rng: np.random.Generator,
                 band: int) -> np.ndarray:
    if band < 0:
        raise ValueError("band must be nonnegative")
    meshes = domain.meshes()
    values = np.zeros(domain.counts)
    for k in itertools.product(range(band + 1), repeat=domain.m):
        a = rng.standard_normal()
        b = rng.standard_normal()
        decay = 1.0 / (1.0 + sum(k)) ** 2
        phase = np.zeros(domain.counts)
        for axis, freq in enumerate(k):
            if freq:
                phase += freq * meshes[axis]
        values += decay * (a * np.cos(phase) + b * np.sin(phase))
    return values


def random_smooth_scalar(domain: GridDomain, seed: int, band: int) -> ScalarField:
    """Seeded truncated trigonometric series; band 0 gives a constant."""
    rng = np.random.default_rng(seed)
    return ScalarField(domain, _trig_series(domain, rng, band))


def random_smooth_field(domain: GridDomain, seed: int, band: int) -> VectorField:
    """Vector variant: m independent series drawn from one seeded stream."""
    rng = np.random.default_rng(seed)
    comps = [_trig_series(domain, rng, band) for _ in range(domain.m)]
    return VectorField(domain, np.stack(comps))


def interior_bump(domain: GridDomain) -> ScalarField:
    """Product of half-period sines; positive inside, zero on the boundary."""
    meshes = domain.meshes()
    values = np.ones(domain.counts)
    for axis in range(domain.m):
        xi = (meshes[axis] - domain.lower[axis]) / (
            domain.upper[axis] - domain.lower[axis])
        values = values * np.sin(np.pi * xi)
    return ScalarField(domain, values)


def seeded_init(boundary: ScalarField, seed: int, amplitude: float = 0.2,
                band: int = 2) -> ScalarField:
    """Boundary-compatible start iterate: the boundary field plus a seeded
    interior perturbation that vanishes exactly on the boundary nodes."""
    domain = boundary.domain
    noise = random_smooth_scalar(domain, seed, band).values
    noise = noise / max(1e-30, float(np.max(np.abs(noise))))
    values = boundary.values + amplitude * interior_bump(domain).values * noise
    bmask = domain.boundary_mask()
    values[bmask] = boundary.values[bmask]
    return ScalarField(domain, values)


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    value: float
    bound: float
    note: str = ""


@dataclass(frozen=True)
class Scenario:
    name: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    default_counts: tuple[int, ...]
    builder: Callable[[GridDomain, int], dict]
    checker: Callable[[dict], list[CheckOutcome]]

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def domain(self, counts=None) -> GridDomain:
        if counts is None:
            counts = self.default_counts
        elif isinstance(counts, int):
            counts = (counts,) * self.dimension
        else:
            counts = tuple(int(n) for n in counts)
            if len(counts) == 1:
                counts = counts * self.dimension
        return build_domain(self.dimension, self.lower, self.upper, counts)

    def build(self, counts=None, seed: int = 0) -> dict:
        domain = self.domain(counts)
        data = self.builder(domain, seed)
        data["domain"] = domain
        data["scenario"] = self
        data["seed"] = seed
        return data

    def run_checks(self, counts=None, seed: int = 0
                   ) -> tuple[dict, list[CheckOutcome]]:
        data = self.build(counts, seed)
        return data, self.checker(data)


def _leq(name: str, value: float, bound: float, note: str = "") -> CheckOutcome:
    return CheckOutcome(name=name, passed=bool(value <= bound),
                        value=float(value), bound=float(bound), note=note)


def _exact(name: str, deviation: float, note: str = "") -> CheckOutcome:
    return CheckOutcome(name=name, passed=bool(deviation == 0.0),
                        value=float(deviation), bound=0.0, note=note)


def _in_band(name: str, value: float, lo: float, hi: float) -> CheckOutcome:
    return CheckOutcome(name=name, passed=bool(lo <= value <= hi),
                        value=float(value), bound=hi,
                        note=f"band [{lo}, {hi}]")


# -- bilinear pair sharing one normal ---------------------------------------

def _build_shared_normal_pair(domain: GridDomain, seed: int) -> dict:
    f = sample_vector(domain, [lambda x, y: -y, lambda x, y: x])
    u = sample(domain, lambda x, y: x * y)
    v = sample(domain, lambda x, y: x * y + y)
    return {"u": u, "v": v, "f": f, "a": pairwise_rotation(2)}


def _check_shared_normal_pair(data: dict) -> list[CheckOutcome]:
    report = uniqueness_audit(data["u"], data["v"], data["f"], None, data["a"])
    return [
        _leq("normals-agree", report.normal_max, 1e-12),
        _leq("gradient-gap-one", abs(report.gradient_max - 1.0), 1e-12),
        _leq("rank-flags-absent", report.rank_condition_fraction, 0.0),
        _leq("nonintegrable-flags-absent", report.nonintegrable_fraction, 0.0),
    ]


# -- contracted closedness without closedness (m = 4) ------------------------

def _build_contracted_not_closed(domain: GridDomain, seed: int) -> dict:
    f = heisenberg_field(domain)
    zero = np.zeros(domain.counts)
    one = np.ones(domain.counts)
    nu = VectorField(domain, np.stack([one, zero, zero, zero]))
    d = ScalarField(domain, -2.0 * domain.meshes()[1])
    return {"nu": nu, "d": d, "f": f}


def _check_contracted_not_closed(data: dict) -> list[CheckOutcome]:
    nu, d, f = data["nu"], data["d"], data["f"]
    contraction = normal_contraction_residual(nu, d, f)
    cmax = float(np.max(np.abs(contraction.values)))
    u = candidate_gradient(nu, d, f)
    residual = closedness_residual(u)
    entry = residual.entry(2, 3)
    raised = False
    try:
        integrate_potential(u)
    except NotClosedError:
        raised = True
    return [
        _leq("contraction-residual", cmax, 1e-12),
        _leq("closedness-entry-34", float(np.max(np.abs(entry + 2.0))), 1e-12,
             note="entry (3,4) must sit at -2"),
        CheckOutcome(name="not-closed-raised", passed=raised,
                     value=float(raised), bound=1.0,
                     note="potential integration must refuse"),
    ]


# -- tangential compatibility without contraction (m = 3) --------------------

_NU_CONST = np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0)
_NU_PERP = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


def _build_curl_ok_contraction_fails(domain: GridDomain, seed: int) -> dict:
    meshes = domain.meshes()
    nu = VectorField(domain, np.stack(
        [np.full(domain.counts, c) for c in _NU_CONST]))
    d_values = sum(c * mesh for c, mesh in zip(_NU_PERP, meshes))
    d = ScalarField(domain, d_values)
    f = VectorField(domain, np.zeros((3,) + domain.counts))
    return {"nu": nu, "d": d, "f": f}


def _check_curl_ok_contraction_fails(data: dict) -> list[CheckOutcome]:
    nu, d, f = data["nu"], data["d"], data["f"]
    curl_res = tangential_curl_residual(nu, d, f)
    cmax = float(np.max(np.abs(curl_res.values)))
    contraction = normal_contraction_residual(nu, d, f)
    norms = np.sqrt(np.sum(contraction.values ** 2, axis=0))
    return [
        _leq("tangential-curl-residual", cmax, 1e-12),
        _leq("contraction-norm-one", float(np.max(np.abs(norms - 1.0))), 1e-10,
             note="pointwise norm must sit at 1"),
    ]


# -- pairwise rotation fields ------------------------------------------------

def _build_heisenberg(domain: GridDomain, seed: int) -> dict:
    f = heisenberg_field(domain)
    meshes = domain.meshes()
    u = ScalarField(domain, meshes[0] * meshes[1])
    return {"f": f, "u": u, "a": pairwise_rotation(domain.m)}


def _check_heisenberg(data: dict) -> list[CheckOutcome]:
    f, a = data["f"], data["a"]
    domain = f.domain
    h = curl_matrix(f)
    dev = 0.0
    for i, j in h.indices:
        target = 2.0 if (i % 2 == 0 and j == i + 1) else 0.0
        dev = max(dev, float(np.max(np.abs(h.entry(i, j) - target))))
    ranks = pointwise_skew_rank(h)
    rank_ok = bool(np.all(ranks == domain.m))
    del h  # before the divergence is formed
    db = skew_divergence(f, a)
    div_dev = float(np.max(np.abs(db.values - float(domain.m))))
    return [
        _exact("curl-block-entries", dev,
               note="pair entries 2, all others 0, exactly"),
        _exact("transformed-divergence", div_dev,
               note=f"must equal m = {domain.m} exactly"),
        CheckOutcome(name="pointwise-rank-full", passed=rank_ok,
                     value=float(ranks.min()), bound=float(domain.m),
                     note="numerical rank at every node"),
    ]


# -- potential round trip ----------------------------------------------------

def _roundtrip_fields(domain: GridDomain):
    f = sample_vector(domain, [lambda x, y: -y, lambda x, y: x])
    u_star = sample(domain, lambda x, y: np.sin(x) + x * y)
    nu, _, d = horizontal_normal(u_star, f)
    return f, u_star, d, nu


def _roundtrip_error(domain: GridDomain) -> tuple[float, float, float]:
    f, u_star, d, nu = _roundtrip_fields(domain)
    result = integrate_potential(candidate_gradient(nu, d, f))
    shifted = u_star.values - u_star.values[(0,) * domain.m]
    err = float(np.max(np.abs(result.field.values - shifted)))
    check = verify_normal(result.field, nu, d, f)
    return err, check.normal_max_error, check.weight_max_error


def _build_roundtrip(domain: GridDomain, seed: int) -> dict:
    f, u_star, d, nu = _roundtrip_fields(domain)
    return {"f": f, "u": u_star, "d": d, "nu": nu}


def _check_roundtrip(data: dict) -> list[CheckOutcome]:
    domain = data["domain"]
    d = data["d"]
    outcomes = [
        _leq("weight-floor", 0.1 * field_scale(d) - float(d.values.min()), 0.0,
             note="weight bounded below by 0.1 * scale"),
    ]
    scenario: Scenario = data["scenario"]
    levels = [33, 65, 129]
    errs, nerrs, werrs = [], [], []
    for n in levels:
        err, nerr, werr = _roundtrip_error(scenario.domain(n))
        errs.append(err)
        nerrs.append(nerr)
        werrs.append(werr)
    h2 = (scenario.upper[0] - scenario.lower[0]) / (levels[1] - 1)
    lo, hi = REFINEMENT_RATIO_BAND
    outcomes.append(_leq("recovery-error-65", errs[1], 2.0 * h2 * h2,
                         note="max error bounded by C h^2, C = 2"))
    outcomes.append(_in_band("recovery-ratio-33-65", errs[0] / errs[1], lo, hi))
    outcomes.append(_in_band("recovery-ratio-65-129", errs[1] / errs[2], lo, hi))
    outcomes.append(_in_band("normal-check-ratio", nerrs[0] / nerrs[2],
                             lo * lo, hi * hi))
    outcomes.append(_in_band("weight-check-ratio", werrs[0] / werrs[2],
                             lo * lo, hi * hi))
    return outcomes


# -- seeded smooth data ------------------------------------------------------

def _build_random_smooth(domain: GridDomain, seed: int) -> dict:
    u = ScalarField(domain, 0.3 * random_smooth_scalar(domain, seed, 2).values)
    base = np.stack([np.full(domain.counts, 2.0), np.full(domain.counts, 3.0)])
    f = VectorField(
        domain, base + 0.3 * random_smooth_field(domain, seed + 1, 2).values)
    return {"u": u, "f": f}


def _structure_residual_max(scenario: Scenario, n: int, seed: int) -> float:
    domain = scenario.domain(n)
    data = scenario.builder(domain, seed)
    res = structure_identity_residual(data["u"], data["f"])
    return float(np.max(np.abs(res.values)))


def _check_random_smooth(data: dict) -> list[CheckOutcome]:
    scenario: Scenario = data["scenario"]
    seed = data["seed"]
    d = weight(data["u"], data["f"])
    outcomes = [
        _leq("weight-floor", 0.1 * field_scale(d) - float(d.values.min()), 0.0),
    ]
    levels = [33, 65, 129]
    errs = [_structure_residual_max(scenario, n, seed) for n in levels]
    lo, hi = REFINEMENT_RATIO_BAND
    outcomes.append(_in_band("structure-ratio-33-65", errs[0] / errs[1], lo, hi))
    outcomes.append(_in_band("structure-ratio-65-129", errs[1] / errs[2], lo, hi))
    return outcomes


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

def _heisenberg(n: int, count: int) -> Scenario:
    """`heisenberg(n)`: the pairwise rotation field on [0, 1]^(2n)."""
    m = 2 * n
    return Scenario(f"heisenberg({n})", (0.0,) * m, (1.0,) * m, (count,) * m,
                    _build_heisenberg, _check_heisenberg)


# Every built-in scenario under its exact name, in the README's order:
# name, lower and upper corners, default counts, builder, checker.
_SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario("example_2_2", (0.1, 0.0), (1.0, 1.0), (65, 65),
             _build_shared_normal_pair, _check_shared_normal_pair),
    Scenario("example_4_2", (0.0, -1.0, 0.0, 0.0), (1.0, -0.1, 1.0, 1.0), (7,) * 4,
             _build_contracted_not_closed, _check_contracted_not_closed),
    Scenario("example_4_3", (0.1,) * 3, (1.1,) * 3, (17,) * 3,
             _build_curl_ok_contraction_fails, _check_curl_ok_contraction_fails),
    _heisenberg(1, 65),
    _heisenberg(2, 9),
    _heisenberg(3, 5),
    Scenario("smooth_roundtrip", (0.2, 0.2), (1.2, 1.2), (65, 65),
             _build_roundtrip, _check_roundtrip),
    Scenario("random_smooth", (0.0, 0.0), (1.0, 1.0), (65, 65),
             _build_random_smooth, _check_random_smooth),
)}


def builtin_scenario(name: str) -> Scenario:
    """The built-in scenario called exactly `name`."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; built-in scenarios: "
            f"{', '.join(_SCENARIOS)}") from None
