"""Experiment runner: resolves inputs (files or a built-in scenario), executes
one operation pipeline, and writes deterministic artifacts.

Artifacts are `.pfld` fields, CSV tables, and two-column plot data; nothing
is rendered. Identical configuration and seed produce byte-identical files.
Exit codes: 0 success, 2 scenario assertion failure, 3 candidate gradient
not closed, 4 I/O or configuration error, 5 solver non-convergence.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .fieldio import format_real, read_field, write_csv, write_field
from .grids import ScalarField, VectorField
from .horizontal import (DEFAULT_SINGULAR_TOL, _normal_and_weight, curl_matrix,
                         singular_stats)
from .integrability import (DEFAULT_CLASSIFY_TOL, IntegrabilityLabel,
                            classify_integrability, renormalize_normal)
from .reconstruction import (
    DEFAULT_CLOSEDNESS_TOL,
    NotClosedError,
    candidate_gradient,
    integrate_potential,
    integration_base,
    verify_normal,
)
from .scenarios import builtin_scenario, seeded_init
from .variational import (
    MinimizeOptions,
    SolverDivergenceError,
    _functional_from_weight,
    functional,
    line_profile,
    minimize,
    pairwise_rotation,
    pointwise_skew_rank,
    uniqueness_audit,
)


class ExitCode(IntEnum):
    OK = 0
    ASSERTION_FAILURE = 2
    NOT_CLOSED = 3
    CONFIG_ERROR = 4
    SOLVER_FAILURE = 5


class ConfigError(ValueError):
    """Bad or missing configuration."""


_SCALAR_INPUTS = ("u", "v", "h", "d", "init")
_VECTOR_INPUTS = ("f", "nu")
INPUT_KEYS = _SCALAR_INPUTS + _VECTOR_INPUTS


@dataclass
class ExperimentConfig:
    operation: str
    out_dir: str = "parea-out"
    scenario: str | None = None
    seed: int = 0
    resolution: tuple[int, ...] | None = None
    tol: float | None = None
    eta: float | None = None
    method: str = "staircase"
    base: tuple[int, ...] | None = None
    eps_points: int = 11
    max_iterations: int = MinimizeOptions.max_iterations
    first_order_tol: float = MinimizeOptions.first_order_tol
    inputs: dict[str, str] = field(default_factory=dict)


def load_config(path) -> dict[str, str]:
    """Flat key=value text; '#' starts a comment, blank lines are skipped."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _config_fields() -> dict[str, tuple[str, typing.Callable[[str], object]]]:
    """Config key -> (ExperimentConfig field, parser of its text value).

    Every field but `inputs` is a key under its own name, except `out_dir`,
    which is `out`; the inputs are keyed by INPUT_KEYS."""
    hints = typing.get_type_hints(ExperimentConfig)
    keys = {}
    for fld in dataclasses.fields(ExperimentConfig):
        if fld.name == "inputs":
            continue
        hint = hints[fld.name]
        kind = next(t for t in typing.get_args(hint) or (hint,)
                    if t is not type(None))
        parse = _parse_ints if typing.get_origin(kind) is tuple else kind
        keys["out" if fld.name == "out_dir" else fld.name] = (fld.name, parse)
    return keys


CONFIG_FIELDS = _config_fields()


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    unknown = set(mapping) - set(CONFIG_FIELDS) - set(INPUT_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "operation" not in mapping:
        raise ConfigError("config needs an operation")
    values = {}
    for key, (name, parse) in CONFIG_FIELDS.items():
        if key in mapping:
            try:
                values[name] = parse(mapping[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {mapping[key]!r}") from exc
    inputs = {key: mapping[key] for key in INPUT_KEYS if key in mapping}
    return ExperimentConfig(**values, inputs=inputs)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_real(x)
    return str(x)


def _write_rows(path: Path, header: str, rows, sep: str = ",") -> None:
    """A CSV table, or with `sep=" "` and a `# ` header a `.dat` plot file."""
    lines = [header] + [sep.join(_fmt(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_summary(out: Path, rows) -> None:
    _write_rows(out / "summary.csv", "key,value", rows)
    width = max((len(str(k)) for k, _ in rows), default=0)
    print("summary:")
    for key, value in rows:
        print(f"  {str(key):<{width}}  {_fmt(value)}")


def _resolve_inputs(config: ExperimentConfig) -> dict:
    """Scenario data first (when named), overlaid by any file inputs."""
    data: dict = {}
    if config.scenario:
        scn = builtin_scenario(config.scenario)
        data = scn.build(config.resolution, config.seed)
    for key, path in config.inputs.items():
        fld = read_field(path)
        if key in _SCALAR_INPUTS and not isinstance(fld, ScalarField):
            raise ConfigError(f"input {key}={path} must be a scalar field")
        if key in _VECTOR_INPUTS and not isinstance(fld, VectorField):
            raise ConfigError(f"input {key}={path} must be a vector field")
        if key == "nu":
            fld = renormalize_normal(fld)
        data[key] = fld
    return data


def _need(data: dict, key: str, operation: str):
    if key not in data:
        raise ConfigError(
            f"operation {operation!r} needs input {key!r} "
            f"(give --{key} or a scenario that provides it)")
    return data[key]


def _derive_normal_weight(data: dict):
    if "nu" in data and "d" in data:
        return data["nu"], data["d"]
    if "u" in data and "f" in data:
        nu, _, d = _normal_and_weight(data["u"], data["f"])
        return nu, ScalarField(nu.domain, d)
    raise ConfigError("need either (nu, d) or (u, f) to derive the normal")


def _tau(config: ExperimentConfig) -> float:
    return config.tol if config.tol is not None else DEFAULT_SINGULAR_TOL


# --------------------------------------------------------------------------
# Pipelines
# --------------------------------------------------------------------------

def _run_scenario(config: ExperimentConfig, out: Path) -> ExitCode:
    if not config.scenario:
        raise ConfigError("scenario operation needs a scenario name")
    scn = builtin_scenario(config.scenario)
    data, outcomes = scn.run_checks(config.resolution, config.seed)
    for key in ("u", "v", "f", "nu", "d"):
        if key in data:
            write_field(data[key], out / f"{key}.pfld")
            write_csv(data[key], out / f"{key}.csv")
    _write_rows(out / "assertions.csv", "name,passed,value,bound,note",
                [(o.name, o.passed, o.value, o.bound, o.note) for o in outcomes])
    rows = [("scenario", scn.name), ("checks", len(outcomes)),
            ("passed", sum(o.passed for o in outcomes))]
    _write_summary(out, rows)
    print(f"scenario {scn.name}:")
    for o in outcomes:
        mark = "pass" if o.passed else "FAIL"
        print(f"  [{mark}] {o.name}: value={_fmt(o.value)} bound={_fmt(o.bound)}")
    if all(o.passed for o in outcomes):
        return ExitCode.OK
    return ExitCode.ASSERTION_FAILURE


def _run_evaluate(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    u = _need(data, "u", "evaluate")
    f = _need(data, "f", "evaluate")
    h = data.get("h")
    _, mask, d = _normal_and_weight(u, f, _tau(config))  # one kernel call
    value = _functional_from_weight(u, d, h)
    stats = singular_stats(mask)
    weight = ScalarField(mask.domain, d)
    write_field(weight, out / "weight.pfld")
    write_csv(weight, out / "weight.csv")
    _write_summary(out, [
        ("functional", value),
        ("weight_min", float(d.min())),
        ("weight_max", float(d.max())),
        ("singular_fraction", stats.fraction),
        ("singular_ball_radius", stats.ball_radius),
    ])
    return ExitCode.OK


def _run_minimize(config: ExperimentConfig, out: Path) -> ExitCode:
    # bad options exit 4 before any work
    opts = MinimizeOptions(config.max_iterations, config.first_order_tol)
    data = _resolve_inputs(config)
    f = _need(data, "f", "minimize")
    boundary = _need(data, "u", "minimize")
    h = data.get("h")
    init = data.get("init")
    if init is None:
        init = seeded_init(boundary, config.seed)
    result = minimize(f, h, boundary, init, opts)
    write_field(result.field, out / "minimizer.pfld")
    write_csv(result.field, out / "minimizer.csv")
    (out / "convergence.log").write_text(result.log_text(), encoding="ascii")
    iters, objectives = [], []
    offset = 0
    for stage in result.stages:
        for it, obj, _ in stage.history:
            iters.append(offset + it)
            objectives.append(obj)
        offset += stage.iterations
    _write_rows(out / "convergence.dat", "# iteration objective",
                zip(iters, objectives), " ")
    rows = [
        ("converged", result.converged),
        ("objective_init", functional(init, f, h)),
        ("objective_final", functional(result.field, f, h)),
        ("final_residual", result.stages[-1].residual),
    ]
    for i, stage in enumerate(result.stages):
        rows.append((f"stage{i}_eps", stage.eps))
        rows.append((f"stage{i}_iterations", stage.iterations))
        rows.append((f"stage{i}_residual", stage.residual))
        rows.append((f"stage{i}_stop_reason", stage.stop_reason))
    _write_summary(out, rows)
    return ExitCode.OK if result.converged else ExitCode.SOLVER_FAILURE


def _run_check_integrability(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    w = _need(data, "u", "check-integrability")
    f = _need(data, "f", "check-integrability")
    eta = config.eta if config.eta is not None else DEFAULT_CLASSIFY_TOL
    labels = classify_integrability(w, f, _tau(config), eta)
    tensor = labels.tensor
    label_field = ScalarField(w.domain, labels.labels.astype(float))
    write_field(label_field, out / "labels.pfld")
    write_csv(label_field, out / "labels.csv")
    if tensor.entries.shape[0]:
        write_field(tensor, out / "frobenius.pfld")
    _write_summary(out, [
        ("singular_fraction", labels.fraction(IntegrabilityLabel.SINGULAR)),
        ("integrable_fraction", labels.fraction(IntegrabilityLabel.INTEGRABLE)),
        ("nonintegrable_fraction",
         labels.fraction(IntegrabilityLabel.NONINTEGRABLE)),
        ("tensor_max", tensor.max_abs()),
    ])
    return ExitCode.OK


def _run_reconstruct(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    f = _need(data, "f", "reconstruct")
    tol = config.tol if config.tol is not None else DEFAULT_CLOSEDNESS_TOL
    # a rejected input stops here, before any artifact is written
    integration_base(f.domain, config.base, tol, config.method)
    nu, d = _derive_normal_weight(data)
    u_candidate = candidate_gradient(nu, d, f)
    write_field(u_candidate, out / "candidate.pfld")
    result = integrate_potential(u_candidate, base=config.base, tol=tol,
                                 method=config.method)
    check = verify_normal(result.field, nu, d, f)
    write_field(result.field, out / "potential.pfld")
    write_csv(result.field, out / "potential.csv")
    _write_summary(out, [
        ("method", result.method),
        ("closedness_max", result.closedness_max),
        ("path_discrepancy", result.path_discrepancy),
        ("normal_max_error", check.normal_max_error),
        ("weight_max_error", check.weight_max_error),
        ("mask_fraction", check.mask_fraction),
    ])
    return ExitCode.OK


def _run_rank_analysis(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    f = _need(data, "f", "rank-analysis")
    h = curl_matrix(f)
    ranks = pointwise_skew_rank(h)
    values, counts = np.unique(ranks, return_counts=True)
    write_field(h, out / "curl.pfld")
    histogram = list(zip(values.tolist(), counts.tolist()))
    _write_rows(out / "rank_histogram.csv", "rank,count", histogram)
    _write_rows(out / "rank_histogram.dat", "# rank count", histogram, " ")
    _write_summary(out, [
        ("rank_min", int(ranks.min())),
        ("rank_max", int(ranks.max())),
        ("curl_max", h.max_abs()),
    ])
    return ExitCode.OK


def _run_audit(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    u = _need(data, "u", "audit-uniqueness")
    v = _need(data, "v", "audit-uniqueness")
    f = _need(data, "f", "audit-uniqueness")
    h = data.get("h")
    a = data.get("a") or pairwise_rotation(f.domain.m)
    eta = config.eta if config.eta is not None else DEFAULT_CLASSIFY_TOL
    report = uniqueness_audit(u, v, f, h, a, _tau(config), eta)
    rows = [
        ("normal_max", report.normal_max),
        ("normal_l1", report.normal_l1),
        ("gradient_max", report.gradient_max),
        ("gradient_l1", report.gradient_l1),
        ("rank_condition_fraction", report.rank_condition_fraction),
        ("nonintegrable_fraction", report.nonintegrable_fraction),
        ("divb_positive_fraction", report.divb_positive_fraction),
        ("orthogonality_residual", report.orthogonality_residual),
        ("functional_gap", report.functional_gap),
        ("joint_mask_fraction", report.joint_mask_fraction),
    ]
    for eps, fraction in report.epsilon_mask_fractions:
        rows.append((f"mask_fraction_eps_{eps:g}", fraction))
    _write_rows(out / "audit.csv", "metric,value", rows)
    _write_summary(out, rows)
    return ExitCode.OK


def _run_variation_profile(config: ExperimentConfig, out: Path) -> ExitCode:
    data = _resolve_inputs(config)
    u = _need(data, "u", "variation-profile")
    v = _need(data, "v", "variation-profile")
    f = _need(data, "f", "variation-profile")
    h = data.get("h")
    if config.eps_points < 3:
        raise ConfigError("eps_points must be at least 3")
    eps = np.linspace(0.0, 1.0, config.eps_points)
    profile = line_profile(u, v, f, h, eps)
    _write_rows(out / "profile.dat", "# eps value",
                zip(profile.eps.tolist(), profile.values.tolist()), " ")
    _write_summary(out, [
        ("eps_points", config.eps_points),
        ("min_second_difference", profile.min_second_difference),
        ("value_at_0", float(profile.values[0])),
        ("value_at_1", float(profile.values[-1])),
    ])
    return ExitCode.OK


# One entry per operation; the CLI makes one subcommand of each, in this order.
PIPELINES = {
    "evaluate": _run_evaluate,
    "minimize": _run_minimize,
    "check-integrability": _run_check_integrability,
    "reconstruct": _run_reconstruct,
    "rank-analysis": _run_rank_analysis,
    "audit-uniqueness": _run_audit,
    "scenario": _run_scenario,
    "variation-profile": _run_variation_profile,
}


def run(config: ExperimentConfig) -> int:
    """Execute one pipeline; returns the process exit code."""
    pipeline = PIPELINES.get(config.operation)
    if pipeline is None:
        print(f"error: unknown operation {config.operation!r}")
        return int(ExitCode.CONFIG_ERROR)
    try:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = pipeline(config, out)
    except NotClosedError as exc:
        print(f"not closed: {exc}")
        return int(ExitCode.NOT_CLOSED)
    except SolverDivergenceError as exc:
        print(f"solver diverged: {exc}")
        return int(ExitCode.SOLVER_FAILURE)
    # ConfigError, FieldFormatError and UnknownScenarioError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return int(ExitCode.CONFIG_ERROR)
    return int(code)
