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

from .fieldio import format_real, format_rows, read_field, write_csv, write_field
from .grids import ScalarField, VectorField
from .horizontal import (DEFAULT_SINGULAR_TOL, curl_matrix, horizontal_normal,
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
    eta: float = DEFAULT_CLASSIFY_TOL
    method: str = "staircase"
    base: tuple[int, ...] | None = None
    eps_points: int = 11
    max_iterations: int = MinimizeOptions.max_iterations
    first_order_tol: float = MinimizeOptions.first_order_tol
    inputs: dict[str, str] = field(default_factory=dict)


def load_config(path) -> dict[str, str]:
    """Flat key=value text; '#' starts a comment, blank lines are skipped."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
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
    """The config of one operation; a key it does not read is an error."""
    op = PIPELINES.get(mapping.get("operation"))
    if op is None:
        raise ConfigError(f"config needs an operation, one of {', '.join(PIPELINES)}")
    unread = set(mapping) - {"operation", *op.keys}
    if unread:
        raise ConfigError(f"operation {mapping['operation']!r} does not read "
                          f"{sorted(unread)}")
    stray = set(mapping) & set(op.scenario_keys)
    if stray and not mapping.get("scenario"):
        raise ConfigError(f"operation {mapping['operation']!r} reads {sorted(stray)} "
                          f"only with a scenario")
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


Artifacts = typing.Callable[[str], Path]


def _artifacts(directory: Path) -> Artifacts:
    """The path of an artifact `name` in `directory`, which is created at the
    first artifact: a run refused before it writes leaves no directory."""
    def path(name: str) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        return directory / name
    return path


def _write_rows(path: Path, header: str, rows, sep: str = ",") -> None:
    """A CSV table, or with `sep=" "` and a `# ` header a `.dat` plot file."""
    lines = [header] + [sep.join(_fmt(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_summary(out: Artifacts, rows) -> None:
    _write_rows(out("summary.csv"), "key,value", rows)
    width = max((len(str(k)) for k, _ in rows), default=0)
    print("summary:")
    for key, value in rows:
        print(f"  {str(key):<{width}}  {_fmt(value)}")


def _resolve_inputs(config: ExperimentConfig, op: Operation) -> dict:
    """The inputs `op` reads: scenario data first (when named), overlaid by
    the file inputs; raises ConfigError when a needed one is missing."""
    data: dict = {}
    if config.scenario and op.needs:
        data = builtin_scenario(config.scenario).build(config.resolution, config.seed)
    for key, path in config.inputs.items():
        if key not in op.needs + op.optional:
            raise ConfigError(f"{config.operation!r} does not read input {key!r}")
        fld = read_field(path)
        kind = ScalarField if key in _SCALAR_INPUTS else VectorField
        if not isinstance(fld, kind):
            raise ConfigError(f"input {key}={path} must be a {kind.kind} field")
        if key == "nu":
            fld = renormalize_normal(fld)
        data[key] = fld
    for key in op.needs:
        if key not in data:
            raise ConfigError(f"operation {config.operation!r} needs input {key!r} "
                              f"(give --{key} or a scenario that provides it)")
    return data


def _derive_normal_weight(data: dict):
    if "nu" in data and "d" in data:
        return data["nu"], data["d"]
    if "u" in data and "f" in data:
        nu, _, d = horizontal_normal(data["u"], data["f"])
        return nu, d
    raise ConfigError("need either (nu, d) or (u, f) to derive the normal")


def _tau(config: ExperimentConfig) -> float:
    return config.tol if config.tol is not None else DEFAULT_SINGULAR_TOL


def _thresholds(config: ExperimentConfig) -> None:
    for name, value in (("tol", _tau(config)), ("eta", config.eta)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{name} must be positive and finite")


# --------------------------------------------------------------------------
# Pipelines
# --------------------------------------------------------------------------
# A pipeline holds `data` alone, so it pops each field it hands over for good
# and the callee frees that field at its last read.

def _run_scenario(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    if not config.scenario:
        raise ConfigError("scenario operation needs a scenario name")
    scn = builtin_scenario(config.scenario)
    data, outcomes = scn.run_checks(config.resolution, config.seed)
    for key in ("u", "v", "f", "nu", "d"):
        if key in data:
            write_field(data[key], out(f"{key}.pfld"))
            write_csv(data[key], out(f"{key}.csv"))
    _write_rows(out("assertions.csv"), "name,passed,value,bound,note",
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


def _run_evaluate(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    u, f, h = data["u"], data["f"], data.get("h")
    _, mask, weight = horizontal_normal(u, f, _tau(config))  # one kernel call
    value = _functional_from_weight(u, weight.values, h)
    stats = singular_stats(mask)
    write_field(weight, out("weight.pfld"))
    write_csv(weight, out("weight.csv"))
    _write_summary(out, [
        ("functional", value),
        ("weight_min", float(weight.values.min())),
        ("weight_max", float(weight.values.max())),
        ("singular_fraction", stats.fraction),
        ("singular_ball_radius", stats.ball_radius),
    ])
    return ExitCode.OK


def _solver_options(config: ExperimentConfig) -> MinimizeOptions:
    return MinimizeOptions(config.max_iterations, config.first_order_tol)


def _run_minimize(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    f, boundary, h, init = data["f"], data["u"], data.get("h"), data.get("init")
    if init is None:
        init = seeded_init(boundary, config.seed)
    result = minimize(f, h, boundary, init, _solver_options(config))
    write_field(result.field, out("minimizer.pfld"))
    write_csv(result.field, out("minimizer.csv"))
    with open(out("convergence.log"), "w", encoding="ascii") as log:
        log.writelines(result.log_chunks())
    # a stage's iteration 0 is the previous stage's last
    firsts = np.cumsum([0] + [stage.iterations for stage in result.stages])
    with open(out("convergence.dat"), "w", encoding="ascii") as dat:
        dat.write("# iteration objective\n")
        for stage, first in zip(result.stages, firsts):
            dat.writelines(format_rows([first + np.arange(stage.objectives.size),
                                        stage.objectives]))
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


def _run_check_integrability(config: ExperimentConfig, data: dict,
                             out: Artifacts) -> ExitCode:
    labels, tensor = classify_integrability(data.pop("u"), data.pop("f"),
                                            _tau(config), config.eta)
    domain = tensor.domain
    if domain.m > 2:  # the tensor re-forms its blocks one at a time
        write_field(tensor, out("frobenius.pfld"))
    tensor_max = tensor.max_abs()
    del tensor  # its normal and curl are freed before the labels are written
    label_field = ScalarField._adopt(domain, labels.astype(float))
    write_field(label_field, out("labels.pfld"))
    write_csv(label_field, out("labels.csv"))
    _write_summary(out, [
        (f"{label.name.lower()}_fraction", float(np.mean(labels == label)))
        for label in IntegrabilityLabel] + [("tensor_max", tensor_max)])
    return ExitCode.OK


def _run_reconstruct(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    f = data["f"]
    tol = config.tol if config.tol is not None else DEFAULT_CLOSEDNESS_TOL
    # a rejected input stops here, before any artifact is written
    integration_base(f.domain, config.base, tol, config.method)
    nu, d = _derive_normal_weight(data)
    u_candidate = candidate_gradient(nu, d, f)
    write_field(u_candidate, out("candidate.pfld"))
    result = integrate_potential(u_candidate, base=config.base, tol=tol,
                                 method=config.method)
    check = verify_normal(result.field, nu, d, f)
    write_field(result.field, out("potential.pfld"))
    write_csv(result.field, out("potential.csv"))
    _write_summary(out, [
        ("method", result.method),
        ("closedness_max", result.closedness_max),
        ("path_discrepancy", result.path_discrepancy),
        ("normal_max_error", check.normal_max_error),
        ("weight_max_error", check.weight_max_error),
        ("mask_fraction", check.mask_fraction),
    ])
    return ExitCode.OK


def _run_rank_analysis(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    h = curl_matrix(data.pop("f"))
    ranks = pointwise_skew_rank(h)
    values, counts = np.unique(ranks, return_counts=True)
    rank_min, rank_max = int(ranks.min()), int(ranks.max())
    del ranks  # before the curl is written
    write_field(h, out("curl.pfld"))
    histogram = list(zip(values.tolist(), counts.tolist()))
    _write_rows(out("rank_histogram.csv"), "rank,count", histogram)
    _write_rows(out("rank_histogram.dat"), "# rank count", histogram, " ")
    _write_summary(out, [
        ("rank_min", rank_min),
        ("rank_max", rank_max),
        ("curl_max", h.max_abs()),
    ])
    return ExitCode.OK


def _run_audit(config: ExperimentConfig, data: dict, out: Artifacts) -> ExitCode:
    u, v, f, h = data["u"], data["v"], data["f"], data.get("h")
    a = data.get("a") or pairwise_rotation(f.domain.m)
    report = uniqueness_audit(u, v, f, h, a, _tau(config), config.eta)
    rows = [(name, getattr(report, name)) for name in (
        "normal_max", "normal_l1", "gradient_max", "gradient_l1",
        "rank_condition_fraction", "nonintegrable_fraction", "divb_positive_fraction",
        "orthogonality_residual", "functional_gap", "joint_mask_fraction")]
    for eps, fraction in report.epsilon_mask_fractions:
        rows.append((f"mask_fraction_eps_{eps:g}", fraction))
    _write_rows(out("audit.csv"), "metric,value", rows)
    _write_summary(out, rows)
    return ExitCode.OK


def _eps_grid(config: ExperimentConfig) -> np.ndarray:
    if config.eps_points < 3:
        raise ConfigError("eps_points must be at least 3")
    return np.linspace(0.0, 1.0, config.eps_points)


def _run_variation_profile(config: ExperimentConfig, data: dict,
                           out: Artifacts) -> ExitCode:
    u, v, f, h = data["u"], data["v"], data["f"], data.get("h")
    profile = line_profile(u, v, f, h, _eps_grid(config))
    _write_rows(out("profile.dat"), "# eps value",
                zip(profile.eps.tolist(), profile.values.tolist()), " ")
    _write_summary(out, [
        ("eps_points", config.eps_points),
        ("min_second_difference", profile.min_second_difference),
        ("value_at_0", float(profile.values[0])),
        ("value_at_1", float(profile.values[-1])),
    ])
    return ExitCode.OK


@dataclass(frozen=True)
class Operation:
    """What one operation reads. `pipeline(config, data, out)` gets inputs
    `data`: `needs` always, `optional` when given, from files or from the
    scenario keys that come with them; `out(name)` is an artifact's path.
    `check` vets `options` first."""

    pipeline: typing.Callable[[ExperimentConfig, dict, Artifacts], ExitCode]
    options: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    check: typing.Callable[[ExperimentConfig], object] = lambda config: None

    @property
    def keys(self) -> tuple[str, ...]:  # all but `operation`, in CLI flag order
        source = ("scenario", "seed", "resolution") if self.needs else ()
        return tuple(dict.fromkeys(
            ("out", *source, *self.options, *self.needs, *self.optional)))

    @property
    def scenario_keys(self) -> tuple[str, ...]:
        """The keys read only through `scenario`: an operation with inputs
        reads `seed` and `resolution` to build the scenario's fields, unless
        it names one among its own options."""
        return tuple(key for key in ("seed", "resolution")
                     if self.needs and key not in self.options)


# One entry per operation; the CLI makes one subcommand of each, in this order.
PIPELINES = {
    "evaluate": Operation(_run_evaluate, ("tol",), ("u", "f"), ("h",), check=_thresholds),
    # `seed` also seeds the start when no `init` is given
    "minimize": Operation(_run_minimize, ("seed", "max_iterations", "first_order_tol"),
                          ("f", "u"), ("h", "init"), check=_solver_options),
    "check-integrability": Operation(_run_check_integrability, ("tol", "eta"), ("u", "f"),
                                     check=_thresholds),
    "reconstruct": Operation(_run_reconstruct, ("tol", "base", "method"), ("f",),
                             ("nu", "d", "u")),
    "rank-analysis": Operation(_run_rank_analysis, (), ("f",)),
    "audit-uniqueness": Operation(_run_audit, ("tol", "eta"), ("u", "v", "f"), ("h",),
                                  check=_thresholds),
    "scenario": Operation(_run_scenario, ("scenario", "seed", "resolution")),
    "variation-profile": Operation(_run_variation_profile, ("eps_points",),
                                   ("u", "v", "f"), ("h",), check=_eps_grid),
}


def run(config: ExperimentConfig) -> int:
    """Execute one pipeline; returns the process exit code."""
    op = PIPELINES.get(config.operation)
    if op is None:
        print(f"error: unknown operation {config.operation!r}")
        return int(ExitCode.CONFIG_ERROR)
    try:
        op.check(config)
        code = op.pipeline(config, _resolve_inputs(config, op),
                           _artifacts(Path(config.out_dir)))
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
