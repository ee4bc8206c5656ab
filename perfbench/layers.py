"""Per-layer tracing for traced passes, applied from outside the package.

`Tracer.install` replaces parea's public functions at the names where their
callers look them up: every `parea.*` module global bound to the function,
and the `Scenario` methods on their class. Each call then records a span
(name, start, end, parent, pass id); spans stay in memory until the pass
ends. The `grids` stencils are called about 150k times in a `solve` pass,
so they are counted, never spanned.

`layer_metrics` turns one pass's spans and counters into the per-layer
metrics. Every `_s` metric except `runner.<subcommand>_s` is self time: the
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import os
import sys
import time

# (module, function, span name); a span name of None means the name is
# chosen per call (see _span_name).
SPANNED = (
    ("fieldio", "write_field", "fieldio.write_field"),
    ("fieldio", "write_csv", "fieldio.write_csv"),
    ("fieldio", "read_field", "fieldio.read_field"),
    ("reconstruction", "integrate_potential", None),
    ("reconstruction", "closedness_residual", "reconstruction.closedness"),
    ("reconstruction", "verify_normal", "reconstruction.verify"),
    ("variational", "minimize", "variational.minimize"),
    ("variational", "pointwise_skew_rank", "variational.pointwise_skew_rank"),
    ("variational", "uniqueness_audit", "variational.audit"),
    ("integrability", "classify_integrability", "integrability.classify"),
    ("integrability", "frobenius_tensor", "integrability.frobenius"),
    ("horizontal", "horizontal_normal", "horizontal.normal"),
    ("horizontal", "curl_matrix", "horizontal.curl"),
)
SCENARIO_METHODS = (("build", "scenarios.build"), ("run_checks", "scenarios.checks"))
STENCILS = ("axis_derivative", "axis_derivative_adjoint")

# Span names whose calls carry a file: the path argument's name and position,
# and whether the file is measured before the call (read) or after it (write).
_FILE_ARG = {"fieldio.write_field": ("destination", 1, False),
             "fieldio.write_csv": ("destination", 1, False),
             "fieldio.read_field": ("source", 0, True)}

SUBCOMMANDS = ("scenario", "check-integrability", "rank-analysis",
               "audit-uniqueness", "reconstruct", "evaluate", "minimize")

# Every per-layer metric: (name, unit, better). Totals per traced pass.
PER_LAYER = (
    ("fieldio.write_field_s", "s", "lower"),
    ("fieldio.write_csv_s", "s", "lower"),
    ("fieldio.read_field_s", "s", "lower"),
    ("fieldio.write_field_bytes", "B", "lower"),
    ("fieldio.write_csv_bytes", "B", "lower"),
    ("fieldio.read_field_bytes", "B", "lower"),
    ("fieldio.write_MBps", "MB/s", "higher"),
    ("fieldio.read_MBps", "MB/s", "higher"),
    ("reconstruction.lsqr_s", "s", "lower"),
    ("reconstruction.staircase_s", "s", "lower"),
    ("reconstruction.closedness_s", "s", "lower"),
    ("reconstruction.verify_s", "s", "lower"),
    ("variational.minimize_s", "s", "lower"),
    ("variational.iterations", "count", "lower"),
    ("variational.evals", "count", "lower"),
    ("variational.eval_ms", "ms", "lower"),
    ("variational.accept_ratio", "1", "higher"),
    ("variational.pointwise_skew_rank_s", "s", "lower"),
    ("variational.audit_s", "s", "lower"),
    ("integrability.classify_s", "s", "lower"),
    ("integrability.frobenius_s", "s", "lower"),
    ("horizontal.normal_s", "s", "lower"),
    ("horizontal.curl_s", "s", "lower"),
    ("grids.stencil_calls", "count", "lower"),
    ("grids.stencil_node_visits", "count", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.checks_s", "s", "lower"),
) + tuple((f"runner.{sub}_s", "s", "lower") for sub in SUBCOMMANDS) + (
    ("runner.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
COMPUTED = {
    "fieldio.write_field_bytes": "from the sizes of the files written",
    "fieldio.write_csv_bytes": "from the sizes of the files written",
    "fieldio.read_field_bytes": "from the sizes of the files read",
    "grids.stencil_node_visits": "sum of the array sizes passed to the stencils",
}


def _file_size(file_arg, args, kwargs) -> int:
    name, position, _ = file_arg
    path = kwargs[name] if name in kwargs else args[position]
    try:
        return os.path.getsize(path)
    except OSError:  # the call itself reports a missing or unwritable file
        return 0


def _span_name(name, args, kwargs):
    if name is not None:
        return name
    method = kwargs.get("method", args[3] if len(args) > 3 else "staircase")
    if method == "least-squares":
        return "reconstruction.lsqr"
    return "reconstruction.staircase"


class Tracer:
    """Spans and counters of one pass.

    A span is [name, start, end, parent, pass_id, bytes]."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = {"stencil_calls": 0, "stencil_node_visits": 0,
                         "minimize_evals": 0.0}

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if (name == "parea" or name.startswith("parea.")) and mod is not None]
        for module, func, name in SPANNED:
            self._rebind(modules, getattr(sys.modules[f"parea.{module}"], func),
                         self._spanned(name))
        for func in STENCILS:
            self._rebind(modules, getattr(sys.modules["parea.grids"], func),
                         self._counted(adjoint=func.endswith("adjoint")))
        scenario_cls = sys.modules["parea.scenarios"].Scenario
        for method, name in SCENARIO_METHODS:
            wrapped = self._spanned(name)(getattr(scenario_cls, method))
            setattr(scenario_cls, method, wrapped)

    @staticmethod
    def _rebind(modules, target, wrap) -> None:
        wrapped = wrap(target)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapped)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.pass_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def _spanned(self, name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                span_name = _span_name(name, args, kwargs)
                file_arg = _FILE_ARG.get(span_name)
                if file_arg and file_arg[2]:
                    size = _file_size(file_arg, args, kwargs)
                index = self._open(span_name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
                    if file_arg:
                        if not file_arg[2]:
                            size = _file_size(file_arg, args, kwargs)
                        self.spans[index][5] = size
            return wrapper
        return wrap

    def _counted(self, adjoint: bool):
        counters = self.counters
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def wrapper(*args, **kwargs):
                values = args[1]
                counters["stencil_calls"] += 1
                counters["stencil_node_visits"] += values.size
                # One objective-and-gradient evaluation applies the adjoint
                # stencil once per axis, directly inside minimize.
                if adjoint and stack and spans[stack[-1]][0] == "variational.minimize":
                    counters["minimize_evals"] += 1.0 / values.ndim
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    def command(self, subcommand: str, main, argv):
        index = self._open(f"runner.{subcommand}")
        try:
            return main(argv)
        finally:
            self._close(index)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, *_), covered in zip(spans, child):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def layer_metrics(spans, counters, iterations: int) -> dict[str, float]:
    """Per-layer totals of one traced pass (see the module docstring)."""
    own = self_times(spans)
    nbytes: dict[str, int] = {}
    for name, *_, size in spans:
        nbytes[name] = nbytes.get(name, 0) + size

    def t(name):
        return own.get(name, 0.0)

    def rate(size, seconds):
        return size / seconds / 1e6 if seconds > 0 else 0.0

    write_s = t("fieldio.write_field") + t("fieldio.write_csv")
    write_bytes = nbytes.get("fieldio.write_field", 0) + nbytes.get("fieldio.write_csv", 0)
    evals = round(counters["minimize_evals"])
    minimize_s = t("variational.minimize")
    metrics = {
        "fieldio.write_field_s": t("fieldio.write_field"),
        "fieldio.write_csv_s": t("fieldio.write_csv"),
        "fieldio.read_field_s": t("fieldio.read_field"),
        "fieldio.write_field_bytes": nbytes.get("fieldio.write_field", 0),
        "fieldio.write_csv_bytes": nbytes.get("fieldio.write_csv", 0),
        "fieldio.read_field_bytes": nbytes.get("fieldio.read_field", 0),
        "fieldio.write_MBps": rate(write_bytes, write_s),
        "fieldio.read_MBps": rate(nbytes.get("fieldio.read_field", 0),
                                  t("fieldio.read_field")),
        "reconstruction.lsqr_s": t("reconstruction.lsqr"),
        "reconstruction.staircase_s": t("reconstruction.staircase"),
        "reconstruction.closedness_s": t("reconstruction.closedness"),
        "reconstruction.verify_s": t("reconstruction.verify"),
        "variational.minimize_s": minimize_s,
        "variational.iterations": iterations,
        "variational.evals": evals,
        "variational.eval_ms": 1e3 * minimize_s / evals if evals else 0.0,
        "variational.accept_ratio": iterations / evals if evals else 0.0,
        "variational.pointwise_skew_rank_s": t("variational.pointwise_skew_rank"),
        "variational.audit_s": t("variational.audit"),
        "integrability.classify_s": t("integrability.classify"),
        "integrability.frobenius_s": t("integrability.frobenius"),
        "horizontal.normal_s": t("horizontal.normal"),
        "horizontal.curl_s": t("horizontal.curl"),
        "grids.stencil_calls": counters["stencil_calls"],
        "grids.stencil_node_visits": counters["stencil_node_visits"],
        "scenarios.build_s": t("scenarios.build"),
        "scenarios.checks_s": t("scenarios.checks"),
        "runner.self_s": sum(t(f"runner.{sub}") for sub in SUBCOMMANDS),
    }
    for sub in SUBCOMMANDS:
        metrics[f"runner.{sub}_s"] = sum(end - start for name, start, end, *_ in spans
                                         if name == f"runner.{sub}")
    return metrics


def absent(samples: dict[str, list]) -> dict[str, str]:
    """Metrics that read 0 in every traced pass because nothing reached them."""
    reasons = {}
    for name, values in samples.items():
        if any(values):
            continue
        if name.startswith("runner."):
            reasons[name] = f"the workload runs no {name[7:-2]} command"
        else:
            reasons[name] = "no call in this workload reaches this layer"
    return reasons
