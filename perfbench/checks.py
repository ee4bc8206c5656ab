"""Output checks of one command against the references recorded at the seed.

A reference (references.json, written by record.py) holds a command's exit
code, its summary.csv, and for every other CSV artifact its line count and,
except for `minimize`, its SHA-256. The checks:

- the exit code equals the reference's;
- summary.csv has the reference's keys. Strings, counts, ranks and label
  fractions match exactly; other floats match within FLOAT_RTOL relative,
  plus FLOAT_ATOL absolute for round-off-sized residuals;
- `minimize` instead needs `converged=true`, a final residual no larger than
  the solver's own bound (first_order_tol * field_scale(boundary), recorded),
  and objective_final within MINIMIZE_RTOL of the reference, so a faster or
  more accurate solver still passes. Its stage counts are not compared;
- each CSV artifact exists with the reference's line count and, except for
  `minimize` whose artifacts depend on the solver's path, the same bytes.

A command fails when its exit code is not 0 or any check finds a problem.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
MINIMIZE_RTOL = 1e-5
_EXACT_KEYS = {"scenario", "checks", "passed", "method", "converged",
               "rank_min", "rank_max"}


def read_summary(out: Path) -> dict[str, str] | None:
    path = out / "summary.csv"
    if not path.is_file():
        return None
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: row[1] for row in rows[1:] if len(row) == 2}


def csv_digests(out: Path) -> dict[str, tuple[str, int]]:
    """SHA-256 and line count of every CSV artifact in a command's directory."""
    digests = {}
    for path in sorted(out.glob("*.csv")):
        sha = hashlib.sha256()
        lines = 0
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
                lines += block.count(b"\n")
        digests[path.name] = (sha.hexdigest(), lines)
    return digests


def _exact(key: str) -> bool:
    return (key in _EXACT_KEYS or key.endswith("_fraction")
            or key.startswith("mask_fraction"))


def _float_close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _compare_summary(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = []
    if set(got) != set(want):
        problems.append(f"summary keys {sorted(set(got) ^ set(want))} "
                        f"differ from reference")
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        try:
            same = float(a) == float(b) if _exact(key) else \
                _float_close(float(a), float(b), FLOAT_RTOL, FLOAT_ATOL)
        except ValueError:
            same = a == b
        if not same:
            problems.append(f"summary {key}={a}, reference {b}")
    return problems


def _check_minimize(got: dict[str, str], ref: dict) -> list[str]:
    want = ref["summary"]
    problems = []
    if got.get("converged") != "true":
        problems.append(f"converged={got.get('converged')}")
    try:
        residual = float(got["final_residual"])
        if not residual <= ref["residual_bound"]:
            problems.append(f"final_residual {residual} above the solver bound "
                            f"{ref['residual_bound']}")
        for key, rtol, atol in (("objective_final", MINIMIZE_RTOL, 0.0),
                                ("objective_init", FLOAT_RTOL, FLOAT_ATOL)):
            if not _float_close(float(got[key]), float(want[key]), rtol, atol):
                problems.append(f"summary {key}={got[key]}, reference {want[key]}")
    except (KeyError, ValueError) as exc:
        problems.append(f"summary unreadable: {exc!r}")
    return problems


def check_command(subcommand: str, out: Path, exit_code: int, ref: dict | None,
                  digests: dict[str, tuple[str, int]]) -> list[str]:
    """Problems found in one command's outputs; empty when all checks pass."""
    if ref is None:
        return ["no reference recorded for this command and seed"]
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, reference {ref['exit']}")
    summary = read_summary(out)
    if summary is None:
        problems.append("summary.csv missing")
    elif subcommand == "minimize":
        problems += _check_minimize(summary, ref)
    else:
        problems += _compare_summary(summary, ref["summary"])
    for name, (sha, lines) in sorted(ref["csv"].items()):
        if name not in digests:
            problems.append(f"{name} missing")
        elif digests[name][1] != lines:
            problems.append(f"{name} has {digests[name][1]} lines, reference {lines}")
        elif subcommand != "minimize" and digests[name][0] != sha:
            problems.append(f"{name} differs from the reference bytes")
    return problems


def reference_of(out: Path, exit_code: int,
                 digests: dict[str, tuple[str, int]]) -> dict:
    """The reference entry recorded for one command's outputs."""
    return {"exit": exit_code, "summary": read_summary(out) or {},
            "csv": {name: list(d) for name, d in digests.items()
                    if name != "summary.csv"}}
