"""Command-line surface; a thin layer over the experiment runner.

Each subcommand takes `--config <key=value file>` (command-line flags win),
`--out <dir>` for its artifacts, and a flag for each other config key its
operation reads in `runner.PIPELINES`; any other flag or key exits 4. Exit
codes are shared: 0 ok, 2 assertion failure, 3 not closed, 4 I/O, config or
allocation error, 5 solver non-convergence. `PAREA_THREADS` (default 1) sets
internal parallelism; a value that is not a whole number of at least 1 exits 4.
"""

from __future__ import annotations

import argparse

from . import _threads_error
from .runner import (
    CONFIG_FIELDS,
    INPUT_KEYS,
    PIPELINES,
    ConfigError,
    ExitCode,
    config_from_mapping,
    load_config,
    run,
)

# Flag help by config key, or by (subcommand, key) where it reads differently.
_HELP = {
    "out": "output directory (default parea-out)",
    "scenario": "built-in scenario name, e.g. example_2_2 or heisenberg(1)",
    "seed": "random seed (default 0)",
    "resolution": "nodes per axis: one int or comma list",
    "tol": "singular threshold of the weight",
    ("reconstruct", "tol"): "closedness tolerance of the candidate gradient",
    "eta": "integrability classification threshold",
    "method": "potential integration method: staircase (default) or least-squares",
    "base": "base node multi-index, comma list",
    "eps_points": "profile sample count on [0, 1]",
    "max_iterations": "solver iteration cap per stage",
    "first_order_tol": "solver interior residual tolerance",
    **{key: f"path to the {key} field (.pfld)" for key in INPUT_KEYS},
}


class _ParserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto the config exit code
        raise _ParserError(message)


def build_parser() -> argparse.ArgumentParser:
    # flags match by full name only: `--h` must not stand for `--help`
    parser = _Parser(prog="parea", allow_abbrev=False,
                     description="numerical laboratory for weighted-gradient "
                                 "area functionals on grid domains")
    sub = parser.add_subparsers(dest="operation", required=True,
                                parser_class=_Parser)
    for name, op in PIPELINES.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="key=value configuration file")
        for key in op.keys:
            flag = key if name == key == "scenario" else "--" + key.replace("_", "-")
            p.add_argument(flag, help=_HELP.get((name, key), _HELP[key]))
    return parser


def _mapping_from_args(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(load_config(args.config))
    for key in (*CONFIG_FIELDS, *INPUT_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return mapping


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if _threads_error:  # before any input is read or output written
            raise ConfigError(_threads_error)
        config = config_from_mapping(_mapping_from_args(args))
    except (_ParserError, ConfigError, OSError) as exc:
        print(f"error: {exc}")
        return int(ExitCode.CONFIG_ERROR)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
