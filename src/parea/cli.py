"""Command-line surface; a thin layer over the experiment runner.

Every subcommand accepts `--config <key=value file>` with command-line flags
taking precedence, writes its artifacts under `--out`, and uses the shared
exit codes (0 ok, 2 assertion failure, 3 not closed, 4 I/O or config error,
5 solver non-convergence). `PAREA_THREADS` caps internal parallelism.
"""

from __future__ import annotations

import argparse

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

class _ParserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto the config exit code
        raise _ParserError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="output directory (default parea-out)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--resolution",
                        help="nodes per axis: one int or comma list")
    parser.add_argument("--tol", type=float,
                        help="singular threshold / closedness tolerance")
    parser.add_argument("--eta", type=float,
                        help="integrability classification threshold")
    parser.add_argument("--method", choices=("staircase", "least-squares"),
                        help="potential integration method")
    parser.add_argument("--base", help="base node multi-index, comma list")
    parser.add_argument("--eps-points", type=int, dest="eps_points",
                        help="profile sample count on [0, 1]")
    parser.add_argument("--max-iterations", type=int, dest="max_iterations",
                        help="solver iteration cap per stage")
    parser.add_argument("--first-order-tol", type=float, dest="first_order_tol",
                        help="solver interior residual tolerance")
    parser.add_argument("--scenario", help="built-in scenario supplying inputs")
    for key in INPUT_KEYS:
        parser.add_argument(f"--{key}", help=f"path to the {key} field (.pfld)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parea",
                     description="numerical laboratory for weighted-gradient "
                                 "area functionals on grid domains")
    sub = parser.add_subparsers(dest="operation", required=True,
                                parser_class=_Parser)
    for op in PIPELINES:
        p = sub.add_parser(op)
        if op == "scenario":
            p.add_argument("name", help="scenario name, e.g. example_2_2 or "
                                        "heisenberg(1)")
        _add_common(p)
    return parser


def _mapping_from_args(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(load_config(args.config))
    for key in (*CONFIG_FIELDS, *INPUT_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = str(value)
    if args.operation == "scenario":
        mapping["scenario"] = args.name
    return mapping


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_mapping(_mapping_from_args(args))
    except (_ParserError, ConfigError, OSError) as exc:
        print(f"error: {exc}")
        return int(ExitCode.CONFIG_ERROR)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
