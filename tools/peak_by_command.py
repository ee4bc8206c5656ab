"""Memory and CPU time of each command of a benchmark workload.

    python3 tools/peak_by_command.py planar 21 [--scale tiny|full] [--trace]

Run from anywhere; the program is imported from this checkout's `src/` with
`PAREA_THREADS=1`. The workload's commands (from `perfbench/workloads.py`,
only read) run in order through `parea.cli.main` in this one interpreter, as
the benchmark's worker runs them, with `<seed>` as the workload seed and the
outputs in a temporary directory that is removed at the end. After each
command one line gives its exit code, its CPU seconds, and the process's
VmHWM (the peak resident set so far) and VmRSS in MB (1024 kB, as the
benchmark's `peak_rss_mb`).

With `--trace` each command also runs under tracemalloc, and the line adds
the command's traced peak above what was allocated before it, in node arrays
(8 bytes a node of the command's scenario at its resolution, or of the
workload's first command for a command that reads that one's files), and
the `file:function:line` of `src/parea` that was running when it was reached.
Tracing slows the commands and adds its own memory to VmHWM and VmRSS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = str(ROOT / "src" / "parea")


class PeakLine:
    """Where a traced peak is reached: a line tracer on `src/parea` that reads
    the peak at each event of a parea frame, resets it there, and keeps the
    line that last ran before the highest one, callees outside parea counted
    in their caller's line."""

    def __init__(self):
        self.peak, self.at, self._line = 0, None, None

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        self._event(None, "exit", None)

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(SOURCE):
            return self._event(frame, event, arg)
        return None

    def _event(self, frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak, self.at = peak, self._line
        tracemalloc.reset_peak()
        if event == "line":
            self._line = frame.f_code, frame.f_lineno
        return self._event

    def where(self) -> str:
        code, line = self.at
        return f"{Path(code.co_filename).name}:{code.co_name}:{line}"


def _status_mb(field: str) -> float:
    """A memory line of /proc/self/status (in kB there), in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def _option(argv, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _node_bytes(argv, first_argv) -> int:
    """8 bytes a node of the scenario a command reads or builds."""
    from parea.scenarios import builtin_scenario

    source = argv if _option(argv, "--scenario") or argv[0] == "scenario" else first_argv
    name = _option(source, "--scenario") or source[1]
    scenario = builtin_scenario(name)
    resolution = _option(source, "--resolution")
    counts = ((int(resolution),) * scenario.dimension if resolution
              else scenario.domain().counts)
    nodes = 1
    for n in counts:
        nodes *= n
    return 8 * nodes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int, help="workload seed, as in {seed}")
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.environ["PAREA_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    from workloads import workloads

    import parea.cli

    workload = workloads(args.scale).get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}")
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"after import VmHWM {_status_mb('VmHWM'):.1f} VmRSS {_status_mb('VmRSS'):.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        first = str(Path(tmp) / f"0-{workload.commands[0].subcommand}")
        first_argv = workload.commands[0].render(args.seed, first, first)
        for i, command in enumerate(workload.commands):
            out = str(Path(tmp) / f"{i}-{command.subcommand}")
            cmd = command.render(args.seed, first, out)
            if args.trace:
                tracemalloc.start()
                before = tracemalloc.get_traced_memory()[0]
            cpu = time.process_time()
            with contextlib.redirect_stdout(io.StringIO()), (
                    PeakLine() if args.trace else contextlib.nullcontext()) as peak:
                code = parea.cli.main(cmd)
            cpu = time.process_time() - cpu
            line = (f"{i}-{command.subcommand:<20} exit {code}  cpu_s {cpu:6.3f}  "
                    f"VmHWM {_status_mb('VmHWM'):6.1f}  VmRSS {_status_mb('VmRSS'):6.1f}")
            if args.trace:
                tracemalloc.stop()
                nodes = (peak.peak - before) / _node_bytes(cmd, first_argv)
                line += f"  traced_peak {nodes:6.2f} node arrays  at {peak.where()}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
