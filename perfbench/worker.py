"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py <job.json>

The job (written by run.py) lists the commands' argv and output directories,
whether to trace, and where to write the result. The worker imports
`parea.cli` (numpy and scipy with it) and prepares the output tree: that is
set-up, and it ends at `ready`. It then calls `parea.cli.main(argv)` for
each command in order, in this one process, with each command's output
captured in a log beside its artifacts. The result holds each command's exit
code, start and end times and CPU time, the process's peak resident set
size and, in a traced pass, the spans and counters. Times are
`time.monotonic()`, which the parent process shares.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import parea.cli

    expected = Path(job["src"]).resolve() / "parea"
    if Path(parea.cli.__file__).resolve().parent != expected:
        print(f"parea imported from {parea.cli.__file__}, expected {expected}",
              file=sys.stderr)
        return 3
    for out in job["outs"]:
        Path(out).mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer(job["pass_id"])
        tracer.install()

    commands = []
    for argv, out in zip(job["argvs"], job["outs"]):
        with open(Path(out) / "command.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.monotonic()
            cpu = time.process_time()
            try:
                if tracer is None:
                    code = parea.cli.main(argv)
                else:
                    code = tracer.command(argv[0], parea.cli.main, argv)
            except Exception:  # a crash is this command's failure, not the pass's
                traceback.print_exc()
                code = -1
            end = time.monotonic()
            cpu = time.process_time() - cpu
        commands.append({"exit": code, "start": start, "end": end, "cpu_s": cpu})

    import numpy
    import scipy
    result = {
        "ready": ready,
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": tracer.spans if tracer else [],
        "counters": tracer.counters if tracer else {},
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
