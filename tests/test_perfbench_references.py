"""The benchmark pins the bytes of every command's CSV artifacts, and its
exit code and summary, in `perfbench/references.json`. This test runs every
command of the three `tiny` workloads once, in one subprocess with
`PAREA_THREADS=1` (how the references were recorded), and checks each
against its `tiny` reference with the benchmark's own `check_command`. A
change that moves pinned bytes then fails the Tier-1 suite, not only the
benchmark. Only reads `perfbench/`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
out_root = Path(sys.argv[2])
import run
from checks import check_command, csv_digests
from workloads import workloads

import parea.cli

refs = run.load_references("tiny")
problems = {}
for name, workload in workloads("tiny").items():
    seed = workload.seeds(0, 1)[0]
    first = str(out_root / name / "0")
    for i, command in enumerate(workload.commands):
        out = out_root / name / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            code = parea.cli.main(command.render(seed, first, str(out)))
        found = check_command(command.subcommand, out, code,
                              run.reference_for(refs, workload, i, seed),
                              csv_digests(out))
        if found:
            problems[f"{name} command {i} ({command.subcommand})"] = found
print(json.dumps(problems))
"""


def test_tiny_workloads_match_their_references(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
    env["PAREA_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {}
