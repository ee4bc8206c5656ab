"""A traced name must keep measuring the same work: each traced function
calls the same traced functions, and each subcommand reaches the same ones.
This test runs every command of the three `tiny` workloads once, in one
subprocess with `PAREA_THREADS=1`, under the benchmark's own `Tracer`, and
compares each workload's (parent span, child span) edges with the table
below; a root span, one per subcommand, has the parent None. A refactor that
moves work from one traced function into another, or calls a traced function
through a binding the tracer does not rebind, changes an edge and fails here.
Only reads `perfbench/`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# workload -> parent span -> the child spans it opens
CALL_GRAPH = {
    "solve": {
        None: ("runner.minimize",),
        "runner.minimize": ("fieldio.write_csv", "fieldio.write_field",
                            "scenarios.build", "variational.minimize"),
    },
    "highdim": {
        None: ("runner.audit-uniqueness", "runner.check-integrability",
               "runner.rank-analysis", "runner.scenario"),
        "runner.scenario": ("fieldio.write_csv", "fieldio.write_field",
                            "scenarios.checks"),
        "runner.check-integrability": ("fieldio.read_field", "fieldio.write_csv",
                                       "fieldio.write_field", "integrability.classify"),
        "runner.rank-analysis": ("fieldio.read_field", "fieldio.write_field",
                                 "horizontal.curl", "variational.pointwise_skew_rank"),
        "runner.audit-uniqueness": ("fieldio.read_field", "scenarios.build",
                                    "variational.audit"),
        "scenarios.checks": ("horizontal.curl", "scenarios.build",
                             "variational.pointwise_skew_rank"),
        "integrability.classify": ("horizontal.normal", "integrability.frobenius"),
        "integrability.frobenius": ("horizontal.curl",),
        "variational.audit": ("horizontal.curl", "horizontal.normal",
                              "variational.pointwise_skew_rank"),
    },
    "planar": {
        None: ("runner.audit-uniqueness", "runner.evaluate", "runner.reconstruct",
               "runner.scenario"),
        "runner.scenario": ("fieldio.write_csv", "fieldio.write_field",
                            "scenarios.checks"),
        "runner.reconstruct": ("fieldio.read_field", "fieldio.write_csv",
                               "fieldio.write_field", "reconstruction.lsqr",
                               "reconstruction.staircase", "reconstruction.verify"),
        "runner.evaluate": ("fieldio.write_csv", "fieldio.write_field",
                            "horizontal.normal", "scenarios.build"),
        "runner.audit-uniqueness": ("scenarios.build", "variational.audit"),
        "scenarios.build": ("horizontal.normal",),
        "scenarios.checks": ("horizontal.normal", "reconstruction.staircase",
                             "reconstruction.verify", "scenarios.build"),
        "reconstruction.staircase": ("reconstruction.closedness",),
        "reconstruction.lsqr": ("reconstruction.closedness",),
        "reconstruction.closedness": ("horizontal.curl",),
        "reconstruction.verify": ("horizontal.normal",),
        "variational.audit": ("horizontal.curl", "horizontal.normal",
                              "variational.pointwise_skew_rank"),
    },
}

_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
out_root = Path(sys.argv[2])
from layers import Tracer
from workloads import workloads

import parea.cli

tracer = Tracer(0)
tracer.install()
edges = {}
for name, workload in workloads("tiny").items():
    seed = workload.seeds(0, 1)[0]
    first = str(out_root / name / "0")
    start = len(tracer.spans)
    for i, command in enumerate(workload.commands):
        argv = command.render(seed, first, str(out_root / name / str(i)))
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.command(command.subcommand, parea.cli.main, argv)
    spans = tracer.spans
    edges[name] = [(None if parent is None else spans[parent][0], child)
                   for child, _, _, parent, *_ in spans[start:]]
print(json.dumps(edges))
"""


def test_tiny_workloads_keep_their_call_graph(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
    env["PAREA_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found.keys() == CALL_GRAPH.keys()
    for name, graph in CALL_GRAPH.items():
        # a set comparison, so a failure lists the missing and the extra edges
        assert {tuple(edge) for edge in found[name]} == {
            (parent, child) for parent, children in graph.items() for child in children}
