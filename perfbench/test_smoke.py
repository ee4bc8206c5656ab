"""Smoke test of the benchmark itself, on the tiny workloads.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root. It checks that every metric is emitted for
every workload (or, per layer, recorded as absent with a reason), and that
a corrupted artifact and a wrong exit code both show up as failed commands.
It lives outside the repository's `testpaths`, so the main suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import Command, workloads  # noqa: E402

TINY = workloads("tiny")
REFS = run.load_references("tiny")


def _run(workload, trace=False, tamper=None):
    return run.run_workload(ROOT, workload, 0, 0, trace, REFS, tamper=tamper)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name):
    report = _run(TINY[name])
    assert report["correct"], report["failures"] + report["problems"]
    assert report["failed"] == 0 and report["attempted"] >= len(TINY[name].commands)
    for metric, unit, _, _ in run.END_TO_END:
        assert report["metrics"][metric]["unit"] == unit
        assert report["metrics"][metric]["value"] > 0
        assert len(report["samples"][metric]) >= 1
    assert len(report["samples"]["setup_s"]) >= run.SETUP_SAMPLES


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted_or_absent(name):
    report = _run(TINY[name], trace=True)
    assert report["correct"], report["failures"] + report["problems"]
    assert {m for m, _, _ in PER_LAYER} == set(report["metrics"])
    for metric, unit, _ in PER_LAYER:
        assert report["metrics"][metric]["unit"] == unit
        if metric in report["absent"]:
            assert report["absent"][metric]
        else:
            assert any(report["samples"][metric]), metric
    sub = {c.subcommand for c in TINY[name].commands}
    assert all(f"runner.{s}_s" not in report["absent"] for s in sub)
    assert {span[4] for span in report["spans"]} == {1}, "spans of the traced pass only"


def test_corrupted_artifact_counts_as_failed():
    workload = TINY["planar"]

    def corrupt(pass_index, outs):
        if pass_index == 0:
            path = outs[1] / "potential.csv"
            data = bytearray(path.read_bytes())
            data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
            path.write_bytes(bytes(data))

    report = _run(workload, tamper=corrupt)
    # The corrupted pass fails against the reference; the pass that repeats
    # its seed then differs from it too.
    assert {(f["pass"], f["command"]) for f in report["failures"]} == {(0, 1), (1, 1)}
    assert report["failed_fraction"] == 2 / report["attempted"]
    assert not report["correct"]
    problems = report["failures"][0]["problems"]
    assert "potential.csv differs from the reference bytes" in problems


def test_wrong_exit_code_counts_as_failed():
    workload = TINY["planar"]
    broken = Command(tuple(a.replace("nu.pfld", "missing.pfld")
                           for a in workload.commands[1].argv))
    workload = replace(workload, commands=(workload.commands[0], broken)
                       + workload.commands[2:])
    report = _run(workload)
    passes = report["attempted"] // len(workload.commands)
    assert report["failed"] == passes
    assert {f["exit"] for f in report["failures"]} == {4}


def test_prints_result_line_and_refuses_without_source():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "3", "--seconds", "0", "--trace", "0",
                           "--scale", "tiny"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0

    bare = ROOT / run.OUT_DIR / "bare"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
