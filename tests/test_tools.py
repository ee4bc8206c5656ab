"""Smoke test of `tools/peak_by_command.py` on the `tiny` planar workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peak_by_command_reports_every_planar_command():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_by_command.py"), "planar", "21",
         "--scale", "tiny", "--trace"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("planar seed 21 scale tiny: after import VmHWM")
    subcommands = ["scenario", "reconstruct", "reconstruct", "evaluate", "audit-uniqueness"]
    assert len(lines) == 1 + len(subcommands)
    pattern = (r"(\d)-(\S+) +exit 0  cpu_s +[\d.]+  VmHWM +([\d.]+)  VmRSS +[\d.]+"
               r"  traced_peak +[\d.]+ node arrays  at \w+\.py:[\w<>]+:\d+")
    hwm = []
    for i, (line, name) in enumerate(zip(lines[1:], subcommands)):
        match = re.fullmatch(pattern, line)
        assert match, line
        assert (int(match[1]), match[2]) == (i, name)
        hwm.append(float(match[3]))
    assert hwm == sorted(hwm)  # the peak so far never falls
