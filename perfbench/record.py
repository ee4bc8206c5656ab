"""Regenerate the benchmark's recorded files from the current checkout.

    python3 perfbench/record.py [references] [baseline] [benchmark]

Run from the repository root; with no arguments all three steps run, in
this order (about ten minutes on a 2-core machine):

- references: perfbench/references.json, every command's reference outputs
  (checks.py) for both scales, for every seed in SEED_POOL where the
  command takes a seed;
- baseline: perfbench/baseline.json, one untraced and one traced run of
  every workload on PRIMARY_SEED, checked against those references;
- benchmark: BENCHMARK.json at the root, from the workload and metric tables
  in this directory, each workload's `why` ending with the layers that
  dominate its traced run in baseline.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
from layers import PER_LAYER, SUBCOMMANDS
from workloads import PRIMARY_SEED, SEED_POOL, workloads

ROOT = Path.cwd()


def _residual_bound(argv: list[str]) -> float:
    """The solver's own stopping bound for a minimize command's boundary data."""
    sys.path.insert(0, str(ROOT / "src"))
    from parea.grids import field_scale
    from parea.scenarios import builtin_scenario
    from parea.variational import MinimizeOptions

    def flag(name):
        return argv[argv.index(name) + 1]

    data = builtin_scenario(flag("--scenario")).build(
        (int(flag("--resolution")),), int(flag("--seed")))
    return MinimizeOptions().first_order_tol * field_scale(data["u"])


def record_references(scales=("full", "tiny")) -> dict:
    refs = {}
    scratch = ROOT / run.OUT_DIR / "record"
    for scale in scales:
        refs[scale] = {}
        for workload in workloads(scale).values():
            seeded = [i for i, c in enumerate(workload.commands) if c.seeded]
            # Later seeds rerun only the seeded commands, so these must stand alone.
            assert not any("{first}" in a for i in seeded
                           for a in workload.commands[i].argv)
            entries = {str(i): {} for i in range(len(workload.commands))}
            for n, seed in enumerate(SEED_POOL if seeded else SEED_POOL[:1]):
                indices = None if n == 0 else seeded
                result, outs = run.run_pass(ROOT, workload, seed, scratch, indices=indices)
                ran_indices = indices or range(len(outs))
                for i, out, ran in zip(ran_indices, outs, result["commands"]):
                    cmd = workload.commands[i]
                    ref = checks.reference_of(out, ran["exit"], checks.csv_digests(out))
                    if cmd.subcommand == "minimize":
                        ref["residual_bound"] = _residual_bound(
                            cmd.render(seed, "", str(out)))
                    entries[str(i)][str(seed) if cmd.seeded else "-"] = ref
                shutil.rmtree(scratch)
                print(f"references: {scale} {workload.name} seed {seed}", flush=True)
            refs[scale][workload.name] = entries
    return refs


def record_baseline() -> dict:
    refs = run.load_references("full")
    baseline = {}
    for workload in workloads().values():
        for trace in (False, True):
            report = run.run_workload(ROOT, workload, PRIMARY_SEED, run.RUN_SECONDS,
                                      trace, refs)
            report.pop("spans", None)
            key = f"{workload.name}/{'trace' if trace else 'e2e'}"
            baseline[key] = {k: report[k] for k in (
                "run_seed", "workload_seeds", "passes", "correct", "attempted",
                "failed", "failed_fraction", "problems", "metrics", "samples",
                "machine") if k in report}
            if trace:
                baseline[key]["absent"] = report["absent"]
            print(f"baseline: {key} {json.dumps(report['metrics'])[:200]}", flush=True)
    return baseline


def dominant_layers(trace_report: dict, top: int = 2) -> str:
    """The layers with the most self time in a traced run, as shares of its
    command spans."""
    metrics = {name: m["value"] for name, m in trace_report["metrics"].items()}
    inclusive = [f"runner.{sub}_s" for sub in SUBCOMMANDS]
    commands = sum(metrics[name] for name in inclusive)
    totals: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if unit != "s" or name == "trace.overhead_s" or name in inclusive:
            continue  # not self time
        group = "fieldio" if name.startswith("fieldio.") else name
        totals[group] = totals.get(group, 0.0) + metrics[name]
    ranked = sorted(totals.items(), key=lambda item: -item[1])[:top]
    return ", ".join(f"{name} {value / commands:.0%}" for name, value in ranked)


def benchmark_json(baseline: dict) -> dict:
    whys = {w.name: f"{w.why}; traced: " + dominant_layers(baseline[f"{w.name}/trace"])
            for w in workloads().values()}
    assert all(len(why) <= 200 for why in whys.values()), whys
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in whys.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in run.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(steps: list[str]) -> int:
    steps = steps or ["references", "baseline", "benchmark"]
    here = Path(__file__).resolve().parent
    if "references" in steps:
        _write(here / "references.json", record_references())
    if "baseline" in steps:
        _write(here / "baseline.json", record_baseline())
    if "benchmark" in steps:
        baseline = json.loads((here / "baseline.json").read_text(encoding="utf-8"))
        _write(ROOT / "BENCHMARK.json", benchmark_json(baseline))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
