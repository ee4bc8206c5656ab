"""parea benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Run from the root of a parea checkout; the program is imported from its
`src/`. Each pass runs the workload's commands through `parea.cli.main`
in one fresh interpreter (a closed loop with one caller, PAREA_THREADS=1),
then every command's outputs are checked (checks.py). Passes repeat until
`--seconds` would be exceeded, and at least until one workload seed has run
twice, so that the CSV artifacts of two passes can be compared byte for
byte. With `--trace 1` the passes alternate untraced and traced on the same
seed, and the per-layer metrics come from the traced ones (layers.py).

The last line of standard output is one JSON object: `correct` (no output
check failed), `attempted` and `failed` (commands; a command fails when its
exit code is not 0 or a check fails) and `metrics`. The lines before it
give each metric's quartiles and sample count, failed_fraction and the
machine facts. Everything the run writes stays under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import Workload, workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
RUN_SECONDS = 30
# End-to-end metrics: (name, unit, better, bound). A bound is the share of the
# parent's median by which the metric may worsen before a change is refused.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
SETUP_SAMPLES = 5
# A run stops starting passes past this point, whatever --seconds asks for.
HARD_LIMIT_S = 150.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed command)."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _worker_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PAREA_THREADS"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(root / OUT_DIR)
    return env


def run_pass(root: Path, workload: Workload, seed: int, pass_dir: Path, *,
             trace: bool = False, pass_id: int = 0, indices=None,
             setup_only: bool = False) -> tuple[dict, list[Path]]:
    """Run the workload's commands (or those at `indices`) in one worker."""
    indices = range(len(workload.commands)) if indices is None else indices
    outs = {i: pass_dir / f"{i}-{workload.commands[i].subcommand}" for i in indices}
    first = str((pass_dir / f"0-{workload.commands[0].subcommand}").relative_to(root))
    argvs = [] if setup_only else [
        workload.commands[i].render(seed, first, str(outs[i].relative_to(root)))
        for i in indices]
    pass_dir.mkdir(parents=True, exist_ok=True)
    job = {"src": str(root / "src"), "trace": trace, "pass_id": pass_id,
           "argvs": argvs, "outs": [str(p) for p in outs.values()],
           "result": str(pass_dir / "result.json")}
    job_path = pass_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                          cwd=root, env=_worker_env(root), capture_output=True,
                          text=True, timeout=HARD_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawn
    if result["commands"]:
        result["wall_s"] = result["commands"][-1]["end"] - result["commands"][0]["start"]
        result["cpu_s"] = sum(c["cpu_s"] for c in result["commands"])
    return result, [outs[i] for i in indices]


def machine_facts(root: Path) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    facts = {"nproc": len(os.sched_getaffinity(0)), "PAREA_THREADS": "1",
             "python": platform.python_version(), "git_sha": sha,
             "l2_cache": "unknown", "l3_cache": "unknown"}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}_cache"] = size
    return facts


def _cpu_ticks() -> list[int] | None:
    """The machine's CPU time counters (/proc/stat), to tell how much time
    the hypervisor gave to other guests (steal) during a run."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | str:
    if not before or not after or len(before) < 8:
        return "unknown"
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta[:8]) if sum(delta[:8]) else 0.0


def load_references(scale: str) -> dict:
    path = HERE / "references.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(scale, {})


def reference_for(refs: dict, workload: Workload, index: int, seed: int) -> dict | None:
    entry = refs.get(workload.name, {}).get(str(index), {})
    return entry.get(str(seed) if workload.commands[index].seeded else "-")


def run_workload(root: Path, workload: Workload, run_seed: int, seconds: float,
                 trace: bool, refs: dict, tamper=None) -> dict:
    """Measure one workload; `tamper(pass_index, outs)` may alter artifacts
    before they are checked (the smoke test uses it)."""
    out_root = root / OUT_DIR / workload.name
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    facts = machine_facts(root)
    facts["loadavg_before"] = os.getloadavg()
    cpu_ticks = _cpu_ticks()

    min_passes = 2 if trace else workload.seeds_per_run + 1
    passes, problems, failures = [], [], []
    first_digests: dict[int, dict[int, dict]] = {}
    compared = 0
    t0 = time.monotonic()
    k = 0
    while True:
        # Untraced passes cycle over the run's seeds; traced runs pair an
        # untraced and a traced pass on each seed.
        slot = k // 2 if trace else k
        seed = workload.seeds(run_seed, slot + 1)[-1]
        traced = trace and k % 2 != slot % 2  # alternate which of a pair goes first
        pass_dir = out_root / f"pass{k}"
        started = time.monotonic()
        result, outs = run_pass(root, workload, seed, pass_dir, trace=traced, pass_id=k)
        if tamper is not None:
            tamper(k, outs)
        iterations = 0
        earlier = first_digests.setdefault(seed, {})
        compared += bool(earlier)
        for i, (cmd, out, ran) in enumerate(
                zip(workload.commands, outs, result["commands"])):
            digests = checks.csv_digests(out)
            found = checks.check_command(cmd.subcommand, out, ran["exit"],
                                         reference_for(refs, workload, i, seed), digests)
            if i in earlier and digests != earlier[i]:
                found.append("CSV artifacts differ from an earlier pass with the same seed")
            earlier.setdefault(i, digests)
            if cmd.subcommand == "minimize":
                summary = checks.read_summary(out) or {}
                iterations += sum(int(v) for key, v in summary.items()
                                  if key.endswith("_iterations"))
            if ran["exit"] != 0 or found:
                log = (out / "command.log").read_text(encoding="utf-8", errors="replace")
                failures.append({"pass": k, "command": i, "exit": ran["exit"],
                                 "problems": found, "log_tail": log.splitlines()[-3:]})
        result.update(seed=seed, traced=traced, iterations=iterations,
                      cost_s=time.monotonic() - started)
        passes.append(result)
        shutil.rmtree(pass_dir)
        k += 1
        elapsed = time.monotonic() - t0
        cost = statistics.median(p["cost_s"] for p in passes)
        if trace and k % 2 == 1:
            continue  # a traced run ends on a complete untraced-traced pair
        if elapsed + cost > HARD_LIMIT_S or (k >= min_passes and elapsed + cost > seconds):
            break
    if compared == 0:
        problems.append("no two passes with the same seed ran, so determinism is unchecked")

    setups = [p["setup_s"] for p in passes]
    if not trace:
        extra = out_root / "setup"
        while len(setups) < SETUP_SAMPLES:
            result, _ = run_pass(root, workload, passes[0]["seed"], extra, setup_only=True)
            setups.append(result["setup_s"])
            shutil.rmtree(extra)

    attempted = len(passes) * len(workload.commands)
    failed = len(failures)
    correct = not problems and not any(f["problems"] for f in failures)
    facts["loadavg_after"] = os.getloadavg()
    facts["steal_share"] = _steal_share(cpu_ticks, _cpu_ticks())
    facts.update(passes[0]["versions"])
    report = {
        "workload": workload.name, "run_seed": run_seed,
        "workload_seeds": sorted({p["seed"] for p in passes}),
        "trace": trace, "passes": len(passes), "machine": facts,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted, "problems": problems,
        "failures": failures,
    }
    if trace:
        report.update(_layer_report(passes))
    else:
        report["samples"] = {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in passes],
        }
        report["sample_seeds"] = [p["seed"] for p in passes]
        report["units"] = {name: unit for name, unit, _, _ in END_TO_END}
    report["metrics"] = {
        name: {"value": quartiles(values)[1] if name == "setup_s"
               else seed_mean(values, report["sample_seeds"]),
               "unit": report["units"][name]}
        for name, values in report["samples"].items()}
    return report


def seed_mean(values: list[float], seeds: list[int]) -> float:
    """Mean over the run's workload seeds of each seed's median sample.

    A pass's time depends on its seed (on `solve`, through the iteration
    count), so a plain median over passes would depend on which seed
    happened to repeat; with one seed this is the plain median."""
    by_seed: dict[int, list[float]] = {}
    for seed, value in zip(seeds, values):
        by_seed.setdefault(seed, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def _layer_report(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass = [layers.layer_metrics(p["spans"], p["counters"], p["iterations"])
                for p in traced]
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    samples["trace.overhead_s"] = [
        (a["wall_s"] - b["wall_s"]) * (1 if a["traced"] else -1)
        for a, b in zip(passes[::2], passes[1::2])]
    spans = [span for p in traced for span in p["spans"]]
    return {"samples": samples, "sample_seeds": [p["seed"] for p in traced],
            "units": layers.UNITS, "spans": spans,
            "absent": layers.absent(samples), "computed": layers.COMPUTED}


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}: run seed {report['run_seed']}, "
          f"workload seeds {report['workload_seeds']}, {report['passes']} passes, "
          f"trace {'on' if report['trace'] else 'off'}")
    print("  metric value: mean over the run's workload seeds of each seed's median "
          "pass (setup_s: median); quartiles over all samples")
    for name, values in report["samples"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:36s} {report['metrics'][name]['value']:.6g} "
              f"{report['units'][name]}  median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(values)}")
    for kind in ("absent", "computed"):
        for name, reason in report.get(kind, {}).items():
            print(f"  {name:36s} {kind}: {reason}")
    print(f"  failed_fraction {report['failed']}/{report['attempted']} = "
          f"{report['failed_fraction']:.4g}")
    for failure in report["failures"]:
        print(f"  failed: pass {failure['pass']} command {failure['command']} "
              f"exit {failure['exit']} {'; '.join(failure['problems'])} "
              f"| {' / '.join(failure['log_tail'])}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in report["machine"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "parea" / "cli.py").is_file():
        print(f"no parea source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    table = workloads(args.scale)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; have {sorted(table)}", file=sys.stderr)
        return 2
    try:
        report = run_workload(root, table[args.workload], args.seed, args.seconds,
                              bool(args.trace), load_references(args.scale))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = root / OUT_DIR / args.workload
    if report["trace"]:
        spans = report.pop("spans")
        (out / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "pass_id", "bytes"],
             "spans": spans}), encoding="utf-8")
    (out / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    _print_report(report)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
