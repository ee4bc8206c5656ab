import contextlib
import dataclasses
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parea.cli
from parea.cli import main
from parea.fieldio import read_field, write_field
from parea.grids import GridDomain, build_domain, sample, sample_vector
from parea.horizontal import horizontal_normal
from parea.integrability import IntegrabilityLabel, classify_integrability, frobenius_tensor
from parea.runner import (
    INPUT_KEYS,
    PIPELINES,
    ExitCode,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    run,
)
from parea.scenarios import builtin_scenario


def run_cli(*args):
    return main(list(args))


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class TestScenarioCommand:
    def test_passing_scenario(self, tmp_path):
        code = run_cli("scenario", "example_2_2", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "assertions.csv").exists()
        assert (tmp_path / "u.pfld").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_unknown_scenario_is_config_error(self, tmp_path):
        code = run_cli("scenario", "nope", "--out", str(tmp_path))
        assert code == int(ExitCode.CONFIG_ERROR)

    @pytest.mark.parametrize("name", [
        "heisenberg_2", "heisenberg(2", "heisenberg(4)", " heisenberg(1)"])
    def test_inexact_name_is_refused(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert run_cli("scenario", name, "--out", str(out)) == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()
        assert ("built-in scenarios: example_2_2, example_4_2, example_4_3, heisenberg(1), "
                "heisenberg(2), heisenberg(3), smooth_roundtrip, random_smooth"
                in capsys.readouterr().out)

    def test_resolution_override(self, tmp_path):
        code = run_cli("scenario", "example_2_2", "--out", str(tmp_path),
                       "--resolution", "17")
        assert code == 0
        field = read_field(tmp_path / "u.pfld")
        assert field.domain.counts == (17, 17)


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("scenario", "random_smooth", "--seed", "9",
                           "--out", str(out), "--resolution", "33")
            assert code == 0
        for name in ("assertions.csv", "summary.csv", "u.csv", "f.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_artifacts(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli("scenario", "random_smooth", "--seed", "9", "--out", str(out1),
                "--resolution", "33")
        run_cli("scenario", "random_smooth", "--seed", "10", "--out", str(out2),
                "--resolution", "33")
        assert (out1 / "u.csv").read_bytes() != (out2 / "u.csv").read_bytes()

    def test_artifacts_do_not_depend_on_inherited_thread_settings(self, tmp_path):
        """`PAREA_THREADS` unset must mean one thread: a BLAS matmul split
        across two threads changes the last bits of the 97^2 stencils. On a
        1-core machine BLAS runs one thread either way, so there this test
        cannot fail."""
        unset, one = tmp_path / "unset", tmp_path / "one"
        _fresh_interpreter_run(_THREADS_ARGV, unset)
        _fresh_interpreter_run(_THREADS_ARGV, one, PAREA_THREADS="1")
        _assert_same_artifacts(unset, one)

    @pytest.mark.parametrize("threads", ["abc", "0", "-1", "1_0", " 1", "\u0661"])
    def test_a_malformed_thread_count_exits_4_before_any_output(self, tmp_path, threads):
        """OpenBLAS reads `abc`, `0` and `-1` as every core, and `1_0` as 1
        where `int` reads 10: a `PAREA_THREADS` that is not ASCII digits worth
        at least 1 exits 4, naming the variable, before any artifact (with
        every core, `d.pfld` and `nu.csv` at 97^2 differ in the last bits)."""
        out = tmp_path / "out"
        message = _fresh_interpreter_run(_THREADS_ARGV, out, code=4, PAREA_THREADS=threads)
        assert "PAREA_THREADS" in message
        assert not out.exists()

    def test_a_thread_count_reaches_the_pools_in_decimal(self, tmp_path):
        """Leading zeros are dropped; a malformed value leaves the pools at 1."""
        script = "import os, parea; print(os.environ['OPENBLAS_NUM_THREADS'])"
        for threads, pools in (("02", "2"), ("abc", "1"), ("0", "1")):
            env = {**_thread_free_environment(), "PAREA_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  check=True, capture_output=True, text=True)
            assert done.stdout.split() == [pools]

    def test_suite_runs_one_blas_thread(self, tmp_path):
        """`tests/conftest.py` loads parea before any test module loads
        numpy, so an in-process run uses the one BLAS thread of the `parea`
        command. On a 1-core machine BLAS runs one thread either way, so
        there this test cannot fail."""
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        assert run_cli(*_THREADS_ARGV, "--out", str(here)) == 0
        _fresh_interpreter_run(_THREADS_ARGV, fresh)
        _assert_same_artifacts(here, fresh)


_THREADS_ARGV = ("scenario", "smooth_roundtrip", "--resolution", "97")


def _thread_free_environment() -> dict:
    """This environment without thread variables, importing this parea."""
    base = {k: v for k, v in os.environ.items()
            if k not in _THREAD_VARIABLES and k != "PAREA_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    return base


def _fresh_interpreter_run(argv, out, code=0, **env):
    """`python -m parea.cli` with no thread variable but those in `env`; its
    output, once its exit code is checked to be `code`."""
    done = subprocess.run([sys.executable, "-m", "parea.cli", *argv, "--out", str(out)],
                          env={**_thread_free_environment(), **env},
                          capture_output=True, text=True)
    assert done.returncode == code, done.stdout + done.stderr
    return done.stdout


def _assert_same_artifacts(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert {"d.pfld", "nu.csv"} <= set(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestReconstruct:
    def test_scenario_roundtrip(self, tmp_path):
        code = run_cli("reconstruct", "--scenario", "smooth_roundtrip",
                       "--resolution", "33", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "potential.pfld").exists()

    def test_not_closed_exit_code(self, tmp_path):
        code = run_cli("reconstruct", "--scenario", "example_4_2",
                       "--out", str(tmp_path))
        assert code == int(ExitCode.NOT_CLOSED)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_config_error(self, tmp_path, tol):
        # a NaN or infinite bound would accept this non-closed candidate
        code = run_cli("reconstruct", "--scenario", "example_4_2", "--tol", tol,
                       "--out", str(tmp_path))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not (tmp_path / "potential.pfld").exists()

    @pytest.mark.parametrize("args", [
        ("--tol", "nan"), ("--tol", "-1"), ("--base", "99,0"), ("--base", "0"),
        ("--config", "method=bogus"),
    ], ids=["tol-nan", "tol-negative", "base-outside", "base-short",
            "method-unknown"])
    def test_rejected_input_writes_nothing(self, tmp_path, args):
        # tol, base and method are checked before candidate.pfld is written
        flag, value = args
        if flag == "--config":
            (tmp_path / "bad.cfg").write_text(value + "\n")
            value = str(tmp_path / "bad.cfg")
        out = tmp_path / "out"
        code = run_cli("reconstruct", "--scenario", "example_4_2", flag, value,
                       "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()

    def test_not_closed_keeps_the_candidate(self, tmp_path):
        code = run_cli("reconstruct", "--scenario", "example_4_2",
                       "--out", str(tmp_path))
        assert code == int(ExitCode.NOT_CLOSED)
        assert [p.name for p in tmp_path.iterdir()] == ["candidate.pfld"]

    def test_zero_tol_demands_exact_closedness(self, tmp_path):
        code = run_cli("reconstruct", "--scenario", "example_4_2", "--tol", "0",
                       "--out", str(tmp_path))
        assert code == int(ExitCode.NOT_CLOSED)

    def test_file_inputs(self, tmp_path):
        d = build_domain(2, [0.1, 0], [1, 1], [17, 17])
        f = sample_vector(d, [lambda x, y: -y, lambda x, y: x])
        u = sample(d, lambda x, y: x * y)
        write_field(f, tmp_path / "f.pfld")
        write_field(u, tmp_path / "u.pfld")
        out = tmp_path / "out"
        code = run_cli("reconstruct", "--f", str(tmp_path / "f.pfld"),
                       "--u", str(tmp_path / "u.pfld"), "--out", str(out))
        assert code == 0
        rec = read_field(out / "potential.pfld")
        shifted = u.values - u.values[0, 0]
        assert np.max(np.abs(rec.values - shifted)) < 1e-12


class TestReconstructSource:
    """`reconstruct` reads the normal from the files given: --u selects
    (u, F), --nu or --d selects (nu, D), and --u with either is refused
    before any file is read. A file is never read and then ignored."""

    @pytest.fixture
    def files(self, tmp_path):
        """smooth_roundtrip's fields at 17^2 and at 9^2, and a 17^2 u on its
        grid that is not the scenario's; each key -> its path."""
        paths = {}
        for n in (17, 9):
            data = builtin_scenario("smooth_roundtrip").build(n)
            for key in ("u", "f", "nu", "d"):
                paths[f"{key}{n}"] = tmp_path / f"{key}{n}.pfld"
                write_field(data[key], paths[f"{key}{n}"])
        other = sample(builtin_scenario("smooth_roundtrip").domain(17),
                       lambda x, y: x * y)
        paths["other17"] = tmp_path / "other17.pfld"
        write_field(other, paths["other17"])
        return paths

    @pytest.mark.parametrize("flags", [
        ("f17", "u17", "nu9"), ("f17", "u17", "d9"), ("f17", "nu17", "d17", "u9"),
    ], ids=["u-nu", "u-d", "nu-d-u"])
    def test_u_with_nu_or_d_is_refused_before_any_read(self, tmp_path, monkeypatch,
                                                        files, flags):
        reads = []
        monkeypatch.setattr("parea.runner.read_field", reads.append)
        out = tmp_path / "out"
        argv = [f"--{key.rstrip('0123456789')}={files[key]}" for key in flags]
        assert run_cli("reconstruct", *argv, "--out", str(out)) == int(ExitCode.CONFIG_ERROR)
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("scenario, flag, key", [
        ("smooth_roundtrip", "--u", "u9"), ("random_smooth", "--nu", "nu9"),
        ("random_smooth", "--d", "d9"), ("random_smooth", "--nu", "nu17"),
    ], ids=["scenario-u", "scenario-nu", "scenario-d", "nu-without-d"])
    def test_a_given_file_is_read_for_the_normal(self, tmp_path, files, scenario,
                                                 flag, key):
        out = tmp_path / "out"
        code = run_cli("reconstruct", "--scenario", scenario, "--resolution", "17",
                       flag, str(files[key]), "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()

    def test_a_given_u_outranks_the_scenario_normal(self, tmp_path, files):
        with_scenario, alone = tmp_path / "scenario", tmp_path / "alone"
        assert run_cli("reconstruct", "--scenario", "smooth_roundtrip", "--resolution",
                       "17", "--u", str(files["other17"]),
                       "--out", str(with_scenario)) == 0
        assert run_cli("reconstruct", "--f", str(files["f17"]),
                       "--u", str(files["other17"]), "--out", str(alone)) == 0
        assert ((with_scenario / "potential.csv").read_bytes()
                == (alone / "potential.csv").read_bytes())


def run_fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter, so no module that this
    test process already imported is loaded there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestNoScipy:
    """No `parea` command loads a scipy module."""

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, parea.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        assert run_fresh_python(code).strip() == "[]"

    def test_least_squares_loads_no_scipy(self, tmp_path):
        # the gradient operator and LSQR are parea's own, numpy only
        argv = ["reconstruct", "--scenario", "smooth_roundtrip", "--resolution", "9",
                "--method", "least-squares", "--out"]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        code = ("import contextlib, io, sys, parea.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = parea.cli.main({argv + [str(fresh)]!r})\n"
                "print(code, sorted(k for k in sys.modules if k.startswith('scipy')))")
        assert run_fresh_python(code).strip() == "0 []"
        assert run_cli(*argv, str(here)) == 0
        assert (fresh / "potential.csv").read_bytes() == (here / "potential.csv").read_bytes()


class TestEvaluate:
    def test_scenario_inputs(self, tmp_path):
        code = run_cli("evaluate", "--scenario", "example_2_2",
                       "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        values = dict(line.split(",", 1) for line in summary[1:])
        assert float(values["functional"]) == pytest.approx(0.99, abs=1e-12)

    def test_missing_input_is_config_error(self, tmp_path):
        code = run_cli("evaluate", "--out", str(tmp_path))
        assert code == int(ExitCode.CONFIG_ERROR)


class TestOtherPipelines:
    def test_rank_analysis(self, tmp_path):
        code = run_cli("rank-analysis", "--scenario", "heisenberg(2)",
                       "--out", str(tmp_path))
        assert code == 0
        hist = (tmp_path / "rank_histogram.csv").read_text().splitlines()
        assert hist[0] == "rank,count"
        assert hist[1].startswith("4,")

    def test_check_integrability(self, tmp_path):
        code = run_cli("check-integrability", "--scenario", "example_2_2",
                       "--out", str(tmp_path))
        assert code == 0
        summary = dict(
            line.split(",", 1)
            for line in (tmp_path / "summary.csv").read_text().splitlines()[1:])
        assert float(summary["integrable_fraction"]) == 1.0

    @pytest.mark.parametrize("name", ["heisenberg(1)", "heisenberg(2)"])
    def test_check_integrability_artifacts(self, tmp_path, name):
        """`labels.pfld` holds the labels and `frobenius.pfld` the tensor bit for
        bit, written only when there are triples (m >= 3); `tensor_max` is its
        max |T|, 0 for the empty tensor at m = 2."""
        assert run_cli("check-integrability", "--scenario", name, "--resolution", "5",
                       "--out", str(tmp_path)) == 0
        data = builtin_scenario(name).build(5, 0)
        u, f = data["u"], data["f"]
        labels, tensor = classify_integrability(u, f)
        summary = dict(
            line.split(",", 1)
            for line in (tmp_path / "summary.csv").read_text().splitlines()[1:])
        assert np.array_equal(read_field(tmp_path / "labels.pfld").values, labels)
        for label in IntegrabilityLabel:
            assert (float(summary[f"{label.name.lower()}_fraction"])
                    == np.mean(labels == label))
        frobenius = tmp_path / "frobenius.pfld"
        if u.domain.m == 2:
            assert not frobenius.exists()
            assert float(summary["tensor_max"]) == 0.0
            return
        expected = np.stack(list(frobenius_tensor(horizontal_normal(u, f)[0], f).blocks))
        assert np.array_equal(read_field(frobenius).values.view(np.uint64),
                              expected.view(np.uint64))
        assert float(summary["tensor_max"]) == np.max(np.abs(expected)) > 0

    def test_audit_uniqueness(self, tmp_path):
        code = run_cli("audit-uniqueness", "--scenario", "example_2_2",
                       "--out", str(tmp_path))
        assert code == 0
        audit = dict(
            line.split(",", 1)
            for line in (tmp_path / "audit.csv").read_text().splitlines()[1:])
        assert float(audit["normal_max"]) <= 1e-12
        assert float(audit["rank_condition_fraction"]) == 0.0

    @pytest.mark.parametrize("operation", ["check-integrability", "audit-uniqueness"])
    @pytest.mark.parametrize("flag", [("--eta", "0"), ("--eta", "-1"), ("--tol", "0")],
                             ids=["eta-0", "eta-negative", "tol-0"])
    def test_bad_threshold_is_refused_up_front(self, tmp_path, operation, flag):
        out = tmp_path / "out"
        code = run_cli(operation, "--scenario", "example_2_2", "--resolution", "9",
                       *flag, "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--scenario", "example_2_2", "--tol", "inf"),
        ("check-integrability", "--scenario", "heisenberg(2)", "--eta", "inf"),
        ("check-integrability", "--scenario", "heisenberg(2)", "--tol", "inf"),
        ("audit-uniqueness", "--scenario", "example_2_2", "--tol", "inf"),
        ("audit-uniqueness", "--scenario", "example_2_2", "--eta", "inf"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_infinite_threshold_is_refused_up_front(self, tmp_path, capsys, argv):
        # each exited 0: `--tol inf` masked every node and `--eta inf`
        # labelled almost every node integrable
        out = tmp_path / "out"
        code = run_cli(*argv, "--resolution", "5", "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()
        assert f"{argv[-2][2:]} must be positive and finite" in capsys.readouterr().out

    def test_threshold_is_refused_before_any_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.pfld")
        code = run_cli("evaluate", "--u", missing, "--f", missing, "--tol", "inf",
                       "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert "error: tol must be positive and finite" in capsys.readouterr().out

    def test_audit_odd_m_names_the_cause(self, tmp_path, capsys):
        d = build_domain(3, [0.0] * 3, [1.0] * 3, [5] * 3)
        u = sample(d, lambda x, y, z: x * y)
        v = sample(d, lambda x, y, z: x * y + z)
        f = sample_vector(d, [lambda x, y, z: -y, lambda x, y, z: x,
                              lambda x, y, z: 0 * z])
        for name, fld in (("u", u), ("v", v), ("f", f)):
            write_field(fld, tmp_path / f"{name}.pfld")
        code = run_cli("audit-uniqueness", *(f"--{k}={tmp_path / k}.pfld" for k in "uvf"),
                       "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        message = capsys.readouterr().out
        assert "default pairwise rotation needs even m" in message
        assert "m=3" in message

    def test_every_pipeline_is_a_subcommand(self):
        from parea.runner import PIPELINES

        parser = parea.cli.build_parser()
        for op in PIPELINES:
            args = parser.parse_args([op, "name"] if op == "scenario" else [op])
            assert args.operation == op
        with pytest.raises(parea.cli._ParserError):
            parser.parse_args(["no-such-operation"])

    def test_variation_profile(self, tmp_path):
        code = run_cli("variation-profile", "--scenario", "example_2_2",
                       "--eps-points", "5", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "profile.dat").read_text().splitlines()
        assert lines[0] == "# eps value"
        assert len(lines) == 6

    def test_minimize_small(self, tmp_path):
        code = run_cli("minimize", "--scenario", "heisenberg(1)",
                       "--resolution", "17", "--seed", "1",
                       "--first-order-tol", "1e-4",
                       "--max-iterations", "4000", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "minimizer.pfld").exists()
        log = (tmp_path / "convergence.log").read_text().splitlines()
        assert log[0] == "stage iteration objective residual"
        rows = [row.split(",") for row in
                (tmp_path / "summary.csv").read_text().splitlines()]
        # each stage's stop reason follows its other rows
        assert [key for key, _ in rows[-24:]] == [
            f"stage{i}_{key}" for i in range(6)
            for key in ("eps", "iterations", "residual", "stop_reason")]
        assert [value for key, value in rows if key.endswith("_stop_reason")] == ["tol"] * 6

    def test_minimize_non_convergence_exit_code(self, tmp_path):
        code = run_cli("minimize", "--scenario", "heisenberg(1)",
                       "--resolution", "17", "--seed", "1",
                       "--first-order-tol", "1e-12",
                       "--max-iterations", "3", "--out", str(tmp_path))
        assert code == int(ExitCode.SOLVER_FAILURE)
        # artifacts still written for inspection
        assert (tmp_path / "minimizer.pfld").exists()
        summary = (tmp_path / "summary.csv").read_text()
        assert all(f"stage{i}_stop_reason,cap" in summary for i in range(6))

    @pytest.mark.parametrize("flag", [
        ("--first-order-tol", "nan"), ("--first-order-tol", "-1"),
        ("--first-order-tol", "inf"), ("--first-order-tol", "0"),
        ("--max-iterations", "-3"), ("--max-iterations", "0")])
    def test_bad_solver_options_exit_config_error(self, tmp_path, flag):
        # they exited 5 (non-convergence), or 0 after no step for inf
        code = run_cli("minimize", "--scenario", "heisenberg(1)",
                       "--resolution", "9", *flag, "--out", str(tmp_path))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not (tmp_path / "minimizer.pfld").exists()

    @pytest.mark.parametrize("argv", [
        ["scenario", "example_2_2", "--resolution", "1000000"],
        ["variation-profile", "--scenario", "example_2_2", "--resolution", "9"]])
    def test_a_size_that_cannot_be_allocated_exits_4(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        # numpy raises a MemoryError subclass naming the size; a real
        # terabyte request is not made, since overcommit may grant it
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

        def unallocatable(self):
            raise MemoryError(message)

        monkeypatch.setattr(GridDomain, "meshes", unallocatable)
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        out = capsys.readouterr()
        assert f"error: {message}" in out.out
        assert "Traceback" not in out.out + out.err
        assert not (tmp_path / "out").exists()

    def test_failing_scenario_assertion_exit_code(self, tmp_path, monkeypatch):
        import parea.runner as runner_mod
        from parea.scenarios import CheckOutcome, builtin_scenario

        real = builtin_scenario("example_2_2")

        class Failing:
            name = real.name

            def build(self, counts=None, seed=0):
                return real.build(counts, seed)

            def run_checks(self, counts=None, seed=0):
                data = real.build(counts, seed)
                return data, [CheckOutcome(name="forced", passed=False,
                                           value=1.0, bound=0.0)]

        monkeypatch.setattr(runner_mod, "builtin_scenario", lambda name: Failing())
        code = run_cli("scenario", "example_2_2", "--out", str(tmp_path))
        assert code == int(ExitCode.ASSERTION_FAILURE)


class TestConfigFile:
    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "operation=scenario\n"
            "scenario=example_2_2\n"
            f"out={tmp_path / 'out'}\n"
            "resolution=17\n")
        mapping = load_config(cfg)
        config = config_from_mapping(mapping)
        assert config.operation == "scenario"
        assert config.resolution == (17,)
        code = run_cli("scenario", "example_2_2", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operation=scenario\nscenario=example_2_2\n"
                       f"out={tmp_path / 'a'}\nresolution=65\n")
        code = run_cli("scenario", "example_2_2", "--config", str(cfg),
                       "--resolution", "17", "--out", str(tmp_path / "b"))
        assert code == 0
        field = read_field(tmp_path / "b" / "u.pfld")
        assert field.domain.counts == (17, 17)

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operation scenario\n")
        code = run_cli("scenario", "example_2_2", "--config", str(cfg))
        assert code == int(ExitCode.CONFIG_ERROR)

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"operation=scenario\n\xff\n")
        code = run_cli("scenario", "example_2_2", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert f"{cfg}: not UTF-8 text: byte 0xff at offset 19" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operation=scenario\nwhatever=1\n")
        code = run_cli("scenario", "example_2_2", "--config", str(cfg))
        assert code == int(ExitCode.CONFIG_ERROR)

    def test_bad_value_is_config_error(self, tmp_path):
        for line in ("seed=abc", "resolution=7,x", "tol=small"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"operation=evaluate\n{line}\n")
            code = run_cli("evaluate", "--config", str(cfg))
            assert code == int(ExitCode.CONFIG_ERROR)

    def test_band_removed(self, tmp_path):
        # --band and band= were never read; both are now rejected
        assert run_cli("evaluate", "--scenario", "example_2_2", "--band", "3",
                       "--out", str(tmp_path)) == int(ExitCode.CONFIG_ERROR)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("operation=evaluate\nscenario=example_2_2\nband=3\n")
        code = run_cli("evaluate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == int(ExitCode.CONFIG_ERROR)

    def test_every_field_round_trips_per_subcommand(self, tmp_path, monkeypatch):
        # one non-default value per config key; each subcommand sets the keys
        # it reads by flag and by file, and together they cover every field
        values = {
            "out_dir": str(tmp_path / "o"),
            "scenario": "example_2_2",
            "seed": 7,
            "resolution": (9, 11),
            "tol": 0.001,
            "eta": 0.002,
            "method": "least-squares",
            "base": (1, 2),
            "eps_points": 5,
            "max_iterations": 10,
            "first_order_tol": 1e-07,
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(values) | {"operation", "inputs"}

        def text(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        by_key = {("out" if name == "out_dir" else name): (name, value)
                  for name, value in values.items()}
        seen = []
        monkeypatch.setattr(parea.cli, "run", lambda config: seen.append(config) or 0)
        covered, inputs_covered = set(), set()
        for op, entry in PIPELINES.items():
            settings, inputs, pairs = {}, {}, []
            for key in entry.keys:
                if key in INPUT_KEYS:
                    inputs[key] = f"{key}.pfld"
                    pairs.append((key, inputs[key]))
                else:
                    name, value = by_key[key]
                    settings[name] = value
                    pairs.append((key, text(value)))
            argv = [op]
            for key, value in pairs:
                flag = key if op == key == "scenario" else "--" + key.replace("_", "-")
                argv += [value] if flag == "scenario" else [flag, value]
            cfg = tmp_path / f"{op}.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs))
            positional = [values["scenario"]] if op == "scenario" else []
            seen.clear()
            assert run_cli(*argv) == 0
            assert run_cli(op, *positional, "--config", str(cfg)) == 0
            expected = ExperimentConfig(operation=op, **settings, inputs=inputs)
            assert seen == [expected, expected], op
            covered |= set(settings)
            inputs_covered |= set(inputs)
        assert covered == set(values)
        assert inputs_covered == set(INPUT_KEYS)

    def test_bad_flag_is_config_error(self):
        assert run_cli("scenario") == int(ExitCode.CONFIG_ERROR)
        assert run_cli("definitely-not-a-command") == int(ExitCode.CONFIG_ERROR)


# The flags of each subcommand, besides `-h`; `scenario` also takes its name.
ACCEPTED_FLAGS = {
    "evaluate": "--config --out --scenario --seed --resolution --tol --u --f --h",
    "minimize": "--config --out --scenario --seed --resolution --max-iterations "
                "--first-order-tol --f --u --h --init",
    "check-integrability": "--config --out --scenario --seed --resolution --tol --eta "
                           "--u --f",
    "reconstruct": "--config --out --scenario --seed --resolution --tol --base --method "
                   "--f --nu --d --u",
    "rank-analysis": "--config --out --scenario --seed --resolution --f",
    "audit-uniqueness": "--config --out --scenario --seed --resolution --tol --eta "
                        "--u --v --f --h",
    "scenario": "--config --out --seed --resolution",
    "variation-profile": "--config --out --scenario --seed --resolution --eps-points "
                         "--u --v --f --h",
}
ALL_FLAGS = sorted({flag for flags in ACCEPTED_FLAGS.values() for flag in flags.split()})


def _positional(op):
    return ["example_2_2"] if op == "scenario" else []


class TestFlagTable:
    """Each subcommand takes exactly the flags its operation reads."""

    def test_accepted_flags_are_pinned(self):
        parser = parea.cli.build_parser()
        found = {}
        for op in PIPELINES:
            found[op] = []
            for flag in ALL_FLAGS:
                try:
                    parser.parse_args([op, *_positional(op), flag, "x"])
                except parea.cli._ParserError:
                    continue
                found[op].append(flag)
        assert found == {op: sorted(flags.split()) for op, flags in ACCEPTED_FLAGS.items()}
        assert len(ALL_FLAGS) == 19
        assert sum(len(flags) for flags in found.values()) == 72

    def test_abbreviated_flag_is_config_error(self, tmp_path):
        # `--h` would otherwise be read as `--help` where there is no `--h`
        out = tmp_path / "out"
        for argv in (["rank-analysis", "--h", "h.pfld"],
                     ["scenario", "example_2_2", "--res", "9"]):
            assert run_cli(*argv, "--out", str(out)) == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scenario", "example_2_2", "--u", "missing.pfld"],
        ["scenario", "example_2_2", "--scenario", "heisenberg(2)"],
        ["minimize", "--scenario", "heisenberg(1)", "--tol", "0.5"],
        ["rank-analysis", "--scenario", "heisenberg(2)", "--tol", "0.9"],
        ["evaluate", "--scenario", "example_2_2", "--nu", "bad.pfld"],
    ], ids=["scenario-u", "scenario-scenario", "minimize-tol", "rank-tol", "evaluate-nu"])
    def test_unread_flag_or_key_writes_nothing(self, tmp_path, capsys, argv):
        *head, flag, value = argv
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == int(ExitCode.CONFIG_ERROR)
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().out
        key = flag[2:]
        if (head[0], key) != ("scenario", "scenario"):  # which reads its name as a key
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            code = run_cli(*head, "--config", str(cfg), "--out", str(out))
            assert code == int(ExitCode.CONFIG_ERROR)
            assert f"does not read ['{key}']" in capsys.readouterr().out
        assert not out.exists()

    def test_every_unread_flag_and_key_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        for op, flags in ACCEPTED_FLAGS.items():
            for flag in sorted(set(ALL_FLAGS) - set(flags.split())):
                cfg = tmp_path / "run.cfg"
                cfg.write_text(f"{flag[2:].replace('-', '_')}=1\n")
                code = run_cli(op, *_positional(op), flag, "1", "--out", str(out))
                assert code == int(ExitCode.CONFIG_ERROR), (op, flag)
                if (op, flag) == ("scenario", "--scenario"):
                    continue  # the key is read: `scenario` takes its name positionally
                code = run_cli(op, *_positional(op), "--config", str(cfg), "--out", str(out))
                assert code == int(ExitCode.CONFIG_ERROR), (op, flag)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "4"], ["--resolution", "33"],
                                       ["--resolution", "33", "--seed", "4"]],
                             ids=["seed", "resolution", "both"])
    def test_scenario_keys_need_a_scenario(self, tmp_path, capsys, flags):
        # they were accepted and ignored: this run exited 0 and wrote the
        # 9^2 curl of the file
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = tmp_path / "f.pfld"
        write_field(sample_vector(d, [lambda x, y: -y, lambda x, y: x]), f)
        out = tmp_path / "out"
        code = run_cli("rank-analysis", "--f", str(f), *flags, "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert "only with a scenario" in capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:]}={value}\n"
                               for flag, value in zip(flags[::2], flags[1::2])))
        code = run_cli("rank-analysis", "--f", str(f), "--config", str(cfg),
                       "--out", str(out))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert not out.exists()

    def test_every_scenario_key_needs_a_scenario(self):
        for op, entry in PIPELINES.items():
            for key in ("seed", "resolution"):
                mapping = {"operation": op, key: "5"}
                if op == "scenario" or (op, key) == ("minimize", "seed"):
                    config_from_mapping(mapping)  # read without a scenario
                else:
                    with pytest.raises(ValueError, match="only with a scenario"):
                        config_from_mapping(mapping)
                config_from_mapping({**mapping, "scenario": "example_2_2"})

    def test_minimize_seed_seeds_the_start_without_a_scenario(self, tmp_path):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        u, f = tmp_path / "u.pfld", tmp_path / "f.pfld"
        write_field(sample(d, lambda x, y: x * y), u)
        write_field(sample_vector(d, [lambda x, y: -y, lambda x, y: x]), f)
        starts = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            code = run_cli("minimize", "--u", str(u), "--f", str(f), "--seed", seed,
                           "--max-iterations", "1", "--out", str(out))
            assert code == int(ExitCode.SOLVER_FAILURE)
            starts.append((out / "minimizer.pfld").read_bytes())
        assert starts[0] != starts[1]

    def test_run_rejects_an_undeclared_input(self, tmp_path, capsys):
        config = ExperimentConfig(operation="scenario", scenario="example_2_2",
                                  out_dir=str(tmp_path), inputs={"u": "missing.pfld"})
        assert run(config) == int(ExitCode.CONFIG_ERROR)
        assert "does not read input 'u'" in capsys.readouterr().out
        assert not any(tmp_path.iterdir())

    def test_solver_options_are_checked_before_any_input(self, tmp_path, capsys):
        # the missing files would exit 4 too, but only after the options
        code = run_cli("minimize", "--u", str(tmp_path / "missing.pfld"),
                       "--f", str(tmp_path / "missing.pfld"), "--max-iterations", "0",
                       "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert "max_iterations must be at least 1" in capsys.readouterr().out

    def test_eps_points_are_checked_before_any_input(self, tmp_path, capsys):
        # the missing files would exit 4 too, but only after the option
        missing = [f"--{key}={tmp_path / 'nope.pfld'}" for key in ("u", "v", "f")]
        code = run_cli("variation-profile", *missing, "--eps-points", "2",
                       "--out", str(tmp_path / "out"))
        assert code == int(ExitCode.CONFIG_ERROR)
        assert "eps_points must be at least 3" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["minimize", "--scenario", "heisenberg(1)", "--max-iterations", "0"],
        ["rank-analysis", "--f", "missing.pfld"],
        ["reconstruct", "--scenario", "smooth_roundtrip", "--resolution", "9",
         "--method", "bogus"],
        ["variation-profile", "--scenario", "example_2_2", "--eps-points", "2"],
    ], ids=["solver-option", "missing-input", "reconstruct-method", "eps-points"])
    def test_refused_run_leaves_no_output_directory(self, tmp_path, argv):
        out = tmp_path / "out" / "nested"
        assert run_cli(*argv, "--out", str(out)) == int(ExitCode.CONFIG_ERROR)
        assert not (tmp_path / "out").exists()

    def test_tol_help_names_what_it_sets(self):
        parser = parea.cli.build_parser()
        texts = {}
        for op in ("evaluate", "check-integrability", "audit-uniqueness", "reconstruct"):
            with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as buf:
                parser.parse_args([op, "--help"])
            texts[op] = " ".join(buf.getvalue().split())
        for op in ("evaluate", "check-integrability", "audit-uniqueness"):
            assert "--tol TOL singular threshold" in texts[op]
        assert "--tol TOL closedness tolerance" in texts["reconstruct"]
        assert "staircase (default) or least-squares" in texts["reconstruct"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Command line"):text.index("### Built-in scenarios")]


class TestReadme:
    def test_documented_commands_parse(self):
        section = _command_line_section()
        start = section.index("```sh")
        block = section[start:section.index("```", start + 5)]
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("parea ")]
        assert len(commands) >= len(PIPELINES)
        parser = parea.cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)
        assert {argv[0] for argv in commands} == set(PIPELINES)

    def test_flag_table_matches_the_pinned_flags(self):
        rows = {}
        for line in _command_line_section().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].startswith("`") and "--" in cells[1]:
                rows[cells[0].strip("`").split()[0]] = " ".join(
                    re.findall(r"--[a-z-]+", cells[1]))
        common = "--config --out "
        assert {op: common + flags for op, flags in rows.items()} == ACCEPTED_FLAGS
