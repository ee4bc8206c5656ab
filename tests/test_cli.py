import dataclasses

import numpy as np
import pytest

import parea.cli
from parea.cli import main
from parea.fieldio import read_field, write_field
from parea.grids import build_domain, sample, sample_vector
from parea.runner import (
    ExitCode,
    ExperimentConfig,
    config_from_mapping,
    load_config,
)


def run_cli(*args):
    return main(list(args))


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
        assert not out.exists() or not any(out.iterdir())

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

    def test_audit_uniqueness(self, tmp_path):
        code = run_cli("audit-uniqueness", "--scenario", "example_2_2",
                       "--out", str(tmp_path))
        assert code == 0
        audit = dict(
            line.split(",", 1)
            for line in (tmp_path / "audit.csv").read_text().splitlines()[1:])
        assert float(audit["normal_max"]) <= 1e-12
        assert float(audit["rank_condition_fraction"]) == 0.0

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

    def test_every_field_round_trips(self, tmp_path, monkeypatch):
        # one non-default value per config field, set by flag and by file
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
            "inputs": {"u": "u.pfld", "nu": "nu.pfld"},
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(values) | {"operation"}

        def text(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        pairs = [("out" if name == "out_dir" else name, text(value))
                 for name, value in values.items() if name != "inputs"]
        pairs += list(values["inputs"].items())
        seen = []
        monkeypatch.setattr(parea.cli, "run", lambda config: seen.append(config) or 0)
        argv = ["evaluate"]
        for key, value in pairs:
            argv += ["--" + key.replace("_", "-"), value]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs))
        assert run_cli(*argv) == 0
        assert run_cli("evaluate", "--config", str(cfg)) == 0
        expected = ExperimentConfig(operation="evaluate", **values)
        assert seen == [expected, expected]

    def test_bad_flag_is_config_error(self):
        assert run_cli("scenario") == int(ExitCode.CONFIG_ERROR)
        assert run_cli("definitely-not-a-command") == int(ExitCode.CONFIG_ERROR)
