import re
from pathlib import Path

import numpy as np
import pytest

from parea.grids import build_domain
from parea.scenarios import (
    _SCENARIOS,
    UnknownScenarioError,
    builtin_scenario,
    heisenberg_field,
    interior_bump,
    random_smooth_field,
    random_smooth_scalar,
    seeded_init,
)


class TestRandomSmooth:
    def test_same_seed_identical(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        a = random_smooth_field(d, seed=12, band=2)
        b = random_smooth_field(d, seed=12, band=2)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        a = random_smooth_scalar(d, seed=12, band=2)
        b = random_smooth_scalar(d, seed=13, band=2)
        assert not np.array_equal(a.values, b.values)

    def test_band_zero_constant(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        f = random_smooth_scalar(d, seed=3, band=0)
        assert np.max(f.values) == np.min(f.values)

    def test_frozen_regression_norms(self):
        # reference values generated once and pinned; platforms must agree
        # to twelve digits
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        vec = random_smooth_field(d, seed=7, band=2)
        scal = random_smooth_scalar(d, seed=7, band=2)
        assert np.max(np.abs(vec.values)) == pytest.approx(
            2.9986010951829147, abs=1e-12)
        assert np.max(np.abs(scal.values)) == pytest.approx(
            0.34461924436769115, abs=1e-12)

    def test_negative_band_rejected(self):
        d = build_domain(2, [0, 0], [1, 1], [9, 9])
        with pytest.raises(ValueError):
            random_smooth_scalar(d, seed=0, band=-1)


class TestGenerators:
    def test_heisenberg_needs_even_dimension(self):
        d = build_domain(3, [0, 0, 0], [1, 1, 1], [5, 5, 5])
        with pytest.raises(ValueError, match="even"):
            heisenberg_field(d)

    def test_bump_vanishes_on_boundary(self):
        d = build_domain(2, [0.5, -1], [1.5, 1], [9, 9])
        bump = interior_bump(d)
        bmask = d.boundary_mask()
        assert np.max(np.abs(bump.values[bmask])) < 1e-15
        assert bump.values[4, 4] > 0.9

    def test_seeded_init_matches_boundary_exactly(self):
        d = build_domain(2, [0, 0], [1, 1], [17, 17])
        boundary = random_smooth_scalar(d, 8, 2)
        init = seeded_init(boundary, 5)
        bmask = d.boundary_mask()
        assert np.array_equal(init.values[bmask], boundary.values[bmask])
        assert not np.array_equal(init.values, boundary.values)


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError):
            builtin_scenario("no_such_thing")

    def test_heisenberg_out_of_range(self):
        with pytest.raises(UnknownScenarioError):
            builtin_scenario("heisenberg(9)")

    def test_heisenberg_name_forms(self):
        # names match exactly: no alias spelling, no surrounding whitespace
        assert builtin_scenario("heisenberg(2)").dimension == 4
        for name in ("heisenberg_2", "heisenberg2", "heisenberg(2", "heisenberg(4)",
                     " heisenberg(1)"):
            with pytest.raises(UnknownScenarioError, match=re.escape(
                    "built-in scenarios: example_2_2, example_4_2, example_4_3, "
                    "heisenberg(1), heisenberg(2), heisenberg(3),")):
                builtin_scenario(name)

    def test_readme_names_every_builtin(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text[text.index("### Built-in scenarios"):text.index("## File format")]
        names = [name for line in section.splitlines() if line.startswith("- ")
                 for name in re.findall(r"`([^`]+)`", line.split(" — ", 1)[0])]
        assert names == list(_SCENARIOS)


@pytest.mark.parametrize("name", [
    "example_2_2",
    "example_4_2",
    "example_4_3",
    "heisenberg(1)",
    "heisenberg(2)",
    "smooth_roundtrip",
    "random_smooth",
])
def test_all_shipped_scenarios_pass(name):
    scenario = builtin_scenario(name)
    _, outcomes = scenario.run_checks()
    failures = [o for o in outcomes if not o.passed]
    assert not failures, failures


def test_resolution_override():
    scenario = builtin_scenario("example_2_2")
    data = scenario.build(counts=17)
    assert data["domain"].counts == (17, 17)
    data = scenario.build(counts=(17, 33))
    assert data["domain"].counts == (17, 33)
