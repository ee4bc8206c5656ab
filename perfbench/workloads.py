"""The benchmark's workloads: fixed sequences of `parea` subcommands.

A command's argv may hold two placeholders: `{seed}` (the workload seed of
the pass) and `{first}` (the output directory of the workload's first
command). The runner appends `--out <dir>` to every command.

Workload seeds come from SEED_POOL, the seeds whose outputs were recorded
in references.json. A run measures `seeds_per_run` of them, one from each
block of SEED_ORDER, and passes cycle over that set. SEED_ORDER is the pool
sorted by the total `minimize` iterations each seed needed in `solve` at the
seed commit (15,954 to 23,475). Alternate blocks are walked in opposite
directions, so every set mixes fast and slow seeds: on `solve` the spread
between seeds (14% between quartiles) then stays out of one run's median.
`--seed n` selects set n mod (32 / seeds_per_run).
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_POOL = tuple(range(1, 33))
SEED_ORDER = (21, 30, 1, 10, 22, 5, 3, 16, 19, 2, 23, 27, 9, 26, 29, 12,
              8, 4, 24, 15, 32, 25, 11, 17, 14, 20, 18, 7, 31, 13, 28, 6)
assert sorted(SEED_ORDER) == list(SEED_POOL)

# Driver seeds for stating a result, and a second one kept aside for checking
# a later claim on inputs that were not used while the change was written.
PRIMARY_SEED = 0
SECOND_SEED = 5


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.argv)

    def render(self, seed: int, first: str, out: str) -> list[str]:
        return [a.format(seed=seed, first=first) for a in self.argv] + ["--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    seeds_per_run: int

    def seeds(self, run_seed: int, passes: int) -> list[int]:
        """Workload seed of each pass, in order (passes cycle over the run's set)."""
        block = len(SEED_ORDER) // self.seeds_per_run
        n = run_seed % block
        chosen = [SEED_ORDER[j * block + (n if j % 2 == 0 else block - 1 - n)]
                  for j in range(self.seeds_per_run)]
        return [chosen[k % self.seeds_per_run] for k in range(passes)]


def _cmd(*argv: str) -> Command:
    return Command(tuple(argv))


# Resolutions per scale: "full" is the benchmark; "tiny" keeps every command
# and exists only for the benchmark's own smoke test.
_RESOLUTIONS = {
    "full": {"solve_h": 33, "solve_r": 65, "highdim": 7, "planar": 257},
    "tiny": {"solve_h": 9, "solve_r": 9, "highdim": 5, "planar": 9},
}


def workloads(scale: str = "full") -> dict[str, Workload]:
    r = {k: str(v) for k, v in _RESOLUTIONS[scale].items()}
    solve = Workload(
        name="solve",
        why="two minimize solves, heisenberg(1) at 33^2 and random_smooth at 65^2; "
            "a fieldio or rank change should leave it unchanged",
        commands=(
            _cmd("minimize", "--scenario", "heisenberg(1)",
                 "--resolution", r["solve_h"], "--seed", "{seed}"),
            _cmd("minimize", "--scenario", "random_smooth",
                 "--resolution", r["solve_r"], "--seed", "{seed}"),
        ),
        seeds_per_run=4,
    )
    highdim = Workload(
        name="highdim",
        why="m=6, 7^6 nodes, ~125 MB written a pass; rank, Frobenius and audit "
            "algebra at size; its scenario command exits 2 (seed defect)",
        commands=(
            _cmd("scenario", "heisenberg(3)", "--resolution", r["highdim"]),
            _cmd("check-integrability", "--u", "{first}/u.pfld",
                 "--f", "{first}/f.pfld"),
            _cmd("rank-analysis", "--f", "{first}/f.pfld"),
            _cmd("audit-uniqueness", "--scenario", "heisenberg(3)",
                 "--resolution", r["highdim"], "--v", "{first}/u.pfld"),
        ),
        seeds_per_run=1,
    )
    planar = Workload(
        name="planar",
        why="m=2, 257^2 nodes: staircase and LSQR reconstruction, .pfld reads "
            "and writes, stencils on large arrays; no solver",
        commands=(
            _cmd("scenario", "smooth_roundtrip", "--resolution", r["planar"]),
            _cmd("reconstruct", "--nu", "{first}/nu.pfld", "--d", "{first}/d.pfld",
                 "--f", "{first}/f.pfld", "--method", "staircase"),
            _cmd("reconstruct", "--nu", "{first}/nu.pfld", "--d", "{first}/d.pfld",
                 "--f", "{first}/f.pfld", "--method", "least-squares"),
            _cmd("evaluate", "--scenario", "random_smooth",
                 "--resolution", r["planar"], "--seed", "{seed}"),
            _cmd("audit-uniqueness", "--scenario", "example_2_2",
                 "--resolution", r["planar"]),
        ),
        seeds_per_run=1,
    )
    return {w.name: w for w in (solve, highdim, planar)}
