"""Digests of the run artifacts on a fixed, seeded matrix of configs.

A refactor that must not change results prints the same table on the
parent commit and on the change:

    PYTHONPATH=src python tests/artifact_digests.py

Each line is one config: `experiment,strategy,epsilon,seed,jobs`, the exit
code of `mlmc run` and the sha256 of its levels.csv, summary.csv,
samples.csv and grids.csv ("-" for a file the run did not write), so the
level meshes are gated with the estimates.  The benchmark's
determinism pair runs one config at `--jobs 1` and `--jobs 2`: runs are
single-threaded and `mlmc run` accepts and ignores `--jobs`, so the pair checks
that the accepted flag changes no artifact; the script exits 1 if the two
runs' digests differ.  The runs are in-process and import `adaptive_mlmc`
from the path, so one copy of this script digests another checkout too:
`PYTHONPATH=<checkout>/src python tests/artifact_digests.py`.  Every config
but the `--jobs` pair, which stops at level 0 as in the benchmark, builds at
least two levels, so refinement and the coarse-level solves are covered.
Pytest does not collect this file.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from adaptive_mlmc.cli import main

ARTIFACTS = ("levels.csv", "summary.csv", "samples.csv", "grids.csv")
STRATEGIES = ("uniform", "dwr", "meso")
# per preset, the tolerance of its runs: every strategy at seed 1, meso at 2 and 3
PRESET_EPSILON = {
    "harmonic-standard": 1e-2,
    "harmonic-nonstandard": 1e-4,
    "lorenz": 1e-3,
    "two-body": 1e-2,
    "advection-diffusion-1d": 5e-6,
}


# the benchmark's determinism check: one config at --jobs 1 and --jobs 2,
# which the accepted (and ignored) flag must leave byte-identical
JOBS_PAIR = [("advection-diffusion-1d", "dwr", 5e-5, 0, jobs) for jobs in (1, 2)]


def matrix():
    """(experiment, strategy, epsilon, seed, jobs) of every config, in print
    order: the benchmark's hs-dwr and adr-dwr workloads at seeds 0-2, then
    every preset with every strategy, then every preset with meso at two
    more seeds, whose region overlays differ from seed 1's, then the
    `--jobs` pair."""
    for experiment, epsilon in (("harmonic-standard", 1e-3),
                                ("advection-diffusion-1d", 2e-6)):
        for seed in (0, 1, 2):
            yield experiment, "dwr", epsilon, seed, 1
    for experiment, epsilon in PRESET_EPSILON.items():
        for strategy in STRATEGIES:
            yield experiment, strategy, epsilon, 1, 1
    for experiment, epsilon in PRESET_EPSILON.items():
        for seed in (2, 3):
            yield experiment, "meso", epsilon, seed, 1
    yield from JOBS_PAIR


def digest_line(experiment, strategy, epsilon, seed, jobs) -> str:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--experiment", experiment,
                         "--refinement", strategy, "--epsilon", repr(epsilon),
                         "--seed", str(seed), "--jobs", str(jobs),
                         "--output-dir", out])
        paths = [Path(out, name) for name in ARTIFACTS]
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "-"
                   for p in paths]
    return f"{experiment},{strategy},{epsilon!r},{seed},{jobs} exit={code} " + \
        " ".join(f"{name}={digest}" for name, digest in zip(ARTIFACTS, digests))


if __name__ == "__main__":
    lines = {}
    for config in matrix():
        lines[config] = digest_line(*config)
        print(lines[config], flush=True)
    serial, threaded = (lines[config].split(" ", 1)[1] for config in JOBS_PAIR)
    if serial != threaded:
        sys.exit("the --jobs 1 and --jobs 2 runs wrote different artifacts")
