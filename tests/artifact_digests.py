"""Digests of the run artifacts on a fixed, seeded matrix of configs.

A refactor that must not change results prints the same table on the
parent commit and on the change:

    PYTHONPATH=src python tests/artifact_digests.py

Each line is one config: `experiment,strategy,epsilon,seed`, the exit code
of `mlmc run` and the sha256 of its levels.csv, summary.csv and
samples.csv ("-" for a file the run did not write).  The runs are
in-process and import `adaptive_mlmc` from the path, so one copy of this
script digests another checkout too:
`PYTHONPATH=<checkout>/src python tests/artifact_digests.py`.  Every config
builds at least two levels, so refinement and the coarse-level solves are
covered.  Pytest does not collect this file.
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from adaptive_mlmc.cli import main

ARTIFACTS = ("levels.csv", "summary.csv", "samples.csv")
STRATEGIES = ("uniform", "dwr", "meso")
# per preset, the tolerance of its runs with each strategy at seed 1
PRESET_EPSILON = {
    "harmonic-standard": 1e-2,
    "harmonic-nonstandard": 1e-4,
    "lorenz": 1e-3,
    "two-body": 1e-2,
    "advection-diffusion-1d": 5e-6,
}


def matrix():
    """(experiment, strategy, epsilon, seed) of every config, in print order:
    the benchmark's hs-dwr and adr-dwr workloads at seeds 0-2, then every
    preset with every strategy."""
    for experiment, epsilon in (("harmonic-standard", 1e-3),
                                ("advection-diffusion-1d", 2e-6)):
        for seed in (0, 1, 2):
            yield experiment, "dwr", epsilon, seed
    for experiment, epsilon in PRESET_EPSILON.items():
        for strategy in STRATEGIES:
            yield experiment, strategy, epsilon, 1


def digest_line(experiment, strategy, epsilon, seed) -> str:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--experiment", experiment,
                         "--refinement", strategy, "--epsilon", repr(epsilon),
                         "--seed", str(seed), "--output-dir", out])
        paths = [Path(out, name) for name in ARTIFACTS]
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "-"
                   for p in paths]
    return f"{experiment},{strategy},{epsilon!r},{seed} exit={code} " + " ".join(
        f"{name}={digest}" for name, digest in zip(ARTIFACTS, digests))


if __name__ == "__main__":
    for config in matrix():
        print(digest_line(*config), flush=True)
