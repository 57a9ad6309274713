"""Benchmark experiment presets and the ODE sample-evaluation adapter.

Each preset bundles a parameterized ODE, the distributions of its random
inputs, a quantity of interest, an initial uniform grid, and a default MSE
tolerance.  `OdeMlmcModel` adapts a preset to the driver interface: given a
chunk of parameter realizations and a mesh it solves them as one batched
problem and returns their QoI values and, on request, one `ErrorDecomposition`
of their adjoint-based error estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .error_estimation import (ErrorDecomposition, estimate_event_time_error,
                               estimate_standard_error)
from .meshes import Mesh1D, uniform_mesh
from .models import harmonic_oscillator, lorenz, two_body
from .qoi import (NonstandardQoi, StandardQoi, eval_event_time, eval_standard)
from .sampling import ParameterDistribution, normal, uniform
from .solvers import Trajectory, solve_forward_cg1


@dataclass(frozen=True)
class OdeExperiment:
    """A parameterized ODE together with its QoI and MLMC defaults.

    `make_problem(W)` builds one problem whose rows are the draws W (M, p).
    """

    name: str
    distributions: Tuple[ParameterDistribution, ...]
    make_problem: Callable
    qoi: object
    initial_intervals: int
    default_epsilon: float

    def initial_mesh(self) -> Mesh1D:
        """Uniform mesh over the horizon of the problem at the distributions'
        centre."""
        centre = np.array([[d.centre for d in self.distributions]])
        return uniform_mesh(self.make_problem(centre).horizon, self.initial_intervals)


class OdeMlmcModel:
    """Driver-facing adapter: solve, evaluate the QoI, optionally estimate.

    `evaluate` solves a chunk of draws (M, p) as one problem: one forward
    march for all rows, and for a standard QoI one adjoint and one residual
    pairing.  Event-time rows each cross at their own t_c, so each gets its
    own adjoint on its own restricted mesh, and its one-row result fills its
    row of the chunk's decomposition, NaN past its crossing.  A row that fails
    gets a NaN QoI (or, for a grazing event, a NaN error estimate), which the
    driver records as failed; the other rows keep the bits they get alone.
    """

    def __init__(self, experiment: OdeExperiment):
        self.experiment = experiment
        self.distributions = experiment.distributions

    def evaluate(self, W: np.ndarray, mesh: Mesh1D, want_estimate: bool):
        q = self.experiment.qoi
        problem = self.experiment.make_problem(W)
        forward = solve_forward_cg1(problem, mesh)
        standard = isinstance(q, StandardQoi)
        values = (eval_standard if standard else eval_event_time)(forward, q)
        if not want_estimate:
            return values, None
        if standard:
            return values, estimate_standard_error(problem, forward, q)
        contributions = np.full((len(W), mesh.n_intervals), np.nan)
        total, denominator = np.full((2, len(W)), np.nan)
        for k in np.flatnonzero(np.isfinite(values)):
            row = estimate_event_time_error(
                self.experiment.make_problem(W[k:k + 1]),
                Trajectory(forward.mesh, forward.values[[k]]), q, float(values[k]))
            contributions[k, :row.contributions.shape[1]] = row.contributions
            total[k], denominator[k] = row.total[0], row.denominator[0]
        return values, ErrorDecomposition(contributions, total, denominator)


_EXPERIMENTS = {e.name: e for e in (
    OdeExperiment(
        name="harmonic-standard",
        distributions=(normal(50.0, 2.0, "k"), uniform(0.225, 0.275, "m")),
        make_problem=lambda W: harmonic_oscillator(W[:, 0], W[:, 1]),
        qoi=StandardQoi(np.array([1.0, 0.0]), 3.0),
        initial_intervals=27, default_epsilon=1e-3),
    OdeExperiment(
        name="harmonic-nonstandard",
        distributions=(normal(50.0, 1.0, "k"), uniform(0.235, 0.265, "m")),
        make_problem=lambda W: harmonic_oscillator(W[:, 0], W[:, 1]),
        qoi=NonstandardQoi(np.array([1.0, 0.0]), 0.0, occurrence=5),
        initial_intervals=18, default_epsilon=1e-5),
    OdeExperiment(
        name="lorenz",
        distributions=(uniform(0.0, 2.0, "theta"),),
        make_problem=lambda W: lorenz(W[:, 0]),
        qoi=NonstandardQoi(np.array([1.0, 0.0, 0.0]), 3.0, occurrence=2),
        initial_intervals=24, default_epsilon=1e-4),
    OdeExperiment(
        name="two-body",
        distributions=(uniform(1.97, 2.0, "theta"),),
        make_problem=lambda W: two_body(W[:, 0]),
        qoi=NonstandardQoi(np.array([1.0, 0.0, 0.0, 0.0]), 0.0, occurrence=3),
        initial_intervals=40, default_epsilon=1e-3),
)}

EXPERIMENT_NAMES = tuple(sorted(_EXPERIMENTS)) + ("advection-diffusion-1d",)


def get_experiment(name: str) -> OdeExperiment:
    """Look up an ODE experiment preset by name (the presets are frozen and
    shared)."""
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"choose from {sorted(_EXPERIMENTS)}") from None
