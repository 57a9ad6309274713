"""Benchmark experiment presets and the ODE sample-evaluation adapter.

Each preset bundles a parameterized ODE, the distributions of its random
inputs, a quantity of interest, an initial uniform grid, and a default MSE
tolerance.  `OdeMlmcModel` adapts a preset to the driver interface: given a
chunk of parameter realizations and a mesh it solves them as one batched
problem and returns their QoI values and, on request, their adjoint-based
error decompositions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .error_estimation import estimate_event_time_error, estimate_standard_error
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
    own adjoint on its own restricted mesh.  A row that fails gets a NaN QoI
    (or, for a grazing event, a NaN error estimate), which the driver records
    as failed; the other rows keep the bits they get alone.
    """

    def __init__(self, experiment: OdeExperiment):
        self.experiment = experiment
        self.distributions = experiment.distributions

    def evaluate(self, W: np.ndarray, mesh: Mesh1D, want_estimate: bool):
        q = self.experiment.qoi
        problem = self.experiment.make_problem(W)
        forward = solve_forward_cg1(problem, mesh)
        if isinstance(q, StandardQoi):
            values = eval_standard(forward, q)
            decomps = estimate_standard_error(problem, forward, q) \
                if want_estimate else [None] * len(W)
        else:
            values = eval_event_time(forward, q)
            decomps = [estimate_event_time_error(
                           self.experiment.make_problem(W[k:k + 1]),
                           Trajectory(forward.mesh, forward.values[[k]]), q, t)
                       if want_estimate and math.isfinite(t) else None
                       for k, t in enumerate(values.tolist())]
        return values, decomps


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
