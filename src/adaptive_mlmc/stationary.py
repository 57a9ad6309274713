"""Steady 1D advection-diffusion boundary value problem with P1 elements.

Solves u'' + b u' = f on (0, L) with homogeneous Dirichlet conditions via the
weak form -(u', v') + b(u', v) = (f, v), the adjoint problem with the
advection sign flipped and the QoI weight as source, and the elementwise
error decomposition pairing the residual of U with the adjoint weight.
The spatial DWR and uniform strategies plug into the shared MLMC driver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .driver import MlmcEstimate, MlmcRunConfig, run_adaptive_mlmc
from .error_estimation import ErrorDecomposition
from .meshes import SpatialMesh1D, uniform_mesh, uniform_refine
from .refinement import RefinementConfig
from .sampling import uniform
from .solvers import Trajectory, _segment_quadrature

# With P1 elements the residual of U is Galerkin-orthogonal to the coarse
# adjoint space, so an adjoint on a k-times finer mesh captures only the
# enrichment fraction 1 - 1/k^2 of the true error.  k = 4 keeps the
# effectivity near 0.94 while the adjoint stays a cheap tridiagonal solve.
ADJOINT_REFINE_FACTOR = 4


def _quartic_bump(x):
    """Source profile: 100 (x-1)^2 (2.5-x)^2 on [1, 2.5], zero elsewhere."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 1.0) & (x <= 2.5)
    return np.where(inside, 100.0 * (x - 1.0) ** 2 * (2.5 - x) ** 2, 0.0)


@dataclass(frozen=True)
class BvpProblem:
    """u'' + b u' = f on (0, length), u(0) = u(length) = 0, Q(u) = (u, psi)."""

    length: float = 3.0
    source: Callable = _quartic_bump
    source_breaks: Tuple[float, ...] = (1.0, 2.5)
    psi_support: Tuple[float, float] = (1.0, 1.5)

    def __post_init__(self):
        lo, hi = self.psi_support
        if not (0.0 < lo < hi < self.length):
            raise ValueError("psi support must lie strictly inside the domain")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.psi_support
        return np.where((x >= lo) & (x <= hi), 1.0, 0.0)


def _segment_bounds(nodes: np.ndarray, breaks) -> np.ndarray:
    """Node coordinates plus any interior breakpoints, sorted and deduplicated."""
    pts = np.concatenate([nodes, [b for b in breaks
                                  if nodes[0] < b < nodes[-1]]])
    pts = np.unique(pts)
    return pts


def _load_vector(mesh: SpatialMesh1D, g: Callable, breaks) -> np.ndarray:
    """F_i = (g, hat_i) assembled with Gauss quadrature exact for the data."""
    nodes = mesh.nodes
    pts = _segment_bounds(nodes, breaks)
    xq, wq = _segment_quadrature(pts)
    idx = np.clip(np.searchsorted(nodes, 0.5 * (pts[:-1] + pts[1:])) - 1,
                  0, mesh.n_intervals - 1)
    h = (nodes[idx + 1] - nodes[idx])[:, None]
    s = (xq - nodes[idx][:, None]) / h
    gq = g(xq.ravel()).reshape(xq.shape) * wq
    F = np.zeros(nodes.size)
    np.add.at(F, idx, (gq * (1.0 - s)).sum(axis=1))
    np.add.at(F, idx + 1, (gq * s).sum(axis=1))
    return F


def _assemble_banded(mesh: SpatialMesh1D, advection: float) -> np.ndarray:
    """Interior-node tridiagonal system of -(u', v') + b (u', v) in ab-form."""
    h = mesh.lengths
    n = mesh.n_intervals - 1  # interior unknowns
    diag = -(1.0 / h[:-1] + 1.0 / h[1:])
    upper = 1.0 / h[1:-1] + 0.5 * advection
    lower = 1.0 / h[1:-1] - 0.5 * advection
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


def _solve_weak(mesh: SpatialMesh1D, advection: float, g: Callable,
                breaks) -> Trajectory:
    """P1 Galerkin solution of -(u', v') + b (u', v) = (g, v), u = 0 on the boundary."""
    if mesh.n_intervals < 2:
        raise ValueError("need at least two elements for an interior unknown")
    F = _load_vector(mesh, g, breaks)
    ab = _assemble_banded(mesh, advection)
    values = np.zeros(mesh.nodes.size)
    values[1:-1] = solve_banded((1, 1), ab, F[1:-1])
    return Trajectory(mesh, values)


def solve_bvp_p1(problem: BvpProblem, w: float, mesh: SpatialMesh1D) -> Trajectory:
    """Forward solve with advection coefficient w."""
    return _solve_weak(mesh, float(w), problem.source, problem.source_breaks)


def solve_bvp_adjoint(problem: BvpProblem, w: float,
                      mesh: SpatialMesh1D) -> Trajectory:
    """Adjoint solve: advection sign flipped, psi as source, mesh refined once.

    For w = 0 the operator is symmetric, so the adjoint coincides with a
    primal solve sourced by psi and the duality identity
    (f, phi[psi]) = (psi, u[f]) holds to rounding.
    """
    fine = uniform_refine(mesh, ADJOINT_REFINE_FACTOR)
    return _solve_weak(fine, -float(w), problem.psi, problem.psi_support)


def qoi_value(problem: BvpProblem, u: Trajectory) -> float:
    """(u, psi): exact integral of the P1 solution over the psi support."""
    lo, hi = problem.psi_support
    nodes = u.mesh.nodes
    total = 0.0
    pts = _segment_bounds(nodes, (lo, hi))
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        if lo <= mid <= hi:
            total += (b - a) * float(u(mid)[0])
    return total


def bvp_error_decomposition(problem: BvpProblem, w: float, u: Trajectory,
                            phi: Trajectory) -> ErrorDecomposition:
    """Per-element residual pairing e_tau = int_tau [f phi + U' phi' - b U' phi].

    The total estimates Q(u) - Q(U); quadrature segments split at element
    boundaries of both meshes and at the source breakpoints so the rule is
    exact for the piecewise-polynomial integrand.
    """
    b_adv = float(w)
    mesh = u.mesh
    pts = _segment_bounds(np.concatenate([mesh.nodes, phi.mesh.nodes]),
                          problem.source_breaks)
    mids = 0.5 * (pts[:-1] + pts[1:])
    xq, wq = _segment_quadrature(pts)
    idx_u = np.clip(np.searchsorted(mesh.nodes, mids) - 1,
                    0, mesh.n_intervals - 1)
    idx_phi = np.clip(np.searchsorted(phi.mesh.nodes, mids) - 1,
                      0, phi.mesh.n_intervals - 1)
    du = (np.diff(u.values[:, 0]) / mesh.lengths)[idx_u][:, None]
    dphi = (np.diff(phi.values[:, 0]) / phi.mesh.lengths)[idx_phi][:, None]
    phiq = phi(xq.ravel())[:, 0].reshape(xq.shape)
    fq = problem.source(xq.ravel()).reshape(xq.shape)
    per_segment = (wq * (fq * phiq + du * dphi - b_adv * du * phiq)).sum(axis=1)
    contributions = np.zeros(mesh.n_intervals)
    np.add.at(contributions, idx_u, per_segment)
    return ErrorDecomposition(contributions, 1.0, "standard")


class BvpMlmcModel:
    """Driver-facing adapter for the stationary problem."""

    def __init__(self, problem: Optional[BvpProblem] = None,
                 advection_range: Tuple[float, float] = (12.0, 16.0)):
        self.problem = problem if problem is not None else BvpProblem()
        self.distributions = (uniform(*advection_range, "b"),)

    def evaluate(self, values: np.ndarray, mesh: SpatialMesh1D,
                 want_estimate: bool):
        w = float(values[0])
        u = solve_bvp_p1(self.problem, w, mesh)
        q = qoi_value(self.problem, u)
        decomp = None
        if want_estimate:
            phi = solve_bvp_adjoint(self.problem, w, mesh)
            decomp = bvp_error_decomposition(self.problem, w, u, phi)
        return q, decomp


# Defaults calibrated so both strategies resolve the bias within two levels:
# the level-0 bias (~2.1e-3) exceeds sqrt(eps/2) ~ 1.6e-3 while both the DWR
# level-1 mesh (~1.3e-3) and the uniform one (~3.8e-4) fall below it.
BVP_DEFAULT_EPSILON = 5e-6
BVP_INITIAL_ELEMENTS = 12


def bvp_initial_mesh(n_elements: int = BVP_INITIAL_ELEMENTS,
                     length: float = 3.0) -> SpatialMesh1D:
    return uniform_mesh(length, n_elements, SpatialMesh1D)


def bvp_refinement(strategy: str = "dwr") -> RefinementConfig:
    """Spatial refinement defaults: 25% largest |e_tau| split in 2."""
    return RefinementConfig(strategy=strategy, dwr_fraction=0.25, dwr_factor=2,
                            uniform_factor=2)


def run_bvp_mlmc(cfg: MlmcRunConfig,
                 model: Optional[BvpMlmcModel] = None) -> MlmcEstimate:
    """Run the shared adaptive MLMC driver on the stationary problem."""
    return run_adaptive_mlmc(model if model is not None else BvpMlmcModel(), cfg)
