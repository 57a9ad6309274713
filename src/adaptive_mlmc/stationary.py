"""Steady 1D advection-diffusion boundary value problem with P1 elements.

Solves u'' + b u' = f on (0, L) with homogeneous Dirichlet conditions via the
weak form -(u', v') + b(u', v) = (f, v), the adjoint problem with the
advection sign flipped and the QoI weight as source, and the elementwise
error decomposition pairing the residual of U with the adjoint weight.
The spatial DWR and uniform strategies plug into the shared MLMC driver.

Each solve, QoI and decomposition treats a vector of M advection speeds at
once, on a shared mesh.  No draw can fail (see `_solve_weak`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .error_estimation import ErrorDecomposition
from .meshes import Mesh1D, subdivide, uniform_mesh
from .refinement import RefinementConfig
from .sampling import uniform
from .solvers import _segment_quadrature

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
    return np.unique(np.concatenate([nodes, [b for b in breaks
                                             if nodes[0] < b < nodes[-1]]]))


def _load_vector(mesh: Mesh1D, g: Callable, breaks) -> np.ndarray:
    """F_i = (g, hat_i) assembled with Gauss quadrature exact for the data."""
    nodes = mesh.nodes
    pts = _segment_bounds(nodes, breaks)
    xq, wq = _segment_quadrature(pts)
    idx = mesh.interval_of(0.5 * (pts[:-1] + pts[1:]))
    h = (nodes[idx + 1] - nodes[idx])[:, None]
    s = (xq - nodes[idx][:, None]) / h
    gq = g(xq.ravel()).reshape(xq.shape) * wq
    F = np.zeros(nodes.size)
    np.add.at(F, idx, (gq * (1.0 - s)).sum(axis=1))
    np.add.at(F, idx + 1, (gq * s).sum(axis=1))
    return F


def _interpolate(mesh: Mesh1D, values: np.ndarray, x: np.ndarray):
    """Rows of P1 nodal values (M, nodes), linearly interpolated at points x."""
    nodes = mesh.nodes
    idx = mesh.interval_of(x)
    s = (x - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return (1.0 - s) * values[:, idx] + s * values[:, idx + 1]


def _solve_weak(mesh: Mesh1D, advection: np.ndarray, g: Callable,
                breaks) -> np.ndarray:
    """P1 Galerkin solutions of -(u', v') + b (u', v) = (g, v), u = 0 on the
    boundary, one per speed b in `advection`: nodal values (M, nodes)."""
    from scipy.linalg import solve_banded  # only this problem needs scipy
    if mesh.n_intervals < BVP_MIN_ELEMENTS:
        raise ValueError("need at least two elements for an interior unknown")
    F = _load_vector(mesh, g, breaks)
    inv_h = 1.0 / mesh.lengths
    half_b = 0.5 * advection[:, None]
    m, n = half_b.shape[0], mesh.n_intervals - 1  # systems, interior unknowns
    # The M tridiagonal systems, stacked with zero coupling, are one banded
    # system.  None is singular: for real b the symmetric part of the operator
    # is minus the P1 stiffness matrix, which is negative definite under the
    # Dirichlet conditions, so x^T A x < 0 for every x != 0.
    ab = np.zeros((3, m, n))
    ab[0, :, 1:] = inv_h[1:-1] + half_b
    ab[1] = -(inv_h[:-1] + inv_h[1:])
    ab[2, :, :-1] = inv_h[1:-1] - half_b
    values = np.zeros((m, n + 2))
    values[:, 1:-1] = solve_banded((1, 1), ab.reshape(3, m * n),
                                   np.tile(F[1:-1], m)).reshape(m, n)
    return values


def solve_bvp_p1(problem: BvpProblem, w: np.ndarray,
                 mesh: Mesh1D) -> np.ndarray:
    """Forward solves for the advection speeds w (M,): nodal values (M, nodes)."""
    return _solve_weak(mesh, w, problem.source, problem.source_breaks)


def solve_bvp_adjoint(problem: BvpProblem, w: np.ndarray, mesh: Mesh1D
                      ) -> Tuple[Mesh1D, np.ndarray]:
    """Adjoint solves: advection sign flipped, psi as source, mesh refined.

    Returns the refined mesh and the nodal values (M, refined nodes).  For
    w = 0 the operator is symmetric, so the adjoint coincides with a primal
    solve sourced by psi and the duality identity (f, phi[psi]) = (psi, u[f])
    holds to rounding.
    """
    fine = subdivide(mesh, ADJOINT_REFINE_FACTOR)
    return fine, _solve_weak(fine, -w, problem.psi, problem.psi_support)


def qoi_value(problem: BvpProblem, mesh: Mesh1D,
              U: np.ndarray) -> np.ndarray:
    """(u, psi) per row of U: exact integrals of the P1 solutions, shape (M,)."""
    lo, hi = problem.psi_support
    pts = _segment_bounds(mesh.nodes, (lo, hi))
    mids = 0.5 * (pts[:-1] + pts[1:])
    inside = (lo <= mids) & (mids <= hi)
    widths = (pts[1:] - pts[:-1])[inside]
    values = _interpolate(mesh, U, mids[inside])
    total = np.zeros(U.shape[0])
    for k, width in enumerate(widths):  # segment by segment, left to right
        total += width * values[:, k]
    return total


def bvp_error_decomposition(problem: BvpProblem, w: np.ndarray, mesh: Mesh1D,
                            U: np.ndarray, phi_mesh: Mesh1D,
                            Phi: np.ndarray) -> np.ndarray:
    """Per-element residual pairings e_tau = int_tau [f phi + U' phi' - b U' phi].

    One row per advection speed in w, shape (M, elements); each row sums to
    an estimate of Q(u) - Q(U).  Quadrature segments split at element
    boundaries of both meshes and at the source breakpoints so the rule is
    exact for the piecewise-polynomial integrand.
    """
    pts = _segment_bounds(np.concatenate([mesh.nodes, phi_mesh.nodes]),
                          problem.source_breaks)
    mids = 0.5 * (pts[:-1] + pts[1:])
    xq, wq = _segment_quadrature(pts)
    idx_u = mesh.interval_of(mids)
    idx_phi = phi_mesh.interval_of(mids)
    du = (np.diff(U, axis=1) / mesh.lengths)[:, idx_u, None]
    dphi = (np.diff(Phi, axis=1) / phi_mesh.lengths)[:, idx_phi, None]
    phiq = _interpolate(phi_mesh, Phi, xq)
    fq = problem.source(xq.ravel()).reshape(xq.shape)
    b_adv = w[:, None, None]
    per_segment = (wq * (fq * phiq + du * dphi - b_adv * du * phiq)).sum(axis=-1)
    contributions = np.zeros((U.shape[0], mesh.n_intervals))
    np.add.at(contributions, (slice(None), idx_u), per_segment)
    return contributions


class BvpMlmcModel:
    """Driver-facing adapter for the stationary problem.

    Each row of `evaluate` equals, bit for bit, what that row alone would
    give, so chunking cannot change a run's output.
    """

    def __init__(self, problem: Optional[BvpProblem] = None,
                 advection_range: Tuple[float, float] = (12.0, 16.0)):
        self.problem = problem if problem is not None else BvpProblem()
        self.distributions = (uniform(*advection_range, "b"),)

    def evaluate(self, W: np.ndarray, mesh: Mesh1D, want_estimate: bool):
        w = W[:, 0]
        U = solve_bvp_p1(self.problem, w, mesh)
        q = qoi_value(self.problem, mesh, U)
        if not want_estimate:
            return q, None
        phi_mesh, Phi = solve_bvp_adjoint(self.problem, w, mesh)
        contributions = bvp_error_decomposition(self.problem, w, mesh, U,
                                                phi_mesh, Phi)
        return q, ErrorDecomposition(contributions, contributions.sum(axis=1),
                                     np.ones(len(q)))


# Defaults calibrated so both strategies resolve the bias within two levels:
# the level-0 bias (~2.1e-3) exceeds sqrt(eps/2) ~ 1.6e-3 while both the DWR
# level-1 mesh (~1.3e-3) and the uniform one (~3.8e-4) fall below it.
BVP_DEFAULT_EPSILON = 5e-6
BVP_INITIAL_ELEMENTS = 12
BVP_MIN_ELEMENTS = 2  # fewest elements with an interior unknown


def bvp_initial_mesh(n_elements: int = BVP_INITIAL_ELEMENTS,
                     length: float = 3.0) -> Mesh1D:
    return uniform_mesh(length, n_elements)


def bvp_refinement(strategy: str = "dwr") -> RefinementConfig:
    """Spatial refinement defaults: 25% largest |e_tau| split in 2."""
    return RefinementConfig(strategy=strategy, dwr_fraction=0.25, dwr_factor=2,
                            uniform_factor=2)

