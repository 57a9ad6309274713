"""Steady 1D advection-diffusion boundary value problem with P1 elements.

Solves u'' + b u' = f on (0, LENGTH) with homogeneous Dirichlet conditions via
the weak form -(u', v') + b(u', v) = (f, v), the adjoint problem with the
advection sign flipped and the QoI weight psi as source, and the elementwise
error decomposition pairing the residual of U with the adjoint weight.  The
problem is fixed module data (LENGTH, `source` with its SOURCE_BREAKS, `psi`
on PSI_SUPPORT, Q(u) = (u, psi)); its one random input is the speed b.
`BvpMlmcModel` runs it through the shared MLMC driver under every refinement
strategy: uniform, DWR (its default) and meso.

Each solve, QoI and decomposition treats a vector of M advection speeds at
once, on a shared mesh.  No draw can fail (see `_solve_assembled`).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .error_estimation import ErrorDecomposition
from .meshes import Mesh1D, subdivide, uniform_mesh
from .sampling import uniform
from .solvers import _segment_quadrature

# With P1 elements the residual of U is Galerkin-orthogonal to the coarse
# adjoint space, so an adjoint on a k-times finer mesh captures only the
# enrichment fraction 1 - 1/k^2 of the true error.  k = 4 keeps the
# effectivity near 0.94 while the adjoint stays a cheap tridiagonal solve.
ADJOINT_REFINE_FACTOR = 4

LENGTH = 3.0
SOURCE_BREAKS = (1.0, 2.5)  # f and psi are smooth between their breakpoints
PSI_SUPPORT = (1.0, 1.5)
BVP_MIN_ELEMENTS = 2  # fewest elements with an interior unknown


def source(x):
    """f: 100 (x-1)^2 (2.5-x)^2 on [1, 2.5], zero elsewhere."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 1.0) & (x <= 2.5)
    return np.where(inside, 100.0 * (x - 1.0) ** 2 * (2.5 - x) ** 2, 0.0)


def psi(x):
    """The QoI weight: 1 on PSI_SUPPORT, zero elsewhere."""
    x = np.asarray(x, dtype=float)
    lo, hi = PSI_SUPPORT
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


def _solve_assembled(F: np.ndarray, inv_h: np.ndarray,
                     advection: np.ndarray) -> np.ndarray:
    """P1 Galerkin solutions of -(u', v') + b (u', v) = (g, v), u = 0 on the
    boundary, one per speed b in `advection`, from the load vector
    F_i = (g, hat_i) and the inverse element lengths: nodal values (M, nodes)."""
    from scipy.linalg import solve_banded  # only this problem needs scipy
    if inv_h.size < BVP_MIN_ELEMENTS:
        raise ValueError("need at least two elements for an interior unknown")
    half_b = 0.5 * advection[:, None]
    m, n = half_b.shape[0], inv_h.size - 1  # systems, interior unknowns
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


@dataclass(frozen=True, eq=False)
class BvpPlan:
    """What the solves, the QoI and the error decomposition on one mesh share
    across draws.  Its arrays are read-only and no field refers to the mesh,
    so a plan kept under its mesh in a weak-keyed cache goes with the mesh."""

    forward: tuple            # (f, hat_i) and 1 / h on the mesh
    adjoint_mesh: Mesh1D      # the mesh refined ADJOINT_REFINE_FACTOR times
    adjoint: tuple            # (psi, hat_i) and 1 / h on the adjoint mesh
    lengths: np.ndarray       # element lengths h
    elem: np.ndarray          # decomposition segment -> element
    adjoint_elem: np.ndarray  # decomposition segment -> adjoint element
    gauss: np.ndarray         # weight, adjoint element position, f: (3, 5, S, 1)
    qoi: tuple                # QoI segments' widths, elements, midpoint positions

    def __post_init__(self):
        for array in (*self.forward, *self.adjoint, self.lengths, self.elem,
                      self.adjoint_elem, self.gauss, *self.qoi):
            array.setflags(write=False)

    @classmethod
    def build(cls, mesh: Mesh1D) -> BvpPlan:
        fine = subdivide(mesh, ADJOINT_REFINE_FACTOR)
        # decomposition segments split at the elements of the adjoint mesh,
        # which keeps every node of `mesh`, and at the source breakpoints, so
        # Gauss quadrature is exact on each
        pts = _segment_bounds(fine.nodes, SOURCE_BREAKS)
        mids, (xq, wq) = 0.5 * (pts[:-1] + pts[1:]), _segment_quadrature(pts)
        j = fine.interval_of(mids)
        s = (xq - fine.nodes[j, None]) / (fine.nodes[j + 1] - fine.nodes[j])[:, None]
        fq = source(xq.ravel()).reshape(xq.shape)
        lo, hi = PSI_SUPPORT  # QoI segments: those inside [lo, hi]
        qoi_pts = _segment_bounds(mesh.nodes, PSI_SUPPORT)
        x = 0.5 * (qoi_pts[:-1] + qoi_pts[1:])
        inside = (lo <= x) & (x <= hi)
        x, i = x[inside], mesh.interval_of(x[inside])
        return cls((_load_vector(mesh, source, SOURCE_BREAKS), 1.0 / mesh.lengths),
                   fine, (_load_vector(fine, psi, PSI_SUPPORT), 1.0 / fine.lengths),
                   mesh.lengths, mesh.interval_of(mids), j,
                   np.stack([wq.T, s.T, fq.T])[..., None],
                   (np.diff(qoi_pts)[inside], i,
                    (x - mesh.nodes[i]) / (mesh.nodes[i + 1] - mesh.nodes[i])))


def solve_bvp_p1(plan: BvpPlan, w: np.ndarray) -> np.ndarray:
    """Forward solves for the advection speeds w (M,): nodal values (M, nodes)."""
    return _solve_assembled(*plan.forward, w)


def solve_bvp_adjoint(plan: BvpPlan, w: np.ndarray) -> np.ndarray:
    """Adjoint solves on `plan.adjoint_mesh`, advection sign flipped and psi
    as source: nodal values (M, nodes).  For w = 0 the operator is symmetric,
    so (f, phi[psi]) = (psi, u[f]) holds to rounding."""
    return _solve_assembled(*plan.adjoint, -w)


def qoi_value(plan: BvpPlan, U: np.ndarray) -> np.ndarray:
    """(u, psi) per row of U: exact integrals of the P1 solutions, shape (M,)."""
    widths, idx, s = plan.qoi
    values = (1.0 - s) * U[:, idx] + s * U[:, idx + 1]
    total = np.zeros(U.shape[0])
    for k, width in enumerate(widths):  # segment by segment, left to right
        total += width * values[:, k]
    return total


def bvp_error_decomposition(plan: BvpPlan, w: np.ndarray, U: np.ndarray,
                            Phi: np.ndarray) -> np.ndarray:
    """Per-element residual pairings e_tau = int_tau [f phi + U' phi' - b U' phi]
    (M, elements), each row summing to an estimate of Q(u) - Q(U): the Gauss
    points summed in order, one (segments, rows) slice at a time, and then
    the segments onto their elements in order."""
    du = (np.diff(U, axis=1) / plan.lengths)[:, plan.elem].T
    j = plan.adjoint_elem
    dphi = (np.diff(Phi, axis=1) / plan.adjoint_mesh.lengths)[:, j].T
    left, right, b_du, du_dphi = Phi[:, j].T, Phi[:, j + 1].T, w * du, du * dphi
    per_segment, integrand, term = np.zeros((3,) + du.shape)
    for wq, s, fq in zip(*plan.gauss):
        np.multiply(1.0 - s, left, out=integrand)
        np.multiply(s, right, out=term)
        integrand += term  # phi at the Gauss point
        np.multiply(b_du, integrand, out=term)
        integrand *= fq
        integrand += du_dphi
        integrand -= term
        integrand *= wq
        per_segment += integrand
    n = plan.lengths.size
    bins = (plan.elem[:, None] + n * np.arange(len(w))).ravel()
    return np.bincount(bins, per_segment.ravel(), len(w) * n).reshape(-1, n)


class BvpMlmcModel:
    """Driver-facing model of the stationary problem, with its MLMC defaults.

    Each row of `evaluate` equals, bit for bit, what that row alone would
    give, so chunking cannot change a run's output.  Each mesh's `BvpPlan`
    is kept, keyed by the mesh object, while the mesh lives."""

    name = "advection-diffusion-1d"
    # Calibrated so both strategies resolve the bias within two levels from 12
    # elements: the level-0 bias (~2.1e-3) exceeds sqrt(eps/2) ~ 1.6e-3 while
    # both the DWR level-1 mesh (~1.3e-3) and the uniform one (~3.8e-4) fall
    # below it.
    default_epsilon = 5e-6
    default_refinement = "dwr"
    dwr_marking = (0.25, 2)  # 25% largest |e_tau| split in 2
    distributions = (uniform(12.0, 16.0),)  # the advection speed b

    def __init__(self):
        self._plans = weakref.WeakKeyDictionary()

    def initial_mesh(self) -> Mesh1D:
        return uniform_mesh(LENGTH, 12)

    def evaluate(self, W: np.ndarray, mesh: Mesh1D, want_estimate: bool):
        plan = self._plans.get(mesh)
        if plan is None:  # two threads may both build it: the plans are equal
            plan = self._plans[mesh] = BvpPlan.build(mesh)
        w = W[:, 0]
        U = solve_bvp_p1(plan, w)
        q = qoi_value(plan, U)
        if not want_estimate:
            return q, None
        contributions = bvp_error_decomposition(plan, w, U,
                                                solve_bvp_adjoint(plan, w))
        return q, ErrorDecomposition(contributions, contributions.sum(axis=1),
                                     np.ones(len(q)))

