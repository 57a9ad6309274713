"""Continuous piecewise-linear Galerkin ODE solvers and residual pairing.

The forward solver enforces, per interval, the nodal update
U_{n+1} - U_n = int f(U(t), t) dt with U linear on the interval, via Newton
iteration.  The adjoint solver integrates the linearized problem backwards
from a terminal value on the forward mesh restricted to (0, t*) and
uniformly refined by 2.  All integrals use 5-point Gauss-Legendre per finest
sub-interval, exact for the polynomial degrees that arise here.

Every kernel treats the M rows of a problem (one per draw) on their shared
mesh at once, and per-row masks replace exceptions: a row that diverges,
stalls in Newton or meets a singular Newton or adjoint step system becomes
NaN, and the other rows carry on.  Row k of every result depends on row k
alone, bit for bit: each per-row sum is an elementwise reduction or one
matrix product of the same shape for every row, and batched solves factor
each matrix on its own.  The residual pairing makes one `rhs` call on every
quadrature point, and the adjoint one `jacobian` call and one batched solve
for all its step matrices.  Two loops stay sequential because each step
needs the one before it: the forward march, whose Newton iterate on
interval n starts from U_n, and the adjoint recurrence phi_n = A_n phi_{n+1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshes import Mesh1D, MeshError, REL_TOL, subdivide
from .models import OdeProblem

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 25
ADJOINT_REFINE_FACTOR = 2

# 5-point Gauss-Legendre rule on [0, 1]
_GL01_X, _GL01_W = np.polynomial.legendre.leggauss(5)
_GL01_X = 0.5 * (_GL01_X + 1.0)
_GL01_W = 0.5 * _GL01_W


def _segment_quadrature(pts: np.ndarray):
    """Gauss points/weights for every segment, shaped (n_segments, 5)."""
    a = pts[:-1, None]
    length = np.diff(pts)[:, None]
    return a + length * _GL01_X[None, :], length * _GL01_W[None, :]


def _gauss_sum(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_q w[:, q] f[:, :, q] for w (intervals, 5), f (rows, intervals, 5, d,
    d): the bits of a reduction over q, one point at a time onto zeros."""
    total = np.zeros(f.shape[:2] + f.shape[3:])
    for q in range(5):
        total += w[:, q, None, None] * f[:, :, q]
    return total


def _solve_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched solve of A X = B, both with the same leading axes, rows first.

    A row with a singular matrix comes back NaN instead of failing the
    others; the other rows keep the bits of the batched solve, which
    factors each matrix on its own."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.full(B.shape, np.nan)
        for k in range(len(A)):
            try:
                X[k] = np.linalg.solve(A[k], B[k])
            except np.linalg.LinAlgError:
                pass  # singular: row k stays NaN
        return X


@dataclass(frozen=True)
class Trajectory:
    """Continuous piecewise-linear functions on one mesh.

    `values` has shape (..., nodes, d): one value per node, with optional
    leading axes for rows (the ODE solvers give (M, nodes, d), one row per
    draw)."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim < 2 or values.shape[-2] != self.mesh.nodes.size:
            raise ValueError("need one value per mesh node")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Linear interpolation: t scalar -> (..., d), t of shape (m,) -> (..., m, d)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        nodes = self.mesh.nodes
        idx = self.mesh.interval_of(t_arr)
        h = nodes[idx + 1] - nodes[idx]
        s = ((t_arr - nodes[idx]) / h)[:, None]
        out = (1.0 - s) * self.values[..., idx, :] + s * self.values[..., idx + 1, :]
        return out[..., 0, :] if np.ndim(t) == 0 else out


def solve_forward_cg1(problem: OdeProblem, mesh: Mesh1D) -> Trajectory:
    """March the cG(1) method over the mesh for every row of the problem.

    Each Newton iterate makes one `rhs` and one `jacobian` call for all rows
    and one batched solve for the rows still iterating; a row that has
    converged keeps its iterate, so it takes exactly the iterates it takes
    alone.  A row that turns non-finite, does not reach NEWTON_TOL in
    NEWTON_MAX_ITERS iterations or meets a singular Newton matrix is NaN at
    every node of the result.
    """
    if mesh.length < problem.horizon * (1.0 - REL_TOL):
        raise MeshError("mesh does not cover the problem horizon")
    nodes = mesh.nodes
    h = mesh.lengths
    tq, wq = _segment_quadrature(nodes)
    w_residual = wq[:, None, :]
    w_newton = (wq * _GL01_X)[:, None, :]
    sq = _GL01_X[:, None]
    M, d = problem.initial.shape
    eye = np.eye(d)
    U = np.empty((M, nodes.size, d))
    U[:, 0] = problem.initial
    failed = np.zeros(M, dtype=bool)
    with np.errstate(all="ignore"):
        for n in range(mesh.n_intervals):
            # Newton on the nodal increment D = U_{n+1} - U_n, kept (M, 1, d)
            Un, tn = U[:, n], tq[n]
            D = (h[n] * problem.rhs(Un, nodes[n]))[:, None]
            Un = Un[:, None]
            iterating = ~failed
            for _ in range(NEWTON_MAX_ITERS):
                Uq = Un + sq * D
                residual = D - w_residual[n] @ problem.rhs(Uq, tn)
                error = np.abs(residual)
                worst = np.maximum.reduce(error, axis=None)
                if worst <= NEWTON_TOL:
                    break
                live = M  # with one finite row, `worst` is that row's error
                if M > 1 or not math.isfinite(worst):
                    error = np.maximum.reduce(error, axis=(1, 2))
                    # a non-finite iterate or residual: the row has diverged
                    failed |= ~np.isfinite(error)
                    iterating &= ~failed & (error > NEWTON_TOL)
                    live = np.count_nonzero(iterating)
                    if not live:
                        break
                G = eye - (w_newton[n] @ problem.jacobian(Uq, tn).reshape(M, 5, d * d)
                           ).reshape(M, d, d)
                if live == M:
                    D = D - _solve_rows(G, residual.reshape(M, d, 1)).reshape(M, 1, d)
                else:
                    D[iterating] -= _solve_rows(
                        G[iterating], residual[iterating].reshape(live, d, 1)
                    ).reshape(live, 1, d)
            else:
                failed |= iterating
            U[:, n + 1] = Un[:, 0] + D[:, 0]
    U[failed] = np.nan
    return Trajectory(mesh, U)


def restrict_mesh(mesh: Mesh1D, t_star: float) -> Mesh1D:
    """Nodes of `mesh` strictly before t_star, then t_star itself."""
    T = mesh.length
    if not (0.0 < t_star <= T * (1.0 + REL_TOL)):
        raise MeshError(f"t*={t_star} outside (0, {T}]")
    t_star = min(t_star, T)
    cut = np.searchsorted(mesh.nodes, t_star * (1.0 - REL_TOL) - REL_TOL, side="left")
    return Mesh1D(np.append(mesh.nodes[:cut], t_star))


def solve_adjoint(problem: OdeProblem, forward: Trajectory, t_star: float,
                  terminal_value: np.ndarray) -> Trajectory:
    """Integrate -phi' = J(t)^T phi backwards from phi(t*) = terminal_value,
    for every row of the forward trajectory.

    J is the model Jacobian evaluated on the forward interpolant, and
    `terminal_value` is (d,) for all rows or (M, d).  The adjoint mesh is the
    forward mesh restricted to (0, t*) and uniformly refined by 2.  cG(1) for
    -phi' = J^T phi gives, per step, (I - M0_n) phi_n = (I + M1_n) phi_{n+1};
    all step matrices A_n = (I - M0_n)^{-1} (I + M1_n) come from one batched
    solve.  A row with a singular step system is NaN before t*.
    """
    mesh = subdivide(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    d = problem.dim
    tq, wq = _segment_quadrature(mesh.nodes)
    t = tq.ravel()
    with np.errstate(all="ignore"):
        Jt = np.swapaxes(problem.jacobian(forward(t), t), -1, -2)
        Jt = Jt.reshape((-1,) + tq.shape + (d, d))
        eye = np.eye(d)
        A = _solve_rows(eye - _gauss_sum(wq * (1.0 - _GL01_X), Jt),
                        eye + _gauss_sum(wq * _GL01_X, Jt))
        phi = np.empty((A.shape[0], mesh.nodes.size, d))
        phi[:, -1] = terminal_value
        for n in range(mesh.n_intervals - 1, -1, -1):
            phi[:, n] = (A[:, n] * phi[:, n + 1, None, :]).sum(axis=-1)
    return Trajectory(mesh, phi)


def residual_pairing(problem: OdeProblem, forward: Trajectory,
                     adjoint: Trajectory, t_star: float) -> np.ndarray:
    """Per-row, per-forward-interval integrals of [f(U) - dU/dt] . phi over
    (0, t*), phi the adjoint, shape (M, intervals of the forward mesh
    restricted to (0, t*)): 5-point Gauss-Legendre on every adjoint-mesh
    interval, summed onto the forward interval that holds it."""
    if adjoint.mesh.length < t_star * (1.0 - REL_TOL):
        raise MeshError("adjoint trajectory does not cover (0, t*)")
    restricted = restrict_mesh(forward.mesh, t_star)
    quad_nodes = adjoint.mesh.nodes
    tq, wq = _segment_quadrature(quad_nodes)
    t = tq.ravel()
    slopes = np.diff(forward.values, axis=1) / forward.mesh.lengths[:, None]
    with np.errstate(all="ignore"):
        residual = problem.rhs(forward(t), t) - slopes[:, forward.mesh.interval_of(t)]
        integrand = (residual * adjoint(t)).sum(axis=-1)
    rows, n = integrand.shape[0], restricted.n_intervals
    per_sub_interval = (wq * integrand.reshape((rows,) + tq.shape)).sum(axis=-1)
    owner = restricted.interval_of(0.5 * (quad_nodes[:-1] + quad_nodes[1:]))
    bins = (owner + n * np.arange(rows)[:, None]).ravel()
    return np.bincount(bins, weights=per_sub_interval.ravel(),
                       minlength=rows * n).reshape(rows, n)
