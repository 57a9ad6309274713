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
each matrix on its own.  The adjoint and the residual pairing run over slices
of SLICE_CELLS rows x sub-intervals, with one `jacobian` call and one batched
solve, or one `rhs` call, per slice.  A slice's arrays are component-major,
so numpy's inner loops run over rows x points, not over the d components;
every sum keeps the order of the whole-mesh kernels, so each row keeps their
bits.  Two loops stay sequential because each step needs the one before it:
the forward march, whose Newton iterate on interval n starts from U_n, and
the adjoint recurrence phi_n = A_n phi_{n+1}.  The march keeps the
(M, ..., d) layout: an iterate is a few numpy calls on one interval's
points, whose cost is per call, not per element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import Mesh1D, MeshError, REL_TOL, subdivide
from .models import OdeProblem

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 25
ADJOINT_REFINE_FACTOR = 2
SLICE_CELLS = 2048  # rows x adjoint sub-intervals per slice of the estimate kernels

# 5-point Gauss-Legendre rule on [0, 1]
_GL01_X, _GL01_W = np.polynomial.legendre.leggauss(5)
_GL01_X = 0.5 * (_GL01_X + 1.0)
_GL01_W = 0.5 * _GL01_W


def _segment_quadrature(pts: np.ndarray):
    """Gauss points/weights for every segment, shaped (n_segments, 5)."""
    a = pts[:-1, None]
    length = np.diff(pts)[:, None]
    return a + length * _GL01_X[None, :], length * _GL01_W[None, :]


def _sum_over_points(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_q w[q] f[..., q, :] for w (5, steps), f (..., 5, steps): onto zeros
    one point at a time, the bits of a sum over a last axis of length 5."""
    total = np.zeros(f.shape[:-2] + f.shape[-1:])
    for q in range(5):
        total += w[q] * f[..., q, :]
    return total


def _locate(mesh: Mesh1D, t: np.ndarray):
    """Interval index, interval length h and local coordinate s in [0, 1] of
    every time in t."""
    nodes = mesh.nodes
    idx = mesh.interval_of(t)
    h = nodes[idx + 1] - nodes[idx]
    return idx, h, (t - nodes[idx]) / h


def _interpolate(values: np.ndarray, located, cut: slice, slopes: bool = False):
    """Nodal values (rows, nodes, d) at columns `cut` of the points located
    by `_locate`, component-major (d, rows, 5, steps), with the bits of
    `Trajectory.__call__`; with `slopes`, also the slopes there, with the bits
    of np.diff(values) / lengths."""
    idx, h, s = (np.ascontiguousarray(a[:, cut]) for a in located)
    # the points increase along both axes, so their first and last intervals
    # bound the nodes to copy (`take` would copy all of a strided source)
    first = idx[0, 0]
    v = np.ascontiguousarray(values[:, first:idx[-1, -1] + 2].transpose(2, 0, 1))
    idx = idx - first
    u, right = v.take(idx, axis=-1), v.take(idx + 1, axis=-1)
    if slopes:
        slope = right - u
        slope /= h
    u *= 1.0 - s
    right *= s
    u += right
    return (u, slope) if slopes else u


def _row_major(u: np.ndarray) -> np.ndarray:
    """A (d, rows, 5, steps) array as the (rows, 5 steps, d) states of a model
    call (a view)."""
    d, rows = u.shape[:2]
    return u.transpose(1, 2, 3, 0).reshape(rows, -1, d)


def _solve_rows(A: np.ndarray, B: np.ndarray, singular=None) -> np.ndarray:
    """Batched solve of A X = B, both with the same leading axes, rows first.

    A row with a singular matrix comes back NaN instead of failing the
    others (and is flagged in the boolean array `singular`, if given); the
    other rows keep the bits of the batched solve, which factors each
    matrix on its own."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.full(B.shape, np.nan)
        for k in range(len(A)):
            try:
                X[k] = np.linalg.solve(A[k], B[k])
            except np.linalg.LinAlgError:  # singular: row k stays NaN
                if singular is not None:
                    singular[k] = True
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
        idx, _, s = _locate(self.mesh, t_arr)
        s = s[:, None]
        out = (1.0 - s) * self.values[..., idx, :] + s * self.values[..., idx + 1, :]
        return out[..., 0, :] if np.ndim(t) == 0 else out


def _step_matrices(problem: OdeProblem, forward: Trajectory, located,
                   t: np.ndarray, w: np.ndarray, cut: slice, singular) -> np.ndarray:
    """A_n = (I - M0_n)^{-1} (I + M1_n), (M, steps, d, d), for the adjoint
    steps `cut` of the Gauss points t and weights w (5, n_sub), t located on
    the forward mesh.  A function of its own, so the slice's arrays are freed
    before the next slice builds its own."""
    M, _, d = forward.values.shape
    # J^T component-major: Jt[i, j] = J[..., j, i], (d, d, M, 5, steps)
    Jt = np.ascontiguousarray(problem.jacobian(
        _row_major(_interpolate(forward.values, located, cut)), t[:, cut].ravel()
    ).transpose(3, 2, 0, 1)).reshape((d, d, M, 5, -1))
    eye = np.eye(d)[:, :, None, None]
    I_minus_M0 = eye - _sum_over_points(w[:, cut] * (1.0 - _GL01_X[:, None]), Jt)
    I_plus_M1 = eye + _sum_over_points(w[:, cut] * _GL01_X[:, None], Jt)
    return _solve_rows(I_minus_M0.transpose(2, 3, 0, 1),
                       I_plus_M1.transpose(2, 3, 0, 1), singular)


def _paired_points(problem: OdeProblem, forward: Trajectory, adjoint: Trajectory,
                   located, t: np.ndarray, w: np.ndarray, cut: slice) -> np.ndarray:
    """Gauss sums of [f(U) - dU/dt] . phi on the adjoint sub-intervals `cut`,
    (rows, steps), for the Gauss points t and weights w (5, n_sub), t located
    on the forward and on the adjoint mesh.  A function of its own, as
    `_step_matrices` is."""
    on_forward, on_adjoint = located
    u, slope = _interpolate(forward.values, on_forward, cut, slopes=True)
    f = problem.rhs(_row_major(u), t[:, cut].ravel()).transpose(2, 0, 1)
    residual = np.subtract(f.reshape(u.shape), slope, out=slope)
    del u, f
    phi = _interpolate(adjoint.values, on_adjoint, cut)
    # the d products added onto +0.0 in component order, then the 5 Gauss
    # points in q order: the bits of two sums over a last axis
    integrand = np.zeros((max(residual.shape[1], phi.shape[1]),) + phi.shape[2:])
    for r, p in zip(residual, phi):
        integrand += r * p
    return _sum_over_points(w[:, cut], integrand)


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
    `terminal_value` is (d,) for all rows, (M, d), or (K, d) for K adjoints of
    a one-row forward.  The adjoint mesh is the forward mesh restricted to
    (0, t*) and refined by 2.  cG(1) for -phi' = J^T phi gives, per step,
    (I - M0_n) phi_n = (I + M1_n) phi_{n+1}.  Each slice of SLICE_CELLS rows x
    steps solves its A_n = (I - M0_n)^{-1} (I + M1_n) in one batch, so
    O(SLICE_CELLS d^2) floats are live.  A singular step NaNs its row's adjoints.
    """
    mesh = subdivide(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    M, d = len(forward.values), problem.dim
    t, w = (a.T for a in _segment_quadrature(mesh.nodes))
    located = _locate(forward.mesh, t)
    (rows,) = np.broadcast_shapes((M,), np.shape(terminal_value)[:-1])
    phi = np.empty((rows, mesh.nodes.size, d))
    phi[:, -1] = terminal_value
    singular, step = np.zeros(M, dtype=bool), max(2, SLICE_CELLS // M)
    with np.errstate(all="ignore"):
        for lo in reversed(range(0, mesh.n_intervals, step)):
            cut = slice(lo, min(lo + step, mesh.n_intervals))
            A = _step_matrices(problem, forward, located, t, w, cut, singular)
            for n in range(cut.stop - 1, lo - 1, -1):
                phi[:, n] = (A[:, n - lo] * phi[:, n + 1, None, :]).sum(axis=-1)
    phi[np.broadcast_to(singular, rows), :-1] = np.nan
    return Trajectory(mesh, phi)


def residual_pairing(problem: OdeProblem, forward: Trajectory,
                     adjoint: Trajectory, t_star: float) -> np.ndarray:
    """Per-row, per-forward-interval integrals of [f(U) - dU/dt] . phi over
    (0, t*), phi the adjoint, shape (rows of U and phi broadcast, intervals of
    the forward mesh restricted to (0, t*)): 5-point Gauss-Legendre on every
    adjoint-mesh interval, summed onto the forward interval that holds it.
    SLICE_CELLS rows x sub-intervals at a time (O(SLICE_CELLS d) floats beside
    the result) are added onto zeros, so a split interval keeps its sum order."""
    if adjoint.mesh.length < t_star * (1.0 - REL_TOL):
        raise MeshError("adjoint trajectory does not cover (0, t*)")
    restricted = restrict_mesh(forward.mesh, t_star)
    quad_nodes = adjoint.mesh.nodes
    t, w = (a.T for a in _segment_quadrature(quad_nodes))
    located = _locate(forward.mesh, t), _locate(adjoint.mesh, t)
    owner = restricted.interval_of(0.5 * (quad_nodes[:-1] + quad_nodes[1:]))
    (rows,) = np.broadcast_shapes(forward.values.shape[:1], adjoint.values.shape[:1])
    n_sub = adjoint.mesh.n_intervals
    total, step = np.zeros((rows, restricted.n_intervals)), max(2, SLICE_CELLS // rows)
    with np.errstate(all="ignore"):
        for lo in range(0, n_sub, step):
            cut = slice(lo, min(lo + step, n_sub))
            paired = _paired_points(problem, forward, adjoint, located, t, w, cut)
            first, width = owner[lo], owner[cut.stop - 1] - owner[lo] + 1
            bins = (owner[cut] - first + width * np.arange(rows)[:, None]).ravel()
            total[:, first:first + width] += np.bincount(
                bins, paired.ravel(), rows * width
            ).reshape(rows, width)
    return total
