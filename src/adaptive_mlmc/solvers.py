"""Continuous piecewise-linear Galerkin ODE solvers and residual pairing.

The forward solver enforces, per interval, the nodal update
U_{n+1} - U_n = int f(U(t), t) dt with U linear on the interval: for a
problem marked linear, f = J u + g(t), as one affine map U_{n+1} =
A_n U_n + c_n, otherwise by Newton iteration.  The adjoint solver integrates
the linearized problem backwards from a terminal value on the forward mesh
restricted to (0, t*) and refined by 2.  All integrals use 5-point
Gauss-Legendre per finest sub-interval, exact for the degrees that arise.

Every kernel treats the M rows of a problem (one per draw) on their shared
mesh at once; a row that diverges, stalls in Newton or meets a singular step
system becomes NaN, and row k of every result depends on row k alone, bit
for bit.  The linear march, the adjoint and the residual pairing run over
slices of SLICE_CELLS rows x (sub-)intervals, so O(SLICE_CELLS d^2) floats
are live.  A linear problem's step matrices (J constant in t) are built once
per distinct step length, in slices of SLICE_CELLS rows x lengths, and kept:
d^2 (adjoint) or 2 d^2 (march) floats per row and length.  A slice is
component-major, states (d, rows, 5, steps) and Jacobians (d, d, rows, 5,
steps), so numpy's inner loops run over rows x points, and its d x d step
systems are solved by Gaussian elimination in O(d^3) numpy calls
(`_eliminate`).  Every sum keeps the order of the whole-mesh kernels, so each
row keeps their bits.  The two marches and phi_n = A_n phi_{n+1} stay
sequential; Newton keeps the (M, ..., d) layout and the batched
`np.linalg.solve`, as an iterate's cost is per numpy call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import Mesh1D, MeshError, REL_TOL, subdivide
from .models import OdeProblem

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 25
ADJOINT_REFINE_FACTOR = 2
SLICE_CELLS = 1024  # rows x (sub-)intervals or step lengths per slice of a kernel

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
    """sum_q w[q] f[..., q, :] for w (5, steps), f (..., 5, steps or 1): onto
    zeros one point at a time, the bits of a sum over a last axis of length 5."""
    total = np.zeros(f.shape[:-2] + w.shape[-1:])
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
    by `_locate`, with the bits of `Trajectory.__call__`; with `slopes`, also
    the slopes there, with the bits of np.diff(values) / lengths."""
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
    """A slice's states as the (rows, 5 steps, d) states of a model call (a view)."""
    d, rows = u.shape[:2]
    return u.transpose(1, 2, 3, 0).reshape(rows, -1, d)


def _solve_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched solve of A X = B, rows first: a row with a singular matrix is
    NaN, and the others keep the bits of the batched solve."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.full(B.shape, np.nan)
        for k in range(len(A)):
            try:
                X[k] = np.linalg.solve(A[k], B[k])
            except np.linalg.LinAlgError:  # singular: row k stays NaN
                pass
        return X


def _eliminate(a: np.ndarray):
    """X, a view of a = [A | B] (d, d + k, ...), with A X = B, and the mask of
    exact zero pivots: in-place Gaussian elimination with partial pivoting in
    elementwise numpy calls, so each system's bits depend on it alone."""
    d = len(a)
    singular = np.zeros(a.shape[2:], dtype=bool)
    for k in range(d):
        for i in range(k + 1, d):
            pair = a[[k, i], k:]
            a[[k, i], k:] = np.where(np.abs(pair[1, 0]) > np.abs(pair[0, 0]),
                                     pair[::-1], pair)
        singular |= a[k, k] == 0.0
        a[k + 1:, k + 1:] -= (a[k + 1:, k] / a[k, k])[:, None] * a[k, k + 1:]
    for k in reversed(range(d)):
        for j in range(k + 1, d):
            a[k, d:] -= a[k, j] * a[j, d:]
        a[k, d:] /= a[k, k]
    return a[:, d:], singular


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


def _step_systems(J: np.ndarray, w: np.ndarray, adjoint: bool) -> np.ndarray:
    """Step systems [I - N | I + P] (d, 2d, rows, steps) of J (rows, 5 steps, d, d),
    or (rows, 5, d, d) for all steps, at weights w (5, steps): with M0, M1 = sum_q
    w_q (1 - s_q, s_q) J_q, N, P are M1, M0 forward, M0, M1 of J^T in the adjoint."""
    (rows, _, d, _), eye = J.shape, np.eye(J.shape[-1])[:, :, None, None]
    J = np.ascontiguousarray(J.transpose((3, 2, 0, 1) if adjoint else (2, 3, 0, 1))
                             ).reshape((d, d, rows, 5, -1))
    M0, M1 = (_sum_over_points(w * s[:, None], J) for s in (1.0 - _GL01_X, _GL01_X))
    del J
    N, P = (M0, M1) if adjoint else (M1, M0)
    return np.concatenate([eye - N, eye + P], axis=1)


def _step_maps(systems: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Maps A^{-1} B (rows, steps, d, k) of systems [A | B] (d, d + k, rows,
    steps), solved in place; rows with a singular system are set in `singular`."""
    maps, flagged = _eliminate(systems)
    singular |= flagged.any(axis=-1)
    return np.ascontiguousarray(maps.transpose(2, 3, 0, 1))


def _distinct_steps(problem: OdeProblem, nodes, t, w, adjoint: bool):
    """A linear problem's step systems (d, 2d, rows, lengths), or in the adjoint
    their maps (rows, lengths, d, d) and singular rows, of the distinct interval
    lengths of `nodes`, and each interval's index into them.  A row whose J
    differs (NaN equal to NaN) between the Gauss points t (5, intervals) of
    each length's first interval raises ValueError."""
    _, first, inverse = np.unique(np.diff(nodes), return_index=True,
                                  return_inverse=True)
    t, w, (M, d), n = t[:, first], w[:, first], problem.initial.shape, first.size
    kept = np.empty((M, n, d, d) if adjoint else (d, 2 * d, M, n))
    singular, step = np.zeros(M, dtype=bool), max(1, SLICE_CELLS // M)
    for lo in range(0, n, step):
        cut = slice(lo, lo + step)
        J = problem.jacobian(np.zeros((M, t[:, cut].size, d)), t[:, cut].ravel())
        J0 = J[:, :5].copy() if lo == 0 else J0  # one length's, for every length
        moved = J != J0[:, :1]
        if moved.any() and not (np.isnan(J) & np.isnan(J0[:, :1]))[moved].all():
            raise ValueError("a problem marked linear needs a Jacobian constant in t")
        if adjoint:
            kept[:, cut] = _step_maps(_step_systems(J0, w[:, cut], True), singular)
        else:
            kept[..., cut] = _step_systems(J0, w[:, cut], False)
    return kept, inverse, singular


def _paired_points(problem: OdeProblem, forward: Trajectory, adjoint: Trajectory,
                   located, t: np.ndarray, w: np.ndarray, cut: slice) -> np.ndarray:
    """Gauss sums of [f(U) - dU/dt] . phi on the adjoint sub-intervals `cut`,
    (rows, steps), for the Gauss points t and weights w (5, n_sub), t located
    on the forward and on the adjoint mesh."""
    on_forward, on_adjoint = located
    u, slope = _interpolate(forward.values, on_forward, cut, slopes=True)
    f = problem.rhs(_row_major(u), t[:, cut].ravel()).transpose(2, 0, 1)
    residual = np.subtract(f.reshape(u.shape), slope, out=slope)
    del u, f
    phi = _interpolate(adjoint.values, on_adjoint, cut)
    integrand = np.zeros((max(residual.shape[1], phi.shape[1]),) + phi.shape[2:])
    for r, p in zip(residual, phi):
        integrand += r * p
    return _sum_over_points(w[:, cut], integrand)


def _affine_march(problem: OdeProblem, mesh: Mesh1D) -> np.ndarray:
    """Nodal values (M, nodes, d) of u' = J u + g(t), g = rhs(0, t), from
    (I - M1_n) U_{n+1} = (I + M0_n) U_n + sum_q w_q g(t_q): U_{n+1} = A_n U_n + c_n."""
    M, d = problem.initial.shape
    t, w = (a.T for a in _segment_quadrature(mesh.nodes))
    systems, inverse, _ = _distinct_steps(problem, mesh.nodes, t, w, False)
    U = np.empty((M, mesh.nodes.size, d))
    U[:, 0] = problem.initial
    failed, step = np.zeros(M, dtype=bool), max(1, SLICE_CELLS // M)
    for lo in range(0, mesh.n_intervals, step):
        cut = slice(lo, min(lo + step, mesh.n_intervals))
        g = problem.rhs(np.zeros((M, t[:, cut].size, d)), t[:, cut].ravel())
        g = _sum_over_points(w[:, cut], g.transpose(2, 0, 1).reshape(d, 1, M, 5, -1))
        maps = _step_maps(np.concatenate([systems.take(inverse[cut], axis=-1), g],
                                         axis=1), failed)
        for n, A in enumerate(maps.transpose(1, 0, 2, 3), lo):
            U[:, n + 1] = (A[..., :d] * U[:, n, None, :]).sum(axis=-1) + A[..., d]
    U[failed | ~np.isfinite(U).all(axis=(1, 2))] = np.nan
    return U


def solve_forward_cg1(problem: OdeProblem, mesh: Mesh1D) -> Trajectory:
    """March the cG(1) method over the mesh for every row of the problem.

    A linear problem is one affine recurrence (`_affine_march`).  Otherwise
    each Newton iterate makes one `rhs` and one `jacobian` call for all rows
    and one batched solve for the rows still iterating; a row that has
    converged keeps its iterate, so it takes exactly the iterates it takes
    alone.  A row that turns non-finite, does not reach NEWTON_TOL in
    NEWTON_MAX_ITERS iterations or meets a singular step is NaN throughout.
    """
    if mesh.length < problem.horizon * (1.0 - REL_TOL):
        raise MeshError("mesh does not cover the problem horizon")
    if problem.linear:
        with np.errstate(all="ignore"):
            return Trajectory(mesh, _affine_march(problem, mesh))
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

    J is the model Jacobian on the forward interpolant (constant for a linear
    problem), and `terminal_value` is (d,) for all rows, (M, d), or (K, d) for
    K adjoints of a one-row forward.  The adjoint mesh is the forward mesh
    restricted to (0, t*) and refined by 2.  cG(1) for -phi' = J^T phi gives,
    per step, (I - M0_n) phi_n = (I + M1_n) phi_{n+1}.  A singular step NaNs
    its row's adjoints.
    """
    mesh = subdivide(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    M, d = len(forward.values), problem.dim
    (rows,) = np.broadcast_shapes((M,), np.shape(terminal_value)[:-1])
    phi = np.empty((rows, mesh.nodes.size, d))
    phi[:, -1] = terminal_value
    t, w = (a.T for a in _segment_quadrature(mesh.nodes))
    with np.errstate(all="ignore"):
        if problem.linear:  # the maps of the distinct step lengths, J not from U
            maps, inverse, singular = _distinct_steps(problem, mesh.nodes, t, w, True)
        else:
            located, singular = _locate(forward.mesh, t), np.zeros(M, dtype=bool)
        step = max(2, SLICE_CELLS // M)
        for lo in reversed(range(0, mesh.n_intervals, step)):
            cut = slice(lo, min(lo + step, mesh.n_intervals))
            A = maps[:, inverse[cut]] if problem.linear else _step_maps(_step_systems(
                problem.jacobian(_row_major(_interpolate(forward.values, located, cut)),
                                 t[:, cut].ravel()), w[:, cut], True), singular)
            for n in range(cut.stop - 1, lo - 1, -1):
                phi[:, n] = (A[:, n - lo] * phi[:, n + 1, None, :]).sum(axis=-1)
    phi[np.broadcast_to(singular, rows), :-1] = np.nan
    return Trajectory(mesh, phi)


def residual_pairing(problem: OdeProblem, forward: Trajectory,
                     adjoint: Trajectory) -> np.ndarray:
    """Per-row, per-forward-interval integrals of [f(U) - dU/dt] . phi over
    (0, t*), phi the adjoint from `solve_adjoint`, whose mesh ends at t*,
    shape (rows of U and phi broadcast, intervals of the forward mesh
    restricted to (0, t*)): 5-point Gauss-Legendre on every adjoint-mesh
    interval, summed onto the forward interval that holds it."""
    quad_nodes = adjoint.mesh.nodes
    t, w = (a.T for a in _segment_quadrature(quad_nodes))
    located = _locate(forward.mesh, t), _locate(adjoint.mesh, t)
    owner = forward.mesh.interval_of(0.5 * (quad_nodes[:-1] + quad_nodes[1:]))
    (rows,) = np.broadcast_shapes(forward.values.shape[:1], adjoint.values.shape[:1])
    n_sub = adjoint.mesh.n_intervals
    total, step = np.zeros((rows, owner[-1] + 1)), max(2, SLICE_CELLS // rows)
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
