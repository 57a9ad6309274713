"""Continuous piecewise-linear Galerkin ODE solvers and residual pairing.

The forward solver enforces, per interval, the nodal update
U_{n+1} - U_n = int f(U(t), t) dt with U linear on the interval, via Newton
iteration.  The adjoint solver integrates the linearized problem backwards
from a terminal value on the forward mesh restricted to (0, t*) and
uniformly refined by 2.  All integrals use 5-point Gauss-Legendre per finest
sub-interval, exact for the polynomial degrees that arise here.

Each kernel evaluates the model on the whole mesh at once where it can: the
residual pairing makes one `rhs` call on every quadrature point, and the
adjoint makes one `jacobian` call and one batched solve for all its step
matrices.  Two loops stay sequential because each step needs the one
before it: the forward march, whose Newton iterate on interval n starts
from U_n, and the adjoint recurrence phi_n = A_n phi_{n+1}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import Mesh1D, MeshError, uniform_refine, REL_TOL
from .models import OdeProblem, SampleFailure

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


@dataclass(frozen=True)
class Trajectory:
    """Continuous piecewise-linear function on a mesh: one value per node."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.mesh.nodes.size:
            raise ValueError("need one value per mesh node")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Linear interpolation; t scalar -> (d,), t of shape (m,) -> (m, d)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        nodes = self.mesh.nodes
        idx = self.mesh.interval_of(t_arr)
        h = nodes[idx + 1] - nodes[idx]
        s = (t_arr - nodes[idx]) / h
        out = (1.0 - s)[:, None] * self.values[idx] + s[:, None] * self.values[idx + 1]
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def slope(self, interval: int) -> np.ndarray:
        h = self.mesh.nodes[interval + 1] - self.mesh.nodes[interval]
        return (self.values[interval + 1] - self.values[interval]) / h


def solve_forward_cg1(problem: OdeProblem, mesh: Mesh1D) -> Trajectory:
    """March the cG(1) method over the mesh, Newton-solving each nodal update."""
    if mesh.length < problem.horizon * (1.0 - REL_TOL):
        raise MeshError("mesh does not cover the problem horizon")
    nodes = mesh.nodes
    h = mesh.lengths
    tq, wq = _segment_quadrature(nodes)
    wsq = wq * _GL01_X
    sq = _GL01_X[:, None]
    eye = np.eye(problem.dim)
    U = np.empty((nodes.size, problem.dim))
    U[0] = problem.initial
    for n in range(mesh.n_intervals):
        Un = U[n]
        X = Un + h[n] * problem.rhs(Un, nodes[n])
        for _ in range(NEWTON_MAX_ITERS):
            if not np.isfinite(X).all():
                raise SampleFailure(f"forward solve diverged on interval {n}")
            Uq = Un + sq * (X - Un)
            residual = X - Un - wq[n] @ problem.rhs(Uq, tq[n])
            if abs(residual).max() <= NEWTON_TOL:
                break
            J = eye - np.einsum("q,qij->ij", wsq[n], problem.jacobian(Uq, tq[n]))
            try:
                X = X - np.linalg.solve(J, residual)
            except np.linalg.LinAlgError as exc:
                raise SampleFailure(f"singular Newton system on interval {n}") from exc
        else:
            raise SampleFailure(
                f"Newton did not reach {NEWTON_TOL} in {NEWTON_MAX_ITERS} "
                f"iterations on interval {n}")
        U[n + 1] = X
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
    """Integrate -phi' = J(t)^T phi backwards from phi(t*) = terminal_value.

    J is the model Jacobian evaluated on the forward interpolant.  The
    adjoint mesh is the forward mesh restricted to (0, t*) and uniformly
    refined by 2.  cG(1) for -phi' = J^T phi gives, per step,
    (I - M0_n) phi_n = (I + M1_n) phi_{n+1}; all step matrices
    A_n = (I - M0_n)^{-1} (I + M1_n) come from one batched solve.
    """
    mesh = uniform_refine(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    d = problem.dim
    tq, wq = _segment_quadrature(mesh.nodes)
    t = tq.ravel()
    Jt = np.swapaxes(problem.jacobian(forward(t), t), -1, -2).reshape(tq.shape + (d, d))
    M0 = np.einsum("nq,nqij->nij", wq * (1.0 - _GL01_X), Jt)
    M1 = np.einsum("nq,nqij->nij", wq * _GL01_X, Jt)
    eye = np.eye(d)
    try:
        A = np.linalg.solve(eye - M0, eye + M1)
    except np.linalg.LinAlgError as exc:
        raise SampleFailure(f"singular adjoint step system up to t*={t_star}") from exc
    phi = np.empty((mesh.nodes.size, d))
    phi[-1] = np.asarray(terminal_value, dtype=float)
    for n in range(mesh.n_intervals - 1, -1, -1):
        phi[n] = A[n] @ phi[n + 1]
    return Trajectory(mesh, phi)


def weighted_residual(problem: OdeProblem, forward: Trajectory, phi,
                      quad_mesh: Mesh1D, t_star: float) -> np.ndarray:
    """Per-forward-interval integrals of [f(U) - dU/dt] . phi over (0, t*).

    `phi` is any callable t -> weight values of shape (m, d); the integral is
    assembled with 5-point Gauss-Legendre per `quad_mesh` sub-interval and
    summed back onto the intervals of the forward mesh restricted to (0, t*).
    """
    restricted = restrict_mesh(forward.mesh, t_star)
    tq, wq = _segment_quadrature(quad_mesh.nodes)
    t = tq.ravel()
    slopes = np.diff(forward.values, axis=0) / forward.mesh.lengths[:, None]
    residual = problem.rhs(forward(t), t) - slopes[forward.mesh.interval_of(t)]
    integrand = np.einsum("qi,qi->q", residual, np.asarray(phi(t), dtype=float))
    per_sub_interval = np.einsum("kq,kq->k", wq, integrand.reshape(tq.shape))
    owner = restricted.interval_of(0.5 * (quad_mesh.nodes[:-1] + quad_mesh.nodes[1:]))
    return np.bincount(owner, weights=per_sub_interval, minlength=restricted.n_intervals)


def residual_pairing(problem: OdeProblem, forward: Trajectory,
                     adjoint: Trajectory, t_star: float) -> np.ndarray:
    """Adjoint-weighted residual contributions indexed on the forward mesh."""
    if adjoint.mesh.length < t_star * (1.0 - REL_TOL):
        raise MeshError("adjoint trajectory does not cover (0, t*)")
    return weighted_residual(problem, forward, adjoint, adjoint.mesh, t_star)
