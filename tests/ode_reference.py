"""The ODE paths that the batched and sliced kernels replaced, kept as test
references.

Each draw is marched, evaluated and estimated alone on (d,) states, with one
Newton solve per iterate, the interval loop for crossings and the adjoint and
pairing of a single trajectory.  A one-row `OdeProblem` is wrapped into the
(d,)-state callables this path uses.  Failures raise `RowFailed`, as the old
path raised a sample failure.

`whole_mesh_adjoint` and `whole_mesh_pairing` are the batched adjoint and
pairing as they were before they ran in slices: one model call and one set of
(M, 5 n_sub, d, d) arrays for the whole adjoint mesh.  The adjoint solves its
step matrices by the kernels' component-major elimination, or, with
`gufunc`, by the batched `np.linalg.solve` they used before it.

`newton_forward` is the batched march of a problem affine in u as it was
before such problems marched as one affine recurrence: Newton, as for every
other problem.  `per_interval_march` is that affine recurrence as it was
before its step systems were built once per distinct step length: in one
piece, with a `jacobian` call at every Gauss point and every interval's own
Gauss sums.

`two_solve_event_time_error` is the event-time estimate as it was before both
adjoint weights shared one solve: two `solve_adjoint` and two
`residual_pairing` calls.
"""
import dataclasses

import numpy as np

from adaptive_mlmc.error_estimation import ErrorDecomposition
from adaptive_mlmc.meshes import subdivide
from adaptive_mlmc.qoi import StandardQoi
from adaptive_mlmc.solvers import (ADJOINT_REFINE_FACTOR, NEWTON_MAX_ITERS,
                                   NEWTON_TOL, _GL01_X, Trajectory, _eliminate,
                                   _segment_quadrature, _solve_rows,
                                   _sum_over_points, residual_pairing,
                                   restrict_mesh, solve_adjoint, solve_forward_cg1)


class RowFailed(RuntimeError):
    """The one draw could not be completed."""


def _point_functions(problem):
    """rhs(u, t) and jacobian(u, t) of a one-row problem on (d,) or (m, d) states."""
    def rhs(u, t):
        return problem.rhs(np.asarray(u, dtype=float)[None], t)[0]

    def jacobian(u, t):
        return problem.jacobian(np.asarray(u, dtype=float)[None], t)[0]
    return rhs, jacobian


def interpolate(mesh, values, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    idx = mesh.interval_of(t)
    h = mesh.nodes[idx + 1] - mesh.nodes[idx]
    s = (t - mesh.nodes[idx]) / h
    return (1.0 - s)[:, None] * values[idx] + s[:, None] * values[idx + 1]


def forward(problem, mesh):
    """Nodal values (n + 1, d) of the one-row cG(1) march."""
    rhs, jacobian = _point_functions(problem)
    nodes, h = mesh.nodes, mesh.lengths
    tq, wq = _segment_quadrature(nodes)
    wsq = wq * _GL01_X
    sq = _GL01_X[:, None]
    eye = np.eye(problem.dim)
    U = np.empty((nodes.size, problem.dim))
    U[0] = problem.initial[0]
    for n in range(mesh.n_intervals):
        Un = U[n]
        X = Un + h[n] * rhs(Un, nodes[n])
        for _ in range(NEWTON_MAX_ITERS):
            if not np.isfinite(X).all():
                raise RowFailed(f"diverged on interval {n}")
            Uq = Un + sq * (X - Un)
            residual = X - Un - wq[n] @ rhs(Uq, tq[n])
            if abs(residual).max() <= NEWTON_TOL:
                break
            J = eye - np.einsum("q,qij->ij", wsq[n], jacobian(Uq, tq[n]))
            try:
                X = X - np.linalg.solve(J, residual)
            except np.linalg.LinAlgError as exc:
                raise RowFailed(f"singular Newton system on interval {n}") from exc
        else:
            raise RowFailed(f"Newton stalled on interval {n}")
        U[n + 1] = X
    return U


def newton_forward(problem, mesh):
    """`solve_forward_cg1` by Newton whether or not the problem is linear."""
    return solve_forward_cg1(dataclasses.replace(problem, linear=False), mesh)


def per_interval_march(problem, mesh):
    """Nodal values (M, nodes, d) of a linear problem's affine recurrence, with
    (I - M1_n) U_{n+1} = (I + M0_n) U_n + sum_q w_q g(t_q) solved for every
    interval from its own Jacobians and Gauss sums, in one piece."""
    M, d = problem.initial.shape
    t, w = (a.T for a in _segment_quadrature(mesh.nodes))
    u0 = np.zeros((M, t.size, d))
    with np.errstate(all="ignore"):
        g = problem.rhs(u0, t.ravel()).transpose(2, 0, 1).reshape(d, 1, M, 5, -1)
        J = np.ascontiguousarray(problem.jacobian(u0, t.ravel()).transpose(2, 3, 0, 1)
                                 ).reshape((d, d, M, 5, -1))
        M0, M1 = (_sum_over_points(w * s[:, None], J) for s in (1.0 - _GL01_X, _GL01_X))
        eye = np.eye(d)[:, :, None, None]
        maps, singular = _eliminate(np.concatenate(
            [eye - M1, eye + M0, _sum_over_points(w, g)], axis=1))
        maps = maps.transpose(2, 3, 0, 1)
        U = np.empty((M, mesh.nodes.size, d))
        U[:, 0] = problem.initial
        for n in range(mesh.n_intervals):
            A = maps[:, n]
            U[:, n + 1] = (A[..., :d] * U[:, n, None, :]).sum(axis=-1) + A[..., d]
    U[singular.any(axis=-1) | ~np.isfinite(U).all(axis=(1, 2))] = np.nan
    return U


def event_times(mesh, U, q):
    nodes = mesh.nodes
    g = U @ q.psi - q.threshold
    times = [float(t) for t, gv in zip(nodes, g) if gv == 0.0 and t > 0.0]
    for i in range(mesh.n_intervals):
        if g[i] * g[i + 1] < 0.0:
            h = nodes[i + 1] - nodes[i]
            times.append(float(nodes[i] + h * g[i] / (g[i] - g[i + 1])))
    return np.sort(np.array(times))


def adjoint(problem, mesh, U, t_star, terminal_value):
    """(adjoint mesh, nodal values) of -phi' = J^T phi from phi(t*)."""
    _, jacobian = _point_functions(problem)
    adj_mesh = subdivide(restrict_mesh(mesh, t_star), ADJOINT_REFINE_FACTOR)
    d = problem.dim
    tq, wq = _segment_quadrature(adj_mesh.nodes)
    t = tq.ravel()
    Jt = np.swapaxes(jacobian(interpolate(mesh, U, t), t), -1, -2).reshape(
        tq.shape + (d, d))
    M0 = np.einsum("nq,nqij->nij", wq * (1.0 - _GL01_X), Jt)
    M1 = np.einsum("nq,nqij->nij", wq * _GL01_X, Jt)
    eye = np.eye(d)
    try:
        A = np.linalg.solve(eye - M0, eye + M1)
    except np.linalg.LinAlgError as exc:
        raise RowFailed("singular adjoint step system") from exc
    phi = np.empty((adj_mesh.nodes.size, d))
    phi[-1] = terminal_value
    for n in range(adj_mesh.n_intervals - 1, -1, -1):
        phi[n] = A[n] @ phi[n + 1]
    return adj_mesh, phi


def pairing(problem, mesh, U, adj_mesh, phi, t_star):
    rhs, _ = _point_functions(problem)
    restricted = restrict_mesh(mesh, t_star)
    tq, wq = _segment_quadrature(adj_mesh.nodes)
    t = tq.ravel()
    slopes = np.diff(U, axis=0) / mesh.lengths[:, None]
    residual = rhs(interpolate(mesh, U, t), t) - slopes[mesh.interval_of(t)]
    integrand = np.einsum("qi,qi->q", residual, interpolate(adj_mesh, phi, t))
    per_sub_interval = np.einsum("kq,kq->k", wq, integrand.reshape(tq.shape))
    owner = restricted.interval_of(0.5 * (adj_mesh.nodes[:-1] + adj_mesh.nodes[1:]))
    return np.bincount(owner, weights=per_sub_interval, minlength=restricted.n_intervals)


def sample(problem, mesh, q, want_estimate=True):
    """(QoI, contributions, denominator) of one draw, the old per-row way;
    contributions and denominator are None without an estimate."""
    U = forward(problem, mesh)
    if isinstance(q, StandardQoi):
        t_star = min(q.t_star, mesh.length)
        value = float(interpolate(mesh, U, t_star)[0] @ q.psi)
        if not want_estimate:
            return value, None, None
        adj_mesh, phi = adjoint(problem, mesh, U, q.t_star, q.psi)
        return value, pairing(problem, mesh, U, adj_mesh, phi, q.t_star), 1.0
    times = event_times(mesh, U, q)
    if times.size < q.occurrence:
        raise RowFailed("missing crossing")
    t_c = float(times[q.occurrence - 1])
    if not want_estimate:
        return t_c, None, None
    rhs, jacobian = _point_functions(problem)
    u_c = interpolate(mesh, U, t_c)[0]
    mesh1, phi1 = adjoint(problem, mesh, U, t_c, q.psi)
    mesh2, phi2 = adjoint(problem, mesh, U, t_c, jacobian(u_c, t_c).T @ q.psi)
    contributions = pairing(problem, mesh, U, mesh1, phi1, t_c)
    correction = float(pairing(problem, mesh, U, mesh2, phi2, t_c).sum())
    f_psi = float(rhs(u_c, t_c) @ q.psi)
    denominator = f_psi + correction
    if abs(denominator) < 1e-10 * (1.0 + abs(f_psi)):
        raise RowFailed("grazing event")
    return t_c, contributions, denominator



def _gauss_sum(w, f):
    """sum_q w[:, q] f[:, :, q] for w (intervals, 5), f (rows, intervals, 5, d,
    d): the bits of a reduction over q, one point at a time onto zeros."""
    total = np.zeros(f.shape[:2] + f.shape[3:])
    for q in range(5):
        total += w[:, q, None, None] * f[:, :, q]
    return total


def whole_mesh_adjoint(problem, forward, t_star, terminal_value, gufunc=False):
    """`solve_adjoint` in one piece: one `jacobian` call on every quadrature
    point and one component-major elimination for every step matrix (with
    `gufunc`, one batched `np.linalg.solve`, as before the elimination); K
    terminal rows of a one-row forward share its step matrices."""
    mesh = subdivide(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    d = problem.dim
    tq, wq = _segment_quadrature(mesh.nodes)
    t = tq.ravel()
    with np.errstate(all="ignore"):
        Jt = np.swapaxes(problem.jacobian(forward(t), t), -1, -2)
        Jt = Jt.reshape((-1,) + tq.shape + (d, d))
        eye = np.eye(d)
        I_minus_M0 = eye - _gauss_sum(wq * (1.0 - _GL01_X), Jt)
        I_plus_M1 = eye + _gauss_sum(wq * _GL01_X, Jt)
        if gufunc:
            A, singular = _solve_rows(I_minus_M0, I_plus_M1), False
        else:
            A, singular = _eliminate(np.concatenate([I_minus_M0, I_plus_M1], axis=-1)
                                     .transpose(2, 3, 0, 1))
            A = np.ascontiguousarray(A.transpose(2, 3, 0, 1))  # as the kernel's
            singular = singular.any(axis=-1)
        (rows,) = np.broadcast_shapes(A.shape[:1], np.shape(terminal_value)[:-1])
        phi = np.empty((rows, mesh.nodes.size, d))
        phi[:, -1] = terminal_value
        for n in range(mesh.n_intervals - 1, -1, -1):
            phi[:, n] = (A[:, n] * phi[:, n + 1, None, :]).sum(axis=-1)
    phi[np.broadcast_to(singular, rows), :-1] = np.nan
    return Trajectory(mesh, phi)


def whole_mesh_pairing(problem, forward, adjoint, t_star):
    """`residual_pairing` in one piece: one `rhs` call on every quadrature
    point and one `np.bincount` onto the forward intervals."""
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


def two_solve_event_time_error(problem, forward, q, t_c):
    """`estimate_event_time_error` with one adjoint solve and one pairing per
    terminal weight."""
    u_c = forward(t_c)
    phi1 = solve_adjoint(problem, forward, t_c, q.psi)
    phi2 = solve_adjoint(problem, forward, t_c,
                         (problem.jacobian(u_c, t_c) * q.psi[:, None]).sum(axis=-2))
    contributions = residual_pairing(problem, forward, phi1, t_c)
    correction = float(residual_pairing(problem, forward, phi2, t_c).sum())
    f_psi = float((problem.rhs(u_c, t_c) * q.psi).sum())
    denominator = f_psi + correction
    if abs(denominator) < 1e-10 * (1.0 + abs(f_psi)):
        denominator = np.nan
    return ErrorDecomposition(contributions, contributions.sum(axis=1) / denominator,
                              [denominator])
