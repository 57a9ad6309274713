"""Reference paths of the stationary problem, as the tests need them.

The package solves only with a mesh's `BvpPlan`, whose load vectors are the
problem's source and QoI weight.  The tests also solve with manufactured
sources and zero data, from the load vector of any g.

`stacked_solve_banded` is the stacked solve as `scipy.linalg.solve_banded`
makes it, with every check that makes; the package calls LAPACK's `gtsv`
itself and must give its bits.

`gauss_segment_decomposition` is the error decomposition as the package
computed it before the hat-moment form: the integrand at five Gauss points
of every segment between the adjoint nodes and the source breaks.  It is the
oracle the moment form is checked against.
"""
import numpy as np
from scipy.linalg import solve_banded

from adaptive_mlmc.meshes import subdivide
from adaptive_mlmc.solvers import _segment_quadrature
from adaptive_mlmc.stationary import (ADJOINT_REFINE_FACTOR, SOURCE_BREAKS,
                                      _load_vector, _segment_bounds,
                                      _solve_assembled, source)


def solve_weak(mesh, advection, g, breaks):
    """P1 solutions of -(u', v') + b (u', v) = (g, v), u = 0 on the boundary,
    one per speed b in `advection`: nodal values (M, nodes)."""
    return _solve_assembled(_load_vector(mesh, g, breaks), 1.0 / mesh.lengths,
                            advection)


def stacked_solve_banded(F, inv_h, advection):
    """`_solve_assembled` through `solve_banded`: the M systems stacked with
    zero coupling into one banded system."""
    half_b = 0.5 * advection[:, None]
    m, n = half_b.shape[0], inv_h.size - 1
    ab = np.zeros((3, m, n))
    ab[0, :, 1:] = inv_h[1:-1] + half_b
    ab[1] = -(inv_h[:-1] + inv_h[1:])
    ab[2, :, :-1] = inv_h[1:-1] - half_b
    values = np.zeros((m, n + 2))
    values[:, 1:-1] = solve_banded((1, 1), ab.reshape(3, m * n),
                                   np.tile(F[1:-1], m)).reshape(m, n)
    return values


def gauss_segment_decomposition(mesh, w, U, Phi):
    """Per-element pairings int_tau [f phi + U' phi' - b U' phi] of the P1
    forward solutions U (M, nodes) and the adjoint solutions Phi on the mesh
    refined ADJOINT_REFINE_FACTOR times, for the speeds w (M,): the Gauss
    points summed in order, one (segments, rows) slice at a time, and then
    the segments onto their elements in order.

    Returns the contributions (M, elements) and, beside each, S_tau: the sum
    of the magnitudes of the terms w_q f_q (1 - s) Phi_j, w_q f_q s Phi_j+1,
    w_q U' phi', w_q b U' (1 - s) Phi_j and w_q b U' s Phi_j+1 that the
    element adds up."""
    fine = subdivide(mesh, ADJOINT_REFINE_FACTOR)
    pts = _segment_bounds(fine.nodes, SOURCE_BREAKS)
    mids, (xq, wq) = 0.5 * (pts[:-1] + pts[1:]), _segment_quadrature(pts)
    elem, j = mesh.interval_of(mids), fine.interval_of(mids)
    s = (xq - fine.nodes[j, None]) / (fine.nodes[j + 1] - fine.nodes[j])[:, None]
    fq = source(xq.ravel()).reshape(xq.shape)

    du = (np.diff(U, axis=1) / mesh.lengths)[:, elem].T
    dphi = (np.diff(Phi, axis=1) / fine.lengths)[:, j].T
    left, right, b_du, du_dphi = Phi[:, j].T, Phi[:, j + 1].T, w * du, du * dphi
    per_segment, integrand, term = np.zeros((3,) + du.shape)
    magnitude = np.zeros(du.shape)
    for wq_k, s_k, fq_k in zip(wq.T[:, :, None], s.T[:, :, None], fq.T[:, :, None]):
        np.multiply(1.0 - s_k, left, out=integrand)
        np.multiply(s_k, right, out=term)
        integrand += term  # phi at the Gauss point
        np.multiply(b_du, integrand, out=term)
        integrand *= fq_k
        integrand += du_dphi
        integrand -= term
        integrand *= wq_k
        per_segment += integrand
        magnitude += np.abs(wq_k) * (
            (np.abs(fq_k) + np.abs(b_du))
            * (np.abs(1.0 - s_k) * np.abs(left) + np.abs(s_k) * np.abs(right))
            + np.abs(du_dphi))
    n, m = mesh.n_intervals, len(w)
    bins = (elem[:, None] + n * np.arange(m)).ravel()
    return (np.bincount(bins, per_segment.ravel(), m * n).reshape(-1, n),
            np.bincount(bins, magnitude.ravel(), m * n).reshape(-1, n))
