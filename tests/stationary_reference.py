"""P1 solves of the stationary problem for any source, as the tests need them.

The package solves only with a mesh's `BvpPlan`, whose load vectors are the
problem's source and QoI weight.  The tests also solve with manufactured
sources and zero data, from the load vector of any g.
"""
from adaptive_mlmc.stationary import _load_vector, _solve_assembled


def solve_weak(mesh, advection, g, breaks):
    """P1 solutions of -(u', v') + b (u', v) = (g, v), u = 0 on the boundary,
    one per speed b in `advection`: nodal values (M, nodes)."""
    return _solve_assembled(_load_vector(mesh, g, breaks), 1.0 / mesh.lengths,
                            advection)
