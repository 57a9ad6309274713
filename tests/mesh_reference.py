"""The three mesh-subdivision routines that `meshes.subdivide` replaced,
kept as a test reference.

`uniform_refine` split every interval, `refine_intervals` the selected ones
(its k = factor endpoint is computed as a + (b - a), not copied from b) and
`mesh_from_tiling` built a (breaks, counts) tiling's mesh region by region.
"""
import numpy as np

from adaptive_mlmc.meshes import Mesh1D, MeshError


def uniform_refine(mesh: Mesh1D, factor: int) -> Mesh1D:
    """Split every interval into `factor` equal sub-intervals."""
    factor = int(factor)
    if factor < 1:
        raise MeshError("factor must be >= 1")
    if factor == 1:
        return mesh
    a = mesh.nodes[:-1]
    b = mesh.nodes[1:]
    frac = np.arange(factor) / factor
    # k = 0 reproduces the original left nodes exactly
    interior = a[:, None] + (b - a)[:, None] * frac[None, :]
    nodes = np.append(interior.ravel(), mesh.nodes[-1])
    return Mesh1D(nodes)


def refine_intervals(mesh: Mesh1D, selection, factor: int) -> Mesh1D:
    """Split the intervals whose indices are in `selection` into `factor`
    equal parts, leave the rest."""
    factor = int(factor)
    if factor < 2:
        raise MeshError("factor must be >= 2")
    chosen = {int(i) for i in selection}
    for i in chosen:
        if i < 0 or i >= mesh.n_intervals:
            raise MeshError(f"interval index {i} out of range for mesh "
                            f"with {mesh.n_intervals} intervals")
    pieces = [np.array([0.0])]
    for i in range(mesh.n_intervals):
        a, b = mesh.nodes[i], mesh.nodes[i + 1]
        if i in chosen:
            k = np.arange(1, factor + 1) / factor
            pieces.append(a + (b - a) * k)
        else:
            pieces.append(np.array([b]))
    nodes = np.concatenate(pieces)
    # right endpoints of unsplit intervals are the original nodes; a
    # k = factor endpoint is a + (b - a), which can miss b by one rounding
    nodes[-1] = mesh.nodes[-1]
    return Mesh1D(nodes)


def mesh_from_tiling(breaks: np.ndarray, counts: np.ndarray) -> Mesh1D:
    """Build a mesh with counts[i] uniform intervals on breaks[i]..breaks[i+1]."""
    pieces = [breaks[:1]]
    for a, b, n in zip(breaks[:-1], breaks[1:], counts):
        piece = a + (b - a) * (np.arange(1, n + 1) / n)
        piece[-1] = b
        pieces.append(piece)
    return Mesh1D(np.concatenate(pieces))
