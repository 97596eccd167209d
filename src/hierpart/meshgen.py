"""Structured demo mesh generators.

Small deterministic meshes for tests, fixtures, and CLI walkthroughs:
a right-triangle grid on a rectangle and a six-tet (Kuhn) subdivision of a
box.  Ids are dense, nodes lexicographic, elements cell by cell.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .mesh import MeshChunk, _element_faces

# Boundary tags: 2D uses 1..4 (bottom, right, top, left), 3D uses 1..6
# (xmin, xmax, ymin, ymax, zmin, zmax).


def triangle_grid(nx: int, ny: int, *, spacing: float = 1.0) -> MeshChunk:
    """2*nx*ny right triangles tiling an nx-by-ny rectangle."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs nx >= 1 and ny >= 1")
    nodes, elements, boundary = {}, {}, []
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes[j * (nx + 1) + i] = (i * spacing, j * spacing)
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            cell = j * nx + i
            elements[2 * cell] = (v00, v10, v11)
            elements[2 * cell + 1] = (v00, v11, v01)
            if j == 0:
                boundary.append((1, (v00, v10)))
            if i == nx - 1:
                boundary.append((2, (v10, v11)))
            if j == ny - 1:
                boundary.append((3, (v11, v01)))
            if i == 0:
                boundary.append((4, (v01, v00)))
    return MeshChunk.from_records("triangle", nodes, elements, boundary)


def tet_box(nx: int, ny: int, nz: int, *, spacing: float = 1.0) -> MeshChunk:
    """Kuhn subdivision of an nx-by-ny-by-nz box: six tets per cube cell.

    Every cube is split along the same main diagonal, so faces of adjacent
    cubes match and the mesh is conforming.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("box needs nx, ny, nz >= 1")
    nodes, elements = {}, {}

    def nid(i: int, j: int, k: int) -> int:
        return (k * (ny + 1) + j) * (nx + 1) + i

    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                nodes[nid(i, j, k)] = (i * spacing, j * spacing, k * spacing)

    perms = list(permutations((0, 1, 2)))
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                cell = (k * ny + j) * nx + i
                base = [i, j, k]
                for p, axes in enumerate(perms):
                    corner = list(base)
                    verts = [nid(*corner)]
                    for ax in axes:
                        corner[ax] += 1
                        verts.append(nid(*corner))
                    elements[cell * 6 + p] = tuple(verts)

    boundary = _box_boundary(nodes, elements, nx, ny, nz, spacing)
    return MeshChunk.from_records("tetrahedron", nodes, elements, boundary)


def _box_boundary(nodes: dict, elements: dict, nx: int, ny: int, nz: int,
                  spacing: float) -> list[tuple[int, tuple[int, ...]]]:
    # The faces one tet alone holds, each tagged by the side it lies on.
    faces = _element_faces(np.array(list(elements.values())), 3)
    faces, users = np.unique(faces.reshape(-1, 3), axis=0, return_counts=True)
    faces = faces[users == 1]
    xyz = np.array(list(nodes.values()))[faces]  # nodes are in id order
    tags = np.zeros(len(faces), dtype=np.int64)
    for axis, n in enumerate((nx, ny, nz)):
        tags[(xyz[:, :, axis] == 0.0).all(axis=1)] = 2 * axis + 1
        tags[(xyz[:, :, axis] == n * spacing).all(axis=1)] = 2 * axis + 2
    assert tags.all(), f"open face {faces[tags == 0][0]} not on the box surface"
    return list(zip(tags.tolist(), map(tuple, faces.tolist())))
