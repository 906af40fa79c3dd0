import numpy as np
import pytest

from apmm.mesh import CellMesh, SpatialMesh, make_cell_mesh, make_spatial_mesh


def test_spatial_centers_four_cells():
    mesh = make_spatial_mesh(4)
    assert np.allclose(mesh.centers, [0.125, 0.375, 0.625, 0.875], atol=1e-15)
    assert np.allclose(mesh.interfaces, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)


def test_spatial_width():
    mesh = make_spatial_mesh(64)
    assert mesh.dx == 1.0 / 64
    # cells tile the unit interval exactly
    assert abs(mesh.n_cells * mesh.dx - 1.0) <= 1e-14
    assert mesh.interfaces[0] == 0.0
    assert mesh.interfaces[-1] == 1.0


def test_spatial_rejects_tiny_and_non_integer():
    with pytest.raises(ValueError):
        make_spatial_mesh(3)
    with pytest.raises(ValueError):
        SpatialMesh(n_cells=0)
    for build, n in ((SpatialMesh, 8.5), (make_spatial_mesh, 8.5), (make_spatial_mesh, "64")):
        with pytest.raises(TypeError):  # an integer, neither truncated nor parsed
            build(n)
    assert make_spatial_mesh(np.int64(8)).n_cells == 8
    make_spatial_mesh(2**20)  # the largest; a mesh allocates nothing
    for n in (2**20 + 1, 10**12, 2**62):  # past the cap: rejected before any allocation
        with pytest.raises(ValueError, match=r"4 \.\. 2\*\*20"):
            make_spatial_mesh(n)


def test_cell_mesh_nodes():
    mesh = make_cell_mesh(16)
    assert mesh.dy == 1.0 / 16
    assert np.allclose(mesh.nodes, np.arange(16) / 16, atol=1e-15)
    # half nodes interleave the nodes, last one wraps toward y=1
    assert np.allclose(mesh.half_nodes, (np.arange(16) + 0.5) / 16, atol=1e-15)
    assert abs(mesh.n_points * mesh.dy - 1.0) <= 1e-14


def test_cell_mesh_rejects_odd_and_tiny():
    make_cell_mesh(4)  # smallest legal
    with pytest.raises(ValueError):
        make_cell_mesh(7)
    with pytest.raises(ValueError):
        make_cell_mesh(2)
    for build in (CellMesh, make_cell_mesh):
        with pytest.raises(TypeError):
            build(16.0)
    make_cell_mesh(2**20)
    for n in (2**20 + 2, 10**12, 2**62):  # even, past the cap
        with pytest.raises(ValueError, match=r"4 \.\. 2\*\*20"):
            make_cell_mesh(n)
