"""The flat five-point stencil against an independent face-by-face assembly.

The reference matrix is built with scipy.sparse, one face at a time, from
per-face coefficients (arithmetic means of random cell values); the
dissipation density and the energy are written out face by face.  Grids
are rectangular with lx != ly, so a layout that swaps the axes or couples
cells across a row end shows.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from turbsolve import ScalarField, assemble, dissipation_source, make_grid, weighted_energy

GRIDS = [(2, 3), (3, 2), (13, 9), (17, 33)]
REL = 1e-13


def close(a, b):
    return np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))


def faces(nx, ny):
    """Every face as (axis, face index, cells): one cell on a wall, two inside."""
    for f in range(nx + 1):
        for j in range(ny):
            yield "x", (f, j), [(i, j) for i in (f - 1, f) if 0 <= i < nx]
    for i in range(nx):
        for f in range(ny + 1):
            yield "y", (i, f), [(i, j) for j in (f - 1, f) if 0 <= j < ny]


def sparse_operator(cfx, cfy, hx, hy):
    """-div(c grad .) with Dirichlet mirror ghosts, assembled face by face."""
    nx, ny = cfy.shape[0], cfx.shape[1]
    A = sp.lil_matrix((nx * ny, nx * ny))
    for axis, f, cells in faces(nx, ny):
        w = (cfx if axis == "x" else cfy)[f] / (hx if axis == "x" else hy) ** 2
        p = [i * ny + j for i, j in cells]
        if len(p) == 1:  # the ghost mirrors the cell: flux 2 w v
            A[p[0], p[0]] += 2.0 * w
        else:
            A[p[0], p[0]] += w
            A[p[1], p[1]] += w
            A[p[0], p[1]] -= w
            A[p[1], p[0]] -= w
    return A.tocsr()


def face_means(c):
    """Arithmetic face coefficients; a wall face takes its one cell's value."""
    nx, ny = c.shape
    cfx, cfy = np.empty((nx + 1, ny)), np.empty((nx, ny + 1))
    for axis, f, cells in faces(nx, ny):
        (cfx if axis == "x" else cfy)[f] = np.mean([c[cell] for cell in cells])
    return cfx, cfy


def face_dissipation(v, c, hx, hy):
    """(D, E): half of each face term on each of its cells, and sum_f c_f |dv|_f^2 w_f."""
    nx, ny = v.shape
    cfx, cfy = face_means(c)
    D, E = np.zeros(v.shape), 0.0
    for axis, f, cells in faces(nx, ny):
        h = hx if axis == "x" else hy
        cf = (cfx if axis == "x" else cfy)[f]
        if len(cells) == 1:  # wall: one-sided difference to the zero wall value, half weight
            grad, k = 2.0 * v[cells[0]] / h, 0.5
        else:
            grad, k = (v[cells[1]] - v[cells[0]]) / h, 1.0
        term = k * cf * grad * grad
        E += term * hx * hy
        for cell in cells:
            D[cell] += 0.5 * term
    return D, E


def random_case(nx, ny, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, 1.3, 0.7)
    return g, rng


@pytest.mark.parametrize("nx, ny", GRIDS)
class TestFlatStencil:
    def test_apply_matches_sparse(self, nx, ny):
        g, rng = random_case(nx, ny, 1)
        c = 0.2 + rng.random(g.shape)
        A = assemble(ScalarField(g, c))
        ref = sparse_operator(*face_means(c), g.hx, g.hy)
        for _ in range(3):
            v = rng.standard_normal(g.shape)
            assert close(A.apply(v), (ref @ v.reshape(-1)).reshape(g.shape))

    def test_dissipation_matches_face_formula(self, nx, ny):
        g, rng = random_case(nx, ny, 3)
        c = 0.5 + rng.random(g.shape)
        v = rng.standard_normal(g.shape)
        D, _ = face_dissipation(v, c, g.hx, g.hy)
        assert close(dissipation_source(ScalarField(g, v), assemble(ScalarField(g, c))).values, D)

    def test_energy_matches_face_formula_and_pairing(self, nx, ny):
        g, rng = random_case(nx, ny, 4)
        c = 0.5 + rng.random(g.shape)
        v = rng.standard_normal(g.shape)
        _, E = face_dissipation(v, c, g.hx, g.hy)
        vf = v.reshape(-1)
        pairing = float(vf @ (sparse_operator(*face_means(c), g.hx, g.hy) @ vf)) * g.hx * g.hy
        e = weighted_energy(ScalarField(g, c), ScalarField(g, v))
        assert e == pytest.approx(E, rel=REL)
        assert e == pytest.approx(pairing, rel=REL)


def test_stencil_is_read_only():
    g = make_grid(5, 4, 1.3, 0.7)
    A = assemble(ScalarField.full(g, 2.0))
    before = A.apply(np.ones(g.shape))
    for name in ("wx", "wy", "wd"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(A, name)[0] = 1.0
    assert np.array_equal(A.apply(np.ones(g.shape)), before)


def test_apply_rejects_non_contiguous_out():
    g = make_grid(5, 4, 1.3, 0.7)
    A = assemble(ScalarField.full(g, 2.0))
    with pytest.raises(ValueError, match="C-contiguous"):
        A.apply(np.ones(g.shape), out=np.empty((4, 5)).T)
