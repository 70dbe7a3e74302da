"""Hot numeric kernels: one flat five-point stencil and the three kernels that read it.

:func:`stencil_weights` lays the operator -div(c grad .) of a cellwise
coefficient out over the row-major cell array (flat index p = i*ny + j):
``wx`` couples flat cells p and p + ny across an interior x-face, ``wy``
couples p and p + 1 across an interior y-face (zero where p + 1 starts a
new row), and ``wd`` is the diagonal of the wall faces.  The matvec, the
dissipation density and the energy read the same weights, on contiguous
1-D slices only, so the energy identity and the substitution identity
A(c)(u^2/2) = u A(c)u - D(u, c) hold algebraically.  So do the
verification layer's face quadratures, through :func:`face_differences`.
"""

import numpy as np

# The package has a single numpy kernel path and never reads this flag.  It
# stays because the benchmark's run record (perfbench/run.py) reads it to
# name the kernel path, and the benchmark files must not change with the
# package.
USE_NUMBA = False


# No package module calls this.  It stays because the benchmark's tracer
# (perfbench/tracing.py) binds it by name and tests/test_linsolve.py uses it as an operator reference.
def face_gradients(v, hx, hy):
    """Two-point face differences of a cell field, Dirichlet mirror ghosts.

    Interior x-face i holds (v[i] - v[i-1])/hx; the wall faces hold
    +-2 v_adjacent / h, the one-sided difference against the zero wall
    value at distance h/2.
    """
    nx, ny = v.shape
    gx = np.empty((nx + 1, ny))
    gy = np.empty((nx, ny + 1))
    np.subtract(v[1:, :], v[:-1, :], out=gx[1:nx, :])
    gx[1:nx, :] /= hx
    gx[0, :] = (2.0 * v[0, :]) / hx
    gx[nx, :] = (-2.0 * v[nx - 1, :]) / hx
    np.subtract(v[:, 1:], v[:, :-1], out=gy[:, 1:ny])
    gy[:, 1:ny] /= hy
    gy[:, 0] = (2.0 * v[:, 0]) / hy
    gy[:, ny] = (-2.0 * v[:, ny - 1]) / hy
    return gx, gy


def stencil_weights(c, hx, hy):
    """Flat weights (wx, wy, wd) of -div(c grad .) for a cellwise coefficient c (nx, ny).

    An interior face weighs c_f/h^2, c_f the arithmetic mean of its two
    cells.  A wall face adds 2 c_f/h^2 to the diagonal of its cell (the
    mirror ghost sits at distance h/2, and c_f is the inner cell's value),
    so corner cells get one x and one y term.
    """
    nx, ny = c.shape
    cf = c.reshape(-1)
    rx, ry = 1.0 / (hx * hx), 1.0 / (hy * hy)
    wx = np.add(cf[ny:], cf[:-ny])
    wx *= 0.5 * rx
    wy = np.add(cf[1:], cf[:-1])
    wy *= 0.5 * ry
    wy[ny - 1::ny] = 0.0  # the last cell of a row has no y-neighbour in the next row
    wd = np.zeros((nx, ny))
    wd[0, :] += (2.0 * rx) * c[0, :]
    wd[-1, :] += (2.0 * rx) * c[-1, :]
    wd[:, 0] += (2.0 * ry) * c[:, 0]
    wd[:, -1] += (2.0 * ry) * c[:, -1]
    return wx, wy, wd.reshape(-1)


def face_differences(vf, w, out=None):
    """Differences vf[p + s] - vf[p] across the faces of weight w (into out if given), and s.

    A weight array holds one entry per flat cell p that has a neighbour p + s,
    so its length fixes the offset: s = ny for x-faces, 1 for y-faces.
    """
    s = vf.size - w.size
    return np.subtract(vf[s:], vf[:-s], out=out), s


def diffusion_matvec(v, wx, wy, wd, out, t):
    """-div(c grad v) from the flat stencil (wx, wy, wd), into the C-contiguous out.

    t is scratch with at least wy.size entries.
    """
    vf, of = v.reshape(-1), out.reshape(-1)
    np.multiply(wd, vf, out=of)
    for w in (wx, wy):
        d, s = face_differences(vf, w, t[:w.size])
        d *= w
        of[:-s] -= d
        of[s:] += d
    return out


def dissipation_cells(v, wx, wy, wd):
    """Cell average of c*|grad v|^2 over the bounding faces, from the flat stencil.

    Half the wall term wd v^2 plus half of each face term w (dv)^2 on each
    cell of the face, so that D = v A(c)v - A(c)(v^2/2) cellwise: the
    substitution identity the coupled solver relies on.
    """
    vf = v.reshape(-1)
    out = wd * vf
    out *= vf
    t = np.empty(wy.size)
    for w in (wx, wy):
        d, s = face_differences(vf, w, t[:w.size])
        d *= d
        d *= w
        out[:-s] += d
        out[s:] += d
    out *= 0.5
    return out.reshape(v.shape)


def stencil_energy(v, wx, wy, wd):
    """<A v, v> of the flat stencil: wd v^2 plus w (dv)^2 summed over the faces."""
    vf = v.reshape(-1)
    t = vf * vf
    e = float(np.dot(wd, t))
    for w in (wx, wy):
        d, _ = face_differences(vf, w, t[:w.size])
        d *= d
        e += float(np.dot(w, d))
    return e
