"""Structured 2D cell-centered grids, fields, quadrature, and norms.

Unknowns live at cell centers ((i+1/2)hx, (j+1/2)hy) of a rectangle
[0,lx] x [0,ly].  Every differential operator bakes in homogeneous
Dirichlet walls via mirror ghost cells: the ghost value across a boundary
face is the negative of the adjacent interior value, so the reconstructed
face value is exactly zero and the one-sided face gradient is 2v/h.

Face quadrature carries measure hx*hy per interior face and (hx*hy)/2 per
wall face (the half cell between a center and the wall).  With these
measures a face term c_f |dv/h|^2 is the flat stencil weight of its face
(:func:`turbsolve._kernels.stencil_weights`) times (dv)^2 hx*hy, so the
energy and the verification module's face quadratures are sums over the
weights of the operator assembled in :mod:`turbsolve.linsolve`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coeffs import _is_integer


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid of nx*ny cells covering [0,lx] x [0,ly]."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        for name, cells in (("nx", self.nx), ("ny", self.ny)):
            if not (_is_integer(cells) and cells >= 2):
                raise ValueError(f"{name} must be an integer of at least 2 cells, got {cells!r}")
        # written to fail on NaN as well
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise ValueError(f"domain edges must be positive and finite, got {self.lx}x{self.ly}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        """Total measure |Omega|."""
        return self.lx * self.ly

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny)

    def cell_axes(self):
        """The 1-D cell-center coordinates (xs, ys), of lengths nx and ny."""
        return (np.arange(self.nx) + 0.5) * self.hx, (np.arange(self.ny) + 0.5) * self.hy

    def cell_centers(self):
        """Meshgrid (X, Y) of cell centers, ij indexing, shape (nx, ny)."""
        return np.meshgrid(*self.cell_axes(), indexing="ij")


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    return Grid(nx, ny, float(lx), float(ly))


def _as_values(grid, values):
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    return arr


@dataclass(eq=False)
class ScalarField:
    """One real value per cell, indexed values[i, j] at x_i, y_j."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.grid, self.values)

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(X, Y) at cell centers."""
        X, Y = grid.cell_centers()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))


def integrate(v: ScalarField) -> float:
    """Midpoint rule: sum of cell values times cell area."""
    return float(v.values.sum() * v.grid.cell_area)


def linf_norm(v: ScalarField) -> float:
    return float(np.max(np.abs(v.values))) if v.values.size else 0.0


# No package module calls this.  It stays because the benchmark's tracer
# (perfbench/tracing.py) binds it by name and tests/test_linsolve.py uses it as an operator reference.
def face_average(c: np.ndarray):
    """Arithmetic face means of a cell array; wall faces copy the inner cell."""
    nx, ny = c.shape
    cfx = np.empty((nx + 1, ny))
    cfy = np.empty((nx, ny + 1))
    cfx[1:nx, :] = 0.5 * (c[1:, :] + c[:-1, :])
    cfx[0, :] = c[0, :]
    cfx[nx, :] = c[nx - 1, :]
    cfy[:, 1:ny] = 0.5 * (c[:, 1:] + c[:, :-1])
    cfy[:, 0] = c[:, 0]
    cfy[:, ny] = c[:, ny - 1]
    return cfx, cfy


# No package module calls this; it stays for the benchmark's tracer and as the tests' reference.
def weighted_energy(c: ScalarField, v: ScalarField) -> float:
    """Face-quadrature energy  sum_f c_f |dv|_f^2 w_f  ~ integral c|grad v|^2.

    c is averaged to faces arithmetically (wall faces use the single inner
    cell); w_f is hx*hy on interior faces and half that on wall faces.  The
    sum runs over the flat stencil weights that the assembled operator A(c)
    holds (:func:`turbsolve._kernels.stencil_weights`): wd v^2 plus
    w (dv)^2 per interior face, so it is <A(c)v, v> * hx*hy by construction.
    """
    if c.grid != v.grid:
        raise ValueError("coefficient and field live on different grids")
    if np.any(c.values <= 0):
        raise ValueError("weighted_energy requires a positive coefficient field")
    g = v.grid
    weights = _kernels.stencil_weights(c.values, g.hx, g.hy)
    return _kernels.stencil_energy(v.values, *weights) * g.cell_area
