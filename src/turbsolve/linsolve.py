"""Variable-coefficient diffusion operators and a preconditioned CG solve.

The operator is the pointwise five-point discretization of -div(c grad .)
with homogeneous Dirichlet walls (mirror ghosts) and arithmetic face
averaging of the cell coefficient.  For positive coefficients it is a
symmetric M-matrix: row-diagonally dominant with nonpositive
off-diagonals, hence positive definite and monotone (nonnegative right
hand sides produce nonnegative solutions, the discrete carrier of the
k >= 0 estimate).

The solve is Jacobi-preconditioned conjugate gradients.  Convergence is
certified against the *recomputed* residual, never the recursion residual
alone, and non-convergence raises instead of returning a partial answer.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import Grid, ScalarField, face_average

INNER_TOL = 1e-12


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class LinearSolveError(RuntimeError):
    """Iteration budget exhausted (or breakdown); carries the last report."""

    def __init__(self, message: str, report: LinearSolveReport):
        super().__init__(message)
        self.report = report


@dataclass(eq=False)
class DiffusionOperator:
    """Assembled -div(c grad .) with per-face coefficients; apply calls share one flux scratch."""

    grid: Grid
    cfx: np.ndarray  # (nx+1, ny)
    cfy: np.ndarray  # (nx, ny+1)

    def __post_init__(self):
        self._gx, self._gy = np.empty(self.cfx.shape), np.empty(self.cfy.shape)

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A v, written into ``out`` when given (a fresh array otherwise)."""
        out = np.empty(self.grid.shape) if out is None else out
        return _kernels.diffusion_matvec(v, self.cfx, self.cfy, self.grid.hx, self.grid.hy,
                                         out, self._gx, self._gy)

    def diagonal(self) -> np.ndarray:
        g = self.grid
        sx = np.ones(g.nx + 1)
        sy = np.ones(g.ny + 1)
        sx[0] = sx[-1] = 2.0  # wall faces couple twice as stiffly (ghost mirror)
        sy[0] = sy[-1] = 2.0
        wx = sx[:, None] * self.cfx
        wy = sy[None, :] * self.cfy
        return (wx[:-1, :] + wx[1:, :]) / g.hx**2 + (wy[:, :-1] + wy[:, 1:]) / g.hy**2


def assemble(c: ScalarField) -> DiffusionOperator:
    """Build the operator for a cellwise coefficient c > 0."""
    if np.any(c.values <= 0):
        raise ValueError("diffusion coefficient must be positive cellwise")
    cfx, cfy = face_average(c.values)
    return DiffusionOperator(c.grid, cfx, cfy)


def solve_spd(
    A: DiffusionOperator,
    b: ScalarField,
    tol: float = INNER_TOL,
    max_iter: int | None = None,
) -> tuple[ScalarField, LinearSolveReport]:
    """Solve A x = b to ||Ax-b||/||b|| <= tol (absolute residual when b=0).

    Deterministic at a fixed BLAS thread count: zero initial guess, fixed
    iteration order.  The dot products and norms go through BLAS, whose
    summation order may depend on its thread count, so the last bits can
    differ between thread counts.  The work vectors are allocated once per
    call and updated in place.  Raises LinearSolveError when the iteration
    budget runs out.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if b.grid != A.grid:
        raise ValueError("right-hand side lives on a different grid")
    g = A.grid
    if max_iter is None:
        max_iter = 10 * g.nx * g.ny

    rhs = b.values
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return ScalarField.zeros(g), LinearSolveReport(0, 0.0, True)

    diag = A.diagonal()
    x = np.zeros(g.shape)
    r = rhs.copy()
    z = r / diag
    p = z.copy()
    Ap, tmp = np.empty(g.shape), np.empty(g.shape)
    rz = float(np.vdot(r, z))
    iterations = 0
    res = float(np.linalg.norm(r)) / bnorm

    while iterations < max_iter:
        iterations += 1
        A.apply(p, out=Ap)
        pAp = float(np.vdot(p, Ap))
        if pAp <= 0.0:
            raise LinearSolveError(
                "conjugate gradients broke down (operator not positive definite?)",
                LinearSolveReport(iterations, res, False),
            )
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(Ap, alpha, out=tmp)
        res = float(np.linalg.norm(r)) / bnorm
        if res <= tol:
            # certify against the true residual; refresh and continue if
            # the recursion drifted
            np.subtract(rhs, A.apply(x, out=tmp), out=tmp)
            res_true = float(np.linalg.norm(tmp)) / bnorm
            if res_true <= tol:
                return ScalarField(g, x), LinearSolveReport(iterations, res_true, True)
            r, tmp = tmp, r
            res = res_true
            np.divide(r, diag, out=z)
            p[...] = z
            rz = float(np.vdot(r, z))
            continue
        np.divide(r, diag, out=z)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new

    raise LinearSolveError(
        f"conjugate gradients did not reach {tol:g} in {max_iter} iterations "
        f"(relative residual {res:g})",
        LinearSolveReport(iterations, res, False),
    )
