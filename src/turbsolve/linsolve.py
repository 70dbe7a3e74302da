"""Variable-coefficient diffusion operators and a preconditioned CG solve.

The operator is the pointwise five-point discretization of -div(c grad .)
with homogeneous Dirichlet walls (mirror ghosts) and arithmetic face
averaging of the cell coefficient.  For positive coefficients it is a
symmetric M-matrix: row-diagonally dominant with nonpositive
off-diagonals, hence positive definite and monotone (nonnegative right
hand sides produce nonnegative solutions, the discrete carrier of the
k >= 0 estimate).

The solve is conjugate gradients preconditioned with S L^{-1} S, where
L = A(1) is the unit-coefficient operator on the same grid and
S = sqrt(diag A(1) / diag A) cellwise: the discrete form of the
substitution w = c^{1/2} u of Concus & Golub (1973, SIAM J. Numer. Anal.
10(6)).  L^{-1} alone bounds the condition number by the coefficient
contrast at every mesh width, so the iteration count does not grow with
the grid, but it grows like the square root of the contrast, and the
contrast of min(n, nu(k)) grows with the truncation level n.  S takes out
the coefficient's size, so what is left depends on how fast c varies
between cells, not on its range.  Cold solves to 1e-12 of
A(1 + sqrt(k)) x = g on 129^2, g a Gaussian load and k proportional to g:

    contrast           11     101   1 000   9 904
    L^{-1}             53     166     508   1 463
    S L^{-1} S         14      20      22      23

A jump in c is not flattened by S.  On A(1) itself S = 1 exactly, and the
preconditioner is L^{-1} bit for bit.  A(1) is inverted by
tensor-product fast diagonalisation (Lynch, Rice & Thomas 1964): the 1D
cell-centred operator with mirror ghosts has the DST-II eigenbasis.  The
inverse is applied in float32 matrix products, about twice as fast as in
float64 and within about 1e-6 of the exact inverse, relatively.  CG takes
its step direction in the flexible (Polak-Ribiere) form, which keeps the
local A-orthogonality of the directions under such an inexact
preconditioner (Golub & Ye 1999; Notay 2000), and costs at most a few
iterations more than with the exact inverse.  Everything else is float64.
Convergence is certified against the *recomputed* residual, never the
recursion residual alone.  A solve that cannot reach its
tolerance either stops at the rounding floor, with a normwise backward
error of a few eps (Rigal & Gaches 1967; Higham 2002, ch. 7), or raises
instead of returning a partial answer.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .grid import Grid, ScalarField

INNER_TOL = 1e-12

# Largest normwise backward error of a solve that stops at its rounding floor
FLOOR_BACKWARD_ERROR = 16 * float(np.finfo(float).eps)


def _ldexp(x, n: int, out=None):
    """x * 2^n in float64, bit for bit ``np.ldexp(x, n, out=out)``, in about a fifth of its time.

    Where 2^n is a normal float, one multiply by it is exact, or correctly
    rounded when the product is subnormal or overflows, as ldexp is; other
    n fall back to ldexp itself.
    """
    if -1022 <= n <= 1023:
        return np.multiply(x, math.ldexp(1.0, n), out=out)
    return np.ldexp(x, n, out=out)


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    at_floor: bool = False  # stopped at the rounding floor, above tol
    backward_error: float | None = None  # inf-norm ||r|| / (||A|| ||x|| + ||b||), measured at a stall only


class LinearSolveError(RuntimeError):
    """Iteration budget exhausted (or breakdown); carries the last report."""

    def __init__(self, message: str, report: LinearSolveReport):
        super().__init__(message)
        self.report = report


@dataclass(eq=False)
class DiffusionOperator:
    """Assembled -div(c grad .) as one flat five-point stencil.

    The weights are those of :func:`turbsolve._kernels.stencil_weights`;
    they are read-only, so no apply runs on weights changed after
    assembly.  Apply calls share one scratch vector.
    """

    grid: Grid
    wx: np.ndarray  # (nx-1)*ny interior x-face weights, neighbour offset ny
    wy: np.ndarray  # nx*ny - 1 interior y-face weights, neighbour offset 1
    wd: np.ndarray  # nx*ny wall-face diagonal

    def __post_init__(self):
        for a in (self.wx, self.wy, self.wd):
            a.flags.writeable = False
        self._t = np.empty(self.wy.size)

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A v, written into ``out`` (C-contiguous) when given, a fresh array otherwise."""
        if out is None:
            out = np.empty(self.grid.shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return _kernels.diffusion_matvec(v, self.wx, self.wy, self.wd, out, self._t)

    def energy(self, v: ScalarField) -> float:
        """<A v, v> hx hy, the face-quadrature energy of v: ``weighted_energy``'s sum."""
        if v.grid != self.grid:
            raise ValueError("field and operator live on different grids")
        return _kernels.stencil_energy(v.values, self.wx, self.wy, self.wd) * self.grid.cell_area

    def norm_inf(self) -> float:
        """||A||_inf, the largest absolute row sum: wd plus twice the weights of the cell's faces.

        The off-diagonal magnitudes of a row sum to its diagonal less wd,
        so each row sum is 2 diag - wd.
        """
        return float(np.max(2.0 * self.diagonal() - self.wd))

    def diagonal(self) -> np.ndarray:
        """diag A, flat: wd plus the weights of each cell's faces, in a fresh array."""
        d = self.wd.copy()
        for w in (self.wx, self.wy):
            s = d.size - w.size
            d[:-s] += w
            d[s:] += w
        return d

    @cached_property
    def preconditioner_scale(self) -> np.ndarray | None:
        """S = sqrt(diag A(1) / diag A) cellwise, or None where the preconditioner goes unscaled.

        :func:`solve_spd` preconditions with S L^{-1} S, L = A(1).  None
        stands for S = 1: on A(1) itself, where the ratio is exactly 1, and
        on a hand-built operator whose ratio leaves the positive normal
        float range somewhere (a diagonal that is not positive, or one so
        large that the ratio is subnormal), where the scaling would carry
        no digits.  Built at the first read, in one array and without a
        numpy warning.
        """
        ratio = self.diagonal()
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            np.divide(_unit_diagonal(self.grid), ratio, out=ratio)
            lo, hi = float(ratio.min()), float(ratio.max())  # NaN fails both tests below
        if not np.finfo(float).tiny <= lo <= hi <= np.finfo(float).max or lo == hi == 1.0:
            return None
        return np.sqrt(ratio, out=ratio).reshape(self.grid.shape)


def _dst2_basis(n: int, h: float):
    """Orthonormal eigenvectors (columns) and eigenvalues of the 1D cell-centred
    operator (2v_j - v_{j-1} - v_{j+1})/h^2 with mirror ghosts v_{-1} = -v_0,
    v_n = -v_{n-1}: q_k(j) = sqrt(2/n) sin(pi k (j+1/2)/n), k = 1..n, the
    column k = n scaled by 1/sqrt(2).
    """
    k = np.arange(1, n + 1)
    q = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    q[:, -1] *= np.sqrt(0.5)
    # (2 - 2cos(pi k/n))/h^2, written without the cancellation at small k
    return q, (2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2


@dataclass(frozen=True, eq=False)
class PoissonInverse:
    """Inverse of L = A(1), L^{-1} r = Qx ((Qx^T r Qy) / eig) Qy^T, in float32 products.

    The bases and eigenvalues are computed in float64 and stored in
    float32, with eig divided by 2^scale, the power of two at or above its
    largest entry.  Both this and the scaling of r by a power of two in
    :meth:`apply` are exact (each one multiply by the float 2^-scale or
    2^-e, see :func:`_ldexp`), so eig lies in about [1/N^2, 1] and the
    products stay in float32 range at any domain extents and residual
    scale.  The apply is then within a few float32 eps times N of the
    exact inverse, relatively; CG treats it as an inexact preconditioner
    (see :func:`solve_spd`).
    """

    qx: np.ndarray  # (nx, nx) x eigenvectors, float32
    qy: np.ndarray  # (ny, ny) y eigenvectors, float32
    eig: np.ndarray  # (nx, ny) eigenvalues of L over 2^scale: (lam_x[i] + lam_y[j]) / 2^scale
    scale: int

    def apply(self, r: np.ndarray, out: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """L^{-1} r into the float64 ``out``; float32 ``w1`` and ``w2`` are scratch, and none may alias r.

        r is scaled by 2^-e, the power of two at or above max|r|, into the
        float64 ``out`` and rounded once to float32 from there; the result
        is scaled back in float64.  So the float32 products run at the same
        scale for every r, and only the float64 rescale meets the extremes
        of its range.  Both scalings run on float64 arrays (:func:`_ldexp`):
        scaling straight into float32 would allocate numpy's cast buffer,
        and a float32 array times 2^n stays float32 and can overflow.
        """
        e = math.frexp(max(float(r.max()), -float(r.min())))[1]
        w1[...] = _ldexp(r, -e, out=out)
        np.matmul(self.qx.T, w1, out=w2)
        np.matmul(w2, self.qy, out=w1)
        w1 /= self.eig
        np.matmul(self.qx, w1, out=w2)
        np.matmul(w2, self.qy.T, out=w1)
        out[...] = w1
        return _ldexp(out, e - self.scale, out=out)


@lru_cache(maxsize=8)
def poisson_inverse(grid: Grid) -> PoissonInverse:
    """The A(1) inverse of a grid, built once per grid and shared by its solves."""
    qx, lam_x = _dst2_basis(grid.nx, grid.hx)
    qy, lam_y = _dst2_basis(grid.ny, grid.hy)
    eig = lam_x[:, None] + lam_y[None, :]
    scale = math.frexp(float(eig.max()))[1]
    qx, qy, eig = (a.astype(np.float32) for a in (qx, qy, _ldexp(eig, -scale)))
    for a in (qx, qy, eig):
        a.flags.writeable = False  # shared through the cache
    return PoissonInverse(qx, qy, eig, scale)


@lru_cache(maxsize=8)
def _unit_diagonal(grid: Grid) -> np.ndarray:
    """diag A(1) of a grid, built once per grid: the numerator of every preconditioner scale on it."""
    d = unit_operator(grid).diagonal()
    d.flags.writeable = False
    return d


def assemble(c: ScalarField) -> DiffusionOperator:
    """Build the operator for a cellwise coefficient c > 0."""
    if np.any(c.values <= 0):
        raise ValueError("diffusion coefficient must be positive cellwise")
    g = c.grid
    return DiffusionOperator(g, *_kernels.stencil_weights(c.values, g.hx, g.hy))


@lru_cache(maxsize=8)
def unit_operator(grid: Grid) -> DiffusionOperator:
    """A(1) of a grid, assembled once per grid and shared by its solves.

    Its applies share one scratch vector, so no two solves on it may run at once.
    """
    return assemble(ScalarField.full(grid, 1.0))


def solve_spd(
    A: DiffusionOperator,
    b: ScalarField,
    tol: float = INNER_TOL,
    x0: ScalarField | None = None,
    loose_tol: float = 0.0,
) -> tuple[ScalarField, LinearSolveReport]:
    """Solve A x = b to ||Ax-b||/||b|| <= tol (x = 0 when b = 0).

    Starts from x0 when given (zero otherwise) and returns after 0
    iterations when the residual of that start already meets tol.  A
    ``loose_tol`` above tol lets CG stop early, at the first iterate whose
    residual meets loose_tol; the start is still judged against tol, so a
    start that misses tol takes at least one iteration, and the report's
    ``relative_residual`` tells the caller whether tol itself was met.  The
    preconditioner is z = S L^{-1}(S r), with L^{-1} the inverse of A(1) in
    float32 products (see :class:`PoissonInverse`) and S the operator's
    :attr:`~DiffusionOperator.preconditioner_scale`, built once per operator
    and only once a start misses tol.  The step direction p = z + beta p takes
    the flexible beta = -(z, A p) / (p, A p), which equals the
    Polak-Ribiere (z_new, r_new - r_old) / (z_old, r_old) in exact
    arithmetic and costs one dot product more than the Fletcher-Reeves
    form.  The preconditioner only steers the search: the stop rule, the
    certification against the true residual and the floor rule below are
    all in float64, so its rounding can change the iteration count and x
    below the certified tolerance, never what is certified.

    The solve is scale-free: b and x0 are divided by 2^e, the power of two
    at or above max|b|, and x is multiplied back on return, each by one
    multiply by the float 2^-e or 2^e where that is normal (see
    :func:`_ldexp`).  Both steps are exact, so every iterate is that of the
    unit-scale load, and no norm overflows or underflows at any load
    scale.  Only the multiply back can round, where it lands an entry of x
    below the normal range.  Where max|x| 2^e lies within 53 binades of that
    range, the residual of the x returned is therefore measured again: x is
    returned if it meets the stop target or passes the floor rule below,
    and otherwise LinearSolveError names the underflow.

    Each recursion residual that meets the stop target is checked against
    the recomputed true residual; a failed check restarts CG from the true
    residual.  When the true residual has not halved since the previous
    failed check, the solve is at its rounding floor (Greenbaum 1997).
    It then returns a report marked ``at_floor`` when the normwise backward
    error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) is at most
    FLOOR_BACKWARD_ERROR: x is then as good as rounding allows, and the
    report's ``relative_residual`` lies above the stop target.  A larger
    backward error raises LinearSolveError naming the stall.

    Deterministic at a fixed BLAS thread count: fixed iteration order.  The
    dot products, norms and the preconditioner's float32 matrix products
    (``sgemm``) go through BLAS, whose summation order may depend on its
    thread count, so the last bits can differ between thread counts.  The
    work vectors, the preconditioner's two float32 ones included, are
    allocated once per call and updated in place.  Raises LinearSolveError
    at the first residual that is not finite, and when the budget of
    10 * nx * ny iterations runs out.
    """
    if not 0 < tol < np.inf:  # fails on NaN as well
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not loose_tol >= 0:
        raise ValueError("loose tolerance must be nonnegative")
    if b.grid != A.grid:
        raise ValueError("right-hand side lives on a different grid")
    if x0 is not None and x0.grid != A.grid:
        raise ValueError("initial guess lives on a different grid")
    g = A.grid
    budget = 10 * g.nx * g.ny

    bmax = max(float(b.values.max()), -float(b.values.min()))
    if bmax == 0.0:
        return ScalarField.zeros(g), LinearSolveReport(0, 0.0)
    e = math.frexp(bmax)[1]  # 2^e is the power of two at or above max|b|
    rhs = _ldexp(b.values, -e)
    bnorm = float(np.linalg.norm(rhs))

    def relative(v, iterations):
        with np.errstate(over="ignore"):  # an overflowing norm is reported below, by name
            res = float(np.linalg.norm(v)) / bnorm
        if not math.isfinite(res):
            raise LinearSolveError(f"conjugate gradients met a residual that is not finite "
                                   f"after {iterations} iterations", LinearSolveReport(iterations, res))
        return res

    stop = max(tol, loose_tol)
    M = poisson_inverse(g)
    p, z, Ap, tmp = (np.empty(g.shape) for _ in range(4))
    w1, w2 = (np.empty(g.shape, np.float32) for _ in range(2))  # the preconditioner's scratch

    def floor_error(r, x):
        """The normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf), at unit scale."""
        return float(np.max(np.abs(r))) / (
            A.norm_inf() * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs))))

    def scaled_back(x, report, target):
        """x at the load's scale, and the report on the x returned.

        The multiply by 2^e rounds only entries it lands below the normal
        range, each by at most 2^-1075.  Where max|x| 2^e is 2^-969 or more,
        that is at most 2^-106 max|x| 2^e, below the rounding of x itself,
        so the report stands; below, the rounded x's residual is measured.
        """
        out = _ldexp(x, e)
        xmax = max(float(x.max()), -float(x.min()))
        if xmax == 0.0 or math.frexp(xmax)[1] + e > -1022 + 53:
            return ScalarField(g, out), report
        rounded = _ldexp(out, -e)  # the x returned, back at unit scale exactly
        r = np.subtract(rhs, A.apply(rounded, out=tmp), out=tmp)
        res = relative(r, report.iterations)
        if res <= target:
            return ScalarField(g, out), LinearSolveReport(report.iterations, res)
        backward = floor_error(r, rounded)
        checked = LinearSolveReport(report.iterations, res, backward <= FLOOR_BACKWARD_ERROR, backward)
        if checked.at_floor:
            return ScalarField(g, out), checked
        raise LinearSolveError(
            f"the solution underflows: at the load's scale x lies below the normal float range, "
            f"where its rounding leaves relative residual {res:g} above {target:g}, with backward "
            f"error {backward:g} above the rounding floor", checked)

    x = np.zeros(g.shape) if x0 is None else _ldexp(x0.values, -e)
    r = np.subtract(rhs, A.apply(x, out=tmp))
    res = relative(r, 0)
    if res <= tol:
        return scaled_back(x, LinearSolveReport(0, res), tol)
    restart = True  # the next direction is the preconditioned residual itself
    failed = math.inf  # true relative residual at the last failed check
    S = A.preconditioner_scale

    for iterations in range(1, budget + 1):
        if S is None:
            M.apply(r, z, w1, w2)
        else:  # z = S L^{-1} (S r), tmp free until the update of x
            M.apply(np.multiply(S, r, out=tmp), z, w1, w2)
            z *= S
        if restart:
            p[...] = z
            restart = False
        else:
            # flexible beta (z_new, r_new - r_old) / (z_old, r_old), with r_new - r_old = -alpha A p
            p *= -float(np.vdot(z, Ap)) / pAp
            p += z
        rz = float(np.vdot(r, z))
        A.apply(p, out=Ap)
        pAp = float(np.vdot(p, Ap))
        if pAp <= 0.0:
            raise LinearSolveError(
                "conjugate gradients broke down (operator not positive definite?)",
                LinearSolveReport(iterations, res),
            )
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(Ap, alpha, out=tmp)
        res = relative(r, iterations)
        if res <= stop:
            # certify against the true residual; restart from it if the
            # recursion drifted
            np.subtract(rhs, A.apply(x, out=tmp), out=tmp)
            res_true = relative(tmp, iterations)
            if res_true <= stop:
                return scaled_back(x, LinearSolveReport(iterations, res_true), stop)
            if res_true > 0.5 * failed:  # no halving since the last failed check: a stall
                backward = floor_error(tmp, x)
                report = LinearSolveReport(iterations, res_true, backward <= FLOOR_BACKWARD_ERROR,
                                           backward)
                if report.at_floor:
                    return scaled_back(x, report, stop)
                raise LinearSolveError(
                    f"conjugate gradients stalled at relative residual {res_true:g} above {stop:g}, "
                    f"with backward error {backward:g} above the rounding floor", report)
            failed = res_true
            r, tmp = tmp, r
            res = res_true
            restart = True

    raise LinearSolveError(
        f"conjugate gradients did not reach {stop:g} in {budget} iterations "
        f"(relative residual {res:g})",
        LinearSolveReport(iterations, res),
    )
