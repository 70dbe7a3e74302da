"""Coupled solvers for the truncated approximating problems.

For a truncation level n >= 1 the coupled system reads, cellwise on the
grid with the operators of :mod:`turbsolve.linsolve`:

    A(min(n, nu(k))) u = f
    A(a_n(k))        k = min(n, D(u, min(n, nu(k))))

where a_n = gamma * min(n, nu(.)) for proportional pairs (gamma set) and
min(n, a(.)) otherwise, and D(u, c) is the cell dissipation density
produced by :func:`dissipation_source`.

D is read off the assembled operator A(c) itself: its flat stencil weights
(:func:`turbsolve._kernels.stencil_weights`), averaged from faces to
cells.  An outer iteration evaluates the truncated coefficients once, at
its lagged k (:class:`FrozenCoefficients`): the u-solve's operator
A(nu_n(k)) is the one carrier of nu_n(k), and the k-update takes it, forms
its source from it and reads a_n(k) beside it.  On a proportional pair it
is the k-equation's operator too: stencil weights are linear in the
coefficient, so A(a_n) = gamma A(nu_n), and an outer iteration builds one
stencil.  Sharing the weights makes two substitution identities hold
*algebraically* (not just to O(h^2)):

* tested with u itself, the u-equation gives the energy identity
  sum f u m = weighted_energy(nu_n(k), u);
* A(c)(u^2/2) = u * A(c)u - D(u, c) cellwise.  With c = a_n = gamma nu_n
  for a proportional pair, dividing by gamma shows that the auxiliary
  unknown chi = k + u^2/(2 gamma) solves A(a_n(k)) chi = f u whenever
  (u, k) solves the pair above and the source cap min(n, .) binds
  nowhere.

The verification module and the cross-route checks rely on both.

Existence theory for the truncated pair is non-constructive, so the
solver is a Picard iteration with lagged coefficients: its fixed points
are exactly the discrete solutions.  A level takes the full k-update
until the increment first grows, then half of it for the rest of the
level.  Where the iteration contracts slowly (the n = 64 level of a 33^2
chi sweep at amplitude 1e5 oscillated with period 2 and shrank its
increment by about 0.92 per iteration), the level mixes: from its first
iteration, the third or later, whose increment exceeds half the previous
one, k is updated by type-II Anderson acceleration of depth 5 (Walker &
Ni 2011; Evans, Pollock, Rebholz & Xiao 2020 on why it waits for slow
linear contraction).  The inner solves are inexact in the sense of
inexact Newton methods (Dembo, Eisenstat & Steihaug 1982; Eisenstat &
Walker 1996): an iterate that the next outer iteration will overwrite is
solved only to a tenth of the predicted next increment, and convergence
is certified only by an iteration whose inner solves all certify: each
met the full inner tolerance or stopped at its rounding floor (see
:func:`~turbsolve.linsolve.solve_spd`).  The prediction rests on the
measured contraction ratio; a sweep level starts from the ratio that the
level before it measured last.
Three k-updates are offered:
``direct`` (solve the k-equation with frozen coefficient), ``kirchhoff``
(solve -Lap K = source for K = A(k), then map back through A_inv), and
the chi route (proportional pairs only).  One driver runs all three; they
differ only in the k-update step it is given.  Every inner solve starts
from the current iterate, so a k0 far above the load's scale raises on
every route (see ``_picard``).
"""

from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .coeffs import (
    HypothesisViolation,
    ViscosityModel,
    _check_level,
    _is_integer,
    kirchhoff_A,
    kirchhoff_A_inv,
    truncated_coefficients,
)
from .grid import ScalarField, linf_norm
from .linsolve import (INNER_TOL, DiffusionOperator, LinearSolveReport, assemble, solve_spd,
                       unit_operator)

ROUTES = ("direct", "kirchhoff", "chi")

# An inner solve of a non-certifying outer iteration stops at this fraction
# of the predicted next relative increment
FORCING = 0.1

# Anderson mixing of k: how many differences of past iterates it combines,
# and the contraction ratio above which a level starts mixing
ANDERSON_DEPTH = 5
SLOW_CONTRACTION = 0.5


@dataclass
class PicardConfig:
    """Outer-iteration controls.

    Without a warm start u and k begin at zero.  inner_tol is the
    relative residual of the certifying inner solves: those of the one
    outer iteration that converges and of the final u re-solve, and those
    of the first two, except on a sweep level after one that converged in
    two or more iterations, which starts from that level's last
    contraction ratio.  The others stop earlier (see ``_picard``).
    """

    tol: float = 1e-10
    max_outer: int = 200
    inner_tol: float = INNER_TOL

    def __post_init__(self):
        # each check is written to fail on NaN as well
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (_is_integer(self.max_outer) and self.max_outer >= 1):
            raise ValueError(f"max_outer must be a positive integer, got {self.max_outer!r}")
        if not 0 < self.inner_tol < np.inf:
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol}")


@dataclass
class SolveReport:
    """Per-solve record: convergence data plus the measured estimates."""

    n: int
    outer_iterations: int
    converged: bool
    final_increment: float
    energy: float  # integral nu_n(k) |grad u|^2
    dissipation: float  # integral a_n(k) |grad k|^2
    linf_u: float
    linf_k: float
    truncation_active: bool  # min(n, .) clipped something in the final iterate
    clamp_count: int  # negative k cells zeroed across the run (expected 0)
    k_residual: float  # relative residual of the un-lagged k-equation

    def to_dict(self) -> dict:
        return asdict(self)


class KStep(NamedTuple):
    """Result of one k-update: the new k, the negative cells zeroed and the inner solve's report."""

    field: ScalarField
    clamp_count: int
    report: LinearSolveReport
    chi: Optional[ScalarField] = None  # the chi route's auxiliary unknown


def dissipation_source(u: ScalarField, A: DiffusionOperator) -> ScalarField:
    """Cell dissipation density D(u, c) of the assembled operator A = A(c).

    A face-quadrature average of c |grad u|^2: per cell, half the sum over
    its four faces of c_f |du|_f^2 with the face coefficient averaged
    arithmetically (wall faces use the inner cell) and wall faces at half
    weight.  Cells tile the faces, so interior faces are shared by two
    cells; summed against any cell field this reproduces the operator
    pairing exactly.  A = A(1) yields the discrete |grad u|^2 cell
    quantity.  The face terms are read off A's flat stencil weights; no
    stencil is built here.
    """
    if u.grid != A.grid:
        raise ValueError("field and operator live on different grids")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        density = _kernels.dissipation_cells(u.values, A.wx, A.wy, A.wd)
    if not np.all(np.isfinite(density)):
        raise ValueError("the dissipation density c |grad u|^2 overflows float64")
    return ScalarField(u.grid, density)


def _truncated_source(u: ScalarField, A_nu: DiffusionOperator, n: int):
    """k-equation source min(n, D(u, nu_n)) from A_nu = A(nu_n), and whether the cap bound anywhere.

    n is checked here, so a k-update that evaluates no coefficient still
    rejects a level that is not a positive integer before it solves.
    """
    n = _check_level(n)
    raw = dissipation_source(u, A_nu).values
    return np.minimum(float(n), raw), bool(np.any(raw > n))


def _clamp(values: np.ndarray):
    """Zero the negative cells; returns the clamped values and how many were zeroed."""
    negative = values < 0
    count = int(np.count_nonzero(negative))
    return (np.where(negative, 0.0, values) if count else values), count


class FrozenCoefficients(NamedTuple):
    """The truncated coefficients at one k, evaluated once: what an outer iteration freezes.

    The u-solve solves with A_nu, and the k-updates read their source off
    it.  On a proportional pair the direct and chi k-updates and the final
    report solve with and read A_nu too, since A(a_n) = gamma A_nu;
    otherwise the direct k-update and the report build A(a_n) from a_n
    (see :func:`_k_operator`).
    """

    A_nu: DiffusionOperator  # A(nu_n(k))
    a_n: np.ndarray  # a_n(k), cellwise
    clipped: bool  # min(n, .) bound somewhere in nu_n or a_n


def _freeze(m: ViscosityModel, k: ScalarField, n: int) -> FrozenCoefficients:
    """The coefficients of level n frozen at k; a bad level or a negative cell of k raises here."""
    nu_n, a_n, clipped = truncated_coefficients(m, k.values, n)
    return FrozenCoefficients(assemble(ScalarField(k.grid, nu_n)), a_n, clipped)


def _k_operator(frozen: FrozenCoefficients, m: ViscosityModel) -> tuple[DiffusionOperator, float]:
    """(A, c) with A(a_n) = c A: A_nu and gamma on a proportional pair, A(a_n) and 1 otherwise.

    Stencil weights are linear in the coefficient, so A(gamma nu_n) =
    gamma A(nu_n), and a proportional pair solves its k-equation on the
    u-solve's operator, whose preconditioner scale is then built once for
    both solves.  At gamma a power of four the two forms solve bit for bit
    alike: every scaling in :func:`~turbsolve.linsolve.solve_spd`, that of
    the preconditioner scale by sqrt(1/gamma) included, is then exact.
    """
    if m.gamma is not None:
        return frozen.A_nu, m.gamma
    return assemble(ScalarField(frozen.A_nu.grid, frozen.a_n)), 1.0


def solve_u_given_k(
    k: ScalarField, m: ViscosityModel, n: int, f: ScalarField, inner_tol: float = INNER_TOL,
    u0: Optional[ScalarField] = None, loose_tol: float = 0.0,
) -> tuple[ScalarField, LinearSolveReport, FrozenCoefficients]:
    """u-solve with frozen coefficient min(n, nu(k)), the inner solve started from u0.

    Returns u, the inner solve's report and the coefficients frozen at k,
    whose A(nu_n(k)) it solved with; the k-updates take them.  Here and in
    the k-updates, ``inner_tol`` and ``loose_tol`` are the tol and
    loose_tol of :func:`~turbsolve.linsolve.solve_spd`.
    """
    frozen = _freeze(m, k, n)
    return (*solve_spd(frozen.A_nu, f, tol=inner_tol, x0=u0, loose_tol=loose_tol), frozen)


def solve_k_given_u(
    u: ScalarField, k_lag: ScalarField, frozen: FrozenCoefficients, m: ViscosityModel, n: int,
    inner_tol: float = INNER_TOL, loose_tol: float = 0.0,
) -> KStep:
    """One lagged k-update: coefficient and source frozen at k_lag.

    ``frozen`` holds the coefficients at k_lag that u was solved with: the
    source min(n, D(u, nu_n)) is read off its A_nu.  The solve runs on
    A(a_n), which on a proportional pair is A_nu k = source / gamma (see
    :func:`_k_operator`).  The inner solve starts from k_lag, which m's
    domain check rejects if negative, though no coefficient is evaluated
    here.  The solve result is clamped at zero; the monotone operator makes
    negative cells impossible for this nonnegative source, so any clamp is
    a scheme anomaly and is counted.
    """
    m._check_domain(k_lag.values)
    source, _ = _truncated_source(u, frozen.A_nu, n)
    op, c = _k_operator(frozen, m)
    k, report = solve_spd(op, ScalarField(u.grid, source / c), tol=inner_tol, x0=k_lag,
                          loose_tol=loose_tol)
    k_vals, clamp_count = _clamp(k.values)
    return KStep(ScalarField(u.grid, k_vals), clamp_count, report)


def kirchhoff_k_solve(
    u: ScalarField, k_lag: ScalarField, frozen: FrozenCoefficients, m: ViscosityModel, n: int,
    inner_tol: float = INNER_TOL, loose_tol: float = 0.0,
) -> KStep:
    """Alternative k-update through the flux transform.

    With K = A(k) the k-equation becomes constant-coefficient:
    -Lap K = min(n, D(u, nu_n(k_lag))), the source read off the frozen
    A_nu = A(nu_n(k_lag)) as on the direct route, so the update evaluates
    no coefficient, only the transform and its inverse.  It solves that
    Poisson problem on the grid's shared A(1) from A(k_lag), like every
    inner solve from the current iterate (so a k_lag far above the load's
    scale raises as on the other routes), and maps back through A_inv; for
    constant a it reduces algebraically to the direct update.
    """
    g = u.grid
    source, _ = _truncated_source(u, frozen.A_nu, n)
    K0 = ScalarField(g, kirchhoff_A(m, k_lag.values))
    K, report = solve_spd(unit_operator(g), ScalarField(g, source), tol=inner_tol, x0=K0,
                          loose_tol=loose_tol)
    K_vals, clamp_count = _clamp(K.values)
    return KStep(ScalarField(g, kirchhoff_A_inv(m, K_vals)), clamp_count, report)


def _chi_k_step(
    f: ScalarField, u: ScalarField, k_lag: ScalarField, frozen: FrozenCoefficients,
    m: ViscosityModel, n: int, inner_tol: float = INNER_TOL, loose_tol: float = 0.0,
) -> KStep:
    """chi-route k-update: solve A(a_n(k_lag)) chi = f u, then k = max(0, chi - u^2/(2 gamma)).

    With a_n = gamma nu_n that is A_nu chi = f u / gamma, solved on the
    frozen A_nu (see :func:`_k_operator`); the source f u needs no
    operator.  The inner solve starts from k_lag + u^2/(2 gamma); a
    negative k_lag fails m's domain check first, as on the direct route.
    """
    m._check_domain(k_lag.values)
    op, c = _k_operator(frozen, m)
    half_u2 = 0.5 / m.gamma * u.values**2
    chi, report = solve_spd(op, ScalarField(u.grid, f.values * u.values / c), tol=inner_tol,
                            x0=ScalarField(u.grid, k_lag.values + half_u2), loose_tol=loose_tol)
    k_vals, clamp_count = _clamp(chi.values - half_u2)
    return KStep(ScalarField(u.grid, k_vals), clamp_count, report, chi)


def _final_report(n, u, k, frozen, m, iterations, converged, increment, clamp_count):
    """The report of the pair (u, k), from the coefficients frozen at k.

    The source and the energy come from its A(nu_n), the k-residual and the
    dissipation from A(a_n) = c A of :func:`_k_operator`: c A(nu_n) itself
    on a proportional pair, A(a_n) built here once otherwise.  Each energy
    is read off its operator.
    """
    A_a, c = _k_operator(frozen, m)
    source, src_clip = _truncated_source(u, frozen.A_nu, n)
    scale = max(float(np.linalg.norm(source)), 1e-300)
    k_residual = float(np.linalg.norm(c * A_a.apply(k.values) - source)) / scale
    return SolveReport(
        n=n,
        outer_iterations=iterations,
        converged=converged,
        final_increment=increment,
        energy=frozen.A_nu.energy(u),
        dissipation=c * A_a.energy(k),
        linf_u=linf_norm(u),
        linf_k=linf_norm(k),
        truncation_active=bool(frozen.clipped or src_clip),
        clamp_count=clamp_count,
        k_residual=k_residual,
    )


def _ratio(a: float, b: float) -> float:
    """min(1, a/b) for a, b >= 0; 1 wherever a >= b, b = 0 included."""
    return 1.0 if a >= b else a / b


def _anderson(history, omega):
    """The type-II Anderson iterate from ``history``, or None where it has a negative or non-finite cell.

    ``history`` holds two or more (k_i, f_i = G(k_i) - k_i), oldest first,
    G the k-update.  With dK and dF the differences of consecutive k_i and
    f_i, and gamma minimising |f - dF gamma|_2 for the last (k, f), solved
    through its small normal equations, the iterate is the damped plain
    step k + omega f corrected along the history: k + omega f -
    (dK + omega dF) gamma (Walker & Ni 2011).
    """
    K = np.stack([k.reshape(-1) for k, _ in history])
    F = np.stack([r.reshape(-1) for _, r in history])
    dK, dF = np.diff(K, axis=0), np.diff(F, axis=0)
    with np.errstate(all="ignore"):  # a step that is not finite is refused below
        try:
            gamma = np.linalg.lstsq(dF @ dF.T, dF @ F[-1], rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
        mixed = K[-1] + omega * F[-1] - (dK + omega * dF).T @ gamma
    if not (np.all(np.isfinite(mixed)) and mixed.min() >= 0.0):
        return None
    return mixed.reshape(history[-1][0].shape)


class _Carry:
    """What a sweep level hands on to the next: the contraction ratio rho it measured last.

    rho is increment / prev_increment of the iteration that converged the
    level, and 0 after a level that ran one iteration or did not converge;
    0 also starts a sweep.  The next level, warm-started from this one,
    runs its first inner solves to FORCING * rho (see ``_picard``).
    """

    def __init__(self):
        self.rho = 0.0


def _picard(m, n, f, cfg, u0, k0, k_step, carry=None):
    """Picard iteration alternating the u-solve and ``k_step``.

    Stops when max(|du|_inf, |dk|_inf) <= tol in an iteration whose inner
    solves all certify: each met ``cfg.inner_tol`` or stopped at the
    rounding floor, where no smaller residual can be computed.  The inner
    solves of the other iterations are inexact: once a contraction ratio
    rho = increment_j / increment_{j-1} has been measured, each may stop at
    relative residual FORCING * min(1, rho) * min(1, rel), rel the last
    relative increment max(|du|/|u|, |dk|/|k|), a tenth of the predicted
    next one (never below inner_tol).  The first iteration measures no
    ratio.  A sweep level warm-started from a level that converged in two
    or more iterations takes that level's last ratio instead (``carry``,
    see :class:`_Carry`): its first inner solves stop at FORCING * rho, and
    its second at FORCING * rho * min(1, rel).  Otherwise the first two
    iterations run to inner_tol.  So does the one after a small increment
    that a loose solve produced.  The plain k-update is
    k <- (1-w) k + w G(k), G the k-update ``k_step``, with w = 1 until the
    increment first grows and w = 0.5 for the rest of the level.

    The first iteration, the third or later, whose increment exceeds
    SLOW_CONTRACTION = 0.5 times the previous one switches Anderson mixing
    on for the rest of the level.  Each mixing iteration adds (k, G(k) - k)
    to a history of the last ANDERSON_DEPTH + 1 and takes the type-II
    Anderson iterate of :func:`_anderson`, damped by the same w.  A mixed
    iterate with a negative or non-finite cell is replaced by the plain
    step, and the history is cleared.  On a mixing iteration the k
    increment is the Picard residual |G(k) - k|_inf, not the length of the
    mixed step, so a short mixed step cannot end a level.  No level of the
    direct 129^2 sweep or the Kirchhoff 129^2 solve at amplitude 50 mixes.

    On convergence u
    is re-solved once at the final k, so the pair satisfies the u-equation
    to inner-solve accuracy.  Every inner solve starts from the current
    iterate, so one whose start already meets inner_tol costs a single
    matvec and no CG iteration, and a start whose residual overflows
    float64 raises LinearSolveError.  Returns (u, k, report, last KStep).
    """
    # used as given: nothing writes a start (solve_spd copies x0, and the loop rebinds u and k)
    u = u0 if u0 is not None else ScalarField.zeros(f.grid)
    k = k0 if k0 is not None else ScalarField.zeros(f.grid)
    omega = 1.0
    mixing = False
    history = []  # (k, G(k) - k) of the last ANDERSON_DEPTH + 1 mixing iterations
    clamp_total = 0
    increment = float("inf")
    prev_increment = float("inf")
    carried = carry.rho if carry is not None else 0.0
    loose_tol = FORCING * carried  # stop target of the next inner solves; 0 runs them to inner_tol
    converged = False

    for iterations in range(1, cfg.max_outer + 1):
        u_new, u_solve, frozen = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol, u0=u,
                                                 loose_tol=loose_tol)
        kstep = k_step(u_new, k, frozen, m, n, inner_tol=cfg.inner_tol, loose_tol=loose_tol)
        clamp_total += kstep.clamp_count
        plain = (1.0 - omega) * k.values + omega * kstep.field.values
        du = linf_norm(ScalarField(u.grid, u_new.values - u.values))
        dk = linf_norm(ScalarField(k.grid, plain - k.values))
        if iterations >= 3 and max(du, dk) > SLOW_CONTRACTION * prev_increment:
            mixing = True  # for the rest of the level
        if mixing:
            residual = kstep.field.values - k.values
            history = history[-ANDERSON_DEPTH:] + [(k.values, residual)]
            k_vals = _anderson(history, omega) if len(history) > 1 else plain
            if k_vals is None:  # the plain step, and the history starts again after it
                k_vals, history = plain, []
            dk = linf_norm(ScalarField(k.grid, residual))  # a short mixed step cannot end the level
        else:
            k_vals = plain
        k_new = ScalarField(k.grid, k_vals)
        increment = max(du, dk)
        certified = all(r.relative_residual <= cfg.inner_tol or r.at_floor
                        for r in (u_solve, kstep.report))
        u, k = u_new, k_new
        if increment <= cfg.tol and certified:
            converged = True
            break
        if increment > prev_increment:
            omega = 0.5
        # the first iteration measures no ratio: the second takes the one handed on
        rho = _ratio(increment, prev_increment) if iterations > 1 else carried
        rel = max(_ratio(du, linf_norm(u)), _ratio(dk, linf_norm(k)))
        loose_tol = FORCING * rho * rel if increment > cfg.tol else 0.0
        prev_increment = increment

    # the final k's coefficients, evaluated once: the re-solve and the report share them
    if converged:
        u, _, frozen = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol, u0=u)
    else:
        frozen = _freeze(m, k, n)
    report = _final_report(n, u, k, frozen, m, iterations, converged, increment, clamp_total)
    if carry is not None:
        carry.rho = _ratio(increment, prev_increment) if converged else 0.0
    return u, k, report, kstep


def picard_solve(
    m: ViscosityModel,
    n: int,
    f: ScalarField,
    cfg: PicardConfig,
    u0: Optional[ScalarField] = None,
    k0: Optional[ScalarField] = None,
    k_update: str = "direct",
    *,
    _carry: Optional[_Carry] = None,
) -> tuple[ScalarField, ScalarField, SolveReport]:
    """Coupled solve on the ``direct`` or ``kirchhoff`` k-update.

    The returned u is re-solved at the final k, so the pair satisfies the
    u-equation to inner-solve accuracy (the k-equation keeps its lag
    residual, reported as ``k_residual``).  Non-convergence is returned,
    not raised: the report carries the iteration count and last
    increment; linear-solve failures propagate as exceptions.
    """
    n = _check_level(n)  # an int level for the report
    if k_update not in ("direct", "kirchhoff"):
        raise ValueError(f"unknown k_update {k_update!r}")
    step = solve_k_given_u if k_update == "direct" else kirchhoff_k_solve
    u, k, report, _ = _picard(m, n, f, cfg, u0, k0, step, _carry)
    return u, k, report


def chi_decoupled_solve(
    m: ViscosityModel,
    n: int,
    f: ScalarField,
    cfg: PicardConfig,
    u0: Optional[ScalarField] = None,
    k0: Optional[ScalarField] = None,
    *,
    _carry: Optional[_Carry] = None,
) -> tuple[ScalarField, ScalarField, ScalarField, SolveReport]:
    """Proportional-pair route through chi = k + u^2/(2 gamma).

    Iterates: solve u with coefficient nu_n(k); solve chi from
    A(a_n(k)) chi = f u; recover k = max(0, chi - u^2/(2 gamma)).
    Requires gamma set (a = gamma * nu): ``check_route`` raises H2 before
    any solve otherwise.  At every gamma its fixed points coincide with
    the direct route's whenever the source cap min(n, D) binds nowhere.
    As on the other routes, u is re-solved at the final k on convergence;
    the returned chi is the last iterate's.
    """
    n = _check_level(n)  # an int level for the report
    check_route("chi", m)
    u, k, report, kstep = _picard(m, n, f, cfg, u0, k0, partial(_chi_k_step, f), _carry)
    return u, k, kstep.chi, report


@dataclass
class SweepEntry:
    """One truncation level of a sweep plus differences to the previous one."""

    report: SolveReport
    u: ScalarField
    k: ScalarField
    chi: Optional[ScalarField] = None
    diff_u: Optional[float] = None  # |u_n - u_prev|_inf, None for the first entry
    diff_k: Optional[float] = None


def check_levels(n_list) -> list[int]:
    """The truncation levels of a sweep: at least one, each a positive integer, strictly ascending."""
    levels = [_check_level(n) for n in n_list]
    if len(levels) == 0:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be strictly ascending")
    return levels


def check_route(route: str, m: ViscosityModel) -> None:
    """Raise unless ``route`` is one of ROUTES and ``m`` admits it.

    An unknown route is a ValueError; the chi route on a pair without
    gamma breaks H2 (it reformulates the k-equation through a = gamma nu).
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route == "chi" and m.gamma is None:
        raise HypothesisViolation("H2", "the chi route needs a proportional pair (gamma set)")


def n_sweep(
    m: ViscosityModel,
    f: ScalarField,
    n_list,
    cfg: PicardConfig,
    route: str = "direct",
) -> list[SweepEntry]:
    """Solve along ascending truncation levels, warm-starting each level.

    Individual non-convergences are recorded in the per-level reports and
    the sweep continues; consecutive-level solution differences land in
    the entries.  Once no truncation is active the discrete problems
    coincide, so the differences collapse to iteration noise.  Each level
    also hands the next the contraction ratio it measured last, through
    the private ``_carry`` of :func:`picard_solve` and
    :func:`chi_decoupled_solve` (see :class:`_Carry`): every level stays
    one call of a public level solve, which the benchmark's tracer times.
    """
    levels = check_levels(n_list)
    check_route(route, m)

    entries: list[SweepEntry] = []
    u_prev = None
    k_prev = None
    carry = _Carry()
    for n in levels:
        chi = None
        if route == "chi":
            u, k, chi, report = chi_decoupled_solve(m, n, f, cfg, u0=u_prev, k0=k_prev,
                                                    _carry=carry)
        else:
            u, k, report = picard_solve(m, n, f, cfg, u0=u_prev, k0=k_prev, k_update=route,
                                        _carry=carry)
        entry = SweepEntry(report=report, u=u, k=k, chi=chi)
        if u_prev is not None:
            entry.diff_u = linf_norm(ScalarField(f.grid, u.values - u_prev.values))
            entry.diff_k = linf_norm(ScalarField(f.grid, k.values - k_prev.values))
        entries.append(entry)
        u_prev, k_prev = u, k
    return entries
