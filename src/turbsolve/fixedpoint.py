"""Coupled solvers for the truncated approximating problems.

For a truncation level n >= 1 the coupled system reads, cellwise on the
grid with the operators of :mod:`turbsolve.linsolve`:

    A(min(n, nu(k))) u = f
    A(a_n(k))        k = min(n, D(u, min(n, nu(k))))

where a_n = gamma * min(n, nu(.)) for proportional pairs (gamma set) and
min(n, a(.)) otherwise, and D(u, c) is the cell dissipation density
produced by :func:`dissipation_source`.

D is built per face and averaged to cells from the same flat stencil
weights as the assembled operator (:func:`turbsolve._kernels.stencil_weights`).
That choice makes two substitution identities hold *algebraically* (not
just to O(h^2)):

* tested with u itself, the u-equation gives the energy identity
  sum f u m = weighted_energy(nu_n(k), u);
* A(c)(u^2/2) = u * A(c)u - D(u, c) cellwise, so for proportional pairs
  with gamma = 1 the auxiliary unknown chi = k + (gamma/2) u^2 solves
  A(a_n(k)) chi = f u exactly whenever (u, k) solves the pair above.

The verification module and the cross-route checks rely on both.

Existence theory for the truncated pair is non-constructive, so the
solver is a Picard iteration with lagged coefficients: its fixed points
are exactly the discrete solutions.  A level takes the full k-update
until the increment first grows, then half of it for the rest of the
level.  The inner solves are inexact in the sense of inexact Newton
methods (Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996): an
iterate that the next outer iteration will overwrite is solved only to a
tenth of the predicted next increment, and convergence is certified only
by an iteration whose inner solves all met the full inner tolerance.
Three k-updates are offered:
``direct`` (solve the k-equation with frozen coefficient), ``kirchhoff``
(solve -Lap K = source with K = A(k) from zero, which the exact Poisson
preconditioner finishes in one CG iteration, then map back through
A_inv), and the chi route (proportional pairs only).  One driver runs all
three; they differ only in the k-update step it is given.
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
    kirchhoff_A_inv,
    truncated_coefficients,
)
from .grid import ScalarField, linf_norm, weighted_energy
from .linsolve import INNER_TOL, LinearSolveReport, assemble, solve_spd

ROUTES = ("direct", "kirchhoff", "chi")

# An inner solve of a non-certifying outer iteration stops at this fraction
# of the predicted next relative increment
FORCING = 0.1


@dataclass
class PicardConfig:
    """Outer-iteration controls.

    Without a warm start u and k begin at zero.  inner_tol is the
    relative residual of the certifying inner solves: those of the first
    two outer iterations, of the one that converges and of the final u
    re-solve; the others stop earlier (see ``_picard``).
    """

    tol: float = 1e-10
    max_outer: int = 200
    inner_tol: float = INNER_TOL

    def __post_init__(self):
        # each check is written to fail on NaN as well
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not (_is_integer(self.max_outer) and self.max_outer >= 1):
            raise ValueError(f"max_outer must be a positive integer, got {self.max_outer!r}")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")


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


def dissipation_source(u: ScalarField, c: ScalarField) -> ScalarField:
    """Cell dissipation density: face-quadrature average of c |grad u|^2.

    Per cell, half the sum over its four faces of c_f |du|_f^2 with the
    face coefficient averaged arithmetically (wall faces use the inner
    cell) and wall faces at half weight.  Cells tile the faces, so
    interior faces are shared by two cells; summed against any cell field
    this reproduces the operator pairing exactly.  Passing c = 1 yields
    the discrete |grad u|^2 cell quantity.  The face terms come from the
    flat stencil weights that :func:`~turbsolve.linsolve.assemble` gives
    the operator A(c).
    """
    if u.grid != c.grid:
        raise ValueError("field and coefficient live on different grids")
    g = u.grid
    weights = _kernels.stencil_weights(c.values, g.hx, g.hy)
    return ScalarField(g, _kernels.dissipation_cells(u.values, *weights))


def _truncated_source(u: ScalarField, nu_n: np.ndarray, n: int):
    """k-equation source min(n, D(u, nu_n)) and whether the cap bound anywhere."""
    raw = dissipation_source(u, ScalarField(u.grid, nu_n)).values
    return np.minimum(float(n), raw), bool(np.any(raw > n))


def _clamp(values: np.ndarray):
    """Zero the negative cells; returns the clamped values and how many were zeroed."""
    negative = values < 0
    count = int(np.count_nonzero(negative))
    return (np.where(negative, 0.0, values) if count else values), count


def solve_u_given_k(
    k: ScalarField, m: ViscosityModel, n: int, f: ScalarField, inner_tol: float = INNER_TOL,
    u0: Optional[ScalarField] = None, loose_tol: Optional[float] = None,
) -> tuple[ScalarField, LinearSolveReport]:
    """u-solve with frozen coefficient min(n, nu(k)), the inner solve started from u0.

    Returns u and the inner solve's report.  Here and in the k-updates,
    ``inner_tol`` and ``loose_tol`` are the tol and loose_tol of
    :func:`~turbsolve.linsolve.solve_spd`.
    """
    nu_n, _, _ = truncated_coefficients(m, k.values, n)
    op = assemble(ScalarField(k.grid, nu_n))
    return solve_spd(op, f, tol=inner_tol, x0=u0, loose_tol=loose_tol)


def solve_k_given_u(
    u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int, inner_tol: float = INNER_TOL,
    loose_tol: Optional[float] = None,
) -> KStep:
    """One lagged k-update: coefficient and source frozen at k_lag.

    The inner solve starts from k_lag.  The solve result is clamped at
    zero; the monotone operator makes negative cells impossible for this
    nonnegative source, so any clamp is a scheme anomaly and is counted.
    """
    nu_n, a_n, _ = truncated_coefficients(m, k_lag.values, n)
    source, _ = _truncated_source(u, nu_n, n)
    op = assemble(ScalarField(u.grid, a_n))
    k, report = solve_spd(op, ScalarField(u.grid, source), tol=inner_tol, x0=k_lag,
                          loose_tol=loose_tol)
    k_vals, clamp_count = _clamp(k.values)
    return KStep(ScalarField(u.grid, k_vals), clamp_count, report)


def kirchhoff_k_solve(
    u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int, inner_tol: float = INNER_TOL,
    loose_tol: Optional[float] = None,
) -> KStep:
    """Alternative k-update through the flux transform.

    With K = A(k) the k-equation becomes constant-coefficient:
    -Lap K = min(n, D(u, nu_n(k_lag))).  The update solves that Poisson
    problem from zero and maps back through A_inv; for constant a it
    reduces algebraically to the direct update.  The CG preconditioner is
    the exact inverse of this operator, so the solve ends after one
    iteration, certified against the recomputed residual like any other.
    """
    g = u.grid
    nu_n, _, _ = truncated_coefficients(m, k_lag.values, n)
    source, _ = _truncated_source(u, nu_n, n)
    op = assemble(ScalarField.full(g, 1.0))
    K, report = solve_spd(op, ScalarField(g, source), tol=inner_tol, loose_tol=loose_tol)
    K_vals, clamp_count = _clamp(K.values)
    return KStep(ScalarField(g, kirchhoff_A_inv(m, K_vals)), clamp_count, report)


def _chi_k_step(
    f: ScalarField, u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int,
    inner_tol: float = INNER_TOL, loose_tol: Optional[float] = None,
) -> KStep:
    """chi-route k-update: solve A(a_n(k_lag)) chi = f u, then k = max(0, chi - (gamma/2) u^2).

    The inner solve starts from k_lag + (gamma/2) u^2.
    """
    _, a_n, _ = truncated_coefficients(m, k_lag.values, n)
    op = assemble(ScalarField(u.grid, a_n))
    half_u2 = 0.5 * m.gamma * u.values**2
    chi, report = solve_spd(op, ScalarField(u.grid, f.values * u.values), tol=inner_tol,
                            x0=ScalarField(u.grid, k_lag.values + half_u2), loose_tol=loose_tol)
    k_vals, clamp_count = _clamp(chi.values - half_u2)
    return KStep(ScalarField(u.grid, k_vals), clamp_count, report, chi)


def _final_report(m, n, u, k, iterations, converged, increment, clamp_count):
    nu_n, a_n, coeff_clip = truncated_coefficients(m, k.values, n)
    source, src_clip = _truncated_source(u, nu_n, n)
    op = assemble(ScalarField(u.grid, a_n))
    resid = op.apply(k.values) - source
    scale = max(float(np.linalg.norm(source)), 1e-300)
    k_residual = float(np.linalg.norm(resid)) / scale
    energy = weighted_energy(ScalarField(u.grid, nu_n), u)
    dissipation = weighted_energy(ScalarField(u.grid, a_n), k)
    return SolveReport(
        n=n,
        outer_iterations=iterations,
        converged=converged,
        final_increment=increment,
        energy=energy,
        dissipation=dissipation,
        linf_u=linf_norm(u),
        linf_k=linf_norm(k),
        truncation_active=bool(coeff_clip or src_clip),
        clamp_count=clamp_count,
        k_residual=k_residual,
    )


def _ratio(a: float, b: float) -> float:
    """min(1, a/b) for a, b >= 0; 1 wherever a >= b, b = 0 included."""
    return 1.0 if a >= b else a / b


def _picard(m, n, f, cfg, u0, k0, k_step):
    """Picard iteration alternating the u-solve and ``k_step``.

    Stops when max(|du|_inf, |dk|_inf) <= tol in an iteration whose inner
    solves all certified ``cfg.inner_tol``.  The inner solves of the other
    iterations are inexact: once a contraction ratio rho = increment_j /
    increment_{j-1} has been measured, each may stop at relative residual
    FORCING * min(1, rho) * min(1, rel), rel the last relative increment
    max(|du|/|u|, |dk|/|k|), a tenth of the predicted next one (never below
    inner_tol).  So the first two iterations run to inner_tol, and so does
    the one after a small increment that a loose solve produced.  The
    k-update is k <- (1-w) k_prev + w k_new with w = 1 until the increment
    first grows and w = 0.5 for the rest of the level.  On convergence u
    is re-solved once at the final k, so the pair satisfies the u-equation
    to inner-solve accuracy.  Every inner solve starts from the current
    iterate, so one whose start already meets inner_tol costs a single
    matvec and no CG iteration.  Returns (u, k, report, last KStep).
    """
    u = u0.copy() if u0 is not None else ScalarField.zeros(f.grid)
    k = k0.copy() if k0 is not None else ScalarField.zeros(f.grid)
    omega = 1.0
    clamp_total = 0
    increment = float("inf")
    prev_increment = float("inf")
    loose_tol = None  # stop target of the next inner solves; None runs them to inner_tol
    converged = False

    for iterations in range(1, cfg.max_outer + 1):
        u_new, u_solve = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol, u0=u,
                                         loose_tol=loose_tol)
        kstep = k_step(u_new, k, m, n, inner_tol=cfg.inner_tol, loose_tol=loose_tol)
        clamp_total += kstep.clamp_count
        k_vals = (1.0 - omega) * k.values + omega * kstep.field.values
        k_new = ScalarField(k.grid, k_vals)
        du = linf_norm(ScalarField(u.grid, u_new.values - u.values))
        dk = linf_norm(ScalarField(k.grid, k_new.values - k.values))
        increment = max(du, dk)
        certified = max(u_solve.relative_residual, kstep.report.relative_residual) <= cfg.inner_tol
        u, k = u_new, k_new
        if increment <= cfg.tol and certified:
            converged = True
            break
        if increment > prev_increment:
            omega = 0.5
        # after the first iteration prev_increment is inf, so rho = 0 keeps the second tight
        rho = _ratio(increment, prev_increment)
        rel = max(_ratio(du, linf_norm(u)), _ratio(dk, linf_norm(k)))
        loose_tol = FORCING * rho * rel if increment > cfg.tol else None
        prev_increment = increment

    if converged:
        u, _ = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol, u0=u)
    report = _final_report(m, n, u, k, iterations, converged, increment, clamp_total)
    return u, k, report, kstep


def picard_solve(
    m: ViscosityModel,
    n: int,
    f: ScalarField,
    cfg: PicardConfig,
    u0: Optional[ScalarField] = None,
    k0: Optional[ScalarField] = None,
    k_update: str = "direct",
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
    u, k, report, _ = _picard(m, n, f, cfg, u0, k0, step)
    return u, k, report


def chi_decoupled_solve(
    m: ViscosityModel,
    n: int,
    f: ScalarField,
    cfg: PicardConfig,
    u0: Optional[ScalarField] = None,
    k0: Optional[ScalarField] = None,
) -> tuple[ScalarField, ScalarField, ScalarField, SolveReport]:
    """Proportional-pair route through chi = k + (gamma/2) u^2.

    Iterates: solve u with coefficient nu_n(k); solve chi from
    A(a_n(k)) chi = f u; recover k = max(0, chi - (gamma/2) u^2).
    Requires gamma set (a = gamma * nu): ``check_route`` raises H2 before
    any solve otherwise.  For gamma = 1 its fixed points coincide with the
    direct route whenever no truncation is active.  As on the other
    routes, u is re-solved at the final k on convergence; the returned chi
    is the last iterate's.
    """
    n = _check_level(n)  # an int level for the report
    check_route("chi", m)
    u, k, report, kstep = _picard(m, n, f, cfg, u0, k0, partial(_chi_k_step, f))
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
    coincide, so the differences collapse to iteration noise.
    """
    levels = check_levels(n_list)
    check_route(route, m)

    entries: list[SweepEntry] = []
    u_prev = None
    k_prev = None
    for n in levels:
        chi = None
        if route == "chi":
            u, k, chi, report = chi_decoupled_solve(m, n, f, cfg, u0=u_prev, k0=k_prev)
        else:
            u, k, report = picard_solve(m, n, f, cfg, u0=u_prev, k0=k_prev, k_update=route)
        entry = SweepEntry(report=report, u=u, k=k, chi=chi)
        if u_prev is not None:
            entry.diff_u = linf_norm(ScalarField(f.grid, u.values - u_prev.values))
            entry.diff_k = linf_norm(ScalarField(f.grid, k.values - k_prev.values))
        entries.append(entry)
        u_prev, k_prev = u, k
    return entries
