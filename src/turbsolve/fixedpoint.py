"""Coupled solvers for the truncated approximating problems.

For a truncation level n >= 1 the coupled system reads, cellwise on the
grid with the operators of :mod:`turbsolve.linsolve`:

    A(min(n, nu(k))) u = f
    A(a_n(k))        k = min(n, D(u, min(n, nu(k))))

where a_n = gamma * min(n, nu(.)) for proportional pairs (gamma set) and
min(n, a(.)) otherwise, and D(u, c) is the cell dissipation density
produced by :func:`dissipation_source`.

D is built per face and averaged to cells with the same face coefficients
and half-weight wall faces as the assembled operator.  That choice makes
two substitution identities hold *algebraically* (not just to O(h^2)):

* tested with u itself, the u-equation gives the energy identity
  sum f u m = weighted_energy(nu_n(k), u);
* A(c)(u^2/2) = u * A(c)u - D(u, c) cellwise, so for proportional pairs
  with gamma = 1 the auxiliary unknown chi = k + (gamma/2) u^2 solves
  A(a_n(k)) chi = f u exactly whenever (u, k) solves the pair above.

The verification module and the cross-route checks rely on both.

Existence theory for the truncated pair is non-constructive, so the
solver is a damped Picard iteration with lagged coefficients: its fixed
points are exactly the discrete solutions.  Three k-updates are offered:
``direct`` (solve the k-equation with frozen coefficient), ``kirchhoff``
(solve -Lap K = source with K = A(k), then map back through A_inv), and
the chi route (proportional pairs only).  One driver runs all three; they
differ only in the k-update step it is given.
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
    kirchhoff_A,
    kirchhoff_A_inv,
    truncated_coefficients,
)
from .grid import Grid, ScalarField, face_average, face_weights, linf_norm, weighted_energy
from .linsolve import INNER_TOL, assemble, solve_spd

ROUTES = ("direct", "kirchhoff", "chi")


@dataclass
class PicardConfig:
    """Outer-iteration controls.

    damping applies to the k-update only: k <- (1-w) k_prev + w k_new.
    With damping 1.0 the iteration falls back to 0.5 for the rest of the
    solve the first time the increment grows.  Without a warm start k
    begins at the constant init_k_value.
    """

    tol: float = 1e-10
    max_outer: int = 200
    damping: float = 1.0
    init_k_value: float = 0.0
    inner_tol: float = INNER_TOL

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


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
    """Result of one k-update: the new k and the negative cells zeroed."""

    field: ScalarField
    clamp_count: int
    chi: Optional[ScalarField] = None  # the chi route's auxiliary unknown


def dissipation_source(u: ScalarField, c: ScalarField) -> ScalarField:
    """Cell dissipation density: face-quadrature average of c |grad u|^2.

    Per cell, half the sum over its four faces of c_f |du|_f^2 with the
    face coefficient averaged arithmetically (wall faces use the inner
    cell) and wall faces at half weight.  Cells tile the faces, so
    interior faces are shared by two cells; summed against any cell field
    this reproduces the operator pairing exactly.  Passing c = 1 yields
    the discrete |grad u|^2 cell quantity.
    """
    if u.grid != c.grid:
        raise ValueError("field and coefficient live on different grids")
    g = u.grid
    cfx, cfy = face_average(c.values)
    kx, ky = face_weights(g)
    vals = _kernels.dissipation_cells(u.values, cfx, cfy, kx, ky, g.hx, g.hy)
    return ScalarField(g, vals)


def _truncated_source(u: ScalarField, nu_n: np.ndarray, n: int):
    """k-equation source min(n, D(u, nu_n)) and whether the cap bound anywhere."""
    raw = dissipation_source(u, ScalarField(u.grid, nu_n)).values
    return np.minimum(float(n), raw), bool(np.any(raw > n))


def _clamp(values: np.ndarray):
    """Zero the negative cells; returns the clamped values and how many were zeroed."""
    negative = values < 0
    count = int(np.count_nonzero(negative))
    return (np.where(negative, 0.0, values) if count else values), count


def _nonnegative(field: ScalarField, name: str):
    if np.any(field.values < 0):
        raise ValueError(f"{name} must be nonnegative cellwise")


def solve_u_given_k(
    k: ScalarField, m: ViscosityModel, n: int, f: ScalarField, inner_tol: float = INNER_TOL
) -> ScalarField:
    """u-solve with frozen coefficient min(n, nu(k))."""
    n = _check_level(n)
    _nonnegative(k, "k")
    nu_n, _, _ = truncated_coefficients(m, k.values, n)
    op = assemble(ScalarField(k.grid, nu_n))
    u, _ = solve_spd(op, f, tol=inner_tol)
    return u


def solve_k_given_u(
    u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int, inner_tol: float = INNER_TOL
) -> KStep:
    """One lagged k-update: coefficient and source frozen at k_lag.

    The solve result is clamped at zero; the monotone operator makes
    negative cells impossible for this nonnegative source, so any clamp
    is a scheme anomaly and is counted.
    """
    n = _check_level(n)
    _nonnegative(k_lag, "k_lag")
    nu_n, a_n, _ = truncated_coefficients(m, k_lag.values, n)
    source, _ = _truncated_source(u, nu_n, n)
    op = assemble(ScalarField(u.grid, a_n))
    k, _ = solve_spd(op, ScalarField(u.grid, source), tol=inner_tol)
    k_vals, clamp_count = _clamp(k.values)
    return KStep(ScalarField(u.grid, k_vals), clamp_count)


def kirchhoff_k_solve(
    u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int, inner_tol: float = INNER_TOL
) -> KStep:
    """Alternative k-update through the flux transform.

    With K = A(k) the k-equation becomes constant-coefficient:
    -Lap K = min(n, D(u, nu_n(A_inv(K_lag)))).  The update solves that
    Poisson problem and maps back through A_inv; for constant a it
    reduces algebraically to the direct update.
    """
    n = _check_level(n)
    _nonnegative(k_lag, "k_lag")
    g = u.grid
    k_back = kirchhoff_A_inv(m, kirchhoff_A(m, k_lag.values))
    nu_n, _, _ = truncated_coefficients(m, k_back, n)
    source, _ = _truncated_source(u, nu_n, n)
    op = assemble(ScalarField.full(g, 1.0))
    K, _ = solve_spd(op, ScalarField(g, source), tol=inner_tol)
    K_vals, clamp_count = _clamp(K.values)
    return KStep(ScalarField(g, kirchhoff_A_inv(m, K_vals)), clamp_count)


def _chi_k_step(
    f: ScalarField, u: ScalarField, k_lag: ScalarField, m: ViscosityModel, n: int,
    inner_tol: float = INNER_TOL,
) -> KStep:
    """chi-route k-update: solve A(a_n(k_lag)) chi = f u, then k = max(0, chi - (gamma/2) u^2)."""
    _, a_n, _ = truncated_coefficients(m, k_lag.values, n)
    op = assemble(ScalarField(u.grid, a_n))
    chi, _ = solve_spd(op, ScalarField(u.grid, f.values * u.values), tol=inner_tol)
    k_vals, clamp_count = _clamp(chi.values - 0.5 * m.gamma * u.values**2)
    return KStep(ScalarField(u.grid, k_vals), clamp_count, chi)


def _initial_state(grid: Grid, cfg: PicardConfig, u0, k0):
    u = u0.copy() if u0 is not None else ScalarField.zeros(grid)
    k = k0.copy() if k0 is not None else ScalarField.full(grid, cfg.init_k_value)
    _nonnegative(k, "initial k")
    return u, k


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


def _picard(m, n, f, cfg, u0, k0, k_step):
    """Damped Picard iteration alternating the u-solve and ``k_step``.

    Stops when max(|du|_inf, |dk|_inf) <= tol.  With damping 1.0 it
    falls back to 0.5 for the rest of the solve the first time the
    increment grows.  On convergence u is re-solved once at the final k,
    so the pair satisfies the u-equation to inner-solve accuracy.
    Returns (u, k, report, last KStep).
    """
    u, k = _initial_state(f.grid, cfg, u0, k0)
    omega = cfg.damping
    clamp_total = 0
    increment = float("inf")
    prev_increment = float("inf")
    converged = False

    for iterations in range(1, cfg.max_outer + 1):
        u_new = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol)
        kstep = k_step(u_new, k, m, n, inner_tol=cfg.inner_tol)
        clamp_total += kstep.clamp_count
        k_vals = (1.0 - omega) * k.values + omega * kstep.field.values
        k_new = ScalarField(k.grid, k_vals)
        increment = max(linf_norm(ScalarField(u.grid, u_new.values - u.values)),
                        linf_norm(ScalarField(k.grid, k_new.values - k.values)))
        u, k = u_new, k_new
        if increment <= cfg.tol:
            converged = True
            break
        if increment > prev_increment and omega == 1.0:
            omega = 0.5
        prev_increment = increment

    if converged:
        u = solve_u_given_k(k, m, n, f, inner_tol=cfg.inner_tol)
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
    n = _check_level(n)
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
    Requires gamma set (a = gamma * nu); for gamma = 1 its fixed points
    coincide with the direct route whenever no truncation is active.
    As on the other routes, u is re-solved at the final k on
    convergence; the returned chi is the last iterate's.
    """
    n = _check_level(n)
    if m.gamma is None:
        raise HypothesisViolation("H2", "the chi route needs a proportional pair (gamma set)")
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
    levels = [_check_level(n) for n in n_list]
    if len(levels) == 0:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be strictly ascending")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")

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
