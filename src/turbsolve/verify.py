"""Numerical certification of the a-priori estimates on solved fields.

Every check is a pure read-only function over (u, k, f, model, n) that
reuses the solver's own discrete operators, so identities that are
algebraic consequences of the discrete equations hold to inner-solve
accuracy rather than to discretization accuracy.

* energy identity: sum f u m  vs  weighted_energy(nu_n(k), u);
* weak product identity: testing the u-equation with u*phi splits face by
  face into a dissipation term, a load term and a convective term, and the
  three must cancel for every test field;
* level-set profile psi(s) = |{ |u| >= s }| with finite extinction just
  above |u|_inf;
* seminorm of sqrt(nu_n(k)) over interior faces (the wall value of the
  composed field is a nonzero constant, so wall faces are excluded);
* chi = k + (gamma/2) u^2 sup bound for proportional pairs;
* a dyadic-lag log-log slope as a Holder-continuity diagnostic;
* exponent bookkeeping rho = 3r/(3-r), beta = 3(rho-2)/rho for the
  integrability exponent r of the load.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .coeffs import ViscosityModel, truncated_coefficients
from .fixedpoint import PicardConfig, picard_solve
from .grid import Grid, ScalarField, integrate, linf_norm, make_grid, weighted_energy

ABS_FLOOR = 1e-14
_FLUX_EXPONENT = 1.4  # the p < 3/2 at which full_report measures the flux bound
_PROFILE_POINTS = 50  # level-set thresholds from 0 to just above sup |u|


def _certifies(estimate: str, **kwargs):
    """A report field, labelled with the estimate it certifies."""
    return field(metadata={"certifies": estimate}, **kwargs)


@dataclass
class InvariantReport:
    """Measured values of the certified estimates for one solved pair.

    Each field's ``certifies`` metadata names the estimate it measures.
    """

    energy: float = _certifies("energy_bound")
    dissipation: float = _certifies("dissipation_bound")
    lp_a_gradk: float = _certifies("flux_lp_bound")
    lp_exponent: float = _certifies("flux_lp_bound")
    linf_u: float = _certifies("velocity_sup_bound")
    linf_k: float = _certifies("k_sup_bound")
    energy_identity_rel_residual: float = _certifies("energy_identity")
    idee_max_residual: float = _certifies("product_identity")
    sqrt_nu_h1_seminorm: float = _certifies("sqrt_viscosity_h1")
    chi_linf: Optional[float] = _certifies("chi_sup_bound")
    stampacchia_rho: float = _certifies("exponent_bookkeeping")
    stampacchia_beta: float = _certifies("exponent_bookkeeping")
    holder_alpha_u: float = _certifies("holder_diagnostic")
    holder_alpha_k: float = _certifies("holder_diagnostic")
    level_set_profile: list = _certifies("level_set_extinction", default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready fields: non-finite floats (the NaN sentinels, rho = inf
        for r >= 3) become None, profile points lists."""
        d = asdict(self)
        d["level_set_profile"] = [list(point) for point in self.level_set_profile]
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in d.items()}


def energy_identity_residual(
    u: ScalarField, k: ScalarField, f: ScalarField, m: ViscosityModel, n: int
) -> float:
    """|E - sum f u m| / max(|sum f u m|, 1e-14) with E the face energy."""
    nu_n, _, _ = truncated_coefficients(m, k.values, n)
    E = weighted_energy(ScalarField(k.grid, nu_n), u)
    load = integrate(ScalarField(u.grid, f.values * u.values))
    return abs(E - load) / max(abs(load), ABS_FLOOR)


def default_test_fields(grid: Grid) -> list[ScalarField]:
    """Fixed reproducible test family: 9 smooth bumps plus the all-ones field.

    Bumps are (1 - r^2/R^2)_+^2 at the 3x3 lattice of interior positions
    {1/4, 1/2, 3/4} of each edge, with R = 0.2 * min(lx, ly).
    """
    X, Y = grid.cell_centers()
    fields = []
    radius = 0.2 * min(grid.lx, grid.ly)
    for fx in (0.25, 0.5, 0.75):
        for fy in (0.25, 0.5, 0.75):
            cx, cy = fx * grid.lx, fy * grid.ly
            r2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
            fields.append(ScalarField(grid, np.clip(1.0 - r2, 0.0, None) ** 2))
    fields.append(ScalarField.full(grid, 1.0))
    return fields


def idee_residual(
    u: ScalarField,
    k: ScalarField,
    f: ScalarField,
    m: ViscosityModel,
    n: int,
    test_set: Optional[list] = None,
) -> float:
    """Max over test fields phi of the normalized product-identity defect.

    On the flat stencil (w per interior face, wd per wall cell) of
    A(nu_n(k)), testing the discrete u-equation with u*phi splits exactly into
        T1(phi): sum w (du)^2 mean(phi) m + sum wd u^2 phi m  (dissipation)
        T2(phi): sum f u phi m                                 (load)
        T3(phi): sum w mean(u) du dphi m                       (convection)
    with m the cell area; T3 has no wall term, as the mirror mean of u is 0
    there.  |T1 - T2 + T3| equals the inner-solve residual paired with u*phi,
    so converged runs drive it to the solver tolerance.  Each defect is
    scaled by max(1, E * |phi|_inf), E = <A u, u> m.
    """
    if test_set is None:
        test_set = default_test_fields(u.grid)
    g = u.grid
    nu_n, _, _ = truncated_coefficients(m, k.values, n)
    *faces, wd = _kernels.stencil_weights(nu_n, g.hx, g.hy)
    energy = _kernels.stencil_energy(u.values, *faces, wd) * g.cell_area
    uf = u.values.reshape(-1)
    wall = wd * uf * uf
    families = []  # per face family: its offset s, w (du)^2 / 2 and w mean(u) du
    for w in faces:
        du, s = _kernels.face_differences(uf, w)
        flux = w * du
        families.append((s, 0.5 * flux * du, 0.5 * flux * (uf[s:] + uf[:-s])))

    worst = 0.0
    for phi in test_set:
        pf = phi.values.reshape(-1)
        t1 = float(np.dot(wall, pf))
        t3 = 0.0
        for s, dissipation, convection in families:
            t1 += float(np.dot(dissipation, pf[s:] + pf[:-s]))
            t3 += float(np.dot(convection, pf[s:] - pf[:-s]))
        t2 = integrate(ScalarField(g, f.values * u.values * phi.values))
        scale = max(1.0, energy * linf_norm(phi))
        worst = max(worst, abs((t1 + t3) * g.cell_area - t2) / scale)
    return worst


def level_set_profile(u: ScalarField, s_list) -> list[tuple[float, float]]:
    """psi(s) = total area of cells with |u| >= s, for ascending s >= 0."""
    s_arr = np.asarray(s_list, dtype=float)
    # each check is written to fail on NaN as well; inf stays valid (psi = 0)
    if not np.all(s_arr >= 0):
        raise ValueError("level-set thresholds must be nonnegative")
    if not np.all(s_arr[1:] >= s_arr[:-1]):
        raise ValueError("level-set thresholds must be ascending")
    mag = np.abs(u.values)
    m = u.grid.cell_area
    return [(float(s), float(np.count_nonzero(mag >= s) * m)) for s in s_arr]


def stampacchia_exponents(r: float) -> tuple[float, float]:
    """Exponent bookkeeping for a load in L^r: rho = 3r/(3-r), beta = 3(rho-2)/rho.

    Requires r > 3/2 (below that the sup-bound machinery has no negative
    Sobolev exponent to work with).  For r >= 3 the formula leaves its
    domain; the limit values (inf, 3) are returned with a warning.
    """
    if not r > 1.5:  # fails on NaN as well
        raise ValueError(f"the load integrability exponent must exceed 3/2, got r = {r}")
    if r >= 3.0:
        warnings.warn(
            "r >= 3 is outside the exponent formula's domain; returning limit values",
            stacklevel=2,
        )
        return math.inf, 3.0
    rho = 3.0 * r / (3.0 - r)
    beta = 3.0 * (rho - 2.0) / rho
    return rho, beta


def sqrt_nu_seminorm(k: ScalarField, m: ViscosityModel, n: int) -> float:
    """L2 norm of the interior face gradient of sqrt(min(n, nu(k))).

    Wall faces are excluded: the composed field equals sqrt(nu_n(0)) on the
    walls, a nonzero constant, so the Dirichlet mirror would manufacture
    spurious gradients there.  Constant fields give exactly zero.
    """
    g = k.grid
    root = np.sqrt(truncated_coefficients(m, k.values, n)[0])
    gx = (root[1:, :] - root[:-1, :]) / g.hx
    gy = (root[:, 1:] - root[:, :-1]) / g.hy
    m_cell = g.cell_area
    return math.sqrt(float(np.sum(gx * gx) + np.sum(gy * gy)) * m_cell)


def chi_bound_check(u: ScalarField, k: ScalarField, gamma: float) -> float:
    """Sup norm of chi = k + (gamma/2) u^2 (proportional pairs)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return linf_norm(ScalarField(u.grid, k.values + 0.5 * gamma * u.values**2))


def holder_diagnostic(v: ScalarField) -> float:
    """Log-log slope of max |v(x)-v(y)| over axis-aligned pairs at dyadic lags.

    Lags run over h, 2h, 4h, ... up to a quarter of the edge length, per
    axis.  The least-squares slope is clamped to (0, 1]; constant fields
    (and degenerate nonincreasing data) report NaN as a sentinel.
    """
    g = v.grid
    vals = v.values
    if float(vals.max() - vals.min()) == 0.0:
        return float("nan")
    pts = []
    for axis, (count, h) in enumerate(((g.nx, g.hx), (g.ny, g.hy))):
        lag = 1
        while lag * h <= 0.25 * (g.lx if axis == 0 else g.ly) and lag < count:
            if axis == 0:
                diff = np.abs(vals[lag:, :] - vals[:-lag, :])
            else:
                diff = np.abs(vals[:, lag:] - vals[:, :-lag])
            top = float(diff.max())
            if top > 0.0:
                pts.append((math.log(lag * h), math.log(top)))
            lag *= 2
    if len(pts) < 2:
        return float("nan")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope <= 0.0:
        return float("nan")
    return min(slope, 1.0)


def lp_flux_norm(k: ScalarField, m: ViscosityModel, n: int, p: float) -> float:
    """(integral |a_n(k) grad k|^p)^(1/p) on faces, p < 3/2.

    Each face carries half its quadrature measure so the x- and y-face
    families together tile the domain exactly once; with that measure the
    Holder interpolation bound between exponents holds with the plain
    domain measure.  An interior face of flat stencil weight w has flux
    w h |dk|; a wall face has |2 a_n k / h| of its cell, read off the boundary
    rows, because wd merges a corner cell's x and y wall faces.
    """
    if not 1.0 <= p < 1.5:
        raise ValueError(f"the flux exponent must lie in [1, 3/2), got p = {p}")
    g = k.grid
    _, a_n, _ = truncated_coefficients(m, k.values, n)
    wx, wy, _ = _kernels.stencil_weights(a_n, g.hx, g.hy)
    kf = k.values.reshape(-1)
    interior = 0.0
    for w, h in ((wx, g.hx), (wy, g.hy)):
        dk, _ = _kernels.face_differences(kf, w)
        interior += float(np.sum(np.abs(w * h * dk) ** p))
    wall = np.abs(a_n * k.values)  # the flux times h/2 on a wall face
    walls = (2.0 / g.hx) ** p * float(np.sum(wall[0, :] ** p) + np.sum(wall[-1, :] ** p))
    walls += (2.0 / g.hy) ** p * float(np.sum(wall[:, 0] ** p) + np.sum(wall[:, -1] ** p))
    total = (interior + 0.5 * walls) * (0.5 * g.cell_area)
    return total ** (1.0 / p)


def full_report(
    u: ScalarField,
    k: ScalarField,
    f: ScalarField,
    m: ViscosityModel,
    n: int,
    r: float = 2.0,
) -> InvariantReport:
    """Populate every certified estimate for one converged pair, for a load in L^r."""
    nu_n, a_n, _ = truncated_coefficients(m, k.values, n)
    linf_u = linf_norm(u)
    s_top = linf_u * (1.0 + 1e-12)
    if s_top > 0:
        s_list = np.linspace(0.0, s_top, _PROFILE_POINTS)
    else:
        s_list = np.array([0.0])
    rho, beta = stampacchia_exponents(r)
    chi_linf = chi_bound_check(u, k, m.gamma) if m.gamma is not None else None
    return InvariantReport(
        energy=weighted_energy(ScalarField(k.grid, nu_n), u),
        dissipation=weighted_energy(ScalarField(k.grid, a_n), k),
        lp_a_gradk=lp_flux_norm(k, m, n, _FLUX_EXPONENT),
        lp_exponent=_FLUX_EXPONENT,
        linf_u=linf_u,
        linf_k=linf_norm(k),
        energy_identity_rel_residual=energy_identity_residual(u, k, f, m, n),
        idee_max_residual=idee_residual(u, k, f, m, n),
        sqrt_nu_h1_seminorm=sqrt_nu_seminorm(k, m, n),
        chi_linf=chi_linf,
        stampacchia_rho=rho,
        stampacchia_beta=beta,
        holder_alpha_u=holder_diagnostic(u),
        holder_alpha_k=holder_diagnostic(k),
        level_set_profile=level_set_profile(u, s_list),
    )


# -- manufactured-solution harness --------------------------------------


def manufactured_solution(grid: Grid) -> ScalarField:
    """u*(x,y) = sin(pi x / lx) sin(pi y / ly), zero on the walls."""
    return ScalarField.from_function(
        grid, lambda X, Y: np.sin(np.pi * X / grid.lx) * np.sin(np.pi * Y / grid.ly)
    )


def manufactured_forcing(grid: Grid, nu0: float = 1.0) -> ScalarField:
    """Load with -nu0 Lap u* = f for the manufactured u*."""
    factor = nu0 * np.pi**2 * (1.0 / grid.lx**2 + 1.0 / grid.ly**2)
    return ScalarField(grid, factor * manufactured_solution(grid).values)


def manufactured_errors(sizes, nu0: float = 1.0, cfg: Optional[PicardConfig] = None):
    """Solve the constant-coefficient pair on each grid and measure the
    sup error of u against the manufactured solution.

    Returns a list of (nx, h, error) rows; consecutive error ratios certify
    the second-order accuracy of the scheme.
    """
    cfg = cfg or PicardConfig(tol=1e-12)
    model = ViscosityModel(kind="constant", nu1=nu0, a1=nu0, delta=min(nu0, 1.0))
    # pick the cap above the dissipation sup nu0*|grad u*|^2 <= nu0*pi^2 so
    # no truncation binds and the runs solve the plain pair
    level = max(16, 2 ** math.ceil(math.log2(4.0 * math.pi**2 * nu0)))
    rows = []
    for size in sizes:
        g = make_grid(size, size, 1.0, 1.0)
        f = manufactured_forcing(g, nu0)
        u, _, report = picard_solve(model, level, f, cfg)
        if not report.converged:
            raise RuntimeError(f"manufactured run failed to converge on {size}x{size}")
        err = linf_norm(ScalarField(g, u.values - manufactured_solution(g).values))
        rows.append((size, g.hx, err))
    return rows
