"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines for
passing criteria too.  Timing budgets include every solve the criterion
requires.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from turbsolve import (
    PicardConfig,
    ScalarField,
    ViscosityModel,
    assemble,
    dissipation_source,
    energy_identity_residual,
    idee_residual,
    kirchhoff_A,
    kirchhoff_A_inv,
    level_set_profile,
    linf_norm,
    make_grid,
    n_sweep,
    picard_solve,
    sqrt_nu_seminorm,
    stampacchia_exponents,
)
from turbsolve.coeffs import truncated_coefficients
from turbsolve.verify import manufactured_errors, manufactured_forcing

CONSTANT = ViscosityModel(kind="constant", nu1=1.0, a1=1.0, delta=1.0)
HP_UNIT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0,
                         gamma=1.0, delta=1.0)
N_LIST = [1, 2, 4, 8, 16, 32, 64, 128, 256]
SWEEP_CFG = PicardConfig(tol=1e-10, max_outer=200)


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num:02d} {name}: {detail}")
    assert ok, f"criterion-{num:02d} {name}: {detail}"


def nu_n(k, n):
    """The truncated viscosity min(n, nu(k)) of HP_UNIT as a field."""
    return ScalarField(k.grid, truncated_coefficients(HP_UNIT, k.values, n)[0])


def gaussian_source(grid):
    X, Y = grid.cell_centers()
    r2 = (X - 0.5) ** 2 + (Y - 0.5) ** 2
    return ScalarField(grid, np.exp(-r2 / (2.0 * 0.12**2)))


@pytest.fixture(scope="module")
def mms_run():
    """Criterion-1/2 configuration at the finest grid."""
    g = make_grid(65, 65, 1.0, 1.0)
    f = manufactured_forcing(g, 1.0)
    t0 = time.perf_counter()
    u, k, rep = picard_solve(CONSTANT, 64, f, PicardConfig(tol=1e-12))
    elapsed = time.perf_counter() - t0
    assert rep.converged
    return g, f, u, k, rep, elapsed


@pytest.fixture(scope="module")
def direct_sweep():
    g = make_grid(65, 65, 1.0, 1.0)
    f = gaussian_source(g)
    t0 = time.perf_counter()
    entries = n_sweep(HP_UNIT, f, N_LIST, SWEEP_CFG)
    elapsed = time.perf_counter() - t0
    return g, f, entries, elapsed


@pytest.fixture(scope="module")
def chi_sweep():
    g = make_grid(65, 65, 1.0, 1.0)
    f = gaussian_source(g)
    entries = n_sweep(HP_UNIT, f, N_LIST, SWEEP_CFG, route="chi")
    return entries


@pytest.fixture(scope="module")
def kirchhoff_sweep():
    g = make_grid(65, 65, 1.0, 1.0)
    f = gaussian_source(g)
    entries = n_sweep(HP_UNIT, f, N_LIST, SWEEP_CFG, route="kirchhoff")
    return entries


def _tail(entries):
    tail = [e for e in entries if not e.report.truncation_active]
    assert tail, "no stabilized entries"
    return tail


def test_criterion_01_manufactured_convergence():
    t0 = time.perf_counter()
    rows = manufactured_errors([17, 33, 65], nu0=1.0)
    elapsed = time.perf_counter() - t0
    ratios = [rows[i - 1][2] / rows[i][2] for i in range(1, len(rows))]
    ok = all(r >= 3.5 for r in ratios) and elapsed < 10.0
    _report(1, "manufactured-convergence", ok,
            f"ratios={[f'{r:.2f}' for r in ratios]} time={elapsed:.2f}s")


def test_criterion_02_decoupled_oracle(mms_run):
    g, f, u, k, rep, solve_time = mms_run
    t0 = time.perf_counter()

    def lap1d(n, h):
        main = np.full(n, 2.0)
        main[0] = main[-1] = 3.0
        return sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]) / h**2

    A = (sp.kron(lap1d(g.nx, g.hx), sp.identity(g.ny))
         + sp.kron(sp.identity(g.nx), lap1d(g.ny, g.hy))).tocsr()
    source = dissipation_source(u, assemble(ScalarField.full(g, 1.0)))
    oracle = spla.spsolve(A, source.values.ravel()).reshape(g.shape)
    elapsed = solve_time + (time.perf_counter() - t0)
    diff = float(np.max(np.abs(oracle - k.values)))
    ok = diff <= 1e-10 and elapsed < 10.0
    _report(2, "decoupled-oracle", ok, f"|dk|={diff:.2e} time={elapsed:.2f}s")


def test_criterion_03_positivity(mms_run, direct_sweep, chi_sweep, kirchhoff_sweep):
    _, _, u, k, rep, _ = mms_run
    _, _, entries, _ = direct_sweep
    runs = [(k, rep)] + [(e.k, e.report) for e in entries + chi_sweep + kirchhoff_sweep]
    worst_min = min(float(kk.values.min()) for kk, _ in runs)
    clamps = sum(r.clamp_count for _, r in runs)
    ok = worst_min >= 0.0 and clamps == 0
    _report(3, "k-positivity", ok, f"min(k)={worst_min:.2e} clamps={clamps} over {len(runs)} runs")


def test_criterion_04_truncation_stabilization(direct_sweep):
    g, f, entries, elapsed = direct_sweep
    ok = all(e.report.converged for e in entries)
    ok &= entries[0].report.truncation_active  # the cap must bind somewhere
    tail = _tail(entries)
    ok &= len(tail) >= 2
    diffs = [(e.diff_u, e.diff_k) for e in tail[1:]]
    worst = max(max(du, dk) for du, dk in diffs)
    ok &= worst <= 1e-9
    drifts = []
    for pick in (lambda r: r.linf_u, lambda r: r.energy, lambda r: r.dissipation):
        vals = [pick(e.report) for e in tail]
        drifts.append(max(vals) / min(vals) - 1.0)
    ok &= max(drifts) < 1e-3
    ok &= elapsed < 60.0
    _report(4, "truncation-stabilization", ok,
            f"tail={len(tail)} max|diff|={worst:.2e} max-drift={max(drifts):.2e} time={elapsed:.1f}s")


def test_criterion_05_energy_identity(direct_sweep):
    g, f, entries, _ = direct_sweep
    residuals = [energy_identity_residual(e.u, e.k, f, HP_UNIT, e.report.n)
                 for e in entries if e.report.converged]
    worst = max(residuals)
    ok = len(residuals) == len(entries) and worst <= 1e-8
    _report(5, "energy-identity", ok, f"max residual={worst:.2e} over {len(residuals)} runs")


def test_criterion_06_weak_product_identity(direct_sweep):
    g, f, entries, _ = direct_sweep
    residuals = [idee_residual(e.u, f, assemble(nu_n(e.k, e.report.n)))
                 for e in entries if e.report.converged]
    worst = max(residuals)
    ok = len(residuals) == len(entries) and worst <= 1e-8
    _report(6, "weak-product-identity", ok, f"max residual={worst:.2e} over {len(residuals)} runs")


def test_criterion_07_chi_route_equivalence(direct_sweep, chi_sweep):
    _, _, direct, _ = direct_sweep
    ok = all(e.report.converged for e in chi_sweep)
    du = float(np.max(np.abs(direct[-1].u.values - chi_sweep[-1].u.values)))
    dk = float(np.max(np.abs(direct[-1].k.values - chi_sweep[-1].k.values)))
    ok &= du <= 1e-6 and dk <= 1e-6
    tail = _tail(chi_sweep)
    chi_sup = [linf_norm(ScalarField(e.k.grid, e.k.values + 0.5 * e.u.values**2)) for e in tail]
    drift = max(chi_sup) / min(chi_sup) - 1.0
    ok &= drift < 0.01
    _report(7, "chi-route-equivalence", ok,
            f"|du|={du:.2e} |dk|={dk:.2e} chi-sup drift={drift:.2e}")


def test_criterion_08_kirchhoff_route_equivalence(direct_sweep, kirchhoff_sweep):
    _, _, direct, _ = direct_sweep
    ok = all(e.report.converged for e in kirchhoff_sweep)
    du = float(np.max(np.abs(direct[-1].u.values - kirchhoff_sweep[-1].u.values)))
    dk = float(np.max(np.abs(direct[-1].k.values - kirchhoff_sweep[-1].k.values)))
    ok &= du <= 1e-6 and dk <= 1e-6
    _report(8, "kirchhoff-route-equivalence", ok, f"|du|={du:.2e} |dk|={dk:.2e}")


def test_criterion_09_sqrt_viscosity_seminorm(direct_sweep):
    _, _, entries, _ = direct_sweep
    tail = _tail(entries)
    values = [sqrt_nu_seminorm(nu_n(e.k, e.report.n)) for e in tail]
    drift = max(values) / min(values) - 1.0
    ok = drift < 0.01
    _report(9, "sqrt-viscosity-seminorm", ok, f"value={values[-1]:.4e} drift={drift:.2e}")


def test_criterion_10_level_set_extinction(mms_run, direct_sweep):
    _, _, u_mms, _, _, _ = mms_run
    _, _, entries, _ = direct_sweep
    fields = [u_mms] + [e.u for e in entries]
    ok = True
    details = []
    for u in fields:
        top = linf_norm(u) * (1.0 + 1e-12)
        profile = level_set_profile(u, np.linspace(0.0, top, 50))
        values = [psi for _, psi in profile]
        ok &= values[-1] == 0.0
        ok &= all(a >= b for a, b in zip(values, values[1:]))
        details.append(values[-1])
    _report(10, "level-set-extinction", ok,
            f"psi-above-sup={max(details):.1e} over {len(fields)} fields")


def test_criterion_11_exponent_bookkeeping():
    ok = stampacchia_exponents(2.0) == (6.0, 2.0)
    rejected = False
    try:
        stampacchia_exponents(1.5)
    except ValueError:
        rejected = True
    ok &= rejected
    _report(11, "exponent-bookkeeping", ok, f"rho,beta={stampacchia_exponents(2.0)} r=1.5 rejected={rejected}")


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    TRIALS = 1000
    ok = True

    # flux transform: roundtrip and linear growth floor
    models = [
        HP_UNIT,
        ViscosityModel(kind="physical_sqrt", nu1=2.0, nu2=0.5, a1=1.0, a2=2.0, delta=0.75),
    ]
    for m in models:
        sv = rng.uniform(0.0, 20.0, TRIALS)
        A = kirchhoff_A(m, sv)
        back = kirchhoff_A_inv(m, A)
        ok &= bool(np.max(np.abs(back - sv)) <= 1e-10)
        ok &= bool(np.all(A >= m.delta * sv * (1 - 1e-12)))

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(12, "property-suites", ok, f"{TRIALS} inputs/property time={elapsed:.2f}s")
