import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from turbsolve import (
    HypothesisViolation,
    PicardConfig,
    ScalarField,
    ViscosityModel,
    assemble,
    chi_decoupled_solve,
    dissipation_source,
    energy_identity_residual,
    full_report,
    kirchhoff_k_solve,
    linf_norm,
    make_grid,
    n_sweep,
    picard_solve,
    solve_k_given_u,
    solve_u_given_k,
    weighted_energy,
)
from turbsolve import _kernels, coeffs, fixedpoint, linsolve
from turbsolve.linsolve import INNER_TOL, DiffusionOperator, LinearSolveError
from turbsolve.verify import manufactured_forcing, manufactured_solution

CONSTANT = ViscosityModel(kind="constant", nu1=1.0, a1=1.0, delta=1.0)
HP_UNIT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0,
                         gamma=1.0, delta=1.0)


def gaussian_source(grid, amplitude=1.0, sigma=0.12, centre=(0.5, 0.5)):
    X, Y = grid.cell_centers()
    r2 = (X - centre[0] * grid.lx) ** 2 + (Y - centre[1] * grid.ly) ** 2
    return ScalarField(grid, amplitude * np.exp(-r2 / (2.0 * sigma**2)))


def count_calls(monkeypatch, fn) -> list:
    """Wrap every binding of ``fn`` in the turbsolve modules; the list gets one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "turbsolve" or name.startswith("turbsolve."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def kron_poisson(grid):
    """Independent assembly of the constant-coefficient operator."""
    def lap1d(n, h):
        main = np.full(n, 2.0)
        main[0] = main[-1] = 3.0
        return sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]) / h**2

    return (
        sp.kron(lap1d(grid.nx, grid.hx), sp.identity(grid.ny))
        + sp.kron(sp.identity(grid.nx), lap1d(grid.ny, grid.hy))
    ).tocsr()


class TestSubstitutionIdentity:
    def test_quadratic_split_is_exact(self):
        # A(c)(u^2/2) = u * A(c)u - D(u, c) cellwise: the identity behind
        # the chi route and the weak product check
        rng = np.random.default_rng(21)
        g = make_grid(13, 9, 1.4, 0.7)
        c = ScalarField(g, 0.5 + rng.random(g.shape))
        u = ScalarField(g, rng.standard_normal(g.shape))
        A = assemble(c)
        lhs = A.apply(0.5 * u.values**2)
        rhs = u.values * A.apply(u.values) - dissipation_source(u, A).values
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_constant_coefficient_factors_out(self):
        rng = np.random.default_rng(22)
        g = make_grid(8, 8, 1.0, 1.0)
        u = ScalarField(g, rng.standard_normal(g.shape))
        d1 = dissipation_source(u, assemble(ScalarField.full(g, 1.0))).values
        d3 = dissipation_source(u, assemble(ScalarField.full(g, 3.0))).values
        assert np.allclose(d3, 3.0 * d1, rtol=1e-14)


class TestUSolve:
    def test_zero_forcing(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u, _, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, ScalarField.zeros(g))
        assert not u.values.any()

    def test_constant_model_manufactured(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u, _, _ = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 8, manufactured_forcing(g, 1.0))
        err = linf_norm(ScalarField(g, u.values - manufactured_solution(g).values))
        assert err <= 1e-3

    def test_rejects_negative_k(self, monkeypatch):
        g = make_grid(4, 4, 1.0, 1.0)
        k = ScalarField(g, np.full(g.shape, -0.1))
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(ValueError):
            solve_u_given_k(k, HP_UNIT, 4, ScalarField.zeros(g))
        assert not solves

    def test_swap_symmetry(self):
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g)
        k = ScalarField(g, gaussian_source(g, amplitude=0.3).values)
        u, _, _ = solve_u_given_k(k, HP_UNIT, 16, f)
        assert np.max(np.abs(u.values - u.values.T)) <= 1e-12


class TestKSolve:
    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        frozen = fixedpoint._freeze(HP_UNIT, ScalarField.zeros(g), 4)
        step = solve_k_given_u(ScalarField.zeros(g), ScalarField.zeros(g), frozen, HP_UNIT, 4)
        assert not step.field.values.any()
        assert step.clamp_count == 0

    def test_decoupled_oracle(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u, _, frozen = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 64,
                                       manufactured_forcing(g, 1.0), inner_tol=1e-13)
        step = solve_k_given_u(u, ScalarField.zeros(g), frozen, CONSTANT, 64, inner_tol=1e-13)
        source = dissipation_source(u, assemble(ScalarField.full(g, 1.0)))
        oracle = spla.spsolve(kron_poisson(g), source.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(step.field.values - oracle)) <= 1e-12

    def test_nonnegative_without_clamping(self):
        g = make_grid(21, 21, 1.0, 1.0)
        u, _, frozen = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 16, gaussian_source(g))
        step = solve_k_given_u(u, ScalarField.zeros(g), frozen, HP_UNIT, 16)
        assert step.clamp_count == 0
        assert step.field.values.min() >= 0.0


class TestPicard:
    def test_constant_model_two_iterations(self):
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, report = picard_solve(CONSTANT, 64, manufactured_forcing(g, 1.0),
                                    PicardConfig(tol=1e-10))
        assert report.converged
        assert report.outer_iterations <= 2
        assert not report.truncation_active

    def test_zero_forcing_single_iteration(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u, k, report = picard_solve(HP_UNIT, 4, ScalarField.zeros(g), PicardConfig(tol=1e-10))
        assert not u.values.any() and not k.values.any()
        assert report.outer_iterations == 1
        assert report.converged

    def test_fixed_point_independent_of_init(self):
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g)
        tol = 1e-11
        u1, k1, r1 = picard_solve(HP_UNIT, 16, f, PicardConfig(tol=tol))
        u2, k2, r2 = picard_solve(HP_UNIT, 16, f, PicardConfig(tol=tol), k0=ScalarField.full(g, 0.5))
        assert r1.converged and r2.converged
        assert np.max(np.abs(u1.values - u2.values)) <= 10 * tol
        assert np.max(np.abs(k1.values - k2.values)) <= 10 * tol

    def test_report_invariants(self):
        g = make_grid(17, 17, 1.0, 1.0)
        cfg = PicardConfig(tol=1e-10)
        u, k, report = picard_solve(HP_UNIT, 8, gaussian_source(g), cfg)
        assert report.converged
        assert report.final_increment <= cfg.tol
        assert report.energy >= 0.0
        assert report.dissipation >= 0.0
        assert report.linf_u == linf_norm(u)
        assert report.linf_k == linf_norm(k)
        assert report.clamp_count == 0
        assert report.k_residual <= 1e-6

    @pytest.mark.parametrize("max_outer", [math.nan, 2.5, 2.0, True, 0, math.inf], ids=repr)
    def test_max_outer_must_be_a_positive_integer(self, max_outer):
        with pytest.raises(ValueError, match=r"^max_outer must be a positive integer, got "):
            PicardConfig(max_outer=max_outer)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("key", ["tol", "inner_tol"])
    def test_tolerances_must_be_finite(self, key, value):
        # an infinite tol or inner_tol would certify the first iterate as converged
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite, got "):
            PicardConfig(**{key: value})

    def test_nonconvergence_reported_not_raised(self):
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, report = picard_solve(HP_UNIT, 8, gaussian_source(g),
                                    PicardConfig(tol=1e-14, max_outer=1))
        assert not report.converged
        assert report.outer_iterations == 1
        assert report.final_increment > 1e-14


class TestNegativeK:
    # the model's domain check is the only k >= 0 check on every route; the
    # direct and chi k-updates, which take their coefficients frozen, run it
    # on k_lag, and the Kirchhoff k-update reaches it through kirchhoff_A(k_lag)
    @pytest.mark.parametrize("call", [
        lambda u, k, f, frozen: solve_k_given_u(u, k, frozen, HP_UNIT, 4),
        lambda u, k, f, frozen: kirchhoff_k_solve(u, k, frozen, HP_UNIT, 4),
        lambda u, k, f, frozen: fixedpoint._chi_k_step(f, u, k, frozen, CONSTANT, 4),
        lambda u, k, f, frozen: picard_solve(HP_UNIT, 4, f, PicardConfig(), k0=k),
        lambda u, k, f, frozen: chi_decoupled_solve(HP_UNIT, 4, f, PicardConfig(), k0=k),
    ], ids=["solve_k_given_u", "kirchhoff_k_solve", "_chi_k_step", "picard_solve",
            "chi_decoupled_solve"])
    def test_raises_before_any_solve(self, monkeypatch, call):
        g = make_grid(8, 8, 1.0, 1.0)
        f = gaussian_source(g)
        u, _, frozen = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, f)
        k = ScalarField.full(g, 0.5)
        k.values[3, 4] = -1e-3
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(ValueError, match="s >= 0"):
            call(u, k, f, frozen)
        assert not solves


class TestBadLevel:
    # truncated_coefficients is the one level check on every path that takes a level,
    # but for the direct and Kirchhoff k-updates, which take their coefficients
    # frozen: their source checks n
    @pytest.mark.parametrize("call", [
        lambda u, k, f, frozen, n: solve_u_given_k(k, HP_UNIT, n, f),
        lambda u, k, f, frozen, n: solve_k_given_u(u, k, frozen, HP_UNIT, n),
        lambda u, k, f, frozen, n: kirchhoff_k_solve(u, k, frozen, HP_UNIT, n),
        lambda u, k, f, frozen, n: picard_solve(HP_UNIT, n, f, PicardConfig()),
        lambda u, k, f, frozen, n: chi_decoupled_solve(HP_UNIT, n, f, PicardConfig()),
        lambda u, k, f, frozen, n: n_sweep(HP_UNIT, f, [n], PicardConfig()),
        lambda u, k, f, frozen, n: energy_identity_residual(u, k, f, HP_UNIT, n),
        lambda u, k, f, frozen, n: full_report(u, k, f, HP_UNIT, n),
    ], ids=["solve_u_given_k", "solve_k_given_u", "kirchhoff_k_solve", "picard_solve",
            "chi_decoupled_solve", "n_sweep", "energy_identity_residual", "full_report"])
    # 10**400 is an integer whose float overflows
    @pytest.mark.parametrize("n", [0, 2.5, 2.0, math.inf, math.nan, True, 10**400],
                             ids=lambda n: "10**400" if n == 10**400 else repr(n))
    def test_raises_before_any_solve(self, monkeypatch, call, n):
        g = make_grid(8, 8, 1.0, 1.0)
        f = gaussian_source(g)
        u, _, frozen = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, f)
        k = ScalarField.full(g, 0.5)
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(ValueError, match=r"^truncation level must be a positive integer, got "):
            call(u, k, f, frozen, n)
        assert not solves


NO_GAMMA = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)


class TestCheckRoute:
    # check_route is the one route check: the CLI, n_sweep and the chi route call it
    @pytest.mark.parametrize("call, error, match", [
        (lambda f: fixedpoint.check_route("magic", HP_UNIT), ValueError, "unknown route 'magic'"),
        (lambda f: n_sweep(HP_UNIT, f, [4], PicardConfig(), route="magic"), ValueError,
         "unknown route 'magic'"),
        (lambda f: fixedpoint.check_route("chi", NO_GAMMA), HypothesisViolation, "^H2: "),
        (lambda f: n_sweep(NO_GAMMA, f, [4], PicardConfig(), route="chi"), HypothesisViolation,
         "^H2: "),
        (lambda f: chi_decoupled_solve(NO_GAMMA, 4, f, PicardConfig()), HypothesisViolation,
         "^H2: "),
        (lambda f: picard_solve(HP_UNIT, 4, f, PicardConfig(), k_update="chi"), ValueError,
         "unknown k_update 'chi'"),
        (lambda f: picard_solve(HP_UNIT, 4, f, PicardConfig(), k_update="magic"), ValueError,
         "unknown k_update 'magic'"),
    ], ids=["unknown-check_route", "unknown-n_sweep", "chi-check_route", "chi-n_sweep",
            "chi-chi_decoupled_solve", "chi-picard_solve", "unknown-picard_solve"])
    def test_raises_before_any_solve(self, monkeypatch, call, error, match):
        f = gaussian_source(make_grid(8, 8, 1.0, 1.0))
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(error, match=match):
            call(f)
        assert not solves


class TestRelaxationFallback:
    """The k-update relaxation drops from 1 to 0.5 the first time the increment grows, and
    Anderson mixing of k starts at the first iteration, the third or later,
    whose increment exceeds half the previous one, for the rest of the level.

    With plain steps only (no mixing) the first case stops unconverged at
    max_outer = 200 with increment 1 015.  With mixing the drop rescues
    neither of the first two: without it they take 31 and 14 outer
    iterations (32 and 29 with it).  The last two cases stop unconverged at
    max_outer with plain steps (increments 398 and 0.015) and converge only
    with mixing.
    """

    def test_rescues_a_cold_chi_solve(self):
        g = make_grid(9, 9, 1.0, 1.0)
        m = ViscosityModel(kind="physical_sqrt", nu1=0.7, nu2=5.5, a1=1.4, a2=11.0,
                           gamma=2.0, delta=0.7)
        f = gaussian_source(g, amplitude=6e5, sigma=0.2, centre=(0.4, 0.35))
        _, _, _, report = chi_decoupled_solve(m, 256, f, PicardConfig())
        assert report.converged
        assert report.outer_iterations <= 60  # 32

    def test_fires_on_a_warm_sweep_level(self):
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g, amplitude=1e4, sigma=0.1)
        entries = n_sweep(HP_UNIT, f, [4, 16], PicardConfig())
        assert all(e.report.converged for e in entries)
        assert entries[1].report.outer_iterations >= 21  # 29

    def test_mixing_converges_the_cold_chi_solve_without_loose_solves(self, monkeypatch):
        # with every inner solve tight, the damping of loose inner solves is
        # gone; the plain steps then stopped at max_outer = 200 with increment 398
        monkeypatch.setattr(fixedpoint, "FORCING", 0.0)
        g = make_grid(9, 9, 1.0, 1.0)
        m = ViscosityModel(kind="physical_sqrt", nu1=0.7, nu2=5.5, a1=1.4, a2=11.0,
                           gamma=2.0, delta=0.7)
        f = gaussian_source(g, amplitude=6e5, sigma=0.2, centre=(0.4, 0.35))
        _, _, _, report = chi_decoupled_solve(m, 256, f, PicardConfig())
        assert report.converged and report.clamp_count == 0
        assert report.outer_iterations <= 60  # 23

    def test_mixing_converges_the_slow_chi_sweep(self):
        # the benchmark's stalling chi sweep at its own load: with plain steps
        # its n = 64 level oscillates and stops at max_outer = 200
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=1e5, sigma=0.1, centre=(0.47, 0.53))
        entries = n_sweep(HP_UNIT, f, [1, 4, 16, 64], PicardConfig(), route="chi")
        assert all(e.report.converged and e.report.clamp_count == 0 for e in entries)
        assert entries[-1].report.outer_iterations <= 60  # 33


class TestAndersonStep:
    """``_anderson`` on an affine map G(k) = M k + c of two cells: two differences span the plane."""

    M = np.array([[0.9, 0.05], [0.02, 0.95]])

    def history(self, c, k0):
        pairs, k = [], np.asarray(k0, float)
        for _ in range(3):
            g = self.M @ k + c
            pairs.append((k.reshape(1, 2), (g - k).reshape(1, 2)))
            k = g
        return pairs

    @pytest.mark.parametrize("omega", [1.0, 0.5])
    def test_lands_on_the_fixed_point(self, omega):
        c = np.array([1.0, 2.0])
        fixed = np.linalg.solve(np.eye(2) - self.M, c)
        mixed = fixedpoint._anderson(self.history(c, [0.0, 0.0]), omega)
        assert mixed.shape == (1, 2)
        assert np.allclose(mixed.ravel(), fixed, rtol=1e-9)

    def test_refuses_a_negative_cell(self):
        # the fixed point of this map has a negative cell, though every iterate is nonnegative
        c = np.array([1.0, -0.9])
        assert np.linalg.solve(np.eye(2) - self.M, c)[1] < 0
        history = self.history(c, [100.0, 100.0])
        assert all(k.min() >= 0 for k, _ in history)
        assert fixedpoint._anderson(history, 1.0) is None


class TestChiRoute:
    def test_zero_forcing(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u, k, chi, report = chi_decoupled_solve(HP_UNIT, 4, ScalarField.zeros(g),
                                                PicardConfig(tol=1e-10))
        assert not u.values.any() and not k.values.any() and not chi.values.any()

    def test_requires_gamma(self):
        g = make_grid(8, 8, 1.0, 1.0)
        model = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)
        with pytest.raises(HypothesisViolation) as info:
            chi_decoupled_solve(model, 4, ScalarField.zeros(g), PicardConfig())
        assert info.value.label == "H2"

    def test_constant_model_identity(self):
        gamma = 1.0
        model = ViscosityModel(kind="constant", nu1=1.0, a1=1.0, gamma=gamma, delta=1.0)
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, chi, report = chi_decoupled_solve(model, 64, manufactured_forcing(g, 1.0),
                                                PicardConfig(tol=1e-10))
        assert report.converged
        assert report.clamp_count == 0
        recon = k.values + 0.5 / gamma * u.values**2
        assert np.max(np.abs(recon - chi.values)) <= 1e-14

    def test_matches_direct_route(self):
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g)
        cfg = PicardConfig(tol=1e-11)
        u1, k1, _ = picard_solve(HP_UNIT, 32, f, cfg)
        u2, k2, chi, r2 = chi_decoupled_solve(HP_UNIT, 32, f, cfg)
        assert r2.converged
        assert np.max(np.abs(u1.values - u2.values)) <= 1e-6
        assert np.max(np.abs(k1.values - k2.values)) <= 1e-6

    def test_pair_satisfies_energy_identity(self):
        # u is re-solved at the final k, as on the direct route; returning
        # the last iterate's u instead leaves a lagged residual near 1e-11
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        u, k, _, report = chi_decoupled_solve(HP_UNIT, 32, f, PicardConfig(tol=1e-10))
        assert report.converged
        assert energy_identity_residual(u, k, f, HP_UNIT, 32) <= 1e-13


    @pytest.mark.parametrize("gamma", [2.0, 0.5])
    def test_matches_direct_route_at_any_gamma(self, gamma):
        # chi = k + u^2/(2 gamma) solves A(a_n) chi = f u where the source cap
        # binds nowhere; recovering k as chi - (gamma/2) u^2 left chi and direct
        # 1.0 (gamma 2, 2 313 clamped cells) and 0.92 (gamma 0.5) apart in k
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=gamma, a2=gamma,
                           gamma=gamma, delta=min(1.0, gamma))
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        cfg = PicardConfig(tol=1e-10)
        u1, k1, r1 = picard_solve(m, 10**6, f, cfg)
        u2, k2, _, r2 = chi_decoupled_solve(m, 10**6, f, cfg)
        assert r1.converged and r2.converged
        assert not (r1.truncation_active or r2.truncation_active)
        assert r2.clamp_count == 0
        assert np.max(np.abs(k2.values - k1.values)) <= 1e-10 * linf_norm(k1)
        assert np.max(np.abs(u2.values - u1.values)) <= 1e-10 * linf_norm(u1)


class TestKirchhoffRoute:
    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        frozen = fixedpoint._freeze(HP_UNIT, ScalarField.zeros(g), 4)
        step = kirchhoff_k_solve(ScalarField.zeros(g), ScalarField.zeros(g), frozen, HP_UNIT, 4)
        assert not step.field.values.any()

    def test_constant_coefficient_reduction(self):
        # A(s) = a0*s makes the transform linear: both updates solve the
        # same system and must agree to solver accuracy
        model = ViscosityModel(kind="constant", nu1=1.0, a1=3.0, delta=1.0)
        g = make_grid(17, 17, 1.0, 1.0)
        u, _, frozen = solve_u_given_k(ScalarField.zeros(g), model, 64,
                                       manufactured_forcing(g, 1.0), inner_tol=1e-14)
        direct = solve_k_given_u(u, ScalarField.zeros(g), frozen, model, 64, inner_tol=1e-14)
        transformed = kirchhoff_k_solve(u, ScalarField.zeros(g), frozen, model, 64, inner_tol=1e-14)
        assert np.max(np.abs(direct.field.values - transformed.field.values)) <= 1e-12

    def test_matches_direct_route(self):
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g)
        cfg = PicardConfig(tol=1e-11)
        u1, k1, _ = picard_solve(HP_UNIT, 32, f, cfg)
        u2, k2, r2 = picard_solve(HP_UNIT, 32, f, cfg, k_update="kirchhoff")
        assert r2.converged
        assert np.max(np.abs(u1.values - u2.values)) <= 1e-6
        assert np.max(np.abs(k1.values - k2.values)) <= 1e-6

    def test_one_inverse_transform_per_update(self, monkeypatch):
        # the source is read off A(nu_n(k_lag)); only the solved K maps back through A_inv
        g = make_grid(17, 17, 1.0, 1.0)
        u, _, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 8, gaussian_source(g, 20.0))
        k_lag = ScalarField.full(g, 0.5)
        frozen = fixedpoint._freeze(HP_UNIT, k_lag, 8)
        calls = count_calls(monkeypatch, coeffs.kirchhoff_A_inv)
        kirchhoff_k_solve(u, k_lag, frozen, HP_UNIT, 8)
        assert len(calls) == 1

    @pytest.mark.parametrize("loose_tol", [0.0, 1e-3])
    def test_one_transform_each_way_and_the_driver_stop(self, monkeypatch, loose_tol):
        # like every inner solve, the Poisson solve starts from the current
        # iterate, A(k_lag), and stops at the driver's loose_tol; with
        # loose_tol = 0 the float32 fast-Poisson preconditioner takes it to
        # INNER_TOL in at most three CG iterations.  The source is read off
        # A(nu_n(k_lag)), so the step evaluates no coefficient.
        g = make_grid(33, 33, 1.0, 1.0)
        u, _, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 8, gaussian_source(g, 20.0))
        k_lag = ScalarField.full(g, 0.5)
        frozen = fixedpoint._freeze(HP_UNIT, k_lag, 8)
        tight = kirchhoff_k_solve(u, k_lag, frozen, HP_UNIT, 8)
        forward = count_calls(monkeypatch, coeffs.kirchhoff_A)
        inverse = count_calls(monkeypatch, coeffs.kirchhoff_A_inv)
        coeff_calls = []
        for name in ("nu", "a"):
            fn = getattr(ViscosityModel, name)
            monkeypatch.setattr(ViscosityModel, name,
                                lambda m, s, fn=fn: coeff_calls.append(1) or fn(m, s))
        step = kirchhoff_k_solve(u, k_lag, frozen, HP_UNIT, 8, loose_tol=loose_tol)
        assert len(forward) == 1 and len(inverse) == 1 and len(coeff_calls) == 0
        if loose_tol == 0.0:
            assert step.report.iterations <= 3 and step.report.relative_residual <= INNER_TOL
        else:
            assert step.report.relative_residual <= loose_tol
            assert step.report.iterations < tight.report.iterations

    def test_settled_sweep_levels_take_no_cg_iteration(self, monkeypatch):
        # a level that converges in one outer iteration starts its K-solve
        # from A(k) of the previous level's fixed point, which already meets
        # INNER_TOL (a solve from zero took three iterations there)
        g = make_grid(33, 33, 1.0, 1.0)
        reports = []
        k_step = fixedpoint.kirchhoff_k_solve

        def recording(*args, **kwargs):
            step = k_step(*args, **kwargs)
            reports.append(step.report)
            return step

        monkeypatch.setattr(fixedpoint, "kirchhoff_k_solve", recording)
        entries = n_sweep(HP_UNIT, gaussian_source(g), [1, 2, 4, 8, 16, 32, 64],
                          PicardConfig(tol=1e-10), route="kirchhoff")
        assert len(reports) == sum(e.report.outer_iterations for e in entries)
        settled = []
        for e in entries:
            level, reports = reports[:e.report.outer_iterations], reports[e.report.outer_iterations:]
            if len(level) == 1:
                settled.append(level[0].iterations)
        assert len(settled) >= 3 and settled == [0] * len(settled)


def solve_level(route, m, n, f, cfg):
    """(u, k, report) of one level on ``route``."""
    if route == "chi":
        u, k, _, report = chi_decoupled_solve(m, n, f, cfg)
        return u, k, report
    return picard_solve(m, n, f, cfg, k_update=route)


@pytest.mark.parametrize("route", fixedpoint.ROUTES)
class TestOneOperatorPerIterate:
    def test_stencils_per_outer_iteration(self, monkeypatch, route):
        # the u-solve's A(nu_n(k)) is the one stencil of an outer iteration on a
        # proportional pair: its k-step solves on it too, A(a_n) = gamma
        # A(nu_n), and the Kirchhoff k-step's A(1) is built once per grid.
        # The final report builds A(nu_n) of the returned pair.  Without
        # gamma the direct k-step and the report build A(a_n) as well.
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0)
        linsolve.unit_operator(g)  # warm, whatever ran before
        builds = count_calls(monkeypatch, _kernels.stencil_weights)
        for m in (HP_UNIT, NO_GAMMA):
            if route == "chi" and m.gamma is None:
                continue
            counts = []
            for max_outer in (1, 2, 3):
                builds.clear()
                _, _, report = solve_level(route, m, 8, f,
                                           PicardConfig(tol=1e-14, max_outer=max_outer))
                assert not report.converged
                counts.append(len(builds))
            if m.gamma is not None:
                assert counts == [j + 1 for j in (1, 2, 3)]
            elif route == "kirchhoff":
                assert counts == [j + 2 for j in (1, 2, 3)]
            else:
                assert counts == [2 * j + 2 for j in (1, 2, 3)]

    def test_one_coefficient_evaluation_per_outer_iteration(self, monkeypatch, route):
        # the u-solve's evaluation at k_lag is the k-step's too, and one at the
        # final k serves the converged re-solve and the final report: j + 1
        # per level of j outer iterations, converged or not
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0)
        evaluations = []
        nu = ViscosityModel.nu
        monkeypatch.setattr(ViscosityModel, "nu", lambda m, s: evaluations.append(1) or nu(m, s))
        for cfg in (PicardConfig(tol=1e-14, max_outer=j) for j in (1, 2, 3)):
            evaluations.clear()
            _, _, report = solve_level(route, HP_UNIT, 8, f, cfg)
            assert not report.converged
            assert len(evaluations) == report.outer_iterations + 1
        evaluations.clear()
        _, _, report = solve_level(route, HP_UNIT, 8, f, PicardConfig())
        assert report.converged and report.outer_iterations > 3
        assert len(evaluations) == report.outer_iterations + 1

    def test_report_energies_are_the_weighted_energies(self, route):
        # read off the final report's operators, they equal grid.weighted_energy bit for bit
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, report = solve_level(route, HP_UNIT, 4, gaussian_source(g, amplitude=50.0),
                                   PicardConfig())
        assert report.converged and report.truncation_active
        nu_n, a_n, _ = coeffs.truncated_coefficients(HP_UNIT, k.values, 4)
        assert report.energy == weighted_energy(ScalarField(g, nu_n), u)
        assert report.dissipation == weighted_energy(ScalarField(g, a_n), k)


def hand_assembled_k_operator(frozen, m):
    """A(a_n) itself, assembled from the frozen a_n on every pair, and 1."""
    return assemble(ScalarField(frozen.A_nu.grid, frozen.a_n)), 1.0


class TestProportionalPairOnTheUOperator:
    """A proportional pair's k-equation runs on A(nu_n): A(gamma nu_n) = gamma A(nu_n)."""

    @pytest.mark.parametrize("route", ["direct", "chi"])
    @pytest.mark.parametrize("gamma, rtol", [(1.0, 0.0), (4.0, 0.0), (0.25, 0.0),
                                             (2.0, 1e-14), (3.0, 1e-14)])
    def test_matches_the_hand_assembled_operator(self, monkeypatch, route, gamma, rtol):
        # at gamma a power of four every scaling of the solve is exact, the
        # preconditioner's sqrt(1/gamma) included, so the two agree bit for
        # bit; at other gamma they agree to rounding (5e-16 measured)
        g = make_grid(17, 17, 1.0, 1.0)
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=gamma, a2=gamma,
                           gamma=gamma, delta=min(1.0, gamma))
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        builds = count_calls(monkeypatch, _kernels.stencil_weights)
        u, k, report = solve_level(route, m, 2, f, PicardConfig())
        assert len(builds) == report.outer_iterations + 1  # A(nu_n) per iterate
        monkeypatch.setattr(fixedpoint, "_k_operator", hand_assembled_k_operator)
        builds.clear()
        u_ref, k_ref, ref = solve_level(route, m, 2, f, PicardConfig())
        assert len(builds) == 2 * (ref.outer_iterations + 1)  # and A(a_n) beside it
        assert report.converged and report.truncation_active
        if rtol == 0.0:
            assert np.array_equal(u.values, u_ref.values)
            assert np.array_equal(k.values, k_ref.values)
            assert report == ref
            return
        assert report.outer_iterations == ref.outer_iterations
        assert linf_norm(ScalarField(g, u.values - u_ref.values)) <= rtol * linf_norm(u_ref)
        assert linf_norm(ScalarField(g, k.values - k_ref.values)) <= rtol * linf_norm(k_ref)
        for key in ("energy", "dissipation", "linf_u", "linf_k"):
            assert getattr(report, key) == pytest.approx(getattr(ref, key), rel=rtol, abs=0.0)
        # differences near 1e-11 and residuals near 1e-13 keep only a few digits
        assert report.final_increment == pytest.approx(ref.final_increment, rel=0.0, abs=rtol)
        assert report.k_residual == pytest.approx(ref.k_residual, rel=0.0, abs=rtol)


class TestSweep:
    def test_constant_model_all_levels_identical(self):
        g = make_grid(17, 17, 1.0, 1.0)
        entries = n_sweep(CONSTANT, gaussian_source(g, amplitude=0.5), [2, 4, 8],
                          PicardConfig(tol=1e-10))
        assert all(not e.report.truncation_active for e in entries)
        for e in entries[1:]:
            assert e.diff_u <= 1e-12
            assert e.diff_k <= 1e-12

    def test_degenerate_sweep_matches_single_solve(self):
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g)
        cfg = PicardConfig(tol=1e-10)
        entries = n_sweep(HP_UNIT, f, [8], cfg)
        u, k, report = picard_solve(HP_UNIT, 8, f, cfg)
        assert len(entries) == 1
        assert np.array_equal(entries[0].u.values, u.values)
        assert entries[0].report.outer_iterations == report.outer_iterations

    def test_differences_shrink_after_truncation_deactivates(self):
        g = make_grid(33, 33, 1.0, 1.0)
        entries = n_sweep(HP_UNIT, gaussian_source(g), [1, 2, 4, 8, 16],
                          PicardConfig(tol=1e-10))
        tail = [e for e in entries if not e.report.truncation_active]
        assert len(tail) >= 2
        # consecutive stabilized entries solve the same discrete problem
        for e in tail[1:]:
            assert e.diff_u <= 1e-9
            assert e.diff_k <= 1e-9

    def test_rejects_unsorted_levels(self):
        g = make_grid(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            n_sweep(CONSTANT, ScalarField.zeros(g), [4, 2], PicardConfig())

    def test_warm_start_accelerates(self):
        g = make_grid(33, 33, 1.0, 1.0)
        entries = n_sweep(HP_UNIT, gaussian_source(g), [2, 4], PicardConfig(tol=1e-10))
        assert entries[1].report.outer_iterations <= entries[0].report.outer_iterations


class TestInexactInnerSolves:
    def test_sweep_halves_the_cg_iterations(self, monkeypatch):
        # every inner solve ran to inner_tol before: 328 CG iterations here
        counts = []
        solve = fixedpoint.solve_spd

        def counting(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            counts.append(report.iterations)
            return x, report

        monkeypatch.setattr(fixedpoint, "solve_spd", counting)
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        entries = n_sweep(HP_UNIT, f, [2**i for i in range(9)], PicardConfig(tol=1e-10))
        assert all(e.report.converged for e in entries)
        assert sum(counts) <= 328 // 2

    def test_first_two_iterations_stay_tight(self):
        # loose inner solves in the second iteration take n = 4..1024 to 7-8 outer iterations
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=1e5, sigma=0.1, centre=(0.47, 0.53))
        entries = n_sweep(HP_UNIT, f, [1, 4, 16, 64, 256, 1024], PicardConfig(tol=1e-10),
                          route="kirchhoff")
        assert all(e.report.converged for e in entries)
        assert [e.report.outer_iterations for e in entries] == [2, 3, 3, 3, 3, 3]

    def test_small_loose_increment_needs_a_tight_confirmation(self, monkeypatch):
        # record every inner solve: u- and k-solves alternate, then the final u re-solve
        solves = []
        solve = fixedpoint.solve_spd

        def recording(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            solves.append((x.values, report.relative_residual))
            return x, report

        monkeypatch.setattr(fixedpoint, "solve_spd", recording)
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        cfg = PicardConfig(tol=1e-4)
        _, _, report = picard_solve(HP_UNIT, 2, f, cfg)
        assert report.converged
        assert len(solves) == 2 * report.outer_iterations + 1
        zero = np.zeros(g.shape)
        us, ks = [zero] + [x for x, _ in solves[0:-1:2]], [zero] + [x for x, _ in solves[1::2]]
        loose_but_small = []
        for j in range(1, report.outer_iterations + 1):
            increment = max(np.max(np.abs(us[j] - us[j - 1])), np.max(np.abs(ks[j] - ks[j - 1])))
            worst = max(solves[2 * j - 2][1], solves[2 * j - 1][1])
            if increment <= cfg.tol and worst > cfg.inner_tol:
                loose_but_small.append(j)
        # an iteration met tol with loose solves, and the level ran on past it ...
        assert loose_but_small and loose_but_small[0] < report.outer_iterations
        # ... to an iteration whose inner solves all certified inner_tol
        assert max(r for _, r in solves[-3:-1]) <= cfg.inner_tol


def record_inner_solves(monkeypatch) -> list:
    """Record the report of every inner solve of the Picard driver, in call order."""
    reports = []
    solve = fixedpoint.solve_spd

    def recording(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(fixedpoint, "solve_spd", recording)
    return reports


def certified(report) -> bool:
    return report.relative_residual <= INNER_TOL or report.at_floor


class TestForcingCarriedOver:
    """A warm sweep level starts its inner solves at FORCING * rho, rho the last
    contraction ratio that the level before measured, if that level converged
    in two or more outer iterations; otherwise it starts at inner_tol."""

    def setup_sweep(self):
        g = make_grid(33, 33, 1.0, 1.0)
        return gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))

    def test_warm_level_starts_at_the_carried_ratio(self, monkeypatch):
        f = self.setup_sweep()
        cfg = PicardConfig()
        carry = fixedpoint._Carry()
        u2, k2, level2 = picard_solve(HP_UNIT, 2, f, cfg, _carry=carry)
        assert level2.converged and level2.outer_iterations >= 2 and 0 < carry.rho < 1
        solves = record_inner_solves(monkeypatch)
        entries = n_sweep(HP_UNIT, f, [2, 4], cfg)
        assert all(e.report.converged for e in entries)
        assert entries[0].report == level2
        # level 2: u and k per outer iteration, then the u re-solve; level 4 follows
        level4 = solves[2 * level2.outer_iterations + 1:]
        assert len(level4) == 2 * entries[1].report.outer_iterations + 1
        # the first u-solve's start already meets inner_tol; the k-solve stops loose
        u_solve, k_solve = level4[:2]
        assert u_solve.relative_residual <= fixedpoint.FORCING * carry.rho
        assert INNER_TOL < k_solve.relative_residual <= fixedpoint.FORCING * carry.rho
        solves.clear()
        _, _, tight = picard_solve(HP_UNIT, 4, f, cfg, u0=u2, k0=k2)
        assert all(certified(r) for r in solves[:4])
        # 29 against 42 CG iterations, 13 against 14 outer iterations
        assert sum(r.iterations for r in level4) < sum(r.iterations for r in solves)
        assert entries[1].report.outer_iterations <= tight.outer_iterations

    def test_tight_start_after_a_one_iteration_level(self, monkeypatch):
        f = self.setup_sweep()
        cfg = PicardConfig()
        settled = n_sweep(HP_UNIT, f, [2, 4, 8], cfg)[1:]
        # level 8 takes one outer iteration from level 4, and hands on no ratio
        carry = fixedpoint._Carry()
        u2, k2, _ = picard_solve(HP_UNIT, 2, f, cfg, _carry=carry)
        _, _, level4 = picard_solve(HP_UNIT, 4, f, cfg, u0=u2, k0=k2, _carry=carry)
        assert level4.converged and carry.rho > 0
        _, _, level8 = picard_solve(HP_UNIT, 8, f, cfg, u0=settled[0].u, k0=settled[0].k,
                                    _carry=carry)
        assert level8 == settled[1].report and level8.outer_iterations == 1
        assert carry.rho == 0.0
        # a level after it runs as a level with nothing carried: tight, bit for bit
        solves = record_inner_solves(monkeypatch)
        u, k, after = picard_solve(HP_UNIT, 4, f, cfg, u0=u2, k0=k2, _carry=carry)
        assert after.outer_iterations >= 2 and all(certified(r) for r in solves[:4])
        u_ref, k_ref, ref = picard_solve(HP_UNIT, 4, f, cfg, u0=u2, k0=k2)
        assert after == ref
        assert np.array_equal(u.values, u_ref.values) and np.array_equal(k.values, k_ref.values)

    def test_tight_start_after_an_unconverged_level(self, monkeypatch):
        # at amplitude 1e3, level 2 converges in 11 outer iterations and
        # level 4 needs 27 from it
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g, amplitude=1e3, sigma=0.1, centre=(0.47, 0.53))
        cfg = PicardConfig(max_outer=11)
        solves = record_inner_solves(monkeypatch)
        entries = n_sweep(HP_UNIT, f, [2, 4, 16], cfg)
        assert entries[0].report.converged and not entries[1].report.converged
        # an unconverged level makes no u re-solve: u and k per outer iteration
        level16 = solves[2 * entries[0].report.outer_iterations + 1 + 2 * cfg.max_outer:]
        assert entries[2].report.outer_iterations >= 2 and all(certified(r) for r in level16[:4])
        # as a level with nothing carried, bit for bit
        u, k, ref = picard_solve(HP_UNIT, 16, f, cfg, u0=entries[1].u, k0=entries[1].k)
        assert entries[2].report == ref
        assert np.array_equal(entries[2].u.values, u.values)
        assert np.array_equal(entries[2].k.values, k.values)


class TestRoundingFloor:
    def test_cold_solve_at_321_ends_at_the_floor(self, monkeypatch):
        # eps * cond(A) grows like h^-2: from about 321^2 on, certifying inner
        # solves stall just above inner_tol = 1e-12.  They used to restart
        # until their 10 * nx * ny budget (about 1e6 CG iterations) ran out.
        matvecs, floors = [], []
        apply, solve = DiffusionOperator.apply, fixedpoint.solve_spd

        def counting_apply(self, *args, **kwargs):
            matvecs.append(1)
            assert len(matvecs) <= 2000, "the inner solves spin at their floor"
            return apply(self, *args, **kwargs)

        def recording_solve(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            if report.at_floor:
                floors.append(report)
            return x, report

        monkeypatch.setattr(DiffusionOperator, "apply", counting_apply)
        monkeypatch.setattr(fixedpoint, "solve_spd", recording_solve)
        g = make_grid(321, 321, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0, sigma=0.1, centre=(0.47, 0.53))
        _, _, report = picard_solve(HP_UNIT, 256, f, PicardConfig(tol=1e-10))
        assert report.converged
        assert floors and all(INNER_TOL < r.relative_residual < 10 * INNER_TOL for r in floors)


class TestWarmStarts:
    @pytest.mark.parametrize("route", ["direct", "kirchhoff", "chi"])
    def test_read_only_warm_starts_stay_unchanged(self, route):
        # the Picard iteration uses u0 and k0 as given, without copies; a write would raise
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g, amplitude=50.0)
        cfg = PicardConfig(tol=1e-10)
        u0, k0, _ = picard_solve(HP_UNIT, 2, f, cfg)
        before = (u0.values.copy(), k0.values.copy())
        for field in (u0, k0):
            field.values.flags.writeable = False
        if route == "chi":
            _, _, _, report = chi_decoupled_solve(HP_UNIT, 8, f, cfg, u0=u0, k0=k0)
        else:
            _, _, report = picard_solve(HP_UNIT, 8, f, cfg, u0=u0, k0=k0, k_update=route)
        assert report.converged
        assert np.array_equal(u0.values, before[0]) and np.array_equal(k0.values, before[1])

    @pytest.mark.parametrize("route", ["direct", "kirchhoff", "chi"])
    def test_far_start_raises_the_named_error(self, route):
        # every inner solve starts from the current iterate: a k0 whose residual
        # overflows float64 ends the solve with LinearSolveError, not a numpy warning
        g = make_grid(9, 9, 1.0, 1.0)
        f = ScalarField.full(g, 1.0)
        k0 = ScalarField.full(g, 1e150)
        with pytest.raises(LinearSolveError, match="residual that is not finite"):
            if route == "chi":
                chi_decoupled_solve(HP_UNIT, 8, f, PicardConfig(), k0=k0)
            else:
                picard_solve(HP_UNIT, 8, f, PicardConfig(), k0=k0, k_update=route)
