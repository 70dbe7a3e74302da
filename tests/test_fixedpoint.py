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
    idee_residual,
    kirchhoff_k_solve,
    linf_norm,
    lp_flux_norm,
    make_grid,
    n_sweep,
    picard_solve,
    solve_k_given_u,
    solve_u_given_k,
    sqrt_nu_seminorm,
)
from turbsolve import coeffs, fixedpoint
from turbsolve.linsolve import INNER_TOL
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
        rhs = u.values * A.apply(u.values) - dissipation_source(u, c).values
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_constant_coefficient_factors_out(self):
        rng = np.random.default_rng(22)
        g = make_grid(8, 8, 1.0, 1.0)
        u = ScalarField(g, rng.standard_normal(g.shape))
        d1 = dissipation_source(u, ScalarField.full(g, 1.0)).values
        d3 = dissipation_source(u, ScalarField.full(g, 3.0)).values
        assert np.allclose(d3, 3.0 * d1, rtol=1e-14)


class TestUSolve:
    def test_zero_forcing(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, ScalarField.zeros(g))
        assert not u.values.any()

    def test_constant_model_manufactured(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 8, manufactured_forcing(g, 1.0))
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
        u, _ = solve_u_given_k(k, HP_UNIT, 16, f)
        assert np.max(np.abs(u.values - u.values.T)) <= 1e-12


class TestKSolve:
    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        step = solve_k_given_u(ScalarField.zeros(g), ScalarField.zeros(g), HP_UNIT, 4)
        assert not step.field.values.any()
        assert step.clamp_count == 0

    def test_decoupled_oracle(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 64, manufactured_forcing(g, 1.0),
                               inner_tol=1e-13)
        step = solve_k_given_u(u, ScalarField.zeros(g), CONSTANT, 64, inner_tol=1e-13)
        source = dissipation_source(u, ScalarField.full(g, 1.0))
        oracle = spla.spsolve(kron_poisson(g), source.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(step.field.values - oracle)) <= 1e-12

    def test_nonnegative_without_clamping(self):
        g = make_grid(21, 21, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 16, gaussian_source(g))
        step = solve_k_given_u(u, ScalarField.zeros(g), HP_UNIT, 16)
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

    def test_nonconvergence_reported_not_raised(self):
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, report = picard_solve(HP_UNIT, 8, gaussian_source(g),
                                    PicardConfig(tol=1e-14, max_outer=1))
        assert not report.converged
        assert report.outer_iterations == 1
        assert report.final_increment > 1e-14


class TestNegativeK:
    # the model's coefficient evaluation is the only k >= 0 check on every route
    @pytest.mark.parametrize("call", [
        lambda u, k, f: solve_k_given_u(u, k, HP_UNIT, 4),
        lambda u, k, f: kirchhoff_k_solve(u, k, HP_UNIT, 4),
        lambda u, k, f: picard_solve(HP_UNIT, 4, f, PicardConfig(), k0=k),
        lambda u, k, f: chi_decoupled_solve(HP_UNIT, 4, f, PicardConfig(), k0=k),
    ], ids=["solve_k_given_u", "kirchhoff_k_solve", "picard_solve", "chi_decoupled_solve"])
    def test_raises_before_any_solve(self, monkeypatch, call):
        g = make_grid(8, 8, 1.0, 1.0)
        f = gaussian_source(g)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, f)
        k = ScalarField.full(g, 0.5)
        k.values[3, 4] = -1e-3
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(ValueError, match="s >= 0"):
            call(u, k, f)
        assert not solves


class TestBadLevel:
    # truncated_coefficients is the one level check on every path that takes a level
    @pytest.mark.parametrize("call", [
        lambda u, k, f, n: solve_u_given_k(k, HP_UNIT, n, f),
        lambda u, k, f, n: solve_k_given_u(u, k, HP_UNIT, n),
        lambda u, k, f, n: kirchhoff_k_solve(u, k, HP_UNIT, n),
        lambda u, k, f, n: picard_solve(HP_UNIT, n, f, PicardConfig()),
        lambda u, k, f, n: chi_decoupled_solve(HP_UNIT, n, f, PicardConfig()),
        lambda u, k, f, n: n_sweep(HP_UNIT, f, [n], PicardConfig()),
        lambda u, k, f, n: energy_identity_residual(u, k, f, HP_UNIT, n),
        lambda u, k, f, n: idee_residual(u, k, f, HP_UNIT, n),
        lambda u, k, f, n: sqrt_nu_seminorm(k, HP_UNIT, n),
        lambda u, k, f, n: lp_flux_norm(k, HP_UNIT, n, 1.2),
        lambda u, k, f, n: full_report(u, k, f, HP_UNIT, n),
    ], ids=["solve_u_given_k", "solve_k_given_u", "kirchhoff_k_solve", "picard_solve",
            "chi_decoupled_solve", "n_sweep", "energy_identity_residual", "idee_residual",
            "sqrt_nu_seminorm", "lp_flux_norm", "full_report"])
    @pytest.mark.parametrize("n", [0, 2.5, 2.0, math.inf, math.nan, True], ids=repr)
    def test_raises_before_any_solve(self, monkeypatch, call, n):
        g = make_grid(8, 8, 1.0, 1.0)
        f = gaussian_source(g)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, f)
        k = ScalarField.full(g, 0.5)
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(ValueError, match=r"^truncation level must be a positive integer, got "):
            call(u, k, f, n)
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
    ], ids=["unknown-check_route", "unknown-n_sweep", "chi-check_route", "chi-n_sweep",
            "chi-chi_decoupled_solve"])
    def test_raises_before_any_solve(self, monkeypatch, call, error, match):
        f = gaussian_source(make_grid(8, 8, 1.0, 1.0))
        solves = count_calls(monkeypatch, fixedpoint.solve_spd)
        with pytest.raises(error, match=match):
            call(f)
        assert not solves


class TestRelaxationFallback:
    """The k-update relaxation drops from 1 to 0.5 the first time the increment grows.

    Without that drop the first case takes 60 outer iterations and the second 14.
    """

    def test_rescues_a_cold_chi_solve(self):
        g = make_grid(33, 33, 1.0, 1.0)
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=2.0, a2=2.0,
                           gamma=2.0, delta=1.0)
        f = gaussian_source(g, amplitude=1e4, sigma=0.03, centre=(0.47, 0.53))
        _, _, _, report = chi_decoupled_solve(m, 4, f, PicardConfig())
        assert report.converged
        assert report.outer_iterations <= 45  # 35

    def test_fires_on_a_warm_sweep_level(self):
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g, amplitude=1e4, sigma=0.1)
        entries = n_sweep(HP_UNIT, f, [4, 16], PicardConfig())
        assert all(e.report.converged for e in entries)
        assert entries[1].report.outer_iterations >= 21  # 28


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
        recon = k.values + 0.5 * gamma * u.values**2
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


class TestKirchhoffRoute:
    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        step = kirchhoff_k_solve(ScalarField.zeros(g), ScalarField.zeros(g), HP_UNIT, 4)
        assert not step.field.values.any()

    def test_constant_coefficient_reduction(self):
        # A(s) = a0*s makes the transform linear: both updates solve the
        # same system and must agree to solver accuracy
        model = ViscosityModel(kind="constant", nu1=1.0, a1=3.0, delta=1.0)
        g = make_grid(17, 17, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), model, 64, manufactured_forcing(g, 1.0),
                               inner_tol=1e-14)
        direct = solve_k_given_u(u, ScalarField.zeros(g), model, 64, inner_tol=1e-14)
        transformed = kirchhoff_k_solve(u, ScalarField.zeros(g), model, 64, inner_tol=1e-14)
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
        # nu_n is evaluated at k_lag itself; only the solved K maps back through A_inv
        g = make_grid(17, 17, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 8, gaussian_source(g, 20.0))
        calls = count_calls(monkeypatch, coeffs.kirchhoff_A_inv)
        kirchhoff_k_solve(u, ScalarField.full(g, 0.5), HP_UNIT, 8)
        assert len(calls) == 1

    @pytest.mark.parametrize("loose_tol", [None, 1e-3])
    def test_one_poisson_iteration_and_no_forward_transform(self, monkeypatch, loose_tol):
        # the Poisson solve starts from zero, not from A(k_lag), and the exact
        # preconditioner finishes it in one CG iteration
        g = make_grid(33, 33, 1.0, 1.0)
        u, _ = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 8, gaussian_source(g, 20.0))
        forward = count_calls(monkeypatch, coeffs.kirchhoff_A)
        a_calls = []
        a = ViscosityModel.a
        monkeypatch.setattr(ViscosityModel, "a", lambda m, s: a_calls.append(1) or a(m, s))
        step = kirchhoff_k_solve(u, ScalarField.full(g, 0.5), HP_UNIT, 8, loose_tol=loose_tol)
        assert len(forward) == 0 and len(a_calls) == 0
        assert step.report.iterations <= 1 and step.report.relative_residual <= INNER_TOL


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
