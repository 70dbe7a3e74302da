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
    kirchhoff_k_solve,
    linf_norm,
    make_grid,
    n_sweep,
    picard_solve,
    solve_k_given_u,
    solve_u_given_k,
)
from turbsolve.verify import manufactured_forcing, manufactured_solution

CONSTANT = ViscosityModel(kind="constant", nu1=1.0, a1=1.0, delta=1.0)
HP_UNIT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0,
                         gamma=1.0, delta=1.0)


def gaussian_source(grid, amplitude=1.0, sigma=0.12, centre=(0.5, 0.5)):
    X, Y = grid.cell_centers()
    r2 = (X - centre[0] * grid.lx) ** 2 + (Y - centre[1] * grid.ly) ** 2
    return ScalarField(grid, amplitude * np.exp(-r2 / (2.0 * sigma**2)))


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
        u = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 4, ScalarField.zeros(g))
        assert not u.values.any()

    def test_constant_model_manufactured(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 8, manufactured_forcing(g, 1.0))
        err = linf_norm(ScalarField(g, u.values - manufactured_solution(g).values))
        assert err <= 1e-3

    def test_rejects_negative_k(self):
        g = make_grid(4, 4, 1.0, 1.0)
        k = ScalarField(g, np.full(g.shape, -0.1))
        with pytest.raises(ValueError):
            solve_u_given_k(k, HP_UNIT, 4, ScalarField.zeros(g))

    def test_swap_symmetry(self):
        g = make_grid(17, 17, 1.0, 1.0)
        f = gaussian_source(g)
        k = ScalarField(g, gaussian_source(g, amplitude=0.3).values)
        u = solve_u_given_k(k, HP_UNIT, 16, f)
        assert np.max(np.abs(u.values - u.values.T)) <= 1e-12


class TestKSolve:
    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        step = solve_k_given_u(ScalarField.zeros(g), ScalarField.zeros(g), HP_UNIT, 4)
        assert not step.field.values.any()
        assert step.clamp_count == 0

    def test_decoupled_oracle(self):
        g = make_grid(33, 33, 1.0, 1.0)
        u = solve_u_given_k(ScalarField.zeros(g), CONSTANT, 64, manufactured_forcing(g, 1.0),
                            inner_tol=1e-13)
        step = solve_k_given_u(u, ScalarField.zeros(g), CONSTANT, 64, inner_tol=1e-13)
        source = dissipation_source(u, ScalarField.full(g, 1.0))
        oracle = spla.spsolve(kron_poisson(g), source.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(step.field.values - oracle)) <= 1e-12

    def test_nonnegative_without_clamping(self):
        g = make_grid(21, 21, 1.0, 1.0)
        u = solve_u_given_k(ScalarField.zeros(g), HP_UNIT, 16, gaussian_source(g))
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
        u2, k2, r2 = picard_solve(
            HP_UNIT, 16, f, PicardConfig(tol=tol, init_k_value=0.5)
        )
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

    def test_nonconvergence_reported_not_raised(self):
        g = make_grid(17, 17, 1.0, 1.0)
        u, k, report = picard_solve(HP_UNIT, 8, gaussian_source(g),
                                    PicardConfig(tol=1e-14, max_outer=1))
        assert not report.converged
        assert report.outer_iterations == 1
        assert report.final_increment > 1e-14


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
        u = solve_u_given_k(ScalarField.zeros(g), model, 64, manufactured_forcing(g, 1.0),
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
