import math

import numpy as np
import pytest

from turbsolve import (
    PicardConfig,
    ScalarField,
    ViscosityModel,
    chi_bound_check,
    energy_identity_residual,
    full_report,
    holder_diagnostic,
    idee_residual,
    integrate,
    level_set_profile,
    linf_norm,
    lp_flux_norm,
    make_grid,
    picard_solve,
    sqrt_nu_seminorm,
    stampacchia_exponents,
    weighted_energy,
)
from turbsolve._kernels import face_gradients
from turbsolve.coeffs import truncated_coefficients
from turbsolve.grid import face_average
from turbsolve.verify import default_test_fields, manufactured_forcing, manufactured_solution

CONSTANT = ViscosityModel(kind="constant", nu1=1.0, a1=1.0, delta=1.0)
HP_UNIT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0,
                         gamma=1.0, delta=1.0)
SQRT_PAIR = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=2.0, delta=1.0)
TABLE = ViscosityModel(kind="table", delta=1.0, table_s=(0.0, 1.0, 4.0), table_nu=(1.0, 2.0, 3.0),
                       table_a=(1.0, 1.5, 2.0))
SIN_SIN_ENERGY = math.pi**2 / 2.0


def gaussian_source(grid, amplitude=1.0, sigma=0.12):
    X, Y = grid.cell_centers()
    r2 = (X - 0.5 * grid.lx) ** 2 + (Y - 0.5 * grid.ly) ** 2
    return ScalarField(grid, amplitude * np.exp(-r2 / (2.0 * sigma**2)))


def face_measures(g):
    """Face quadrature measures on (nx+1) x ny and nx x (ny+1) face arrays:
    the cell area on interior faces, half of it on wall faces."""
    kx = np.ones(g.nx + 1)
    ky = np.ones(g.ny + 1)
    kx[[0, -1]] = 0.5
    ky[[0, -1]] = 0.5
    return kx[:, None] * g.cell_area, ky[None, :] * g.cell_area


def face_idee_residual(u, k, f, m, n, test_set):
    """The product-identity defect as face arrays with the wall faces stored:
    a reference for the flat-stencil idee_residual."""
    g = u.grid
    nu_n, _, _ = truncated_coefficients(m, k.values, n)
    cfx, cfy = face_average(nu_n)
    wx, wy = face_measures(g)
    gux, guy = face_gradients(u.values, g.hx, g.hy)
    # mirror face means of u, zero on the walls
    umx = np.zeros((g.nx + 1, g.ny))
    umy = np.zeros((g.nx, g.ny + 1))
    umx[1:-1, :] = 0.5 * (u.values[1:, :] + u.values[:-1, :])
    umy[:, 1:-1] = 0.5 * (u.values[:, 1:] + u.values[:, :-1])
    energy = float(np.sum(cfx * gux * gux * wx) + np.sum(cfy * guy * guy * wy))
    worst = 0.0
    for phi in test_set:
        pfx, pfy = face_average(phi.values)
        gpx, gpy = face_gradients(phi.values, g.hx, g.hy)
        t1 = float(np.sum(cfx * gux * gux * pfx * wx) + np.sum(cfy * guy * guy * pfy * wy))
        t2 = float(np.sum(f.values * u.values * phi.values) * g.cell_area)
        t3 = float(np.sum(cfx * umx * gux * gpx * wx) + np.sum(cfy * umy * guy * gpy * wy))
        worst = max(worst, abs(t1 - t2 + t3) / max(1.0, energy * np.max(np.abs(phi.values))))
    return worst


def face_lp_flux_norm(k, m, n, p):
    """The flux norm as face arrays with the wall faces stored, each face at
    half its measure: a reference for the flat-stencil lp_flux_norm."""
    g = k.grid
    _, a_n, _ = truncated_coefficients(m, k.values, n)
    cfx, cfy = face_average(a_n)
    wx, wy = face_measures(g)
    gx, gy = face_gradients(k.values, g.hx, g.hy)
    total = float(np.sum(np.abs(cfx * gx) ** p * wx) + np.sum(np.abs(cfy * gy) ** p * wy))
    return (0.5 * total) ** (1.0 / p)


@pytest.fixture(scope="module")
def random_fields():
    """Non-solution fields on an anisotropic grid, where every defect is O(1)."""
    g = make_grid(11, 7, 1.3, 0.7)
    rng = np.random.default_rng(16)
    u = ScalarField(g, rng.standard_normal(g.shape))
    f = ScalarField(g, rng.standard_normal(g.shape))
    # the level 3 truncates nu and a on part of the cells of both models
    k = ScalarField(g, rng.uniform(0.0, 9.0, g.shape))
    phis = [ScalarField(g, rng.uniform(-1.0, 1.0, g.shape)) for _ in range(3)]
    return u, k, f, phis + default_test_fields(g)


@pytest.fixture(scope="module")
def manufactured_run():
    g = make_grid(65, 65, 1.0, 1.0)
    f = manufactured_forcing(g, 1.0)
    u, k, report = picard_solve(CONSTANT, 64, f, PicardConfig(tol=1e-12))
    assert report.converged
    return g, f, u, k


@pytest.fixture(scope="module")
def coupled_run():
    g = make_grid(33, 33, 1.0, 1.0)
    f = gaussian_source(g)
    u, k, report = picard_solve(HP_UNIT, 32, f, PicardConfig(tol=1e-11))
    assert report.converged
    return g, f, u, k


class TestEnergyIdentity:
    def test_manufactured_run(self, manufactured_run):
        g, f, u, k = manufactured_run
        E = weighted_energy(ScalarField.full(g, 1.0), u)
        assert E == pytest.approx(SIN_SIN_ENERGY, abs=1e-2)
        assert integrate(ScalarField(g, f.values * u.values)) == pytest.approx(E, rel=1e-8)
        assert energy_identity_residual(u, k, f, CONSTANT, 64) <= 1e-8

    def test_zero_data(self):
        g = make_grid(8, 8, 1.0, 1.0)
        z = ScalarField.zeros(g)
        assert energy_identity_residual(z, z, z, CONSTANT, 8) == 0.0

    def test_unconverged_iterate_flagged(self):
        g = make_grid(33, 33, 1.0, 1.0)
        f = gaussian_source(g)
        u, k, report = picard_solve(HP_UNIT, 32, f, PicardConfig(tol=1e-14, max_outer=1))
        assert not report.converged
        assert energy_identity_residual(u, k, f, HP_UNIT, 32) > 1e-8


class TestProductIdentity:
    def test_converged_coupled_run(self, coupled_run):
        g, f, u, k = coupled_run
        assert idee_residual(u, k, f, HP_UNIT, 32) <= 1e-8

    def test_all_ones_reduces_to_energy_identity(self, coupled_run):
        g, f, u, k = coupled_run
        ones = [ScalarField.full(g, 1.0)]
        r_idee = idee_residual(u, k, f, HP_UNIT, 32, test_set=ones)
        E = weighted_energy(ScalarField(g, np.minimum(32.0, HP_UNIT.nu(k.values))), u)
        load = integrate(ScalarField(g, f.values * u.values))
        # same defect |E - load|, different normalizations
        assert r_idee * max(1.0, E) == pytest.approx(
            energy_identity_residual(u, k, f, HP_UNIT, 32) * max(abs(load), 1e-14), rel=1e-9
        )

    def test_zero_velocity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        z = ScalarField.zeros(g)
        assert idee_residual(z, z, z, HP_UNIT, 8) == 0.0

    def test_default_family_is_fixed(self):
        g = make_grid(16, 16, 1.0, 1.0)
        fields = default_test_fields(g)
        assert len(fields) == 10
        again = default_test_fields(g)
        for a, b in zip(fields, again):
            assert np.array_equal(a.values, b.values)


class TestFlatStencilMatchesFaceArrays:
    @pytest.mark.parametrize("model", [SQRT_PAIR, TABLE], ids=["sqrt", "table"])
    def test_idee_residual(self, random_fields, model):
        u, k, f, phis = random_fields
        for phi in phis:
            ref = face_idee_residual(u, k, f, model, 3, [phi])
            assert ref > 1e-3
            assert idee_residual(u, k, f, model, 3, test_set=[phi]) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.4])
    @pytest.mark.parametrize("model", [SQRT_PAIR, TABLE], ids=["sqrt", "table"])
    def test_lp_flux_norm(self, random_fields, model, p):
        u, k, f, phis = random_fields
        ref = face_lp_flux_norm(k, model, 3, p)
        assert ref > 1.0
        assert lp_flux_norm(k, model, 3, p) == pytest.approx(ref, rel=1e-13)


class TestLevelSets:
    def test_constant_field(self):
        g = make_grid(4, 4, 2.0, 1.0)
        v = ScalarField.full(g, 0.6)
        profile = dict(level_set_profile(v, [0.0, 0.3, 0.6, 0.9]))
        assert profile[0.0] == pytest.approx(g.area)
        assert profile[0.3] == pytest.approx(g.area)
        assert profile[0.6] == pytest.approx(g.area)
        assert profile[0.9] == 0.0

    def test_zero_threshold_counts_everything(self):
        g = make_grid(5, 3, 1.0, 1.0)
        v = ScalarField.zeros(g)
        assert level_set_profile(v, [0.0])[0][1] == pytest.approx(g.area)

    def test_against_fine_sampling_oracle(self):
        g = make_grid(65, 65, 1.0, 1.0)
        u = manufactured_solution(g)
        psi = dict(level_set_profile(u, [0.5]))[0.5]
        fine = make_grid(650, 650, 1.0, 1.0)
        psi_fine = dict(level_set_profile(manufactured_solution(fine), [0.5]))[0.5]
        assert psi == pytest.approx(psi_fine, abs=2e-2)

    def test_monotone_and_extinct(self, coupled_run):
        g, f, u, k = coupled_run
        top = linf_norm(u) * (1 + 1e-12)
        profile = level_set_profile(u, np.linspace(0.0, top, 50))
        values = [psi for _, psi in profile]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_rejects_descending(self):
        g = make_grid(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            level_set_profile(ScalarField.zeros(g), [0.5, 0.1])

    @pytest.mark.parametrize("s_list", [[math.nan], [math.nan, 0.5], [0.0, math.nan], [0.1, math.nan, 0.5]])
    def test_rejects_nan(self, s_list):
        g = make_grid(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            level_set_profile(ScalarField.zeros(g), s_list)

    def test_infinite_threshold_is_extinct(self):
        g = make_grid(4, 4, 1.0, 1.0)
        profile = level_set_profile(ScalarField.full(g, 1.0), [0.0, math.inf, math.inf])
        assert profile == [(0.0, pytest.approx(g.area)), (math.inf, 0.0), (math.inf, 0.0)]


class TestExponents:
    def test_r2(self):
        assert stampacchia_exponents(2.0) == (6.0, 2.0)

    def test_r24(self):
        rho, beta = stampacchia_exponents(2.4)
        assert rho == pytest.approx(12.0)
        assert beta == pytest.approx(2.5)

    def test_rejects_r_at_threshold(self):
        with pytest.raises(ValueError):
            stampacchia_exponents(1.5)

    @pytest.mark.parametrize("r", [math.nan, np.float64(math.nan)], ids=["float", "float64"])
    def test_rejects_nan(self, r):
        with pytest.raises(ValueError):
            stampacchia_exponents(r)

    def test_limit_sentinel(self):
        with pytest.warns(UserWarning):
            rho, beta = stampacchia_exponents(3.0)
        assert math.isinf(rho)
        assert beta == 3.0


class TestSqrtNuSeminorm:
    def test_constant_model(self, coupled_run):
        g, f, u, k = coupled_run
        assert sqrt_nu_seminorm(k, CONSTANT, 8) == 0.0

    def test_zero_k(self):
        g = make_grid(8, 8, 1.0, 1.0)
        assert sqrt_nu_seminorm(ScalarField.zeros(g), HP_UNIT, 8) == 0.0

    def test_positive_for_varying_k(self, coupled_run):
        g, f, u, k = coupled_run
        assert sqrt_nu_seminorm(k, HP_UNIT, 32) > 0.0


class TestChiBound:
    def test_zero_fields(self):
        g = make_grid(4, 4, 1.0, 1.0)
        z = ScalarField.zeros(g)
        assert chi_bound_check(z, z, 1.0) == 0.0

    def test_unit_fields(self):
        g = make_grid(4, 4, 1.0, 1.0)
        ones = ScalarField.full(g, 1.0)
        assert chi_bound_check(ones, ones, 2.0) == pytest.approx(2.0)

    def test_rejects_bad_gamma(self):
        g = make_grid(4, 4, 1.0, 1.0)
        z = ScalarField.zeros(g)
        with pytest.raises(ValueError):
            chi_bound_check(z, z, 0.0)

    def test_dominates_k(self, coupled_run):
        g, f, u, k = coupled_run
        chi = chi_bound_check(u, k, 1.0)
        assert linf_norm(k) <= chi + 1e-15
        assert chi <= linf_norm(k) + 0.5 * linf_norm(u) ** 2 + 1e-15


class TestHolderDiagnostic:
    def test_linear_field(self):
        g = make_grid(128, 16, 1.0, 1.0)
        alpha = holder_diagnostic(ScalarField.from_function(g, lambda X, Y: X))
        assert 0.95 <= alpha <= 1.0

    def test_sqrt_field(self):
        # sqrt of the distance to the leftmost cell layer: the pair maxima
        # follow the exact power law sqrt(lag * h), exponent 1/2
        g = make_grid(512, 8, 1.0, 1.0)
        column = np.sqrt(np.arange(g.nx) * g.hx)
        alpha = holder_diagnostic(ScalarField(g, np.repeat(column[:, None], g.ny, axis=1)))
        assert alpha == pytest.approx(0.5, abs=0.05)

    def test_constant_sentinel(self):
        g = make_grid(16, 16, 1.0, 1.0)
        assert math.isnan(holder_diagnostic(ScalarField.full(g, 3.0)))


class TestFluxNorm:
    def test_holder_interpolation(self, coupled_run):
        g, f, u, k = coupled_run
        lo = lp_flux_norm(k, HP_UNIT, 32, 1.2)
        hi = lp_flux_norm(k, HP_UNIT, 32, 1.4)
        bound = hi * g.area ** (1.0 / 1.2 - 1.0 / 1.4)
        assert lo <= bound * (1 + 1e-12)

    def test_rejects_large_p(self, coupled_run):
        g, f, u, k = coupled_run
        with pytest.raises(ValueError):
            lp_flux_norm(k, HP_UNIT, 32, 1.5)


class TestFullReport:
    def test_manufactured_run(self, manufactured_run):
        g, f, u, k = manufactured_run
        report = full_report(u, k, f, CONSTANT, 64)
        assert report.energy == pytest.approx(SIN_SIN_ENERGY, abs=1e-2)
        assert report.energy_identity_rel_residual <= 1e-8
        assert report.idee_max_residual <= 1e-8
        assert report.sqrt_nu_h1_seminorm == 0.0
        assert report.stampacchia_rho == 6.0 and report.stampacchia_beta == 2.0
        assert report.level_set_profile[-1][1] == 0.0

    def test_reads_only_the_flat_stencil(self, coupled_run, monkeypatch):
        g, f, u, k = coupled_run
        expected = full_report(u, k, f, HP_UNIT, 32).to_dict()

        def refuse(*args):
            raise AssertionError("verify built a face array")

        monkeypatch.setattr("turbsolve.grid.face_average", refuse)
        monkeypatch.setattr("turbsolve._kernels.face_gradients", refuse)
        assert full_report(u, k, f, HP_UNIT, 32).to_dict() == expected

    def test_zero_data(self):
        g = make_grid(8, 8, 1.0, 1.0)
        z = ScalarField.zeros(g)
        report = full_report(z, z, z, HP_UNIT, 8)
        assert report.energy == 0.0
        assert report.dissipation == 0.0
        assert report.lp_a_gradk == 0.0
        assert report.linf_u == 0.0 and report.linf_k == 0.0
        assert report.energy_identity_rel_residual == 0.0
        assert report.idee_max_residual == 0.0
        assert report.chi_linf == 0.0
        assert math.isnan(report.holder_alpha_u)

    def test_chi_field_only_for_proportional_pairs(self, manufactured_run):
        g, f, u, k = manufactured_run
        report = full_report(u, k, f, CONSTANT, 64)
        assert report.chi_linf is None

    def test_json_roundtrip_scrubs_nan(self):
        import json

        g = make_grid(8, 8, 1.0, 1.0)
        z = ScalarField.zeros(g)
        payload = full_report(z, z, z, HP_UNIT, 8).to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["holder_alpha_u"] is None
