import math

import numpy as np
import pytest

from turbsolve import (
    Grid,
    ScalarField,
    assemble,
    dissipation_source,
    integrate,
    linf_norm,
    make_grid,
    solve_spd,
    weighted_energy,
)
from turbsolve._kernels import face_gradients

# analytic oracles on the unit square
SIN_SIN_INTEGRAL = 4.0 / math.pi**2  # integral of sin(pi x) sin(pi y)
SIN_SIN_ENERGY = math.pi**2 / 2.0  # integral of |grad sin sin|^2


def sin_sin(grid):
    return ScalarField.from_function(grid, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))


class TestMakeGrid:
    def test_basic(self):
        g = make_grid(2, 2, 1.0, 1.0)
        assert g.nx * g.ny == 4
        assert g.hx == 0.5 and g.hy == 0.5

    def test_rectangular(self):
        g = make_grid(10, 5, 2.0, 1.0)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.2)

    @pytest.mark.parametrize("bad", [(1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 0, 1), (2, 2, 1, -1)])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            make_grid(*bad)

    @pytest.mark.parametrize("lx, ly", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)],
                             ids=["nan-lx", "nan-ly", "inf-lx", "inf-ly"])
    def test_rejects_non_finite_edges(self, lx, ly):
        with pytest.raises(ValueError, match="positive and finite"):
            make_grid(9, 9, lx, ly)

    @pytest.mark.parametrize("axis", ["nx", "ny"])
    @pytest.mark.parametrize("cells", [3.0, 2.5, math.nan, math.inf, True, np.float64(4.0)], ids=repr)
    def test_rejects_a_cell_count_that_is_not_an_integer(self, axis, cells):
        sizes = {"nx": 4, "ny": 4, axis: cells}
        with pytest.raises(ValueError, match=rf"^{axis} must be an integer of at least 2 cells, got "):
            Grid(sizes["nx"], sizes["ny"], 1.0, 1.0)

    def test_accepts_numpy_integers(self):
        g = Grid(np.int64(5), np.int32(3), 1.0, 1.0)
        assert ScalarField.zeros(g).values.shape == (5, 3)

    def test_measure_matches_cell_sum(self):
        g = make_grid(7, 13, 2.5, 0.75)
        assert g.nx * g.ny * g.cell_area == pytest.approx(g.area, rel=1e-15)


class TestScalarField:
    def test_rejects_nonfinite(self):
        g = make_grid(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        g = make_grid(3, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((2, 2)))

    def test_rejects_same_size_wrong_shape(self):
        # a transposed or flat array holds the right number of values but
        # would be scrambled by a reshape
        g = make_grid(3, 2, 1.0, 1.0)
        values = np.arange(6.0).reshape(3, 2)
        for wrong in (values.T, values.ravel()):
            with pytest.raises(ValueError):
                ScalarField(g, wrong)


class TestGradient:
    def test_constant_field(self):
        g = make_grid(4, 4, 1.0, 1.0)
        c = 0.7
        gx, gy = face_gradients(np.full(g.shape, c), g.hx, g.hy)
        assert np.allclose(gx[1:-1, :], 0.0)
        assert np.allclose(gy[:, 1:-1], 0.0)
        assert np.allclose(gx[0, :], 2 * c / g.hx)
        assert np.allclose(gx[-1, :], -2 * c / g.hx)
        assert np.allclose(gy[:, 0], 2 * c / g.hy)
        assert np.allclose(gy[:, -1], -2 * c / g.hy)

    def test_linear_field_exact_interior(self):
        g = make_grid(8, 6, 1.0, 1.0)
        v = ScalarField.from_function(g, lambda X, Y: X)
        gx, gy = face_gradients(v.values, g.hx, g.hy)
        assert np.allclose(gx[1:-1, :], 1.0, atol=1e-14)
        assert np.allclose(gy[:, 1:-1], 0.0, atol=1e-14)

    def test_affine_field_exact_interior(self):
        g = make_grid(9, 5, 2.0, 1.5)
        v = ScalarField.from_function(g, lambda X, Y: 2.0 * X - 3.0 * Y + 0.25)
        gx, gy = face_gradients(v.values, g.hx, g.hy)
        assert np.allclose(gx[1:-1, :], 2.0, atol=1e-13)
        assert np.allclose(gy[:, 1:-1], -3.0, atol=1e-13)

    def test_zero_field(self):
        g = make_grid(3, 3, 1.0, 1.0)
        gx, gy = face_gradients(np.zeros(g.shape), g.hx, g.hy)
        assert not gx.any() and not gy.any()


class TestIntegrate:
    def test_constant_unit_square(self):
        g = make_grid(5, 5, 1.0, 1.0)
        assert integrate(ScalarField.full(g, 1.0)) == pytest.approx(1.0, rel=1e-15)

    def test_constant_rectangle(self):
        g = make_grid(6, 3, 2.0, 1.0)
        assert integrate(ScalarField.full(g, 3.0)) == pytest.approx(6.0, rel=1e-15)

    def test_sin_sin_against_analytic(self):
        g = make_grid(64, 64, 1.0, 1.0)
        assert integrate(sin_sin(g)) == pytest.approx(SIN_SIN_INTEGRAL, abs=1e-3)

    def test_linearity(self):
        g = make_grid(6, 7, 1.0, 2.0)
        rng = np.random.default_rng(3)
        a = ScalarField(g, rng.standard_normal(g.shape))
        b = ScalarField(g, rng.standard_normal(g.shape))
        combo = ScalarField(g, 2.0 * a.values - 0.5 * b.values)
        assert integrate(combo) == pytest.approx(2 * integrate(a) - 0.5 * integrate(b), rel=1e-12)

    def test_second_order_refinement(self):
        errs = []
        for n in (16, 32):
            g = make_grid(n, n, 1.0, 1.0)
            errs.append(abs(integrate(sin_sin(g)) - SIN_SIN_INTEGRAL))
        assert errs[0] / errs[1] >= 3.5


class TestNorms:
    def test_linf(self):
        g = make_grid(2, 2, 1.0, 1.0)
        v = ScalarField(g, np.array([[1.0, -3.0], [2.0, 0.0]]))
        assert linf_norm(v) == 3.0


class TestWeightedEnergy:
    def test_manufactured_against_analytic(self):
        g = make_grid(128, 128, 1.0, 1.0)
        ones = ScalarField.full(g, 1.0)
        assert weighted_energy(ones, sin_sin(g)) == pytest.approx(SIN_SIN_ENERGY, abs=1e-2)

    def test_zero_field(self):
        g = make_grid(4, 4, 1.0, 1.0)
        assert weighted_energy(ScalarField.full(g, 1.0), ScalarField.zeros(g)) == 0.0

    def test_linear_in_coefficient(self):
        g = make_grid(16, 16, 1.0, 1.0)
        v = sin_sin(g)
        e1 = weighted_energy(ScalarField.full(g, 1.0), v)
        e2 = weighted_energy(ScalarField.full(g, 2.0), v)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-14)

    def test_discrete_coercivity(self):
        g = make_grid(9, 11, 1.0, 1.0)
        rng = np.random.default_rng(11)
        delta_min = 0.3
        c = ScalarField(g, delta_min + rng.random(g.shape))
        v = ScalarField(g, rng.standard_normal(g.shape))
        assert weighted_energy(c, v) >= delta_min * weighted_energy(ScalarField.full(g, 1.0), v) * (1 - 1e-12)

    def test_rejects_nonpositive_coefficient(self):
        g = make_grid(3, 3, 1.0, 1.0)
        c = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            weighted_energy(c, ScalarField.zeros(g))

    def test_second_order_refinement(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, n, 1.0, 1.0)
            e = weighted_energy(ScalarField.full(g, 1.0), sin_sin(g))
            errs.append(abs(e - SIN_SIN_ENERGY))
        assert errs[0] / errs[1] >= 3.5


@pytest.mark.parametrize("pair", [
    lambda a, b: dissipation_source(a, assemble(b)),
    lambda a, b: weighted_energy(a, b),
    lambda a, b: solve_spd(assemble(a), b),
    lambda a, b: assemble(a).energy(b),
], ids=["dissipation_source", "weighted_energy", "solve_spd-rhs", "operator-energy"])
def test_fields_on_different_grids_rejected(pair):
    a = ScalarField.full(make_grid(9, 9, 1.0, 1.0), 1.0)
    b = ScalarField.full(make_grid(9, 7, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="different grid"):
        pair(a, b)
