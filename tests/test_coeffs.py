import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbsolve import (
    HypothesisViolation,
    ScalarField,
    ViscosityModel,
    kirchhoff_A,
    kirchhoff_A_inv,
    make_grid,
    solve_u_given_k,
)
from turbsolve.coeffs import truncated_coefficients

SQRT_MODEL = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=2.0, a1=1.0, a2=1.0, delta=1.0)
UNIT_SQRT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)


class TestEvaluation:
    def test_constant_model(self):
        m = ViscosityModel(kind="constant", nu1=1.0, a1=2.0, delta=0.5)
        for s in (0.0, 3.7, 100.0):
            assert m.nu(s) == 1.0
            assert m.a(s) == 2.0

    def test_sqrt_model(self):
        assert SQRT_MODEL.nu(4.0) == pytest.approx(5.0)
        assert SQRT_MODEL.a(4.0) == pytest.approx(3.0)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            SQRT_MODEL.nu(-1.0)
        with pytest.raises(ValueError):
            SQRT_MODEL.a(np.array([0.5, -0.1]))

    def test_vectorized(self):
        out = SQRT_MODEL.nu(np.array([0.0, 1.0, 4.0]))
        assert np.allclose(out, [1.0, 3.0, 5.0])

    def test_floor_validation(self):
        with pytest.raises(HypothesisViolation) as info:
            ViscosityModel(kind="physical_sqrt", nu1=0.1, a1=1.0, delta=0.5)
        assert info.value.label == "H0"
        with pytest.raises(HypothesisViolation):
            ViscosityModel(kind="constant", nu1=1.0, a1=1.0, delta=0.0)

    def test_proportional_pair_exact(self):
        m = ViscosityModel(kind="physical_sqrt", nu1=2.0, nu2=3.0, a1=1.0, a2=1.5,
                           gamma=0.5, delta=0.5)
        s = np.linspace(0.0, 50.0, 101)
        assert np.array_equal(m.a(s), 0.5 * m.nu(s))

    def test_proportional_mismatch_rejected(self):
        with pytest.raises(HypothesisViolation) as info:
            ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=0.5,
                           gamma=1.0, delta=0.5)
        assert info.value.label == "H2"


class TestRatioFloor:
    def test_proportional(self):
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=3.0, a2=3.0,
                           gamma=3.0, delta=1.0)
        assert m.h1_ratio_inf() == 3.0

    def test_constant(self):
        m = ViscosityModel(kind="constant", nu1=2.0, a1=1.0, delta=0.5)
        assert m.h1_ratio_inf() == pytest.approx(0.5)

    def test_degenerate_ratio(self):
        # a stays bounded while nu grows: no positive floor exists
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=0.0, delta=1.0)
        assert m.h1_ratio_inf() == 0.0


class TestTruncate:
    @pytest.mark.parametrize("t,n,expected", [(5.0, 3, 3.0), (2.0, 10, 2.0), (1.0, 1, 1.0)])
    def test_examples(self, t, n, expected):
        m = ViscosityModel(kind="constant", nu1=t, a1=t, delta=1.0)
        nu_n, a_n, clipped = truncated_coefficients(m, 0.0, n)
        assert nu_n == a_n == expected
        assert clipped == (t > n)

    def test_rejects_bad_level(self):
        g = make_grid(4, 4, 1.0, 1.0)
        for level in (0, 2.5):
            with pytest.raises(ValueError):
                solve_u_given_k(ScalarField.zeros(g), SQRT_MODEL, level, ScalarField.full(g, 1.0))

    @given(st.floats(0.0, 1e6), st.integers(1, 1000))
    def test_bounded_by_both(self, s, n):
        nu_n, a_n, _ = truncated_coefficients(SQRT_MODEL, s, n)
        for out, raw in ((nu_n, SQRT_MODEL.nu(s)), (a_n, SQRT_MODEL.a(s))):
            assert out <= raw or math.isclose(out, raw)
            assert out <= n
            assert out == min(n, raw)


class TestKirchhoffTransform:
    def test_closed_form(self):
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)
        assert kirchhoff_A(m, 1.0) == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert kirchhoff_A(m, 0.0) == 0.0
        assert kirchhoff_A(m, 4.0) == pytest.approx(4.0 + 16.0 / 3.0, rel=1e-15)

    def test_inverse_examples(self):
        m = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)
        assert kirchhoff_A_inv(m, 0.0) == 0.0
        assert kirchhoff_A_inv(m, 5.0 / 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 10.0, size=500)
        for m in (UNIT_SQRT, SQRT_MODEL):
            back = kirchhoff_A_inv(m, kirchhoff_A(m, s))
            assert np.max(np.abs(back - s)) <= 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kirchhoff_A(UNIT_SQRT, -0.5)
        with pytest.raises(ValueError):
            kirchhoff_A_inv(UNIT_SQRT, -0.5)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=200)
    def test_growth_bounds(self, s):
        m = SQRT_MODEL
        A = float(kirchhoff_A(m, s))
        assert A >= m.delta * s * (1 - 1e-12)
        if s > 0:
            assert float(kirchhoff_A_inv(m, A)) <= A / m.delta * (1 + 1e-12)

    def test_strictly_increasing(self):
        s = np.linspace(0.0, 20.0, 200)
        A = kirchhoff_A(SQRT_MODEL, s)
        assert np.all(np.diff(A) > 0)


class TestTableModel:
    def make(self, gamma=None):
        kwargs = dict(
            kind="table",
            delta=1.0,
            table_s=(0.0, 1.0, 4.0),
            table_nu=(1.0, 2.0, 3.0),
        )
        if gamma is None:
            kwargs["table_a"] = (2.0, 4.0, 6.0)
        else:
            kwargs["gamma"] = gamma
        return ViscosityModel(**kwargs)

    def test_interp_eval(self):
        m = self.make()
        assert m.nu(0.5) == pytest.approx(1.5)
        assert m.a(2.5) == pytest.approx(5.0)
        assert m.nu(100.0) == pytest.approx(3.0)  # clamped beyond the table

    def test_transform_matches_quadrature_oracle(self):
        from scipy.integrate import quad

        m = self.make()
        for s in (0.3, 1.0, 2.2, 4.0, 7.5):
            breaks = [b for b in (1.0, 4.0) if b < s]
            oracle, _ = quad(lambda t: m.a(t), 0.0, s, points=breaks or None,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
            assert kirchhoff_A(m, s) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_inverse_roundtrip(self):
        m = self.make()
        s = np.linspace(0.0, 8.0, 100)
        back = kirchhoff_A_inv(m, kirchhoff_A(m, s))
        assert np.max(np.abs(back - s)) <= 1e-10

    def test_proportional_table(self):
        m = self.make(gamma=2.0)
        s = np.linspace(0.0, 6.0, 50)
        assert np.array_equal(m.a(s), 2.0 * m.nu(s))
        assert m.h1_ratio_inf() == 2.0

    def test_floor_enforced(self):
        with pytest.raises(HypothesisViolation):
            ViscosityModel(kind="table", delta=1.0, table_s=(0.0, 1.0),
                           table_nu=(0.5, 2.0), table_a=(1.0, 1.0))

    def test_ratio_floor_at_nodes(self):
        m = self.make()
        assert m.h1_ratio_inf() == pytest.approx(2.0)
