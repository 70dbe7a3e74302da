import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbsolve import (
    HypothesisViolation,
    ViscosityModel,
    kirchhoff_A,
    kirchhoff_A_inv,
)
from turbsolve.coeffs import _table_segments, truncated_coefficients

A_INV_TOL = 1e-12  # the inverse's contract: |A(s) - S| <= A_INV_TOL * max(1, S)

SQRT_MODEL = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=2.0, a1=1.0, a2=1.0, delta=1.0)
UNIT_SQRT = ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=1.0, delta=1.0)

# physical_sqrt models with gamma unset and set, each with a2 > 0 and a2 = 0
INVERSE_MODELS = {
    "sqrt": ViscosityModel(nu1=1.0, nu2=1.0, a1=1.5, a2=2.0, delta=0.5),
    "sqrt-gamma": ViscosityModel(nu1=1.0, nu2=3.0, a1=2.0, a2=6.0, gamma=2.0, delta=1.0),
    "linear": ViscosityModel(nu1=1.0, a1=2.0, delta=0.5),
    "linear-gamma": ViscosityModel(nu1=1.0, a1=1.5, gamma=1.5, delta=1.0),
}
# the listed values, plus random ones spread over the decades they span
COVERAGE_S = np.sort(np.concatenate((
    [0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e6, 1e12],
    10.0 ** np.random.default_rng(11).uniform(-323.0, 12.0, 500),
)))


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


class TestRejectedModels:
    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(kind="cubic", nu1=1.0, a1=1.0), ValueError, "unknown model kind"),
        (dict(nu1=1.0, a1=2.0, gamma=1.0), HypothesisViolation, "a1 != gamma"),
        (dict(kind="table", table_s=(0.0, 1.0, 4.0), table_nu=(1.0, 2.0), table_a=(1.0, 2.0, 3.0)),
         ValueError, "table_nu must match"),
        (dict(kind="table", table_s=(0.0, 1.0), table_nu=(1.0, 2.0)), ValueError,
         "needs table_a"),
        (dict(kind="table", table_s=(0.0, 1.0, 4.0), table_nu=(1.0, 2.0, 3.0), table_a=(1.0, 2.0)),
         ValueError, "table_a must match"),
    ], ids=["unknown-kind", "a1-not-gamma-nu1", "table-nu-shape", "no-table-a", "table-a-shape"])
    def test_rejected_when_built(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            ViscosityModel(**kwargs)


class TestRatioFloor:
    # with finite floors, inf a/nu = 0 exactly when gamma is unset, nu2 > 0 and a2 = 0
    def test_degenerate_ratio(self):
        # a stays bounded while nu grows: no positive floor exists
        with pytest.raises(HypothesisViolation) as info:
            ViscosityModel(kind="physical_sqrt", nu1=1.0, nu2=1.0, a1=1.0, a2=0.0, delta=1.0)
        assert info.value.label == "H1"

    @pytest.mark.parametrize("kwargs, floor", [
        (dict(kind="constant", nu1=2.0, a1=1.0, delta=0.5), 0.5),
        (dict(nu1=1.0, nu2=1.0, a1=1.0, a2=1e-3, delta=1.0), 1e-3),
        (dict(nu1=1.0, nu2=1.0, a1=3.0, a2=3.0, gamma=3.0, delta=1.0), 3.0),
        # a falls to delta mid-table, where nu is 2
        (dict(kind="table", delta=1.0, table_s=(0.0, 1.0, 2.0), table_nu=(1.0, 2.0, 3.0),
              table_a=(2.0, 1.0, 2.0)), 0.5),
    ], ids=["both-slopes-0", "a2-positive", "gamma", "table-a-falls-to-delta"])
    def test_boundary_cases_build(self, kwargs, floor):
        m = ViscosityModel(**kwargs)
        s = np.concatenate((np.linspace(0.0, 4.0, 401), [1e300]))
        assert np.min(m.a(s) / m.nu(s)) == pytest.approx(floor, rel=1e-9)


# the settings of a model that builds when one of them, v, is 2.0
SETTING_CASES = {
    "nu1": lambda v: dict(nu1=v, nu2=1.0, a1=1.0, a2=1.0),
    "nu2": lambda v: dict(nu1=1.0, nu2=v, a1=1.0, a2=1.0),
    "a1": lambda v: dict(nu1=1.0, nu2=1.0, a1=v, a2=1.0),
    "a2": lambda v: dict(nu1=1.0, nu2=1.0, a1=1.0, a2=v),
    "delta": lambda v: dict(nu1=2.0, a1=2.0, delta=v),
    "gamma": lambda v: dict(nu1=1.0, a1=2.0, gamma=v),
    "table_s": lambda v: dict(kind="table", table_s=(0.0, 1.0, v), table_nu=(1.0, 2.0, 3.0),
                              table_a=(1.0, 2.0, 3.0)),
    "table_nu": lambda v: dict(kind="table", table_s=(0.0, 1.0, 4.0), table_nu=(1.0, v, 3.0),
                               table_a=(1.0, 2.0, 3.0)),
    "table_a": lambda v: dict(kind="table", table_s=(0.0, 1.0, 4.0), table_nu=(1.0, 2.0, 3.0),
                              table_a=(1.0, v, 3.0)),
    "table-gamma": lambda v: dict(kind="table", table_s=(0.0, 1.0, 4.0), table_nu=(1.0, 2.0, 3.0),
                                  gamma=v),
}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("field", SETTING_CASES)
    def test_rejected_when_built(self, field, bad):
        with pytest.raises(ValueError):
            ViscosityModel(**SETTING_CASES[field](bad))

    @pytest.mark.parametrize("field", SETTING_CASES)
    def test_builds_with_a_finite_value(self, field):
        ViscosityModel(**SETTING_CASES[field](2.0))


class TestTruncate:
    @pytest.mark.parametrize("t,n,expected", [(5.0, 3, 3.0), (2.0, 10, 2.0), (1.0, 1, 1.0)])
    def test_examples(self, t, n, expected):
        m = ViscosityModel(kind="constant", nu1=t, a1=t, delta=1.0)
        nu_n, a_n, clipped = truncated_coefficients(m, 0.0, n)
        assert nu_n == a_n == expected
        assert clipped == (t > n)

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

    @pytest.mark.parametrize("s", [1e210, np.array([1.0, 1e210])], ids=["scalar", "array"])
    def test_overflowing_A_raises(self, s):
        # the suite turns warnings into errors, so this also checks that no overflow warning escapes
        with pytest.raises(ValueError, match="not a finite float"):
            kirchhoff_A(UNIT_SQRT, s)

    def test_A_below_overflow_unchanged(self):
        s = np.array([0.0, 0.5, 4.0, 1e100, 1e200])
        A = kirchhoff_A(UNIT_SQRT, s)
        assert np.array_equal(A, s + (2.0 / 3.0) * s ** 1.5)
        assert kirchhoff_A(UNIT_SQRT, 1e200) == A[-1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kirchhoff_A(UNIT_SQRT, -0.5)
        with pytest.raises(ValueError):
            kirchhoff_A_inv(UNIT_SQRT, -0.5)

    @pytest.mark.parametrize("m", INVERSE_MODELS.values(), ids=INVERSE_MODELS)
    def test_inverse_coverage(self, m):
        S = COVERAGE_S
        s = kirchhoff_A_inv(m, S)
        # A(s) stays finite for S <= 1e12, so the contract is checked everywhere
        assert np.all(np.abs(kirchhoff_A(m, s) - S) <= A_INV_TOL * np.maximum(1.0, S))
        assert np.all(s >= 0.0) and np.all(s <= S / m.delta * (1 + 1e-12))
        assert np.all(np.diff(s) >= 0.0)

    @pytest.mark.parametrize("S", [np.nan, np.inf, np.array([0.5, np.nan, 2.0])],
                             ids=["nan", "inf", "array-holding-nan"])
    @pytest.mark.parametrize("m", [
        UNIT_SQRT,
        ViscosityModel(kind="constant", nu1=1.0, a1=2.0, delta=1.0),
        ViscosityModel(kind="table", table_s=(0.0, 1.0), table_nu=(1.0, 2.0), gamma=1.0),
    ], ids=["physical_sqrt", "constant", "table"])
    def test_inverse_rejects_non_finite(self, m, S):
        with pytest.raises(ValueError, match="finite"):
            kirchhoff_A_inv(m, S)

    def test_inverse_of_huge_value(self):
        # the suite turns warnings into errors, so this also checks that nothing overflows
        for m in (UNIT_SQRT, SQRT_MODEL, INVERSE_MODELS["sqrt-gamma"]):
            s = kirchhoff_A_inv(m, 1e300)
            assert abs(kirchhoff_A(m, s) - 1e300) <= A_INV_TOL * 1e300
        big = np.finfo(float).max
        # a1 and c = (2/3) a2 below 1: S/a1 and S/c would overflow
        low = ViscosityModel(nu1=0.5, nu2=0.1, a1=0.5, a2=0.1, delta=0.5)
        # sqrt(27 sigma / 4) = sqrt(27 S / 4) c / a1^1.5 overflows, though s is near 1.9e72
        steep = ViscosityModel(nu1=1.0, nu2=1.0, a1=1.0, a2=1e200, delta=1.0)
        for m in (low, steep, *INVERSE_MODELS.values()):
            s = kirchhoff_A_inv(m, big)
            assert 0.0 < s < math.inf and s * m.delta <= big
            # A(s) itself may overflow here, so the cubic in t = sqrt(s) is checked over S
            a1, a2 = m._a_coeffs()
            t = math.sqrt(s)
            assert abs(((2.0 / 3.0) * a2 * t + a1) * t * (t / big) - 1.0) <= A_INV_TOL

    @pytest.mark.parametrize("m", [UNIT_SQRT, SQRT_MODEL, INVERSE_MODELS["sqrt"],
                                   INVERSE_MODELS["sqrt-gamma"]],
                             ids=["unit", "sqrt-model", "sqrt", "sqrt-gamma"])
    def test_inverse_across_the_branch_point(self, m):
        # The inverse switches formulas at sigma = S c^2 / a1^3 = 4/27, c = (2/3) a2:
        # the 2000 floats on either side of that S (positive floats order as
        # their bit patterns) and a dense sweep around it
        a1, a2 = m._a_coeffs()
        branch = (4.0 / 27.0) * a1**3 / ((2.0 / 3.0) * a2) ** 2
        near = (np.float64(branch).view(np.int64) + np.arange(-2000, 2001)).view(np.float64)
        assert np.array_equal(near[1:], np.nextafter(near[:-1], np.inf))
        S = np.sort(np.concatenate((near, branch * np.linspace(0.25, 4.0, 4001))))
        s = kirchhoff_A_inv(m, S)
        assert np.all(np.abs(kirchhoff_A(m, s) - S) <= A_INV_TOL * np.maximum(1.0, S))
        assert np.all(s <= S / m.delta)
        assert np.all(np.diff(s) >= 0.0)

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


STEEP_TABLE = ViscosityModel(kind="table", delta=1.0, table_s=(0.0, 0.05, 0.05002, 1.0),
                             table_nu=(1.0, 1.0, 1.0, 1.0), table_a=(1.0, 1.0, 1e8, 1.0))


def random_tables(rng, count):
    """Tables of 2 to 6 nodes with a between 1 and 1e8 at each, so segments
    rise and fall by up to 1e8; every other one proportional (gamma set)."""
    for i in range(count):
        size = int(rng.integers(2, 7))
        s = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-5.0, 1.0, size - 1))))
        a = 10.0 ** rng.uniform(0.0, 8.0, size)
        if i % 2:
            yield ViscosityModel(kind="table", delta=1.0, table_s=tuple(s), table_nu=tuple(a),
                                 table_a=tuple(a))
        else:
            yield ViscosityModel(kind="table", delta=0.5, table_s=tuple(s), table_nu=tuple(a),
                                 gamma=float(rng.uniform(0.5, 3.0)))


def exact_A(m, S, x):
    """A(x) in exact arithmetic on the segment table's piece that holds S (extended past it)."""
    nodes, vals, slope, cum = _table_segments(m)
    if S >= cum[-1]:
        return Fraction(cum[-1]) + Fraction(vals[-1]) * (Fraction(x) - Fraction(nodes[-1]))
    i = int(np.searchsorted(cum, S, side="right")) - 1
    t = Fraction(x) - Fraction(nodes[i])
    return Fraction(cum[i]) + Fraction(vals[i]) * t + Fraction(slope[i]) * t * t / 2


def assert_exact_root(m, S, s, steps, rel):
    """s lies within ``steps`` float steps of the exact root of A(s) = S', for
    some S' within ``rel * S`` of S."""
    lo = hi = s
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    target, slack = Fraction(S), Fraction(rel) * Fraction(S)
    assert exact_A(m, S, lo) <= target + slack and exact_A(m, S, hi) >= target - slack, (S, s)


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

    def test_floor_enforced(self):
        with pytest.raises(HypothesisViolation):
            ViscosityModel(kind="table", delta=1.0, table_s=(0.0, 1.0),
                           table_nu=(0.5, 2.0), table_a=(1.0, 1.0))

    # -- the closed-form inverse ------------------------------------------

    def test_steep_segment_inverts(self):
        # a rises from 1 to 1e8 over 2e-5: a(s) * ulp(s), the least step of A
        # between floats, is near 1e-12 * S there, so a tolerance on A can fail
        m = STEEP_TABLE
        *_, cum = _table_segments(m)
        S = np.linspace(cum[1], cum[2], 2001)
        s = kirchhoff_A_inv(m, S)
        assert np.all((0.05 <= s) & (s <= 0.05002))
        for target, root in zip(S, s):
            assert_exact_root(m, target, root, steps=1, rel=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_is_the_exact_root_to_rounding(self, seed):
        rng = np.random.default_rng(seed)
        for m in random_tables(rng, 12):
            *_, cum = _table_segments(m)
            # random targets, the node integrals and the last floats below each of them
            S = np.concatenate((rng.uniform(0.0, 1.5 * cum[-1], 20), cum,
                                *(np.nextafter(c, 0.0) - np.spacing(c) * np.arange(4) for c in cum[1:])))
            s = kirchhoff_A_inv(m, S)
            assert np.all(s <= S / m.delta)
            for target, root in zip(S, s):
                assert_exact_root(m, target, root, steps=2, rel=2.0**-51)

    @pytest.mark.parametrize("gamma", [None, 2.0])
    def test_nodes_zero_and_tail(self, gamma):
        for m in (self.make(gamma), STEEP_TABLE):
            nodes, vals, _, cum = _table_segments(m)
            assert kirchhoff_A_inv(m, 0.0) == 0.0
            assert np.array_equal(kirchhoff_A_inv(m, cum), nodes)
            # beyond the last node A is linear with slope a(last node)
            S = cum[-1] + vals[-1] * np.array([0.5, 3.0, 1e6])
            s = kirchhoff_A_inv(m, S)
            assert np.all(s > nodes[-1])
            for target, root in zip(S, s):
                assert_exact_root(m, target, root, steps=1, rel=0)
            assert np.allclose(kirchhoff_A(m, s), S, rtol=1e-15)

    @pytest.mark.parametrize("m", [
        ViscosityModel(kind="table", delta=0.5, table_s=(0.0, 1.0), table_nu=(1.0, 0.5), table_a=(1.0, 0.5)),
        ViscosityModel(kind="constant", nu1=0.5, a1=0.5, delta=0.5),
    ], ids=["table", "constant"])
    @pytest.mark.parametrize("S", [np.finfo(float).max, np.array([1.0, np.finfo(float).max])],
                             ids=["scalar", "array"])
    def test_overflowing_inverse_raises(self, m, S):
        # the suite turns warnings into errors, so this also checks that no overflow warning escapes
        with pytest.raises(ValueError, match="not a finite float"):
            kirchhoff_A_inv(m, S)

