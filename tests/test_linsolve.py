import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import turbsolve
from turbsolve import (
    LinearSolveError,
    LinearSolveReport,
    ScalarField,
    assemble,
    linf_norm,
    make_grid,
    solve_spd,
    weighted_energy,
)
from turbsolve._kernels import face_gradients
from turbsolve.grid import face_average
from turbsolve.linsolve import (
    FLOOR_BACKWARD_ERROR,
    INNER_TOL,
    DiffusionOperator,
    _dst2_basis,
    _ldexp,
    poisson_inverse,
    unit_operator,
)
from turbsolve.verify import manufactured_forcing, manufactured_solution


# Relative error of the float32 preconditioner apply: float32 eps times a
# few N at 129^2, with room for 513^2
APPLY_TOL = 1e-4


def exact_poisson_inverse(g, r):
    """L^{-1} r from the float64 DST-II bases and eigenvalues."""
    qx, lam_x = _dst2_basis(g.nx, g.hx)
    qy, lam_y = _dst2_basis(g.ny, g.hy)
    return qx @ ((qx.T @ r @ qy) / (lam_x[:, None] + lam_y[None, :])) @ qy.T


def apply_poisson_inverse(g, r):
    """The package's float32 apply of L^{-1} r."""
    w1, w2 = np.empty(g.shape, np.float32), np.empty(g.shape, np.float32)
    return poisson_inverse(g).apply(r, np.empty(g.shape), w1, w2)


def relative_error(x, exact):
    return np.linalg.norm(x - exact) / np.linalg.norm(exact)


def random_operator(nx=9, ny=7, seed=0):
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, 1.1, 0.9)
    c = ScalarField(g, 0.5 + rng.random(g.shape))
    return g, c, assemble(c), rng


class TestAssembly:
    def test_constant_coefficient_interior_stencil(self):
        g = make_grid(5, 5, 1.0, 1.0)
        A = assemble(ScalarField.full(g, 1.0))
        h2 = g.hx**2
        e = np.zeros(g.shape)
        e[2, 2] = 1.0
        out = A.apply(e)
        assert out[2, 2] == pytest.approx(4.0 / h2)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert out[2 + di, 2 + dj] == pytest.approx(-1.0 / h2)

    def test_constant_field_boundary_only(self):
        g, c, A, _ = random_operator()
        out = A.apply(np.ones(g.shape))
        assert np.allclose(out[1:-1, 1:-1], 0.0, atol=1e-12)
        assert np.all(np.abs(out[0, :]) > 0)
        assert np.all(np.abs(out[-1, :]) > 0)

    def test_symmetry_random_contraction(self):
        g, c, A, rng = random_operator(seed=4)
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        lhs = float(np.vdot(A.apply(u), v))
        rhs = float(np.vdot(u, A.apply(v)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_rejects_nonpositive_coefficient(self):
        g = make_grid(3, 3, 1.0, 1.0)
        values = np.ones(g.shape)
        values[1, 1] = 0.0
        with pytest.raises(ValueError):
            assemble(ScalarField(g, values))

    def test_poisson_inverse_is_exact(self):
        # non-square, hx != hy: the float64 bases and eigenvalues recover v
        # from A(1) v, and the float32 apply stays within APPLY_TOL of them
        g = make_grid(17, 33, 1.0, 2.0)
        v = np.random.default_rng(9).standard_normal(g.shape)
        Av = assemble(ScalarField.full(g, 1.0)).apply(v)
        w = exact_poisson_inverse(g, Av)
        assert np.linalg.norm(w - v) <= 1e-12 * np.linalg.norm(v)
        assert relative_error(apply_poisson_inverse(g, Av), w) <= APPLY_TOL

    def test_pointwise_consistency_on_smooth_data(self):
        # applying the operator approximates -div(c grad v) at second order
        errs = []
        for n in (32, 64):
            g = make_grid(n, n, 1.0, 1.0)
            c = ScalarField.from_function(g, lambda X, Y: 1.0 + 0.5 * X * Y)
            v = manufactured_solution(g)
            pi = np.pi
            X, Y = g.cell_centers()
            # -div(c grad v) for v = sin sin, c = 1 + xy/2
            exact = (
                2 * pi**2 * (1 + 0.5 * X * Y) * np.sin(pi * X) * np.sin(pi * Y)
                - 0.5 * pi * (Y * np.cos(pi * X) * np.sin(pi * Y) + X * np.sin(pi * X) * np.cos(pi * Y))
            )
            interior = (slice(4, -4), slice(4, -4))
            err = np.max(np.abs(assemble(c).apply(v.values)[interior] - exact[interior]))
            errs.append(err)
        assert errs[0] / errs[1] >= 3.5


class TestSolve:
    def test_zero_rhs(self):
        g, c, A, _ = random_operator()
        x, report = solve_spd(A, ScalarField.zeros(g))
        assert not x.values.any()
        assert report == LinearSolveReport(0, 0.0)

    def test_roundtrip_recovery(self):
        g, c, A, rng = random_operator(seed=2)
        y = rng.standard_normal(g.shape)
        b = ScalarField(g, A.apply(y))
        x, report = solve_spd(A, b, tol=1e-13)
        assert report.relative_residual <= 1e-13
        assert np.max(np.abs(x.values - y)) <= 1e-10

    def test_manufactured_second_order(self):
        errs = []
        for n in (17, 33):
            g = make_grid(n, n, 1.0, 1.0)
            A = assemble(ScalarField.full(g, 1.0))
            x, _ = solve_spd(A, manufactured_forcing(g, 1.0), tol=1e-13)
            errs.append(linf_norm(ScalarField(g, x.values - manufactured_solution(g).values)))
        assert errs[0] / errs[1] >= 3.5

    def test_maximum_principle(self):
        g, c, A, rng = random_operator(seed=8)
        b = ScalarField(g, rng.random(g.shape))
        x, _ = solve_spd(A, b, tol=1e-14)
        assert x.values.min() >= -1e-13 * max(1.0, linf_norm(x))

    def test_energy_identity_at_convergence(self):
        g, c, A, rng = random_operator(seed=6)
        b = ScalarField(g, rng.standard_normal(g.shape))
        tol = 1e-12
        x, report = solve_spd(A, b, tol=tol)
        quad = float(np.vdot(A.apply(x.values), x.values))
        load = float(np.vdot(b.values, x.values))
        bound = tol * float(np.linalg.norm(b.values)) * float(np.linalg.norm(x.values))
        assert abs(quad - load) <= 10 * bound + 1e-14
        assert weighted_energy(c, x) == pytest.approx(quad * g.cell_area, rel=1e-12)

    def test_tol_below_floor_returns_at_floor(self):
        # 1e-17 lies below the rounding floor; CG used to restart there until
        # its whole 10 * nx * ny budget of 630 iterations was spent
        g, c, A, rng = random_operator(seed=3)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x, report = solve_spd(A, b, tol=1e-17)
        assert report.at_floor and report.relative_residual > 1e-17
        assert report.iterations <= 50 < 630 == 10 * g.nx * g.ny
        assert report.backward_error <= FLOOR_BACKWARD_ERROR
        r = b.values - A.apply(x.values)
        assert report.relative_residual == np.linalg.norm(r) / np.linalg.norm(b.values)
        backward = np.max(np.abs(r)) / (A.norm_inf() * linf_norm(x) + linf_norm(b))
        assert backward == pytest.approx(report.backward_error, rel=1e-12)

    def test_stall_above_floor_raises(self):
        # an apply with relative noise of 1e-10 keeps the true residual near
        # 1e-10: the solve stalls far above the rounding floor
        g, c, A, rng = random_operator(seed=3)
        noise = np.random.default_rng(0)

        class Noisy(DiffusionOperator):
            def apply(self, v, out=None):
                out = super().apply(v, out)
                out *= 1.0 + 1e-10 * noise.standard_normal(out.shape)
                return out

        b = ScalarField(g, rng.standard_normal(g.shape))
        with pytest.raises(LinearSolveError, match="stalled at relative residual") as info:
            solve_spd(Noisy(g, A.wx, A.wy, A.wd), b, tol=1e-12)
        report = info.value.report
        assert not report.at_floor and report.relative_residual > 1e-12
        assert report.backward_error > FLOOR_BACKWARD_ERROR
        assert report.iterations < 630

    def test_norm_inf_is_the_largest_absolute_row_sum(self):
        g, c, A, _ = random_operator(seed=4)
        dense = np.column_stack([A.apply(e.reshape(g.shape)).ravel() for e in np.eye(g.nx * g.ny)])
        assert A.norm_inf() == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-14)

    @pytest.mark.parametrize("amplitude", [1e160, 1e300, 1.7e308, 1e-150, 1e-165, 1e-300], ids=repr)
    def test_any_load_scale_solves_as_the_unit_load(self, amplitude):
        # norms used to overflow above about 1e154 (NaN iterations to the
        # budget) and underflow below about 1e-154 (x = 0 reported as solved);
        # at 1.7e308 the load's scale 2^-e lies outside the normal powers of
        # two, where the scaling falls back to ldexp
        g = make_grid(17, 17, 1.0, 1.0)
        A = assemble(ScalarField.full(g, 1.0))
        unit, unit_report = solve_spd(A, ScalarField.full(g, 1.0))
        b = ScalarField.full(g, amplitude)
        x, report = solve_spd(A, b)
        assert report.iterations == unit_report.iterations
        # the loads differ by a mantissa that is not a power of two, which
        # the float32 preconditioner rounds differently
        assert np.max(np.abs(x.values / amplitude - unit.values)) <= INNER_TOL * linf_norm(unit)
        # the true relative residual, evaluated at a power-of-two scale where no norm overflows
        e = math.frexp(amplitude)[1]
        r = np.ldexp(b.values, -e) - A.apply(np.ldexp(x.values, -e))
        true = np.linalg.norm(r) / np.linalg.norm(np.ldexp(b.values, -e))
        assert 0.0 < true <= INNER_TOL and report.relative_residual == true

    # below about 1e-307 the solution (about 0.074 times the load) is
    # subnormal, so the multiply back to the load's scale rounds it; the
    # report must certify the rounded x, not the unrounded iterate
    def test_a_rounded_subnormal_solution_is_certified_as_returned(self):
        g = make_grid(17, 17, 1.0, 1.0)
        A = assemble(ScalarField.full(g, 1.0))
        b = ScalarField.full(g, 1e-308)
        x, report = solve_spd(A, b)
        assert np.max(np.abs(x.values)) < np.finfo(float).tiny
        e = math.frexp(1e-308)[1]
        r = np.ldexp(b.values, -e) - A.apply(np.ldexp(x.values, -e))
        true = np.linalg.norm(r) / np.linalg.norm(np.ldexp(b.values, -e))
        assert report.relative_residual == true <= INNER_TOL

    def test_a_subnormal_solution_that_rounding_spoils_raises(self):
        # at 1e-310 the rounded solution's residual is 2e-11, the unrounded iterate's 8e-13
        g = make_grid(17, 17, 1.0, 1.0)
        A = assemble(ScalarField.full(g, 1.0))
        with pytest.raises(LinearSolveError, match="the solution underflows") as info:
            solve_spd(A, ScalarField.full(g, 1e-310))
        report = info.value.report
        assert report.relative_residual > INNER_TOL and not report.at_floor
        assert report.backward_error > FLOOR_BACKWARD_ERROR

    def test_non_finite_residual_raises_after_one_iteration(self):
        # wall weights near the float maximum on a wide domain: the first
        # matvec overflows, and CG used to iterate on NaN to its budget
        g = make_grid(17, 17, 1e3, 1e3)
        A = assemble(ScalarField.full(g, 1.0))
        huge = DiffusionOperator(g, A.wx, A.wy, np.full(A.wd.size, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LinearSolveError, match="not finite after 1 iterations") as info:
                solve_spd(huge, ScalarField.full(g, 1.0))
        assert info.value.report.iterations == 1

    def test_indefinite_operator_breaks_down(self):
        # assemble() admits positive coefficients only; a hand-built -I reaches the check
        g = make_grid(9, 7, 1.0, 1.0)
        A = DiffusionOperator(g, np.zeros((g.nx - 1) * g.ny), np.zeros(g.nx * g.ny - 1),
                              np.full(g.nx * g.ny, -1.0))
        with pytest.raises(LinearSolveError, match="broke down") as info:
            solve_spd(A, ScalarField.full(g, 1.0))
        assert info.value.report.iterations == 1

    def test_residual_contract(self):
        g, c, A, rng = random_operator(seed=12)
        b = ScalarField(g, rng.standard_normal(g.shape))
        tol = 1e-11
        x, report = solve_spd(A, b, tol=tol)
        res = np.linalg.norm(b.values - A.apply(x.values)) / np.linalg.norm(b.values)
        assert res <= tol
        assert report.relative_residual <= tol

    def test_rejects_bad_tolerance(self):
        g, c, A, _ = random_operator()
        with pytest.raises(ValueError):
            solve_spd(A, ScalarField.zeros(g), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("-inf"), float("inf")], ids=repr)
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # a NaN tolerance used to reach CG, which reported a breakdown; an
        # infinite one would return the start as a solution
        g = make_grid(17, 17, 1.0, 1.0)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            solve_spd(assemble(ScalarField.full(g, 1.0)), ScalarField.full(g, 1.0), tol=tol)

    def test_deterministic(self):
        g, c, A, rng = random_operator(seed=5)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x1, _ = solve_spd(A, b)
        x2, _ = solve_spd(A, b)
        assert np.array_equal(x1.values, x2.values)

    def test_iterations_independent_of_mesh(self):
        # coefficient ratio 4: kappa <= 4 at every h, so the count stays flat
        iterations = []
        for n in (33, 65, 129):
            g = make_grid(n, n, 1.0, 1.0)
            c = ScalarField.from_function(
                g, lambda X, Y: 2.5 + 1.5 * np.sin(2 * np.pi * X) * np.cos(3 * np.pi * Y))
            b = ScalarField(g, np.random.default_rng(n).standard_normal(g.shape))
            A = assemble(c)
            report = solve_spd(A, b, tol=1e-12)[1]
            # the float32 preconditioner costs at most 2 iterations over the float64 inverse
            exact = reference_cg(A, b, 1e-12, exact_poisson_inverse)[1]
            assert report.iterations <= exact.iterations + 2
            iterations.append(report.iterations)
        assert max(iterations) <= 40
        assert iterations[-1] <= iterations[0] + 5


class TestWarmStart:
    def test_converged_start_returns_at_once(self):
        g, c, A, rng = random_operator(seed=13)
        b = ScalarField(g, rng.standard_normal(g.shape))
        tol = 1e-12
        x, _ = solve_spd(A, b, tol=tol)
        y, report = solve_spd(A, b, tol=tol, x0=x)
        assert report.iterations == 0
        res = np.linalg.norm(b.values - A.apply(y.values)) / np.linalg.norm(b.values)
        assert report.relative_residual == res <= tol
        assert np.array_equal(y.values, x.values) and y.values is not x.values

    def test_warm_start_deterministic_and_cheaper(self):
        g, c, A, rng = random_operator(nx=33, ny=33, seed=14)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x, cold = solve_spd(A, b)
        x0 = ScalarField(g, x.values + 1e-6 * rng.standard_normal(g.shape))
        y1, warm1 = solve_spd(A, b, x0=x0)
        y2, warm2 = solve_spd(A, b, x0=x0)
        assert warm1 == warm2 and np.array_equal(y1.values, y2.values)
        assert warm1.relative_residual <= INNER_TOL and 0 < warm1.iterations < cold.iterations

    def test_rejects_start_on_other_grid(self):
        g, c, A, rng = random_operator()
        b = ScalarField(g, rng.standard_normal(g.shape))
        with pytest.raises(ValueError, match="initial guess"):
            solve_spd(A, b, x0=ScalarField.zeros(make_grid(9, 7, 1.0, 1.0)))


class TestLooseTol:
    def test_stops_early_and_reports_the_residual_reached(self):
        g, c, A, rng = random_operator(nx=33, ny=33, seed=15)
        b = ScalarField(g, rng.standard_normal(g.shape))
        _, tight = solve_spd(A, b, tol=1e-12)
        y, loose = solve_spd(A, b, tol=1e-12, loose_tol=1e-4)
        assert 0 < loose.iterations < tight.iterations
        res = np.linalg.norm(b.values - A.apply(y.values)) / np.linalg.norm(b.values)
        assert loose.relative_residual == res
        assert 1e-12 < res <= 1e-4

    def test_start_missing_tol_takes_an_iteration(self):
        # the start already meets the loose target; it is judged against tol
        g, c, A, rng = random_operator(nx=33, ny=33, seed=16)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x, _ = solve_spd(A, b, tol=1e-12)
        x0 = ScalarField(g, x.values + 1e-8 * rng.standard_normal(g.shape))
        start = np.linalg.norm(b.values - A.apply(x0.values)) / np.linalg.norm(b.values)
        assert 1e-12 < start <= 1e-3
        y, report = solve_spd(A, b, tol=1e-12, x0=x0, loose_tol=1e-3)
        assert report.iterations >= 1 and report.relative_residual < start
        assert not np.array_equal(y.values, x0.values)

    def test_start_meeting_tol_returns_at_once(self):
        g, c, A, rng = random_operator(seed=17)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x, _ = solve_spd(A, b, tol=1e-12)
        _, report = solve_spd(A, b, tol=1e-12, x0=x, loose_tol=1e-3)
        assert report.iterations == 0 and report.relative_residual <= 1e-12

    @pytest.mark.parametrize("loose_tol", [float("nan"), -1e-3, float("-inf")], ids=repr)
    def test_rejects_nan_and_negative(self, loose_tol):
        g, c, A, rng = random_operator(seed=18)
        b = ScalarField(g, rng.standard_normal(g.shape))
        with pytest.raises(ValueError, match="loose tolerance must be nonnegative"):
            solve_spd(A, b, tol=1e-12, loose_tol=loose_tol)

    @pytest.mark.parametrize("loose_tol", [0.0, float("inf")], ids=repr)
    def test_zero_and_inf_stay_valid(self, loose_tol):
        # _picard passes 0.0 after a level's first iteration; inf stops at the first iterate
        g, c, A, rng = random_operator(seed=18)
        b = ScalarField(g, rng.standard_normal(g.shape))
        _, report = solve_spd(A, b, tol=1e-12, loose_tol=loose_tol)
        assert report.iterations >= 1
        assert (report.relative_residual <= 1e-12) == (loose_tol == 0.0)


def test_power_of_two_scaling_is_ldexp_bit_for_bit():
    # n from -1100 to 1100 spans both fallbacks; inputs cover +-0, subnormals,
    # every binade, the float maximum and inf, and products that are exact,
    # subnormal (with ties: k 2^-53 times 2^-1022 is k/2 units of the
    # smallest subnormal), zero or overflowing
    rng = np.random.default_rng(28)
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, tiny, 3 * tiny, 2.5e-310, np.finfo(float).tiny, 1.0, math.pi, 1.7e308,
               np.finfo(float).max, np.inf] + [k * 2.0**-53 for k in range(1, 8)]
    binades = np.ldexp(rng.uniform(1.0, 2.0, 200), rng.integers(-1074, 1024, 200))
    x = np.concatenate([special, binades])
    x = np.concatenate([x, -x])
    out = np.empty_like(x)
    with np.errstate(over="ignore"):
        for n in range(-1100, 1101):
            expected = np.ldexp(x, n).tobytes()
            assert _ldexp(x, n).tobytes() == expected, n
            assert _ldexp(x, n, out=out) is out and out.tobytes() == expected, n
            for v in (1.0, -3 * tiny, 1.7e308):  # Python floats, as the energy identity scales one
                assert np.float64(_ldexp(v, n)).tobytes() == np.ldexp(v, n).tobytes(), (v, n)


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy.fft alone doubles peak RSS
    src = str(Path(turbsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, turbsolve; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def precondition(g, r):
    """Out-of-place float32 L^{-1} r: the package's roundings and matrix products, in its order."""
    M = poisson_inverse(g)
    e = math.frexp(np.max(np.abs(r)))[1]
    y = M.qx @ ((M.qx.T @ np.ldexp(r, -e).astype(np.float32) @ M.qy) / M.eig) @ M.qy.T
    return np.ldexp(y.astype(np.float64), e - M.scale)


def reference_cg(A, b, tol, precondition=precondition):
    """Out-of-place flexible CG preconditioned with S P S, P = ``precondition``: a fresh array for
    every vector update."""
    S = 1.0 if A.preconditioner_scale is None else A.preconditioner_scale

    def scaled(r):
        return S * precondition(A.grid, S * r)

    rhs = b.values
    bnorm = float(np.linalg.norm(rhs))
    x = np.zeros(rhs.shape)
    r = rhs.copy()
    z = scaled(r)
    p = z.copy()
    iterations = 0
    while True:
        iterations += 1
        Ap = A.apply(p)
        pAp = float(np.vdot(p, Ap))
        alpha = float(np.vdot(r, z)) / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if float(np.linalg.norm(r)) / bnorm <= tol:
            r_true = rhs - A.apply(x)
            res_true = float(np.linalg.norm(r_true)) / bnorm
            if res_true <= tol:
                return x, LinearSolveReport(iterations, res_true)
            r = r_true
            z = scaled(r)
            p = z.copy()
            continue
        z = scaled(r)
        p = z + (-float(np.vdot(z, Ap)) / pAp) * p


def contrast_problem(jump=0.0):
    g = make_grid(33, 33, 1.0, 1.0)
    # contrast about 37, smooth: 12 CG iterations.  A jump of 20 across 13
    # y-stripes, which the diagonal scaling cannot flatten, takes 41: enough
    # for in-place drift to show.
    c = ScalarField.from_function(g, lambda X, Y: 1.0 + 30.0 * X * Y + 10.0 * np.sin(5.0 * X) ** 2
                                  + jump * (np.sin(40.0 * Y) > 0))
    return g, assemble(c), ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))


class TestPreconditioner:
    @pytest.mark.parametrize("lx, ly, exponent", [
        (1e-30, 1e-30, 0), (1e30, 1e30, 0), (1.0, 1e-9, 0), (1.0, 1.0, 900), (1.0, 1.0, -1000)])
    def test_apply_is_scale_free(self, lx, ly, exponent):
        # extents far from 1 push unscaled eigenvalues out of float32 range, and
        # residuals at 2^900 and 2^-1000 overflow or vanish in a float32 rescale
        g = make_grid(33, 33, lx, ly)
        r = np.random.default_rng(3).standard_normal(g.shape)
        z = apply_poisson_inverse(g, np.ldexp(r, exponent))
        assert np.all(np.isfinite(z))
        assert relative_error(np.ldexp(z, -exponent), exact_poisson_inverse(g, r)) <= APPLY_TOL

    @pytest.mark.parametrize("n", [129, 257])
    def test_apply_is_accurate_at_large_grids(self, n):
        g = make_grid(n, n, 1.0, 1.0)
        r = np.random.default_rng(n).standard_normal(g.shape)
        assert relative_error(apply_poisson_inverse(g, r), exact_poisson_inverse(g, r)) <= APPLY_TOL

    def test_apply_in_place_allocates_nothing(self):
        g = make_grid(129, 129, 1.0, 1.0)
        M = poisson_inverse(g)
        r = np.random.default_rng(4).standard_normal(g.shape)
        out, w1, w2 = np.empty(g.shape), np.empty(g.shape, np.float32), np.empty(g.shape, np.float32)
        M.apply(r, out, w1, w2)
        tracemalloc.start()
        try:
            assert M.apply(r, out, w1, w2) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w1.nbytes // 16  # no temporary of the grid's size, not even a float32 one
        assert np.array_equal(out, apply_poisson_inverse(g, r))

    def test_scale_is_the_square_root_of_the_diagonal_ratio(self):
        g, c, A, _ = random_operator(seed=4)

        def dense_diagonal(op):
            return np.array([op.apply(e.reshape(g.shape)).ravel()[i]
                             for i, e in enumerate(np.eye(g.nx * g.ny))]).reshape(g.shape)

        S = A.preconditioner_scale
        assert S is A.preconditioner_scale  # built once per operator
        ratio = dense_diagonal(unit_operator(g)) / dense_diagonal(A)
        assert np.allclose(S**2, ratio, rtol=1e-15, atol=0)

    def test_unit_operator_is_unscaled(self):
        # S = 1 exactly: solves on A(1) keep the plain A(1) inverse and its bits
        g = make_grid(17, 9, 1.0, 2.0)
        assert unit_operator(g).preconditioner_scale is None
        assert assemble(ScalarField.full(g, 1.0)).preconditioner_scale is None
        assert assemble(ScalarField.full(g, 2.0)).preconditioner_scale is not None

    @pytest.mark.parametrize("amplitude", [1e2, 1e4, 1e6, 1e8], ids=repr)
    def test_iterations_flat_in_viscosity_contrast(self, amplitude):
        # nu = 1 + sqrt(k) at k up to amplitude, contrast 11 to about 1e4: the
        # unscaled A(1) inverse took 50, 157, 475 and 1 384 iterations here
        g = make_grid(65, 65, 1.0, 1.0)
        X, Y = g.cell_centers()
        load = np.exp(-((X - 0.47) ** 2 + (Y - 0.53) ** 2) / (2 * 0.1**2))
        A = assemble(ScalarField(g, 1.0 + np.sqrt(amplitude * load / load.max())))
        report = solve_spd(A, ScalarField(g, load), tol=1e-12)[1]
        assert report.iterations <= 25
        assert report.relative_residual <= 1e-12 or report.at_floor  # at the floor at 1e8

    def test_float32_costs_at_most_two_iterations(self):
        g, A, b = contrast_problem()
        report = solve_spd(A, b, tol=1e-12)[1]
        exact = reference_cg(A, b, 1e-12, exact_poisson_inverse)[1]
        assert report.iterations <= exact.iterations + 2


class TestInPlace:
    def test_apply_into_out_is_bit_exact(self):
        g, c, A, rng = random_operator(nx=33, ny=33, seed=21)
        v = rng.standard_normal(g.shape)
        buf = np.full(g.shape, np.nan)
        assert A.apply(v, out=buf) is buf
        fresh = A.apply(v)
        assert fresh is not buf and np.array_equal(buf, fresh)
        # the out-of-place stencil: differences of face fluxes, equal up to
        # the rounding of the flat stencil's other order of operations
        gx, gy = face_gradients(v, g.hx, g.hy)
        cfx, cfy = face_average(c.values)
        fx, fy = cfx * gx, cfy * gy
        flux = (fx[:-1, :] - fx[1:, :]) / g.hx + (fy[:, :-1] - fy[:, 1:]) / g.hy
        assert np.max(np.abs(fresh - flux)) <= 1e-13 * np.max(np.abs(flux))

    def test_solve_matches_out_of_place_cg_bit_for_bit(self):
        g, A, b = contrast_problem(jump=20.0)
        x, report = solve_spd(A, b, tol=1e-12)
        x_ref, report_ref = reference_cg(A, b, 1e-12)
        assert report == report_ref and report.iterations > 30
        assert np.array_equal(x.values, x_ref)
