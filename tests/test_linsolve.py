import numpy as np
import pytest

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
from turbsolve.verify import manufactured_forcing, manufactured_solution


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

    def test_diagonal_matches_unit_vectors(self):
        g, c, A, _ = random_operator(seed=9)
        diag = A.diagonal()
        for i, j in ((0, 0), (0, 3), (4, 2), (8, 6)):
            e = np.zeros(g.shape)
            e[i, j] = 1.0
            assert A.apply(e)[i, j] == pytest.approx(diag[i, j], rel=1e-14)

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
        assert report.converged and report.iterations == 0

    def test_roundtrip_recovery(self):
        g, c, A, rng = random_operator(seed=2)
        y = rng.standard_normal(g.shape)
        b = ScalarField(g, A.apply(y))
        x, report = solve_spd(A, b, tol=1e-13)
        assert report.converged
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

    def test_nonconvergence_raises_with_report(self):
        g, c, A, rng = random_operator(seed=3)
        b = ScalarField(g, rng.standard_normal(g.shape))
        with pytest.raises(LinearSolveError) as info:
            solve_spd(A, b, tol=1e-14, max_iter=2)
        assert info.value.report.iterations == 2
        assert not info.value.report.converged

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

    def test_deterministic(self):
        g, c, A, rng = random_operator(seed=5)
        b = ScalarField(g, rng.standard_normal(g.shape))
        x1, _ = solve_spd(A, b)
        x2, _ = solve_spd(A, b)
        assert np.array_equal(x1.values, x2.values)


def reference_cg(A, b, tol):
    """Out-of-place Jacobi-CG: a fresh array for every vector update."""
    rhs = b.values
    bnorm = float(np.linalg.norm(rhs))
    diag = A.diagonal()
    x = np.zeros(rhs.shape)
    r = rhs.copy()
    z = r / diag
    p = z.copy()
    rz = float(np.vdot(r, z))
    iterations = 0
    while True:
        iterations += 1
        Ap = A.apply(p)
        alpha = rz / float(np.vdot(p, Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        if float(np.linalg.norm(r)) / bnorm <= tol:
            r_true = rhs - A.apply(x)
            res_true = float(np.linalg.norm(r_true)) / bnorm
            if res_true <= tol:
                return x, LinearSolveReport(iterations, res_true, True)
            r = r_true
            z = r / diag
            p = z.copy()
            rz = float(np.vdot(r, z))
            continue
        z = r / diag
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new


class TestInPlace:
    def test_apply_into_out_is_bit_exact(self):
        g, c, A, rng = random_operator(nx=33, ny=33, seed=21)
        v = rng.standard_normal(g.shape)
        buf = np.full(g.shape, np.nan)
        assert A.apply(v, out=buf) is buf
        fresh = A.apply(v)
        assert fresh is not buf and np.array_equal(buf, fresh)
        # the out-of-place stencil: differences of face fluxes
        gx, gy = face_gradients(v, g.hx, g.hy)
        fx, fy = A.cfx * gx, A.cfy * gy
        assert np.array_equal(fresh, (fx[:-1, :] - fx[1:, :]) / g.hx + (fy[:, :-1] - fy[:, 1:]) / g.hy)

    def test_solve_matches_out_of_place_cg_bit_for_bit(self):
        g = make_grid(33, 33, 1.0, 1.0)
        c = ScalarField.from_function(g, lambda X, Y: 1.0 + 3.0 * X * Y + np.sin(5.0 * X) ** 2)
        A = assemble(c)
        b = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
        x, report = solve_spd(A, b, tol=1e-12)
        x_ref, report_ref = reference_cg(A, b, 1e-12)
        assert report == report_ref and report.iterations > 30
        assert np.array_equal(x.values, x_ref)
