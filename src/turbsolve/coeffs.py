"""Viscosity pair (nu, a): evaluation, truncation, flux transform.

The model couples two scalar coefficients on s >= 0, both bounded below by
a floor delta > 0 (assumption H0).  Three kinds are supported:

* ``physical_sqrt``: nu(s) = nu1 + nu2*sqrt(s), a(s) = a1 + a2*sqrt(s),
  the physically relevant unbounded family;
* ``constant``: nu = nu1, a = a1, evaluated as ``physical_sqrt`` with
  zero slopes (nonzero ``nu2`` or ``a2`` are rejected, not ignored);
* ``table``: linear interpolation of sampled nodes, clamped to the last
  node beyond the table.

When ``gamma`` is set the pair is proportional, a = gamma*nu (assumption
H2), and a is *realized* as gamma*nu everywhere so the proportionality is
exact in floating point.  The weaker assumption H1 only asks for a ratio
floor inf a/nu > 0; ``h1_ratio_inf`` computes that infimum exactly for
each kind.

The Kirchhoff-style flux transform A(s) = integral_0^s a(t) dt converts
the quasilinear k-equation into a constant-coefficient one; A is strictly
increasing with A' = a >= delta, so A(s) >= delta*s and the inverse obeys
A_inv(S) <= S/delta.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

A_INV_TOL = 1e-12  # |A(s) - S| <= A_INV_TOL * max(1, S)

_KINDS = ("physical_sqrt", "constant", "table")


class HypothesisViolation(ValueError):
    """A model or configuration breaks one of the admissibility assumptions.

    Labels: H0 (floors/integrability), H1 (ratio floor a/nu), H2
    (proportional pair required).  The README lists the catalog.
    """

    def __init__(self, label: str, message: str):
        super().__init__(f"{label}: {message}")
        self.label = label


@dataclass(frozen=True)
class ViscosityModel:
    """Coefficient pair with floor delta; immutable after validation."""

    kind: str = "physical_sqrt"
    nu1: float = 1.0
    nu2: float = 0.0
    a1: float = 1.0
    a2: float = 0.0
    gamma: Optional[float] = None
    delta: float = 1.0
    table_s: Optional[tuple] = None
    table_nu: Optional[tuple] = None
    table_a: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.delta <= 0:
            raise HypothesisViolation("H0", "coefficient floor delta must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise HypothesisViolation("H2", "gamma must be positive")
        if self.kind == "table":
            self._validate_table()
        else:
            if self.kind == "constant" and (self.nu2 != 0 or self.a2 != 0):
                raise ValueError("a constant model takes no slopes: nu2 and a2 must be 0")
            if self.nu2 < 0 or self.a2 < 0:
                raise ValueError("sqrt-growth slopes must be nonnegative")
            if self.nu1 < self.delta:
                raise HypothesisViolation("H0", f"nu(0) = {self.nu1} falls below delta = {self.delta}")
            if self.gamma is None and self.a1 < self.delta:
                raise HypothesisViolation("H0", f"a(0) = {self.a1} falls below delta = {self.delta}")
            if self.gamma is not None:
                # a is realized as gamma*nu; declared a1/a2 must agree.
                if not math.isclose(self.a1, self.gamma * self.nu1, rel_tol=1e-12, abs_tol=1e-300):
                    raise HypothesisViolation("H2", "a1 != gamma * nu1 for a proportional pair")
                if not math.isclose(self.a2, self.gamma * self.nu2, rel_tol=1e-12, abs_tol=1e-300):
                    raise HypothesisViolation("H2", "a2 != gamma * nu2 for a proportional pair")
                if self.gamma * self.nu1 < self.delta:
                    raise HypothesisViolation("H0", "gamma * nu(0) falls below delta")

    def _validate_table(self):
        if self.table_s is None or self.table_nu is None:
            raise ValueError("table model needs table_s and table_nu")
        s = np.asarray(self.table_s, dtype=float)
        nu = np.asarray(self.table_nu, dtype=float)
        if s.ndim != 1 or s.size < 2 or np.any(np.diff(s) <= 0) or s[0] != 0.0:
            raise ValueError("table_s must be ascending and start at 0")
        if nu.shape != s.shape:
            raise ValueError("table_nu must match table_s")
        if np.any(nu < self.delta):
            raise HypothesisViolation("H0", "table nu values fall below delta")
        if self.gamma is None:
            if self.table_a is None:
                raise ValueError("table model needs table_a when gamma is unset")
            a = np.asarray(self.table_a, dtype=float)
            if a.shape != s.shape:
                raise ValueError("table_a must match table_s")
            if np.any(a < self.delta):
                raise HypothesisViolation("H0", "table a values fall below delta")

    # -- evaluation ----------------------------------------------------

    def _check_domain(self, s):
        if np.any(np.asarray(s) < 0):
            raise ValueError("coefficients are only defined for s >= 0")

    def nu(self, s):
        self._check_domain(s)
        if self.kind == "table":
            return np.interp(s, self.table_s, self.table_nu)
        return self.nu1 + self.nu2 * np.sqrt(s)

    def a(self, s):
        if self.gamma is not None:
            return self.gamma * self.nu(s)
        self._check_domain(s)
        if self.kind == "table":
            return np.interp(s, self.table_s, self.table_a)
        return self.a1 + self.a2 * np.sqrt(s)

    def _a_coeffs(self):
        """Effective (a1, a2) for closed-form transforms; proportional pairs
        integrate gamma*nu."""
        if self.gamma is not None:
            return self.gamma * self.nu1, self.gamma * self.nu2
        return self.a1, self.a2

    def _a_nodes(self):
        s = np.asarray(self.table_s, dtype=float)
        if self.gamma is not None:
            vals = self.gamma * np.asarray(self.table_nu, dtype=float)
        else:
            vals = np.asarray(self.table_a, dtype=float)
        return s, vals

    def h1_ratio_inf(self) -> float:
        """Exact infimum over s >= 0 of a(s)/nu(s)."""
        if self.gamma is not None:
            return float(self.gamma)
        if self.kind == "table":
            s, a = self._a_nodes()
            nu = np.asarray(self.table_nu, dtype=float)
            # ratio of piecewise-linear functions is monotone per segment,
            # and constant beyond the table: node minimum is the infimum
            return float(np.min(a / nu))
        # physical_sqrt: ratio is monotone from a1/nu1 (s=0) to the slope
        # ratio a2/nu2 (s -> inf when nu2 > 0)
        candidates = [self.a1 / self.nu1]
        if self.nu2 > 0:
            candidates.append(self.a2 / self.nu2)
        return float(min(candidates))


def _check_level(n) -> int:
    level = int(n)
    if level != n or level < 1:
        raise ValueError(f"truncation level must be a positive integer, got {n!r}")
    return level


def truncated_coefficients(m: ViscosityModel, s, n: int):
    """(nu_n, a_n, clipped) at state s: the coefficients capped at level n.

    nu_n = min(n, nu(s)); a_n = gamma * nu_n for proportional pairs and
    min(n, a(s)) otherwise.  ``clipped`` says whether either cap bound
    anywhere.  Every solver route and every certified estimate evaluates
    the truncated coefficients through here.
    """
    nu_raw = m.nu(s)
    nu_n = np.minimum(float(n), nu_raw)
    clipped = bool(np.any(nu_raw > n))
    if m.gamma is not None:
        return nu_n, m.gamma * nu_n, clipped
    a_raw = m.a(s)
    return nu_n, np.minimum(float(n), a_raw), clipped or bool(np.any(a_raw > n))


def kirchhoff_A(m: ViscosityModel, s):
    """A(s) = integral_0^s a(t) dt, exact per model kind.

    sqrt family: a1*s + (2/3)*a2*s^(3/2); table models integrate the
    piecewise-linear interpolant exactly (piecewise quadratic), which
    trivially meets the 1e-12 relative accuracy budget.
    """
    m._check_domain(s)
    if m.kind != "table":
        a1, a2 = m._a_coeffs()
        arr = np.asarray(s, dtype=float)
        out = a1 * arr + (2.0 / 3.0) * a2 * arr ** 1.5
        return out if np.ndim(s) else float(out)
    return _table_A(m, s)


def _table_A(m: ViscosityModel, s):
    nodes, vals = m._a_nodes()
    # cumulative integral at nodes (trapezoid is exact for linear pieces)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))))
    arr = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(nodes, arr, side="right") - 1, 0, nodes.size - 2)
    s0 = nodes[idx]
    a0 = vals[idx]
    slope = (vals[idx + 1] - vals[idx]) / (nodes[idx + 1] - nodes[idx])
    t = arr - s0
    out = cum[idx] + a0 * t + 0.5 * slope * t * t
    # beyond the last node the coefficient is constant
    tail = arr > nodes[-1]
    if np.any(tail):
        out = np.where(tail, cum[-1] + vals[-1] * (arr - nodes[-1]), out)
    return out if np.ndim(s) else float(out)


def kirchhoff_A_inv(m: ViscosityModel, S):
    """Inverse transform: the s >= 0 with |A(s) - S| <= 1e-12 * max(1, S).

    A is strictly increasing with A' = a >= delta, so [0, S/delta] brackets
    the root (this realizes the linear growth bound A_inv(S) <= S/delta);
    a vectorized Newton iteration with bisection safeguard does the rest.
    """
    if np.any(np.asarray(S) < 0):
        raise ValueError("the flux transform is only invertible for S >= 0")
    if m.kind != "table":
        a1, a2 = m._a_coeffs()
        if a2 == 0.0:
            out = np.asarray(S, dtype=float) / a1
            return out if np.ndim(S) else float(out)

    target = np.atleast_1d(np.asarray(S, dtype=float))
    lo = np.zeros_like(target)
    hi = target / m.delta
    x = hi * 0.5
    tol = A_INV_TOL * np.maximum(1.0, target)
    for _ in range(200):
        fx = kirchhoff_A(m, x) - target
        done = np.abs(fx) <= tol
        if np.all(done):
            break
        above = fx > 0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        step = fx / np.maximum(m.a(x), m.delta)
        x_new = x - step
        bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        x = np.where(done, x, x_new)
    return x if np.ndim(S) else float(x[0])
