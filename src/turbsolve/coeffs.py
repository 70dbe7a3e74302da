"""Viscosity pair (nu, a): evaluation, truncation, flux transform.

The model couples two scalar coefficients on s >= 0, both bounded below by
a floor delta > 0 (assumption H0).  Three kinds are supported:

* ``physical_sqrt``: nu(s) = nu1 + nu2*sqrt(s), a(s) = a1 + a2*sqrt(s),
  the physically relevant unbounded family;
* ``constant``: nu = nu1, a = a1, evaluated as ``physical_sqrt`` with
  zero slopes (nonzero ``nu2`` or ``a2`` are rejected, not ignored, and
  both kinds reject table nodes);
* ``table``: linear interpolation of sampled nodes, clamped to the last
  node beyond the table (slopes are rejected as for ``constant``, and so
  is ``table_a`` when ``gamma`` is set).

When ``gamma`` is set the pair is proportional, a = gamma*nu (assumption
H2), and a is *realized* as gamma*nu everywhere so the proportionality is
exact in floating point.  The weaker assumption H1 only asks for a ratio
floor inf a/nu > 0.  The model checks H0-H2 on its own values when it is
built, and rejects NaN and infinite settings with them.

The Kirchhoff-style flux transform A(s) = integral_0^s a(t) dt converts
the quasilinear k-equation into a constant-coefficient one; A is strictly
increasing with A' = a >= delta, so A(s) >= delta*s and the inverse obeys
A_inv(S) <= S/delta.  Every kind inverts A in closed form, with no loop and
no tolerance: a cubic in sqrt(s) on the sqrt family, a quadratic per segment.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_KINDS = ("physical_sqrt", "constant", "table")


class HypothesisViolation(ValueError):
    """A model or configuration breaks one of the admissibility assumptions.

    Labels: H0 (floors/integrability), H1 (ratio floor a/nu), H2
    (proportional pair required).  ``ViscosityModel`` raises all three
    when it is built, ``fixedpoint.check_route`` raises H2 for the chi
    route on a pair without gamma, and ``cli.Source`` raises H0 for a load
    exponent r <= 3/2.  The README lists the catalog.
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
        # each check is written to fail on NaN as well
        if not 0 < self.delta < math.inf:
            raise HypothesisViolation("H0", "coefficient floor delta must be positive and finite")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise HypothesisViolation("H2", "gamma must be positive and finite")
        if self.kind == "table":
            self._validate_table()
        elif any(t is not None for t in (self.table_s, self.table_nu, self.table_a)):
            raise ValueError(f"a {self.kind} model takes no table nodes: "
                             "table_s, table_nu and table_a are for kind = table")
        if self.kind != "physical_sqrt" and (self.nu2 != 0 or self.a2 != 0):
            raise ValueError(f"a {self.kind} model takes no slopes: nu2 and a2 must be 0")
        if not (0 <= self.nu2 < math.inf and 0 <= self.a2 < math.inf):
            raise ValueError("sqrt-growth slopes must be nonnegative and finite")
        # nu and a are nondecreasing on the sqrt family and piecewise linear
        # on a table, so each is least at a node (s = 0 for the sqrt family)
        nodes = np.asarray(self.table_s, dtype=float) if self.kind == "table" else np.zeros(1)
        for name, values in (("nu", self.nu(nodes)), ("a", self.a(nodes))):
            bad = ~((self.delta <= values) & (values < math.inf))
            if bad.any():
                i = int(np.argmax(bad))
                raise HypothesisViolation("H0", f"{name}({nodes[i]:g}) = {values[i]:g} must be "
                                                f"finite and at least delta = {self.delta:g}")
        # a/nu is monotone in sqrt(s) from a1/nu1 towards a2/nu2 on the sqrt
        # family, at least delta / max(table_nu) on a table and gamma with
        # gamma set: once the floors hold, inf a/nu = 0 only here
        if self.gamma is None and self.nu2 > 0 and self.a2 == 0:
            raise HypothesisViolation(
                "H1", "a(s)/nu(s) has no positive floor (the dissipation estimate needs one)")
        if self.gamma is not None and self.kind != "table":
            # a is realized as gamma*nu; declared a1/a2 must agree.
            if not math.isclose(self.a1, self.gamma * self.nu1, rel_tol=1e-12, abs_tol=1e-300):
                raise HypothesisViolation("H2", "a1 != gamma * nu1 for a proportional pair")
            if not math.isclose(self.a2, self.gamma * self.nu2, rel_tol=1e-12, abs_tol=1e-300):
                raise HypothesisViolation("H2", "a2 != gamma * nu2 for a proportional pair")

    def _validate_table(self):
        """The table's structure; its values are checked with the other kinds'."""
        if self.table_s is None or self.table_nu is None:
            raise ValueError("table model needs table_s and table_nu")
        s = np.asarray(self.table_s, dtype=float)
        if (s.ndim != 1 or s.size < 2 or s[0] != 0.0 or not np.all(np.isfinite(s))
                or np.any(np.diff(s) <= 0)):
            raise ValueError("table_s must be finite, ascending and start at 0")
        if np.shape(self.table_nu) != s.shape:
            raise ValueError("table_nu must match table_s")
        if self.gamma is not None and self.table_a is not None:
            raise ValueError("a table model with gamma set takes no table_a: a is gamma * nu")
        if self.gamma is None:
            if self.table_a is None:
                raise ValueError("table model needs table_a when gamma is unset")
            if np.shape(self.table_a) != s.shape:
                raise ValueError("table_a must match table_s")

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


def _is_integer(value) -> bool:
    """Whether an integer setting holds an int or a numpy integer; a bool or any float does not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_level(n) -> int:
    """n as an int; ValueError unless n is a positive integer (see ``_is_integer``)."""
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"truncation level must be a positive integer, got {n!r}")
    return int(n)


def truncated_coefficients(m: ViscosityModel, s, n: int):
    """(nu_n, a_n, clipped) at state s: the coefficients capped at level n.

    nu_n = min(n, nu(s)); a_n = gamma * nu_n for proportional pairs and
    min(n, a(s)) otherwise.  ``clipped`` says whether either cap bound
    anywhere.  Every solver route and every certified estimate evaluates
    the truncated coefficients through here, so a level that is not a
    positive integer and a negative cell of s each raise ValueError before
    any route solves anything.
    """
    n = _check_level(n)
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
    trivially meets the 1e-12 relative accuracy budget.  Raises ValueError
    where A(s) is not a finite float (the sqrt family overflows for s above
    about 1e205).
    """
    m._check_domain(s)
    with np.errstate(over="ignore", invalid="ignore"):
        if m.kind != "table":
            a1, a2 = m._a_coeffs()
            arr = np.asarray(s, dtype=float)
            out = a1 * arr + (2.0 / 3.0) * a2 * arr ** 1.5
        else:
            out = _table_A(m, s)
    if not np.all(np.isfinite(out)):
        raise ValueError("the flux transform A(s) is not a finite float")
    return out if np.ndim(s) else float(out)


def _table_segments(m: ViscosityModel):
    """A table's nodes, a at the nodes, a's slope on each segment and A at the nodes."""
    nodes = np.asarray(m.table_s, dtype=float)
    if m.gamma is not None:
        vals = m.gamma * np.asarray(m.table_nu, dtype=float)
    else:
        vals = np.asarray(m.table_a, dtype=float)
    width = np.diff(nodes)
    # the trapezoid rule is exact for linear pieces
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * width)))
    return nodes, vals, np.diff(vals) / width, cum


def _table_A(m: ViscosityModel, s):
    nodes, vals, slope, cum = _table_segments(m)
    arr = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(nodes, arr, side="right") - 1, 0, nodes.size - 2)
    t = arr - nodes[idx]
    out = cum[idx] + vals[idx] * t + 0.5 * slope[idx] * t * t
    # beyond the last node the coefficient is constant
    tail = arr > nodes[-1]
    if np.any(tail):
        out = np.where(tail, cum[-1] + vals[-1] * (arr - nodes[-1]), out)
    return out


def kirchhoff_A_inv(m: ViscosityModel, S):
    """Inverse transform: the s >= 0 with A(s) = S, for finite S >= 0.

    NaN, inf and negative S raise ValueError, as does an S whose inverse is
    not a finite float (S near the float maximum with delta < 1).  Every
    kind realizes the linear growth bound A_inv(S) <= S/delta.

    * constant (or a2 = 0): s = S/a1.
    * physical_sqrt, a2 > 0: closed form, no loop and no tolerance.  s = t^2
      with (c t + a1) t^2 = S, c = (2/3) a2; tau = t c / a1 solves
      tau^2 (1 + tau) = sigma = S c^2 / a1^3; x = sqrt(27 sigma / 4) is built
      from sqrt(S).  x <= 1: the largest of three real roots, tau = x / (3
      cos(arccos(x) / 3)), which does not cancel as x -> 0.  x > 1: Cardano's
      one real root, tau = u + 1/(9u) - 1/3, u^3 = (x + sqrt(x^2 - 1))^2 / 27,
      or t = cbrt(S/c) where u overflows.  |A(s) - S| is near 1e-15 max(1, S).
    * table: closed form, no loop and no tolerance.  Past node s_i,
      A(s_i + t) = A(s_i) + a_i t + b_i t^2 / 2, so with r = S - A(s_i),
      t = 2 r / (a_i + sqrt(a_i^2 + 2 b_i r)), whose denominator adds two
      positive terms (a_i + b_i t >= delta), also where a falls.  Beyond the
      last node A is linear.  Node integrals map to their nodes exactly; any
      other s is, to two float steps, the exact root for a target within
      2**-51 * S of S.
    """
    target = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(target)):
        raise ValueError("the flux transform is only invertible for finite S")
    if np.any(target < 0):
        raise ValueError("the flux transform is only invertible for S >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        if m.kind == "table":
            nodes, vals, slope, cum = _table_segments(m)
            idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, nodes.size - 2)
            r = target - cum[idx]
            # the radicand is a(s)^2; rounding can take it below 0 where a falls steeply to delta
            root = np.sqrt(np.maximum(vals[idx] ** 2 + 2.0 * slope[idx] * r, 0.0))
            out = nodes[idx] + 2.0 * r / (vals[idx] + root)
            # from the last node integral on, A is linear
            out = np.where(target >= cum[-1], nodes[-1] + (target - cum[-1]) / vals[-1], out)
        else:
            a1, a2 = m._a_coeffs()
            out = target / a1 if a2 == 0.0 else _sqrt_A_inv(a1, (2.0 / 3.0) * a2, target)
    if not np.all(np.isfinite(out)):
        raise ValueError("the inverse flux transform A_inv(S) is not a finite float")
    return out if np.ndim(S) else float(out)


def _sqrt_A_inv(a1: float, c: float, S: np.ndarray) -> np.ndarray:
    """s = t^2 with (c t + a1) t^2 = S, in closed form (see kirchhoff_A_inv)."""
    # roots of S are taken before dividing, so that S near the float maximum cannot overflow
    q = np.sqrt(S) / math.sqrt(a1)
    x = q * (math.sqrt(6.75) * c / a1)
    t = np.empty_like(q)
    small = x <= 1.0
    # q times one factor: (q * const) / cos would round twice and lose monotonicity near x = 1
    t[small] = q[small] * (0.5 * math.sqrt(3.0) / np.cos(np.arccos(x[small]) / 3.0))
    x = x[~small]
    u = np.cbrt(x + np.sqrt(x - 1.0) * np.sqrt(x + 1.0)) ** 2 / 3.0
    t[~small] = np.where(u < math.inf, (u + 1.0 / (9.0 * u) - 1.0 / 3.0) * (a1 / c),
                         np.cbrt(S[~small]) / np.cbrt(c))
    return t * t
