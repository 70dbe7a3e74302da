"""Seeded probe of ``n_sweep`` over random models, loads, routes and levels.

    python3 tools/probe.py                       # seeds 7, 11 and 12: 300, 400 and 400 cases
    python3 tools/probe.py --seed 7 --cases 10   # one seed

Each case draws, from ``random.Random(seed)`` and in this order: a grid
from {9, 13, 17, 25, 33}^2 on the unit square; a ``physical_sqrt`` model
with nu1 in [0.5, 2] and nu2 in [0.1, 10]; whether the pair is
proportional (probability 1/2), then either gamma, log-uniform in
[0.3, 10], with a = gamma nu, or a1 in [0.5, 2] and a2 in [0.1, 10]; a
route that the model admits; a Gaussian load of amplitude 10^U(0, 6),
centre in [0.3, 0.7]^2 and sigma in [0.05, 0.2]; and 1 to 3 levels from
{1, 4, 16, 64, 256}.  delta is the smaller of nu1 and a1, and the solver
runs on the default ``PicardConfig``.

One line per seed: levels, outer iterations, CG iterations, unconverged
levels, clamped cells, cases that raised, and the three slowest levels:
those with the most outer iterations, each with its case number, route
and n.  Run it with OPENBLAS_NUM_THREADS=1 to compare counts between
commits: the last bits of a BLAS sum may depend on its thread count.
The whole default probe takes about 10 s on one core.
"""

import argparse
import contextlib
import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turbsolve import PicardConfig, ScalarField, ViscosityModel, fixedpoint, make_grid, n_sweep  # noqa: E402

DEFAULT_RUNS = ((7, 300), (11, 400), (12, 400))
SIZES = (9, 13, 17, 25, 33)
LEVELS = (1, 4, 16, 64, 256)


def draw_case(rng: random.Random):
    """(model, load, levels, route) of one case; the draws follow the module docstring's order."""
    size = rng.choice(SIZES)
    nu1, nu2 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0)
    if rng.random() < 0.5:
        gamma = math.exp(rng.uniform(math.log(0.3), math.log(10.0)))
        a1, a2, routes = gamma * nu1, gamma * nu2, fixedpoint.ROUTES
    else:
        gamma = None
        a1, a2, routes = rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0), ("direct", "kirchhoff")
    m = ViscosityModel(kind="physical_sqrt", nu1=nu1, nu2=nu2, a1=a1, a2=a2, gamma=gamma,
                       delta=min(nu1, a1))
    route = rng.choice(routes)
    amplitude = 10.0 ** rng.uniform(0.0, 6.0)
    x0, y0 = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
    sigma = rng.uniform(0.05, 0.2)
    levels = sorted(rng.sample(LEVELS, rng.randint(1, 3)))
    g = make_grid(size, size, 1.0, 1.0)
    X, Y = g.cell_centers()
    f = ScalarField(g, amplitude * np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2.0 * sigma**2)))
    return m, f, levels, route


@contextlib.contextmanager
def counting_cg():
    """Count the CG iterations of every inner solve of the Picard driver; yields a one-entry list."""
    solve = fixedpoint.solve_spd
    total = [0]

    def counted(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        total[0] += report.iterations
        return x, report

    fixedpoint.solve_spd = counted
    try:
        yield total
    finally:
        fixedpoint.solve_spd = solve


def run(seed: int, cases: int) -> dict:
    """The probe's totals over ``cases`` cases drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    out = dict(seed=seed, cases=cases, levels=0, outer=0, cg=0, unconverged=0, clamps=0, errors=0)
    slowest = []  # (outer iterations, case, route, n)
    with counting_cg() as cg:
        for case in range(cases):
            m, f, levels, route = draw_case(rng)
            try:
                entries = n_sweep(m, f, levels, PicardConfig(), route=route)
            except (ArithmeticError, ValueError, RuntimeError):
                out["errors"] += 1
                continue
            for e in entries:
                r = e.report
                out["levels"] += 1
                out["outer"] += r.outer_iterations
                out["unconverged"] += not r.converged
                out["clamps"] += r.clamp_count
                slowest.append((r.outer_iterations, case, route, r.n))
        out["cg"] = cg[0]
    slowest.sort(key=lambda s: (-s[0], s[1], s[3]))
    out["slowest"] = [f"{outer} (case {case}, {route}, n={n})" for outer, case, route, n in slowest[:3]]
    return out


def line(result: dict) -> str:
    return ("seed {seed} cases {cases}: levels {levels} outer {outer} cg {cg} unconverged "
            "{unconverged} clamps {clamps} errors {errors} slowest {slow}").format(
                slow=", ".join(result["slowest"]), **result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, help="run one seed (default: 7, 11 and 12)")
    parser.add_argument("--cases", type=int, help="cases of that seed (default: 300 at 7, 400 otherwise)")
    args = parser.parse_args(argv)
    runs = DEFAULT_RUNS
    if args.seed is not None or args.cases is not None:
        seed = 7 if args.seed is None else args.seed
        runs = ((seed, args.cases if args.cases is not None else dict(DEFAULT_RUNS).get(seed, 400)),)
    for seed, cases in runs:
        print(line(run(seed, cases)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
