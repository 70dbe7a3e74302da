"""Seeded probe of ``n_sweep`` over random models, loads, routes and levels.

    python3 tools/probe.py                       # seeds 7, 11 and 12: 300, 400 and 400 cases
    python3 tools/probe.py --seed 7 --cases 10   # one seed
    python3 tools/probe.py --levels levels.tsv   # and one line per level to a file

Each case draws, from ``random.Random(seed)`` and in this order: a grid
from {9, 13, 17, 25, 33}^2 on the unit square; a ``physical_sqrt`` model
with nu1 in [0.5, 2] and nu2 in [0.1, 10]; whether the pair is
proportional (probability 1/2), then either gamma, log-uniform in
[0.3, 10], with a = gamma nu, or a1 in [0.5, 2] and a2 in [0.1, 10]; a
route that the model admits; a Gaussian load of amplitude 10^U(0, 6),
centre in [0.3, 0.7]^2 and sigma in [0.05, 0.2]; and 1 to 3 levels from
{1, 4, 16, 64, 256}.  delta is the smaller of nu1 and a1, and the solver
runs on the default ``PicardConfig``.

One line per seed: levels, outer iterations, CG iterations, Anderson
steps (calls of ``fixedpoint._anderson``, a refused mixed iterate
included), unconverged levels, clamped cells, cases that raised, the
outer and CG iterations of each route (which add up to the totals; a
case that raised adds its CG iterations only), and the three slowest
levels: those with the most outer iterations, each with its case number,
route and n.  With ``--levels PATH`` it also writes one tab-separated
line per level, ``seed case route n outer``, so that two commits can be
compared level by level with ``join``.  Run it with
OPENBLAS_NUM_THREADS=1 to compare counts between commits: the last bits
of a BLAS sum may depend on its thread count.  The whole default probe
takes about 13 s on one core.
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
def counting():
    """Count the CG iterations of every inner solve of the Picard driver, and its Anderson steps.

    Yields a dict whose ``cg`` and ``anderson`` totals grow while the block runs.
    """
    solve, anderson = fixedpoint.solve_spd, fixedpoint._anderson
    totals = dict(cg=0, anderson=0)

    def counted_solve(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        totals["cg"] += report.iterations
        return x, report

    def counted_anderson(history):
        totals["anderson"] += 1
        return anderson(history)

    fixedpoint.solve_spd, fixedpoint._anderson = counted_solve, counted_anderson
    try:
        yield totals
    finally:
        fixedpoint.solve_spd, fixedpoint._anderson = solve, anderson


def run(seed: int, cases: int) -> dict:
    """The probe's totals over ``cases`` cases drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    out = dict(seed=seed, cases=cases, levels=0, outer=0, unconverged=0, clamps=0, errors=0)
    per_route = {route: dict(outer=0, cg=0) for route in fixedpoint.ROUTES}
    per_level = []  # (case, route, n, outer iterations), in sweep order
    with counting() as totals:
        for case in range(cases):
            m, f, levels, route = draw_case(rng)
            cg_before = totals["cg"]
            try:
                entries = n_sweep(m, f, levels, PicardConfig(), route=route)
            except (ArithmeticError, ValueError, RuntimeError):
                out["errors"] += 1
                continue
            finally:
                per_route[route]["cg"] += totals["cg"] - cg_before
            for e in entries:
                r = e.report
                out["levels"] += 1
                out["outer"] += r.outer_iterations
                per_route[route]["outer"] += r.outer_iterations
                out["unconverged"] += not r.converged
                out["clamps"] += r.clamp_count
                per_level.append((case, route, r.n, r.outer_iterations))
    out.update(totals)
    out["routes"] = per_route
    out["per_level"] = per_level
    slowest = sorted(per_level, key=lambda s: (-s[3], s[0], s[2]))
    out["slowest"] = [f"{outer} (case {case}, {route}, n={n})" for case, route, n, outer in slowest[:3]]
    return out


def line(result: dict) -> str:
    per_route = " ".join(f"{route} outer {t['outer']} cg {t['cg']}"
                         for route, t in result["routes"].items())
    return ("seed {seed} cases {cases}: levels {levels} outer {outer} cg {cg} anderson {anderson} "
            "unconverged {unconverged} clamps {clamps} errors {errors} {per_route} slowest {slow}").format(
                per_route=per_route, slow=", ".join(result["slowest"]), **result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, help="run one seed (default: 7, 11 and 12)")
    parser.add_argument("--cases", type=int, help="cases of that seed (default: 300 at 7, 400 otherwise)")
    parser.add_argument("--levels", type=Path, metavar="PATH",
                        help="write one tab-separated line per level: seed case route n outer")
    args = parser.parse_args(argv)
    runs = DEFAULT_RUNS
    if args.seed is not None or args.cases is not None:
        seed = 7 if args.seed is None else args.seed
        runs = ((seed, args.cases if args.cases is not None else dict(DEFAULT_RUNS).get(seed, 400)),)
    rows = []
    for seed, cases in runs:
        result = run(seed, cases)
        print(line(result), flush=True)
        rows += ["\t".join(map(str, (seed, *level))) + "\n" for level in result["per_level"]]
    if args.levels is not None:
        args.levels.write_text("".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
