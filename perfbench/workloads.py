"""The benchmark's workloads: seeded configs, one operation each, output checks.

Every workload drives the package through its public entry points
(``cli.main``, ``cli.write_field``, ``fixedpoint.picard_solve``) in this
process.  The package is imported from the ``src`` directory of the checkout
this file lives in and nowhere else, so the benchmark measures the sources
beside it.  NOTES.md says why each workload exists.
"""

import contextlib
import io
import json
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "turbsolve" / "__init__.py").is_file():
    raise ImportError(f"no turbsolve sources under {SRC}")
sys.path.insert(0, str(SRC))

import turbsolve  # noqa: E402
from turbsolve import cli, fixedpoint, verify  # noqa: E402

if Path(turbsolve.__file__).resolve().parent != SRC / "turbsolve":
    raise ImportError(f"turbsolve was imported from {turbsolve.__file__}, not from {SRC}")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
CENTRE_OFFSET = (-0.03, 0.03)  # the load centre's offset from (0.5, 0.5), up to mirroring

ENERGY_IDENTITY_TOL = 1e-8
IDEE_TOL = 1e-9
REFERENCE_RTOL = 1e-6  # the route-equivalence bound of the acceptance suite
VERIFY_ROWS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" | "solve" | "certify"
    nx: int
    amplitude: float
    route: str
    n_list: tuple
    then_verify: bool = False  # a "solve" operation then runs "verify" on its own dumps

    def config_text(self, centre, out_dir) -> str:
        x0, y0 = centre
        return "\n".join([
            "[grid]", f"nx = {self.nx}", f"ny = {self.nx}", "lx = 1", "ly = 1",
            "[model]", "kind = physical_sqrt", "nu1 = 1", "nu2 = 1", "a1 = 1", "a2 = 1",
            "gamma = 1", "delta = 1",
            "[source]", "preset = gaussian", f"amplitude = {self.amplitude!r}",
            f"x0 = {x0!r}", f"y0 = {y0!r}", "sigma = 0.1", "r = 2",
            "[solver]", "tol = 1e-10", "inner_tol = 1e-12", "max_outer = 200",
            f"route = {self.route}", f"n = {self.n_list[-1]}",
            "[sweep]", "n_list = " + " ".join(str(n) for n in self.n_list),
            "[output]", f"dir = {out_dir}",
            "",
        ])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-direct-129", "sweep", 129, 50.0, "direct", tuple(2**i for i in range(9))),
        Workload("stall-chi-33", "sweep", 33, 1e5, "chi", (1, 4, 16, 64, 256)),
        Workload("solve-kirchhoff-129", "solve", 129, 50.0, "kirchhoff", (256,), then_verify=True),
        Workload("certify-257", "certify", 257, 50.0, "direct", (1,)),
    )
}


def load_centre(seed: int):
    """Gaussian centre for a seed: one of the four mirror images of (0.47, 0.53).

    A load centred on both symmetry axes is a best case for CG (about half
    the iterations of an off-centre one), so no seed may produce it.  The
    centre's distance from the axes is the same for every seed: how far off
    centre a load sits changes the CG work a lot, so centres drawn from a
    range would make the seed, not the program, set the time of a run.
    Mirror images of one load do the same work and give the same norms.
    """
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], 2)
    return tuple(round(0.5 + float(s) * d, 3) for s, d in zip(signs, CENTRE_OFFSET))


@dataclass
class Prepared:
    """Everything one workload's operations need, built by :func:`setup`."""

    workload: Workload
    seed: int
    config_path: Path
    out_dir: Path
    cfg: object  # cli.RunConfig
    source: object  # ScalarField
    fixture: tuple = None  # certify-257: (u, k) of the fixture solve
    fixture_report: dict = None  # certify-257: the fixture's SolveReport.to_dict()


def setup(w: Workload, seed: int, work_dir: Path) -> Prepared:
    """Write the seeded config, parse it, build the load; certify solves its fixture."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir = work_dir / "out"
    config_path = work_dir / "config.ini"
    config_path.write_text(w.config_text(load_centre(seed), out_dir))
    cfg = cli.load_config(config_path)
    prepared = Prepared(w, seed, config_path, out_dir, cfg, cfg.build_source())
    if w.kind == "certify":
        u, k, report = fixedpoint.picard_solve(cfg.model, w.n_list[0], prepared.source, cfg.picard)
        prepared.fixture = (u, k)
        prepared.fixture_report = report.to_dict()
    return prepared


def reset_outputs(p: Prepared):
    """Empty the output directory, so a check never reads an earlier operation's files."""
    shutil.rmtree(p.out_dir, ignore_errors=True)
    p.out_dir.mkdir(parents=True)


def run_operation(p: Prepared):
    """One timed operation; returns (exit status, captured stderr)."""
    err = io.StringIO()
    out = str(p.out_dir)
    with contextlib.redirect_stderr(err):
        if p.workload.kind == "certify":
            u, k = p.fixture
            cli.write_field(p.out_dir / "u.txt", u)
            cli.write_field(p.out_dir / "k.txt", k)
            argv = ["verify", "--u", str(p.out_dir / "u.txt"), "--k", str(p.out_dir / "k.txt"),
                    "--n", str(p.workload.n_list[0])]
        else:
            argv = [p.workload.kind]
        status = cli.main(argv + ["--config", str(p.config_path), "--out", out])
        if p.workload.then_verify and status == 0:
            status = cli.main(["verify", "--u", str(p.out_dir / "u.txt"), "--k", str(p.out_dir / "k.txt"),
                               "--config", str(p.config_path), "--out", out])
    return status, err.getvalue()


@dataclass
class Outcome:
    """What the output check found for one operation."""

    levels: int  # truncation levels attempted
    unconverged: int  # levels reported converged = false
    failure: str = None  # why the operation counts as failed, None when it passed


def check_operation(p: Prepared, status: int, stderr: str) -> Outcome:
    """Check one operation's outputs; never raises for a wrong output."""
    try:
        if p.workload.kind == "certify":
            return _check_certify(p, status)
        return _check_solver_run(p, status, stderr)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return Outcome(0, 0, f"unreadable output: {exc!r}")


def _check_solver_run(p: Prepared, status: int, stderr: str) -> Outcome:
    w = p.workload
    sweep = w.kind == "sweep"
    reports = json.loads((p.out_dir / ("reports.json" if sweep else "report.json")).read_text())["reports"]
    unconverged = [r["n"] for r in reports if not r["converged"]]
    outcome = Outcome(len(reports), len(unconverged))
    expected = list(w.n_list) if sweep else [w.n_list[-1]]
    if [r["n"] for r in reports] != expected:
        outcome.failure = f"levels {[r['n'] for r in reports]} reported, expected {expected}"
        return outcome
    if status not in (0, 1) or (status == 0) != (not unconverged):
        outcome.failure = f"exit status {status} with unconverged levels {unconverged}: {stderr.strip()}"
        return outcome
    if status == 1 and _named_levels(stderr, sweep, w.n_list[-1]) != unconverged:
        outcome.failure = f"stderr does not name the unconverged levels {unconverged}: {stderr.strip()}"
        return outcome
    table = (p.out_dir / ("sweep.csv" if sweep else "solve.csv")).read_text().splitlines()
    if len(table) != len(reports) + 1:
        outcome.failure = f"CSV has {len(table) - 1} rows for {len(reports)} levels"
        return outcome

    reference = _reference_levels(p)
    for r in reports:
        if not r["converged"]:
            continue
        n = r["n"]
        suffix = f"_n{n}" if sweep else ""
        u = cli.read_field(p.out_dir / f"u{suffix}.txt")
        k = cli.read_field(p.out_dir / f"k{suffix}.txt")
        residual = verify.energy_identity_residual(u, k, p.source, p.cfg.model, n)
        if not residual <= ENERGY_IDENTITY_TOL:
            outcome.failure = f"n={n}: energy identity residual {residual:g} > {ENERGY_IDENTITY_TOL:g}"
        elif r["clamp_count"] != 0:
            outcome.failure = f"n={n}: {r['clamp_count']} clamped k cells"
        elif np.any(k.values < 0):
            outcome.failure = f"n={n}: negative k in the dump"
        elif reference is not None:
            outcome.failure = _compare_reference(r, reference.get(n))
        if outcome.failure:
            return outcome
    if w.then_verify and status == 0:
        outcome.failure = _check_verify_outputs(p)
    return outcome


def _named_levels(stderr: str, sweep: bool, solve_n: int):
    if not sweep:
        return [solve_n] if "solve did not converge" in stderr else None
    match = re.search(r"did not converge at n = \[([0-9, ]*)\]", stderr)
    return [int(t) for t in match.group(1).split(",")] if match else None


def _check_certify(p: Prepared, status: int) -> Outcome:
    outcome = Outcome(0, 0)
    if status != 0:
        outcome.failure = f"verify exited with status {status}"
        return outcome
    for name, field in zip(("u", "k"), p.fixture):
        if not np.array_equal(cli.read_field(p.out_dir / f"{name}.txt").values, field.values):
            outcome.failure = f"{name}.txt does not read back bit-exactly"
            return outcome
    outcome.failure = _check_verify_outputs(p)
    return outcome


def _check_verify_outputs(p: Prepared):
    """Why the files ``turbsolve verify`` wrote fail the check, or None when they pass."""
    rows = (p.out_dir / "verify.csv").read_text().splitlines()[1:]
    report = json.loads((p.out_dir / "verify.json").read_text())["report"]
    if len(rows) != VERIFY_ROWS:
        return f"verify.csv has {len(rows)} rows, expected {VERIFY_ROWS}"
    if not report["energy_identity_rel_residual"] <= ENERGY_IDENTITY_TOL:
        return f"energy identity residual {report['energy_identity_rel_residual']:g}"
    if not report["idee_max_residual"] <= IDEE_TOL:
        return f"product identity residual {report['idee_max_residual']:g}"
    return None


def check_fixture(p: Prepared):
    """certify-257's fixture must converge and match the reference."""
    level = p.fixture_report
    if not level["converged"]:
        return f"fixture solve did not converge (increment {level['final_increment']:g})"
    reference = _reference_levels(p)
    return _compare_reference(level, reference.get(level["n"])) if reference is not None else None


def _reference_levels(p: Prepared):
    """Reference levels recorded from the seed code, or None when they do not apply.

    They apply to every seed, because every seed's load is a mirror image of
    the reference seed's, and mirroring leaves the norms and the energy alone.
    """
    if WORKLOADS.get(p.workload.name) != p.workload:
        return None
    levels = json.loads(REFERENCE_PATH.read_text())["workloads"][p.workload.name]
    return {r["n"]: r for r in levels}


def _compare_reference(level: dict, ref) -> str:
    if ref is None or not ref["converged"]:
        return None
    for key in ("linf_u", "linf_k", "energy"):
        if abs(level[key] - ref[key]) > REFERENCE_RTOL * abs(ref[key]):
            return f"n={level['n']}: {key} {level[key]!r} differs from reference {ref[key]!r}"
    return None
