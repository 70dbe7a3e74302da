"""Command-line front end: config parsing, orchestration, report emission.

Subcommands: ``solve`` (one coupled pair at a single truncation level),
``sweep`` (ascending levels with warm starts), ``verify`` (certify stored
fields), ``mms`` (manufactured-solution convergence table).

Configs are INI-style key/value sections (diff-friendly); see the README
for the full schema.  Outputs are CSV tables, JSON reports and plain-text
field dumps with a 3-line header (nx, ny, "lx ly") and 17-significant-
digit values, so identical configs reproduce byte-identical files at a
fixed BLAS thread count.
"""

import argparse
import configparser
import csv
import io
import json
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .coeffs import HypothesisViolation, ViscosityModel
from .fixedpoint import ROUTES, PicardConfig, SolveReport, SweepEntry, n_sweep
from .grid import Grid, ScalarField, make_grid
from .linsolve import LinearSolveError
from .verify import full_report, manufactured_errors

_FLOAT_FMT = "{:.17g}"

SWEEP_COLUMNS = [f.name for f in fields(SolveReport)] + ["diff_u_prev", "diff_k_prev", "certifies"]

# INI text -> value, by the annotated type of the dataclass field it sets
_PARSERS = {
    str: str,
    int: int,
    float: float,
    Optional[float]: float,
    Optional[tuple]: lambda text: tuple(float(t) for t in text.split()),
}

# The sections a config may hold and the keys each accepts; anything else is a config error
_KEYS = {
    "grid": {"nx", "ny", "lx", "ly"},
    "model": {f.name for f in fields(ViscosityModel)},
    "source": {"preset", "amplitude", "x0", "y0", "sigma", "r"},
    "solver": {f.name for f in fields(PicardConfig)} | {"route", "n"},
    "sweep": {"n_list"},
    "output": {"dir"},
}


@dataclass
class RunConfig:
    grid: Grid
    model: ViscosityModel
    source_preset: str
    source_params: dict
    source_r: float
    n_list: list
    solve_n: int
    picard: PicardConfig
    route: str
    out_dir: Optional[str]

    def build_source(self) -> ScalarField:
        g = self.grid
        p = self.source_params
        if self.source_preset == "constant":
            return ScalarField.full(g, p["amplitude"])
        if self.source_preset == "gaussian":
            X, Y = g.cell_centers()
            r2 = (X - p["x0"]) ** 2 + (Y - p["y0"]) ** 2
            return ScalarField(g, p["amplitude"] * np.exp(-r2 / (2.0 * p["sigma"] ** 2)))
        from .verify import manufactured_forcing

        return manufactured_forcing(g, self.model.nu1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    if value is None:
        return ""
    return str(value)


def _present(section, cls) -> dict:
    """The keys of ``section`` that name fields of ``cls``, parsed by field type.

    Absent keys are left out, so the dataclass's own defaults apply.
    """
    return {f.name: _PARSERS[f.type](section[f.name]) for f in fields(cls) if f.name in section}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    for name in parser.sections():
        if name not in _KEYS:
            raise ValueError(f"unknown section [{name}]")
        unknown = [key for key in parser[name] if key not in _KEYS[name]]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in [{name}]")

    gsec = parser["grid"]
    grid = make_grid(int(gsec["nx"]), int(gsec["ny"]), float(gsec["lx"]), float(gsec["ly"]))

    model = ViscosityModel(**_present(parser["model"], ViscosityModel))

    ssec = parser["source"]
    preset = ssec.get("preset", "constant").strip()
    if preset not in ("constant", "gaussian", "manufactured"):
        raise ValueError(f"unknown source preset {preset!r}")
    params = {"amplitude": ssec.getfloat("amplitude", 1.0)}
    if preset == "gaussian":
        params.update(
            x0=ssec.getfloat("x0", grid.lx / 2),
            y0=ssec.getfloat("y0", grid.ly / 2),
            sigma=ssec.getfloat("sigma", 0.1 * min(grid.lx, grid.ly)),
        )
        if params["sigma"] <= 0:
            raise ValueError("gaussian source needs sigma > 0")
    r = ssec.getfloat("r", 2.0)
    if r <= 1.5:
        raise HypothesisViolation("H0", f"the load must lie in L^r with r > 3/2, got r = {r}")

    sol = parser["solver"] if parser.has_section("solver") else {}
    picard = PicardConfig(**_present(sol, PicardConfig))
    route = sol.get("route", "direct")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")

    if parser.has_section("sweep") and "n_list" in parser["sweep"]:
        n_list = [int(t) for t in parser["sweep"]["n_list"].split()]
    else:
        n_list = [8]
    solve_n = int(sol.get("n", n_list[-1]))

    out_dir = None
    if parser.has_section("output") and "dir" in parser["output"]:
        out_dir = parser["output"]["dir"]

    cfg = RunConfig(
        grid=grid,
        model=model,
        source_preset=preset,
        source_params=params,
        source_r=r,
        n_list=n_list,
        solve_n=solve_n,
        picard=picard,
        route=route,
        out_dir=out_dir,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.model.h1_ratio_inf() <= 0:
        raise HypothesisViolation(
            "H1", "a(s)/nu(s) has no positive floor (the dissipation estimate needs one)"
        )
    if cfg.route == "chi" and cfg.model.gamma is None:
        raise HypothesisViolation("H2", "route=chi needs a proportional pair (gamma set)")


def config_echo(cfg: RunConfig) -> dict:
    return {
        "grid": {"nx": cfg.grid.nx, "ny": cfg.grid.ny, "lx": cfg.grid.lx, "ly": cfg.grid.ly},
        "model": {
            "kind": cfg.model.kind,
            "nu1": cfg.model.nu1,
            "nu2": cfg.model.nu2,
            "a1": cfg.model.a1,
            "a2": cfg.model.a2,
            "gamma": cfg.model.gamma,
            "delta": cfg.model.delta,
        },
        "source": {"preset": cfg.source_preset, "r": cfg.source_r, **cfg.source_params},
        "solver": {
            "tol": cfg.picard.tol,
            "max_outer": cfg.picard.max_outer,
            "damping": cfg.picard.damping,
            "route": cfg.route,
            "n": cfg.solve_n,
        },
        "n_list": cfg.n_list,
    }


# -- field dumps ---------------------------------------------------------


def write_field(path, field: ScalarField):
    g = field.grid
    header = f"{g.nx}\n{g.ny}\n{_FLOAT_FMT.format(g.lx)} {_FLOAT_FMT.format(g.ly)}"
    np.savetxt(path, field.values.T, fmt="%.17g", header=header, comments="")


def read_field(path) -> ScalarField:
    with open(path) as fh:
        header = [fh.readline() for _ in range(3)]
        if not header[2]:
            raise ValueError(f"{path} lacks the 3-line header (nx, ny, lx ly)")
        nx, ny = int(header[0]), int(header[1])
        lx, ly = (float(t) for t in header[2].split())
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (ny, nx):
        raise ValueError(f"{path} holds {values.shape[0]} rows of {values.shape[1]} values, "
                         f"expected {ny} rows of {nx}")
    return ScalarField(make_grid(nx, ny, lx, ly), values.T)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    Path(path).write_text(buf.getvalue())


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sweep_rows(entries: list[SweepEntry]):
    return [[*astuple(e.report), e.diff_u, e.diff_k, "truncation_stabilization"] for e in entries]


def _verify_rows(report) -> list:
    d = report.to_dict()
    profile = d.pop("level_set_profile")
    extinction = profile[-1][1] if profile else 0.0
    naming = [
        ("energy", "energy_bound"),
        ("dissipation", "dissipation_bound"),
        ("lp_a_gradk", "flux_lp_bound"),
        ("lp_exponent", "flux_lp_bound"),
        ("linf_u", "velocity_sup_bound"),
        ("linf_k", "k_sup_bound"),
        ("energy_identity_rel_residual", "energy_identity"),
        ("idee_max_residual", "product_identity"),
        ("sqrt_nu_h1_seminorm", "sqrt_viscosity_h1"),
        ("chi_linf", "chi_sup_bound"),
        ("stampacchia_rho", "exponent_bookkeeping"),
        ("stampacchia_beta", "exponent_bookkeeping"),
        ("holder_alpha_u", "holder_diagnostic"),
        ("holder_alpha_k", "holder_diagnostic"),
    ]
    rows = [[metric, d[metric], certifies] for metric, certifies in naming]
    rows.append(["level_set_psi_above_sup", extinction, "level_set_extinction"])
    return rows


# -- subcommand runners ---------------------------------------------------


def _out_dir(args, cfg) -> Path:
    out = args.out or cfg.out_dir or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_solve(cfg: RunConfig, out: Path) -> int:
    f = cfg.build_source()
    [entry] = n_sweep(cfg.model, f, [cfg.solve_n], cfg.picard, route=cfg.route)
    report = entry.report
    _write_csv(out / "solve.csv", SWEEP_COLUMNS, _sweep_rows([entry]))
    _write_json(out / "report.json", {"config": config_echo(cfg), "reports": [report.to_dict()]})
    write_field(out / "u.txt", entry.u)
    write_field(out / "k.txt", entry.k)
    if entry.chi is not None:
        write_field(out / "chi.txt", entry.chi)
    if not report.converged:
        print(f"solve did not converge (last increment {report.final_increment:g})", file=sys.stderr)
        return 1
    return 0


def run_sweep(cfg: RunConfig, out: Path) -> int:
    f = cfg.build_source()
    entries = n_sweep(cfg.model, f, cfg.n_list, cfg.picard, route=cfg.route)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, _sweep_rows(entries))
    _write_json(
        out / "reports.json",
        {"config": config_echo(cfg), "reports": [e.report.to_dict() for e in entries]},
    )
    for e in entries:
        write_field(out / f"u_n{e.report.n}.txt", e.u)
        write_field(out / f"k_n{e.report.n}.txt", e.k)
        if e.chi is not None:
            write_field(out / f"chi_n{e.report.n}.txt", e.chi)
    failed = [e.report.n for e in entries if not e.report.converged]
    if failed:
        print(f"sweep entries did not converge at n = {failed}", file=sys.stderr)
        return 1
    return 0


def run_verify(cfg: RunConfig, out: Path, u_path, k_path, n: int) -> int:
    u = read_field(u_path)
    k = read_field(k_path)
    if u.grid != cfg.grid or k.grid != cfg.grid:
        raise ValueError("stored fields do not match the configured grid")
    f = cfg.build_source()
    report = full_report(u, k, f, cfg.model, n, r=cfg.source_r)
    _write_csv(out / "verify.csv", ["metric", "value", "certifies"], _verify_rows(report))
    _write_json(out / "verify.json", {"config": config_echo(cfg), "report": report.to_dict()})
    return 0


def run_mms(cfg: RunConfig, out: Path, sizes) -> int:
    if cfg.model.nu2 != 0.0:
        raise ValueError("the manufactured-solution check needs a constant model")
    rows = manufactured_errors(sizes, nu0=cfg.model.nu1, cfg=cfg.picard)
    table = []
    prev_err = None
    for size, h, err in rows:
        ratio = (prev_err / err) if prev_err is not None else None
        table.append([size, h, err, ratio, "manufactured_convergence"])
        prev_err = err
    _write_csv(out / "mms.csv", ["nx", "h", "linf_error", "ratio", "certifies"], table)
    ok = all(row[3] is None or row[3] >= 3.5 for row in table)
    if not ok:
        print("manufactured-solution ratios fell below 3.5", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbsolve",
        description="Coupled eddy-viscosity system: solve, sweep, verify, mms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "verify", "mms"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            p.add_argument("--u", required=True, help="stored u field dump")
            p.add_argument("--k", required=True, help="stored k field dump")
            p.add_argument("--n", type=int, default=None, help="truncation level (default: solver n)")
        if name == "mms":
            p.add_argument(
                "--sizes", type=int, nargs="+", default=[17, 33, 65],
                help="grid sizes for the halving sequence",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (HypothesisViolation, ValueError, KeyError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args, cfg)
    try:
        if args.command == "solve":
            return run_solve(cfg, out)
        if args.command == "sweep":
            return run_sweep(cfg, out)
        if args.command == "verify":
            return run_verify(cfg, out, args.u, args.k,
                              cfg.solve_n if args.n is None else args.n)
        return run_mms(cfg, out, args.sizes)
    except LinearSolveError as exc:
        print(f"linear solve failed: {exc}", file=sys.stderr)
        return 1
    except (HypothesisViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()
