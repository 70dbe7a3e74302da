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
import math
import shutil
import sys
import warnings
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .coeffs import HypothesisViolation, ViscosityModel
from .fixedpoint import PicardConfig, SolveReport, SweepEntry, check_levels, check_route, n_sweep
from .grid import Grid, ScalarField, make_grid
from .linsolve import LinearSolveError
from .verify import InvariantReport, full_report, manufactured_errors, manufactured_forcing

_FLOAT_FMT = "{:.17g}"

SWEEP_COLUMNS = [f.name for f in fields(SolveReport)] + ["diff_u_prev", "diff_k_prev", "certifies"]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


# INI text -> value, by the annotated type of the dataclass field it sets
_PARSERS = {
    str: str,
    int: int,
    float: _finite,
    Optional[float]: _finite,
    Optional[tuple]: lambda text: tuple(_finite(t) for t in text.split()),
}


@dataclass(frozen=True)
class Source:
    """The load f and its declared integrability exponent r (H0 needs r > 3/2).

    ``x0``, ``y0`` and ``sigma`` shape the gaussian preset; left unset they
    are the domain centre and 0.1 * min(lx, ly).  The other presets reject
    them.  The manufactured preset ignores ``amplitude`` and takes the
    model's nu1.
    """

    preset: str = "constant"
    amplitude: float = 1.0
    x0: Optional[float] = None
    y0: Optional[float] = None
    sigma: Optional[float] = None
    r: float = 2.0

    def __post_init__(self):
        if self.preset not in ("constant", "gaussian", "manufactured"):
            raise ValueError(f"unknown source preset {self.preset!r}")
        if self.preset != "gaussian" and any(v is not None for v in (self.x0, self.y0, self.sigma)):
            raise ValueError(f"x0, y0 and sigma shape the gaussian preset only, not {self.preset!r}")
        # each check is written to fail on NaN as well
        for key, value in (("amplitude", self.amplitude), ("x0", self.x0), ("y0", self.y0)):
            if value is not None and not abs(value) < math.inf:
                raise ValueError(f"source {key} must be finite, got {value}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("gaussian source needs sigma > 0")
        if not self.r > 1.5:
            raise HypothesisViolation("H0", f"the load must lie in L^r with r > 3/2, got r = {self.r}")


# The INI sections read into a dataclass each; a section's keys are its fields
_SECTIONS = {"grid": Grid, "model": ViscosityModel, "source": Source, "solver": PicardConfig}

# The sections a config may hold and the keys each accepts; anything else is a config error
_KEYS = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
_KEYS["solver"] |= {"route", "n"}
_KEYS.update(sweep={"n_list"}, output={"dir"})


@dataclass
class RunConfig:
    grid: Grid
    model: ViscosityModel
    source: Source
    n_list: list
    solve_n: int
    picard: PicardConfig
    route: str
    out_dir: Optional[str]

    def build_source(self) -> ScalarField:
        g = self.grid
        s = self.source
        if s.preset == "constant":
            return ScalarField.full(g, s.amplitude)
        if s.preset == "gaussian":
            x0 = g.lx / 2 if s.x0 is None else s.x0
            y0 = g.ly / 2 if s.y0 is None else s.y0
            sigma = 0.1 * min(g.lx, g.ly) if s.sigma is None else s.sigma
            X, Y = g.cell_centers()
            r2 = (X - x0) ** 2 + (Y - y0) ** 2
            return ScalarField(g, s.amplitude * np.exp(-r2 / (2.0 * sigma**2)))
        return manufactured_forcing(g, self.model.nu1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    if value is None:
        return ""
    return str(value)


def _parse(section, name: str, parse):
    """``section[name]`` parsed; a value it cannot parse is a ValueError naming the key."""
    text = section[name]
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _present(section, cls) -> dict:
    """The keys of ``section`` that name fields of ``cls``, parsed by field type.

    Absent keys are left out, so the dataclass's own defaults apply; a field
    without a default must be present (the ``KeyError`` names it).
    """
    return {f.name: _parse(section, f.name, _PARSERS[f.type]) for f in fields(cls)
            if f.name in section or f.default is MISSING}


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
    # an absent section reads as an empty one
    sec = {name: parser[name] if parser.has_section(name) else {} for name in _KEYS}
    grid, model, source, picard = (cls(**_present(sec[name], cls)) for name, cls in _SECTIONS.items())

    n_list = [8]
    if "n_list" in sec["sweep"]:
        n_list = _parse(sec["sweep"], "n_list", lambda text: [int(t) for t in text.split()])
    check_levels(n_list)  # before its last level serves as the default solve level

    cfg = RunConfig(
        grid=grid,
        model=model,
        source=source,
        n_list=n_list,
        solve_n=_parse(sec["solver"], "n", int) if "n" in sec["solver"] else n_list[-1],
        picard=picard,
        route=sec["solver"].get("route", "direct"),
        out_dir=sec["output"].get("dir"),
    )
    check_levels([cfg.solve_n])
    check_route(cfg.route, cfg.model)
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    """Every setting of the run, by INI section (``[output]``, a deployment path, aside)."""
    return {
        "grid": asdict(cfg.grid),
        "model": asdict(cfg.model),
        "source": asdict(cfg.source),
        "solver": {**asdict(cfg.picard), "route": cfg.route, "n": cfg.solve_n},
        "sweep": {"n_list": cfg.n_list},
    }


# -- field dumps ---------------------------------------------------------


def write_field(path, field: ScalarField):
    g = field.grid
    header = f"{g.nx}\n{g.ny}\n{_FLOAT_FMT.format(g.lx)} {_FLOAT_FMT.format(g.ly)}"
    np.savetxt(path, field.values.T, fmt="%.17g", header=header, comments="")


def read_field(path) -> ScalarField:
    """The field dump at ``path``; a dump it cannot parse is a ValueError naming the path."""
    try:
        with open(path) as fh:
            header = [fh.readline().strip() for _ in range(3)]
            if not header[2]:
                raise ValueError("lacks the 3-line header (nx, ny, lx ly)")
            nx, ny = int(header[0]), int(header[1])
            lx, ly = (float(t) for t in header[2].split())
            with warnings.catch_warnings():
                # a header-only dump is reported by the shape check below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, ndmin=2)
        if values.shape != (ny, nx):
            raise ValueError(f"holds {values.shape[0]} rows of {values.shape[1]} values, "
                             f"expected {ny} rows of {nx}")
        return ScalarField(make_grid(nx, ny, lx, ly), values.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _same_dump(a: ScalarField, b: ScalarField) -> bool:
    """Whether ``write_field`` writes the same bytes for a and b.

    Keyed on the bit pattern, not on ``==``: -0.0 == 0.0, but ``%.17g``
    writes ``-0``.
    """
    return a.grid == b.grid and np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    Path(path).write_text(buf.getvalue())


def _write_json(path, payload):
    # strict JSON: a non-finite float raises here instead of writing NaN or Infinity
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _sweep_rows(entries: list[SweepEntry]):
    return [[*astuple(e.report), e.diff_u, e.diff_k, "truncation_stabilization"] for e in entries]


def _verify_rows(report: InvariantReport) -> list:
    """One ``metric, value, certifies`` row per report field, in field order.

    The level-set profile is reported by its last point: psi just above sup |u|.
    """
    d = report.to_dict()
    rows = []
    for f in fields(InvariantReport):
        name, value = f.name, d[f.name]
        if name == "level_set_profile":
            name, value = "level_set_psi_above_sup", value[-1][1] if value else 0.0
        rows.append([name, value, f.metadata["certifies"]])
    return rows


# -- subcommand runners ---------------------------------------------------


def _out_dir(args, cfg) -> Path:
    """The output directory named by --out or the config; each runner makes it."""
    return Path(args.out or cfg.out_dir or "out")


# (table, reports, field dump) file names per subcommand; a solve is a one-level sweep
_OUTPUTS = {
    "solve": ("solve.csv", "report.json", "{name}.txt"),
    "sweep": ("sweep.csv", "reports.json", "{name}_n{n}.txt"),
}


def run_levels(cfg: RunConfig, out: Path, command: str) -> int:
    """Run ``solve`` (the level ``[solver] n``) or ``sweep`` (``n_list``) and write its outputs.

    Returns 1, after writing every output, when a level did not converge.
    """
    table, reports, dump = _OUTPUTS[command]
    levels = [cfg.solve_n] if command == "solve" else cfg.n_list
    entries = n_sweep(cfg.model, cfg.build_source(), levels, cfg.picard, route=cfg.route)
    out.mkdir(parents=True, exist_ok=True)  # only once the solve has returned
    _write_csv(out / table, SWEEP_COLUMNS, _sweep_rows(entries))
    _write_json(out / reports,
                {"config": config_echo(cfg), "reports": [e.report.to_dict() for e in entries]})
    # once truncation stops binding the levels return the same fields bit
    # for bit; copy the last dump of a name instead of formatting it again
    last = {}  # dump name -> (field, path) of its last dump
    for e in entries:
        for name, field in (("u", e.u), ("k", e.k), ("chi", e.chi)):
            if field is None:
                continue
            path = out / dump.format(name=name, n=e.report.n)
            if name in last and _same_dump(last[name][0], field):
                shutil.copyfile(last[name][1], path)
            else:
                write_field(path, field)
            last[name] = (field, path)
    failed = [e.report for e in entries if not e.report.converged]
    if failed:
        increments = ", ".join(f"{r.final_increment:g}" for r in failed)
        print(f"{command} did not converge at n = {[r.n for r in failed]} (last increments {increments})",
              file=sys.stderr)
        return 1
    return 0


def run_verify(cfg: RunConfig, out: Path, u_path, k_path, n: int) -> int:
    check_levels([n])
    u = read_field(u_path)
    k = read_field(k_path)
    if u.grid != cfg.grid or k.grid != cfg.grid:
        raise ValueError("stored fields do not match the configured grid")
    negative = np.count_nonzero(k.values < 0)
    if negative:
        raise ValueError(f"{k_path}: k < 0 in {negative} of {k.values.size} cells; "
                         "the coefficients are only defined for k >= 0")
    out.mkdir(parents=True, exist_ok=True)  # only once the level and both dumps passed
    f = cfg.build_source()
    report = full_report(u, k, f, cfg.model, n, r=cfg.source.r)
    _write_csv(out / "verify.csv", ["metric", "value", "certifies"], _verify_rows(report))
    _write_json(out / "verify.json", {"config": config_echo(cfg), "report": report.to_dict()})
    return 0


def run_mms(cfg: RunConfig, out: Path, sizes) -> int:
    # the check runs a constant model built from nu1
    if cfg.model.kind == "table" or cfg.model.nu2 != 0.0:
        raise ValueError("the manufactured-solution check needs nu constant at nu1: "
                         "a table model or a nonzero nu2 is rejected")
    try:
        rows = manufactured_errors(sizes, nu0=cfg.model.nu1, cfg=cfg.picard)
    except LinearSolveError:
        raise  # reported by main
    except RuntimeError as exc:  # a run that did not converge
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)  # only once every run converged
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
        if args.command in _OUTPUTS:
            return run_levels(cfg, out, args.command)
        if args.command == "verify":
            return run_verify(cfg, out, args.u, args.k,
                              cfg.solve_n if args.n is None else args.n)
        return run_mms(cfg, out, args.sizes)
    except LinearSolveError as exc:
        print(f"linear solve failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a field dump that cannot be read, or an unusable --out
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (HypothesisViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()
