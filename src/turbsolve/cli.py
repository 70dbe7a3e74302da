"""Command-line front end: config parsing, orchestration, report emission.

Subcommands: ``solve`` (one coupled pair at a single truncation level),
``sweep`` (ascending levels with warm starts), ``verify`` (certify stored
fields), ``mms`` (manufactured-solution convergence table).

Configs are INI-style key/value sections (diff-friendly); see the README
for the full schema.  Outputs are CSV tables, JSON reports and text field
dumps: a 3-line header (nx, ny, "lx ly") and one fixed-width hexadecimal
float token per value, exact for every float64.  Identical configs
reproduce byte-identical files at a fixed BLAS thread count.
"""

import argparse
import configparser
import csv
import functools
import io
import json
import math
import shutil
import sys
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
        for key, value in (("amplitude", self.amplitude), ("x0", self.x0), ("y0", self.y0),
                           ("sigma", self.sigma)):
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
#
# A dump is a 3-line header (nx, ny, "lx ly") and ny rows of nx tokens.  Each
# token is the exact hexadecimal form of one float64 (C99 "%a"), 24 bytes
# wide and followed by a space, or by a newline at the end of its row.
#
# The writer gathers each token as three little-endian 64-bit words from
# tables indexed by bit fields of the value, straight into the body:
#   chars 0-7    "+0x1.h" and 2 digits     by sign, lead digit, mantissa bits 40-51
#   chars 8-15   8 digits, as two halves   by mantissa bits 24-39, then 8-23
#   chars 16-23  2 digits and "p+dddd"     by mantissa bits 0-7, and biased exponent
# The reader looks up character pairs (a pair is the little-endian uint16 of
# its two characters) and checks what it read by encoding it again.

_TOKEN = 24  # bytes per token, its separator aside
_TOKEN_FORM = "[+-]0x[01].<13 lowercase hex digits>p[+-]<4 decimal digits>"


def _word(*chars):
    """The words whose bytes, lowest first, are the character codes ``chars`` (arrays broadcast)."""
    return sum(c << 8 * i for i, c in enumerate(chars))


_HEX = "0123456789abcdef"
_DIGIT = np.frombuffer(_HEX.encode(), np.uint8).astype(np.int64)  # the code of each hex digit
_i = np.arange(1 << 12)
_PAIR = _word(_DIGIT[_i[:256] >> 4], _DIGIT[_i[:256] & 15])  # by byte: its 2 digits
_QUAD = _PAIR.astype(np.int32)
_QUAD = np.bitwise_or.outer(_QUAD, _QUAD << 16).ravel()  # by 16 bits: their 4 digits
# by sign << 11 | biased exponent: sign << 13 | lead digit << 12, the top of a word-0 index
_LEAD = _i >> 11 << 13 | np.where(_i & 0x7FF, 1 << 12, 0)
_i = _i[:64]  # sign << 5 | lead digit << 4 | first digit
_WORD0 = np.bitwise_or.outer(
    _word(np.where(_i >> 5, ord("-"), ord("+")), ord("0"), ord("x"), ord("0") + (_i >> 4 & 1), ord("."),
          _DIGIT[_i & 15]),
    _PAIR << 48).ravel()
_i = np.arange(100)
_DECIMAL = _word(ord("0") + _i // 10, ord("0") + _i % 10)  # by 0-99: its 2 digits
# by biased exponent, in the top 6 bytes: 0 is a subnormal's p-1022, and
# 2047, never finite, a zero's p+0000
_e = np.maximum(np.arange(2048) - 1023, -1022)
_e[-1] = 0
_EXP = (_word(0, 0, ord("p"), np.where(_e < 0, ord("-"), ord("+")))
        | _DECIMAL[abs(_e) // 100] << 32 | _DECIMAL[abs(_e) % 100] << 48)
# the reader's inverse lookups; text that no token holds reads as 0, and
# the re-encoding check rejects it
_UNBYTE = np.zeros(1 << 16, np.uint8)
_UNBYTE[_PAIR] = np.arange(256)
_UNDIGITS = np.zeros(1 << 16, np.int16)
_UNDIGITS[_DECIMAL] = _i
_UNHEX = np.zeros(256, np.uint8)
_UNHEX[_DIGIT] = np.arange(16)
del _i, _e


def _tokens(rows: np.ndarray) -> np.ndarray:
    """The dump body of ``rows`` as (ny, nx, 25) bytes: each value's token and separator."""
    ny, nx = rows.shape
    values = np.asarray(rows, dtype="<f8")  # no copy: a transposed view is read in place
    bits = values.view("<i8")
    tokens = np.empty((ny, nx, _TOKEN + 1), np.uint8)
    # views of the body: the three words, and the halves of the middle one (unaligned)
    strides = (nx * (_TOKEN + 1), _TOKEN + 1)
    words = np.ndarray((ny, nx, 3), "<i8", tokens, 0, strides + (8,))
    halves = np.ndarray((ny, nx, 2), "<i4", tokens, 8, strides + (4,))
    # int64 indices: np.take casts any other index type into a fresh array first
    index, word = np.empty((2, ny, nx), np.int64)
    half = np.empty((ny, nx), np.int32)

    def field(shift, mask):
        """``index`` set to bits ``shift`` and up of each value, masked by ``mask``."""
        np.right_shift(bits, shift, out=index)
        return np.bitwise_and(index, mask, out=index)

    lead = np.take(_LEAD, field(52, 0xFFF), out=word, mode="wrap")
    field(40, 0xFFF)
    index |= lead
    words[..., 0] = np.take(_WORD0, index, out=word, mode="wrap")
    halves[..., 0] = np.take(_QUAD, field(24, 0xFFFF), out=half, mode="wrap")
    halves[..., 1] = np.take(_QUAD, field(8, 0xFFFF), out=half, mode="wrap")
    field(52, 0x7FF)[values == 0] = 2047  # the biased exponent; a zero of either sign writes p+0000
    words[..., 2] = np.take(_EXP, index, out=word, mode="wrap")
    words[..., 2] |= np.take(_PAIR, field(0, 0xFF), out=word, mode="wrap")
    tokens[..., _TOKEN] = ord(" ")
    tokens[:, -1, _TOKEN] = ord("\n")
    return tokens


def _values(tokens: np.ndarray) -> np.ndarray:
    """The (ny, nx) values that ``_tokens`` spells as ``tokens``.

    Only tokens ``_tokens`` writes are read right; anything else reads as some
    value whose token differs, so a caller checks by encoding the values again.
    """
    ny, nx, _ = tokens.shape
    chars = np.ascontiguousarray(tokens[..., :_TOKEN])
    pairs = chars.view("<u2")
    exponent = _UNDIGITS[pairs[..., 10]] * 100 + _UNDIGITS[pairs[..., 11]]
    exponent[chars[..., 19] == ord("-")] *= -1
    biased = np.where(chars[..., 3] == ord("1"), np.clip(exponent + 1023, 0, 2046), 0)
    b = np.empty((ny, nx, 8), np.uint8)
    b[..., 5::-1] = _UNBYTE[pairs[..., 3:9]]
    b[..., 6] = (biased & 15).astype(np.uint8) << 4 | _UNHEX[chars[..., 5]]
    b[..., 7] = (chars[..., 0] == ord("-")).astype(np.uint8) << 7 | (biased >> 4).astype(np.uint8)
    return b.view("<f8")[..., 0]


def _not_a_token(row: int, value: int, text: bytes) -> str:
    return f"row {row}, value {value}: {text.decode('latin-1')!r} is not a token of the form {_TOKEN_FORM}"


def _misfit(body: bytes, nx: int, ny: int) -> str:
    """Where a dump body of the wrong length first departs from ny rows of nx tokens.

    Only the body is split, so a header that claims a huge grid costs nothing.
    """
    lines = body.split(b"\n")
    rows = len(lines) - (not lines[-1])  # text after the final newline is a row that lacks its newline
    for i, line in enumerate(lines[:min(rows, ny)], 1):
        tokens = line.split(b" ")
        for j, token in enumerate(tokens[:nx], 1):
            if len(token) != _TOKEN:
                return _not_a_token(i, j, token[:_TOKEN + 1])
        if len(tokens) < nx:
            return f"row {i}, value {len(tokens) + 1}: missing, the row ends after {len(tokens)} of {nx}"
        if len(tokens) > nx:
            return f"row {i}, value {nx + 1}: extra, a row holds {nx} values"
        if i == len(lines):
            return f"row {i}, value {nx}: ends the file without a newline"
    return (f"row {min(rows, ny) + 1}, value 1: {'missing' if rows < ny else 'extra'}, "
            f"the dump holds {rows} rows, expected {ny} rows of {nx}")


def _read_body(body, nx: int, ny: int) -> np.ndarray:
    """The (ny, nx) values of a dump body (bytes or a memoryview of them); a body ``write_field``
    would not write is a ValueError."""
    if len(body) != ny * nx * (_TOKEN + 1):
        raise ValueError(_misfit(bytes(body), nx, ny))
    tokens = np.frombuffer(body, np.uint8).reshape(ny, nx, _TOKEN + 1)
    values = _values(tokens)
    again = _tokens(values)
    if not np.array_equal(again, tokens):
        row, value, at = np.unravel_index(np.argmax(again != tokens), tokens.shape)
        if at == _TOKEN:
            raise ValueError(f"row {row + 1}, value {value + 1} is followed by "
                             f"{chr(tokens[row, value, at])!r}, expected {chr(again[row, value, at])!r}")
        raise ValueError(_not_a_token(row + 1, value + 1, tokens[row, value, :_TOKEN].tobytes()))
    return values


def write_field(path, field: ScalarField):
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(f"{g.nx}\n{g.ny}\n{_FLOAT_FMT.format(g.lx)} {_FLOAT_FMT.format(g.ly)}\n".encode())
        fh.write(_tokens(field.values.T))


def _header_line(header: list, number: int, form: str, parse):
    """``parse`` of dump header line ``number``; a ValueError names the line and its ``form``."""
    try:
        return parse(header[number - 1])
    except ValueError as exc:
        raise ValueError(f'header line {number} must be "{form}": {exc}') from None


def _extents(line: str):
    lx, ly = (float(t) for t in line.split())
    return lx, ly


def read_field(path) -> ScalarField:
    """The field dump at ``path``; a dump it cannot parse is a ValueError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        header, start = [], 0
        for _ in range(3):  # each line up to and including its newline; a missing line reads empty
            end = data.find(b"\n", start) + 1 or len(data)
            header.append(data[start:end].decode().strip())
            start = end
        if not header[2]:
            raise ValueError("lacks the 3-line header (nx, ny, lx ly)")
        nx = _header_line(header, 1, "nx", int)
        ny = _header_line(header, 2, "ny", int)
        lx, ly = _header_line(header, 3, "lx ly", _extents)
        grid = make_grid(nx, ny, lx, ly)
        return ScalarField(grid, _read_body(memoryview(data)[start:], nx, ny).T)  # no copy of the body
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _same_dump(a: ScalarField, b: ScalarField) -> bool:
    """Whether ``write_field`` writes the same bytes for a and b.

    Keyed on the bit pattern, not on ``==``: -0.0 == 0.0, but their tokens
    differ in the sign.
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
    for path, field in ((u_path, u), (k_path, k)):
        if field.grid != cfg.grid:
            raise ValueError(f"{path}: dump grid {field.grid} differs from the configured grid {cfg.grid}")
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
    # a ratio needs two sizes, and a halving sequence runs from coarse to fine
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"--sizes must name at least two grid sizes in ascending order, got {sizes}")
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


# parsing leaves a parser as it was, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
