import configparser
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from turbsolve import HypothesisViolation, PicardConfig, ScalarField, ViscosityModel, cli, make_grid, n_sweep
from turbsolve.cli import _KEYS, Source, config_echo, load_config, main, read_field, write_field

BASE = """
[grid]
nx = 17
ny = 17
lx = 1.0
ly = 1.0

[model]
kind = physical_sqrt
nu1 = 1.0
nu2 = 1.0
a1 = 1.0
a2 = 1.0
gamma = 1.0
delta = 1.0

[source]
preset = gaussian
amplitude = 1.0
x0 = 0.5
y0 = 0.5
sigma = 0.12
r = 2.0

[solver]
tol = 1e-10
max_outer = 200
route = direct

[sweep]
n_list = 1 2 4
"""


TABLE_MODEL = """kind = table
delta = 0.5
table_s = 0 1 4 16
table_nu = 1 1.5 2.5 4
table_a = 1 1.2 2 3
"""

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, text=BASE, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def without_section(text, name):
    return re.sub(rf"\[{name}\]\n[^\[]*", "", text)


def readme_config(restore=True) -> configparser.ConfigParser:
    """The README's INI schema with its comments cut; ``restore`` keeps its commented-out keys."""
    block = README.read_text().split("```ini\n")[1].split("```")[0]
    lines = [(re.sub(r"^;\s*(?=\w+ =)", "", line) if restore else line).split(";")[0]
             for line in block.splitlines()]
    parser = configparser.ConfigParser()
    parser.read_string("\n".join(lines))
    return parser


def echo_as_ini(echo) -> str:
    """A config echo written back as INI; unset (null) settings are left out."""
    lines = []
    for section, values in echo.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_field_dump_roundtrip(tmp_path):
    g = make_grid(5, 3, 1.25, 0.75)
    rng = np.random.default_rng(0)
    field = ScalarField(g, rng.standard_normal(g.shape) * math.pi)
    path = tmp_path / "field.txt"
    write_field(path, field)
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, field.values)  # 17 digits roundtrip exactly
    header = path.read_text().splitlines()[:3]
    assert header[0] == "5" and header[1] == "3"


def test_solve_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solve.csv").exists()
    assert (out / "report.json").exists()
    u = read_field(out / "u.txt")
    k = read_field(out / "k.txt")
    assert u.grid.nx == 17
    assert k.values.min() >= 0.0


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    assert {"sweep.csv", "reports.json", "u_n4.txt", "k_n4.txt"} <= set(names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert "certifies" in header.split(",")


def count_write_field(monkeypatch) -> list:
    """Record the file name of every ``cli.write_field`` call from here on."""
    written = []

    def counting(path, field):
        written.append(Path(path).name)
        write_field(path, field)

    monkeypatch.setattr(cli, "write_field", counting)
    return written


class TestSweepDumps:
    @pytest.mark.parametrize("route", ["direct", "chi"])
    def test_copied_dumps_match_fresh_ones(self, tmp_path, monkeypatch, route):
        text = BASE.replace("route = direct", f"route = {route}").replace(
            "n_list = 1 2 4", "n_list = 1 2 4 8 16 32 64")
        path = write_config(tmp_path, text)
        cfg = load_config(path)
        written = count_write_field(monkeypatch)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        dumps = []
        for e in n_sweep(cfg.model, cfg.build_source(), cfg.n_list, cfg.picard, route=route):
            for name, field in (("u", e.u), ("k", e.k), ("chi", e.chi)):
                if field is not None:
                    dumps.append(f"{name}_n{e.report.n}.txt")
                    write_field(fresh / dumps[-1], field)
        assert sorted(p.name for p in out.glob("*.txt")) == sorted(dumps)
        for name in dumps:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert set(written) < set(dumps)  # the others were copied

    def test_key_is_the_bit_pattern(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, BASE.replace("n_list = 1 2 4", "n_list = 1 2")))
        entries = n_sweep(cfg.model, cfg.build_source(), cfg.n_list, cfg.picard)
        zero = entries[0].u.values.copy()
        zero[0, 0] = 0.0
        negative_zero = zero.copy()
        negative_zero[0, 0] = -0.0
        assert np.array_equal(zero, negative_zero)  # equal under ==
        entries[0].u = ScalarField(cfg.grid, zero)
        entries[1].u = ScalarField(cfg.grid, negative_zero)
        entries[1].k = entries[0].k
        monkeypatch.setattr(cli, "n_sweep", lambda *args, **kwargs: entries)
        written = count_write_field(monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        cli.run_levels(cfg, out, "sweep")
        assert written == ["u_n1.txt", "k_n1.txt", "u_n2.txt"]
        assert (out / "u_n1.txt").read_text().splitlines()[3].split()[0] == "0"
        assert (out / "u_n2.txt").read_text().splitlines()[3].split()[0] == "-0"
        assert (out / "k_n2.txt").read_bytes() == (out / "k_n1.txt").read_bytes()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_naming_a_file(tmp_path, capsys, command):
    out = tmp_path / "afile"
    out.write_text("keep\n")
    assert main([command, "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_solve_leaves_no_out(tmp_path, capsys, command):
    # the direct route's inner CG fails on this steep table at a high level;
    # --out is made only once the solve or sweep has returned
    model = """kind = table
delta = 1.0
table_s = 0 0.05 0.05002 1
table_nu = 1 1 1 1
table_a = 1 1 1e8 1
"""
    text = BASE.replace(BASE.split("[model]\n")[1].split("\n\n")[0] + "\n", model)
    text = text.replace("n_list = 1 2 4", "n_list = 1000000000").replace(
        "amplitude = 1.0", "amplitude = 50.0")
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("linear solve failed: ")
    assert not out.exists()


# the patterns by which perfbench/workloads.py (_named_levels) reads the unconverged levels from stderr
UNCONVERGED = {
    "solve": "solve did not converge",
    "sweep": r"did not converge at n = \[([0-9, ]*)\]",
}


@pytest.mark.parametrize("command, table, reports, dumps", [
    ("solve", "solve.csv", "report.json", ["k.txt", "u.txt"]),
    ("sweep", "sweep.csv", "reports.json",
     [f"{name}_n{n}.txt" for name in "ku" for n in (1, 2, 4, 8, 16, 32, 64)]),
])
def test_unconverged_level_exits_1_after_every_output(tmp_path, capsys, command, table, reports, dumps):
    # one outer iteration: the cold solve and the sweep's levels up to 16 stop
    # unconverged, while the warm sweep levels 32 and 64 converge in it
    text = BASE.replace("max_outer = 200", "max_outer = 1").replace(
        "n_list = 1 2 4", "n_list = 1 2 4 8 16 32 64")
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == sorted([table, reports, *dumps])
    levels = json.loads((out / reports).read_text())["reports"]
    unconverged = [r for r in levels if not r["converged"]]
    assert unconverged and (command == "solve" or len(unconverged) < len(levels))
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.search(UNCONVERGED[command], err)
    named = re.search(UNCONVERGED["sweep"], err).group(1)
    assert [int(t) for t in named.split(",")] == [r["n"] for r in unconverged]
    increments = err.split("(last increments ")[1].rstrip(")\n").split(", ")
    assert increments == [f"{r['final_increment']:g}" for r in unconverged]


def test_out_under_a_file(tmp_path, capsys):
    out = tmp_path / "afile" / "o"
    out.parent.write_text("keep\n")
    assert main(["solve", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


def test_chi_route_writes_chi(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("route = direct", "route = chi"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "chi.txt").exists()


def test_verify_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    code = main([
        "verify", "--config", cfg, "--out", str(out),
        "--u", str(out / "u.txt"), "--k", str(out / "k.txt"), "--n", "4",
    ])
    assert code == 0
    text = (out / "verify.csv").read_text().splitlines()
    assert text[0] == "metric,value,certifies"
    rows = {line.split(",")[0]: line.split(",") for line in text[1:]}
    assert float(rows["energy_identity_rel_residual"][1]) <= 1e-8
    assert rows["energy"][2] == "energy_bound"
    assert (out / "verify.json").exists()


def test_verify_json_is_strict_for_r_at_least_3(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("r = 2.0", "r = 3.0"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with pytest.warns(UserWarning, match="r >= 3"):
        code = main(["verify", "--config", cfg, "--out", str(out),
                     "--u", str(out / "u.txt"), "--k", str(out / "k.txt")])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads((out / "verify.json").read_text(), parse_constant=reject)["report"]
    assert report["stampacchia_rho"] is None and report["stampacchia_beta"] == 3.0
    rows = dict(line.split(",")[:2] for line in (out / "verify.csv").read_text().splitlines())
    assert rows["stampacchia_rho"] == ""


def test_steep_table_kirchhoff_solve(tmp_path, capsys):
    # a rises to 1e8 over 2e-5: the step of A between neighbouring floats s
    # is near 1e-12 * A there, so an inverse that iterates to a tolerance on A can fail
    model = """kind = table
delta = 1.0
table_s = 0 0.05 0.05002 1
table_nu = 1 1 1 1
table_a = 1 1 1e8 1
"""
    text = BASE.replace(BASE.split("[model]\n")[1].split("\n\n")[0] + "\n", model)
    text = text.replace("route = direct", "route = kirchhoff").replace("amplitude = 1.0", "amplitude = 50.0")
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    [report] = json.loads((out / "report.json").read_text())["reports"]
    assert report["converged"] and report["outer_iterations"] == 2


def test_verify_zero_data(tmp_path):
    # a constant load takes no x0, y0 or sigma
    text = re.sub(r"x0 = .*\ny0 = .*\nsigma = .*\n", "", BASE).replace(
        "preset = gaussian", "preset = constant").replace("amplitude = 1.0", "amplitude = 0.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    code = main([
        "verify", "--config", cfg, "--out", str(out),
        "--u", str(out / "u.txt"), "--k", str(out / "k.txt"),
    ])
    assert code == 0
    rows = {
        line.split(",")[0]: line.split(",")[1]
        for line in (out / "verify.csv").read_text().splitlines()[1:]
    }
    for metric in ("energy", "dissipation", "linf_u", "linf_k",
                   "energy_identity_rel_residual", "idee_max_residual"):
        assert float(rows[metric]) == 0.0


def test_mms_subcommand(tmp_path):
    text = BASE.replace("kind = physical_sqrt", "kind = constant").replace(
        "nu2 = 1.0", "nu2 = 0.0"
    ).replace("a2 = 1.0", "a2 = 0.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["mms", "--config", cfg, "--out", str(out), "--sizes", "9", "17", "33"]) == 0
    lines = (out / "mms.csv").read_text().splitlines()
    assert lines[0] == "nx,h,linf_error,ratio,certifies"
    ratios = [float(line.split(",")[3]) for line in lines[2:]]
    assert all(r >= 3.5 for r in ratios)


def test_mms_run_that_does_not_converge(tmp_path, capsys):
    text = BASE.replace("kind = physical_sqrt", "kind = constant").replace(
        "nu2 = 1.0", "nu2 = 0.0").replace("a2 = 1.0", "a2 = 0.0").replace("= 200", "= 1")
    out = tmp_path / "out"
    assert main(["mms", "--config", write_config(tmp_path, text), "--out", str(out),
                 "--sizes", "9", "17"]) == 1
    assert capsys.readouterr().err == "error: manufactured run failed to converge on 9x9\n"
    assert not out.exists()


def test_mms_rejects_a_table_model(tmp_path, capsys):
    # the check runs a constant model built from nu1, not the table's nu
    model = "kind = table\ndelta = 1.0\ntable_s = 0 1\ntable_nu = 3 9\ntable_a = 3 9\n"
    text = BASE.replace(BASE.split("[model]\n")[1].split("\n\n")[0] + "\n", model)
    out = tmp_path / "out"
    assert main(["mms", "--config", write_config(tmp_path, text), "--out", str(out),
                 "--sizes", "9", "17"]) == 2
    assert "error: the manufactured-solution check needs nu constant" in capsys.readouterr().err
    assert not out.exists()


class TestConfigValidation:
    def test_small_r_names_h0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("r = 2.0", "r = 1.2"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "H0" in capsys.readouterr().err

    def test_degenerate_ratio_names_h1(self, tmp_path, capsys):
        text = BASE.replace("a2 = 1.0", "a2 = 0.0").replace("gamma = 1.0\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "H1" in capsys.readouterr().err

    def test_chi_without_gamma_names_h2(self, tmp_path, capsys):
        text = BASE.replace("gamma = 1.0\n", "").replace("route = direct", "route = chi")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "H2" in capsys.readouterr().err

    def test_bad_floor_names_h0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("delta = 1.0", "delta = 2.0"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "H0" in capsys.readouterr().err

    def test_unknown_route_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("route = direct", "route = magic"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_grid_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("nx = 17\n", ""))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: 'nx'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["grid", "model", "source", "solver", "sweep", "output"])
    def test_unknown_key_rejected(self, tmp_path, capsys, section):
        key = "tol_outer" if section == "solver" else "extra"
        text = (BASE + "[output]\n").replace(f"[{section}]\n", f"[{section}]\n{key} = 1e-3\n")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: unknown key '{key}' in [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("damping", "1.0"), ("init_k_value", "0.0")])
    def test_removed_setting_rejected(self, tmp_path, capsys, key, value):
        assert _KEYS["solver"] == {"tol", "max_outer", "inner_tol", "route", "n"}
        cfg = write_config(tmp_path, BASE.replace("[solver]\n", f"[solver]\n{key} = {value}\n"))
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: unknown key '{key}' in [solver]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("sweep", "n_list", "1 x"),
        ("solver", "n", "four"),
    ])
    def test_unparsable_level_names_its_key(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, with_setting(BASE, section, key, value))
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("[solver]", "[solvr]"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: unknown section [solvr]" in capsys.readouterr().err

    def test_readme_names_every_key(self):
        # the README's INI block, its commented-out keys included, is the schema
        schema = readme_config()
        assert set(schema.sections()) == set(_KEYS)
        for name, keys in _KEYS.items():
            assert set(schema[name]) == keys, f"[{name}]"

    def test_every_documented_key_accepted(self, tmp_path):
        # no one model kind takes every key: run the example as written (a
        # table model), also on the kirchhoff route, then its commented-out
        # keys on the physical_sqrt kind
        sqrt = readme_config()
        sqrt["model"]["kind"] = "physical_sqrt"
        for key in ("table_s", "table_nu", "table_a"):
            del sqrt["model"][key]
        kirchhoff = readme_config(restore=False)
        kirchhoff["solver"]["route"] = "kirchhoff"  # the table inverse runs on this route only
        for name, config in (("table", readme_config(restore=False)), ("table-kirchhoff", kirchhoff),
                             ("sqrt", sqrt)):
            out = tmp_path / name
            config["output"]["dir"] = str(out)
            with open(tmp_path / f"{name}.ini", "w") as fh:
                config.write(fh)
            assert main(["solve", "--config", str(tmp_path / f"{name}.ini")]) == 0
            assert (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_empty_n_list(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE.replace("n_list = 1 2 4", "n_list ="))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: n_list must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("levels, n, message", [
        ("4 2 1", "1", "n_list must be strictly ascending"),
        ("2 2", "2", "n_list must be strictly ascending"),
        ("0 2", "2", "must be a positive integer, got 0"),
        ("1 2", "0", "must be a positive integer, got 0"),
    ], ids=["descending", "repeated", "level-zero", "solver-n-zero"])
    def test_bad_levels_rejected_before_output(self, tmp_path, capsys, command, levels, n, message):
        text = BASE.replace("n_list = 1 2 4", f"n_list = {levels}").replace(
            "route = direct", f"route = direct\nn = {n}")
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("section, attr, cls", [
        ("model", "model", ViscosityModel),
        ("source", "source", Source),
        ("solver", "picard", PicardConfig),
    ])
    def test_absent_section_takes_defaults(self, tmp_path, section, attr, cls):
        cfg = load_config(write_config(tmp_path, without_section(BASE, section)))
        assert getattr(cfg, attr) == cls()


def with_setting(text, section, key, value):
    """``text`` with ``key = value`` in ``[section]``, replacing the key's line where there is one."""
    line = f"{key} = {value}"
    pattern = rf"^{key} = .*$"
    if re.search(pattern, text, flags=re.M):
        return re.sub(pattern, line, text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


class TestConfigNumbers:
    @pytest.mark.parametrize("section, key, value", [
        ("grid", "lx", "inf"),
        ("model", "delta", "nan"),
        ("model", "nu1", "nan"),
        ("source", "r", "nan"),
        ("source", "amplitude", "nan"),
        ("source", "amplitude", "inf"),
        ("solver", "tol", "nan"),
        ("solver", "inner_tol", "nan"),
        ("solver", "inner_tol", "0"),
        ("solver", "inner_tol", "-1e-12"),
    ])
    def test_rejected_before_output(self, tmp_path, capsys, section, key, value):
        # without gamma, so that nu1 = nan is not caught by the a1 = gamma * nu1 check
        base = BASE.replace("= 17", "= 9").replace("gamma = 1.0\n", "")
        text = with_setting(base, section, key, value)
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not out.exists()

    def test_table_node_must_be_finite(self, tmp_path, capsys):
        text = re.sub(r"kind = physical_sqrt\n[^\[]*", TABLE_MODEL + "\n", BASE.replace("= 17", "= 9"))
        text = with_setting(text, "model", "table_nu", "1 nan 2.5 4")
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert "config error: table_nu: 'nan' is not a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestConfigEcho:
    @pytest.mark.parametrize("text", [
        re.sub(r"kind = physical_sqrt\n[^\[]*", TABLE_MODEL + "\n", BASE),
        BASE.replace("route = direct\n", "route = direct\ninner_tol = 1e-11\n").replace("= 200", "= 50"),
    ], ids=["table-without-gamma", "sqrt-with-gamma-and-solver-settings"])
    def test_echo_rebuilds_the_config(self, tmp_path, text):
        cfg = load_config(write_config(tmp_path, text))
        echo = json.loads(json.dumps(config_echo(cfg)))
        assert load_config(write_config(tmp_path, echo_as_ini(echo), "echo.ini")) == cfg

    def test_echo_names_every_setting(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert {name: set(keys) for name, keys in echo.items()} == {
            name: keys for name, keys in _KEYS.items() if name != "output"
        }


def write_zero_dumps(tmp_path, extra_rows=0, cut_rows=0):
    """Zero u and k dumps on the BASE grid, with rows appended or cut off."""
    g = make_grid(17, 17, 1.0, 1.0)
    paths = []
    for name in ("u.txt", "k.txt"):
        path = tmp_path / name
        write_field(path, ScalarField.zeros(g))
        lines = path.read_text().splitlines()
        lines += lines[-1:] * extra_rows
        path.write_text("\n".join(lines[:len(lines) - cut_rows]) + "\n")
        paths.append(str(path))
    return paths


def run_verify(tmp_path, u, k, *extra):
    cfg = write_config(tmp_path)
    return main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--u", u, "--k", k, *extra])


class TestVerifyInput:
    def test_level_zero_rejected(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path)
        assert run_verify(tmp_path, u, k, "--n", "0") == 2
        assert "truncation level must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert run_verify(tmp_path, u, k) == 0

    @pytest.mark.parametrize("dump, edit, message", [
        ("k", lambda lines: lines[:3] + ["-1e-3" + lines[3][1:]] + lines[4:], "k < 0 in 1 of 289 cells"),
        ("u", lambda lines: lines[:2] + ["1"] + lines[3:], "not enough values to unpack"),
        ("u", lambda lines: ["9.5"] + lines[1:], "invalid literal for int() with base 10: '9.5'"),
        ("u", lambda lines: lines[:2] + ["nan 1"] + lines[3:], "positive and finite"),
        ("k", lambda lines: lines[:-3], "expected 17 rows of 17"),
    ], ids=["negative-k", "lx-without-ly", "fractional-nx", "nan-edge", "rows-cut-off"])
    def test_bad_dump_named_before_output(self, tmp_path, capsys, dump, edit, message):
        dumps = dict(zip("uk", write_zero_dumps(tmp_path)))
        path = Path(dumps[dump])
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert run_verify(tmp_path, dumps["u"], dumps["k"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_dump_with_rows_cut_off(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, cut_rows=3)
        assert run_verify(tmp_path, u, k) == 2
        assert "expected 17 rows of 17" in capsys.readouterr().err

    def test_dump_with_extra_row(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, extra_rows=1)
        assert run_verify(tmp_path, u, k) == 2
        assert "expected 17 rows of 17" in capsys.readouterr().err

    def test_dump_with_header_only(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, cut_rows=17)
        assert run_verify(tmp_path, u, k) == 2
        assert "holds 0 rows of 1 values, expected 17 rows of 17" in capsys.readouterr().err

    def test_missing_dump(self, tmp_path, capsys):
        _, k = write_zero_dumps(tmp_path)
        missing = str(tmp_path / "missing_u.txt")
        assert run_verify(tmp_path, missing, k) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ") and "Traceback" not in err

    @pytest.mark.parametrize("missing", ["u", "k"])
    def test_missing_dump_makes_no_out_dir(self, tmp_path, capsys, missing):
        dumps = dict(zip("uk", write_zero_dumps(tmp_path)))
        dumps[missing] = str(tmp_path / f"missing_{missing}.txt")
        assert run_verify(tmp_path, dumps["u"], dumps["k"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {dumps[missing]}: ")
        assert not (tmp_path / "o").exists()

    def test_dump_with_nan_edge(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path)
        lines = Path(u).read_text().splitlines()
        lines[2] = "nan 1"
        Path(u).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="positive and finite"):
            read_field(u)
        assert run_verify(tmp_path, u, k) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_dump_without_header(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, cut_rows=18)
        assert run_verify(tmp_path, u, k) == 2
        assert "lacks the 3-line header" in capsys.readouterr().err


class TestModelConfig:
    def test_table_without_nodes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("kind = physical_sqrt", "kind = table"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: table model needs" in capsys.readouterr().err

    def test_constant_rejects_slopes(self, tmp_path, capsys):
        text = BASE.replace("kind = physical_sqrt", "kind = constant").replace("gamma = 1.0\n", "")
        cfg = write_config(tmp_path, text.replace("a2 = 1.0", "a2 = 0.0"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "nu2 and a2 must be 0" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        ("gamma = 2\nnu2 = 7\ntable_s = 0 1\ntable_nu = 1 2\ntable_a = 9 9",
         "a table model with gamma set takes no table_a"),
        ("gamma = 2\ntable_s = 0 1\ntable_nu = 1 2\ntable_a = 9 9",
         "a table model with gamma set takes no table_a"),
        ("nu2 = 7\ntable_s = 0 1\ntable_nu = 1 2\ntable_a = 1 1",
         "a table model takes no slopes"),
        ("a2 = 7\ntable_s = 0 1\ntable_nu = 1 2\ntable_a = 1 1",
         "a table model takes no slopes"),
        ("gamma = 2\nnu2 = 7\ntable_s = 0 1\ntable_nu = 1 2",
         "a table model takes no slopes"),
    ], ids=["gamma-slope-and-table-a", "gamma-and-table-a", "nu2", "a2", "gamma-and-nu2"])
    def test_table_rejects_unused_settings(self, tmp_path, capsys, settings, message):
        text = re.sub(r"kind = physical_sqrt\n[^\[]*", f"kind = table\n{settings}\n\n", BASE)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["physical_sqrt", "constant"])
    @pytest.mark.parametrize("key", ["table_s", "table_nu", "table_a"])
    def test_table_nodes_rejected_off_table(self, tmp_path, capsys, kind, key):
        text = BASE.replace("kind = physical_sqrt", f"kind = {kind}\n{key} = 1 2")
        if kind == "constant":
            text = text.replace("nu2 = 1.0", "nu2 = 0.0").replace("a2 = 1.0", "a2 = 0.0")
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert f"config error: a {kind} model takes no table nodes" in capsys.readouterr().err
        assert not out.exists()


class TestSourceConfig:
    @pytest.mark.parametrize("kwargs, error", [
        (dict(preset="gaussian", sigma=math.nan), ValueError),
        (dict(preset="gaussian", sigma=-math.inf), ValueError),
        (dict(r=math.nan), HypothesisViolation),
        (dict(r=-math.inf), HypothesisViolation),
    ], ids=["sigma-nan", "sigma-minus-inf", "r-nan", "r-minus-inf"])
    def test_rejects_nan_and_nonpositive_shapes(self, kwargs, error):
        # the INI parser stops NaN; the Python API reaches these checks directly
        with pytest.raises(error):
            Source(**kwargs)

    @pytest.mark.parametrize("key, value", [
        ("amplitude", math.nan), ("x0", math.inf), ("y0", math.nan), ("amplitude", -math.inf),
    ], ids=["amplitude-nan", "x0-inf", "y0-nan", "amplitude-minus-inf"])
    def test_rejects_non_finite_load_settings(self, key, value):
        with pytest.raises(ValueError, match=f"source {key} must be finite"):
            Source(preset="gaussian", **{key: value})

    @pytest.mark.parametrize("preset", ["constant", "manufactured"])
    @pytest.mark.parametrize("key", ["x0", "y0", "sigma"])
    def test_gaussian_shape_rejected_elsewhere(self, tmp_path, capsys, preset, key):
        # keep only the one shape key under test
        text = re.sub(r"x0 = .*\ny0 = .*\nsigma = .*\n", f"{key} = 0.25\n", BASE)
        text = text.replace("preset = gaussian", f"preset = {preset}")
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: x0, y0 and sigma shape the gaussian preset only, not '{preset}'" in err
        assert not out.exists()
