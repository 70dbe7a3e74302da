import math

import numpy as np
import pytest

from turbsolve import ScalarField, make_grid
from turbsolve.cli import main, read_field, write_field

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


def write_config(tmp_path, text=BASE, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
    for name in ("sweep.csv", "reports.json", "u_n4.txt", "k_n4.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert "certifies" in header.split(",")


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


def test_verify_zero_data(tmp_path):
    text = BASE.replace("preset = gaussian", "preset = constant").replace(
        "amplitude = 1.0", "amplitude = 0.0"
    )
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

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("[solver]", "[solvr]"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: unknown section [solvr]" in capsys.readouterr().err

    def test_every_documented_key_accepted(self, tmp_path):
        text = BASE.replace("route = direct\n", "route = direct\ndamping = 1.0\ninit_k_value = 0.0\n"
                            "inner_tol = 1e-12\nn = 2\n")
        out = tmp_path / "o"
        cfg = write_config(tmp_path, text + f"[output]\ndir = {out}\n")
        assert main(["solve", "--config", cfg]) == 0
        assert (out / "report.json").exists()


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
    def test_level_zero_rejected(self, tmp_path):
        u, k = write_zero_dumps(tmp_path)
        assert run_verify(tmp_path, u, k) == 0
        assert run_verify(tmp_path, u, k, "--n", "0") == 2

    def test_dump_with_rows_cut_off(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, cut_rows=3)
        assert run_verify(tmp_path, u, k) == 2
        assert "expected 17 rows of 17" in capsys.readouterr().err

    def test_dump_with_extra_row(self, tmp_path, capsys):
        u, k = write_zero_dumps(tmp_path, extra_rows=1)
        assert run_verify(tmp_path, u, k) == 2
        assert "expected 17 rows of 17" in capsys.readouterr().err

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
