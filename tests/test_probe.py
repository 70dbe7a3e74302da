"""Smoke test of the seeded sweep probe, ``tools/probe.py``, on 10 cases."""

import importlib.util
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ten_cases_converge_and_print_one_line(capsys):
    probe = load_probe()
    assert probe.main(["--seed", "7", "--cases", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("seed 7 cases 10: levels 22 outer ")
    result = probe.run(7, 10)
    assert result["levels"] == 22  # drawn by random.Random(7) alone
    assert result["outer"] > 0 and result["cg"] > 0 and result["anderson"] > 0
    assert result["unconverged"] == result["clamps"] == result["errors"] == 0
    assert len(result["slowest"]) == 3
    assert lines[0] == probe.line(result)
    # the per-route totals add up to the totals, and the line prints them
    routes = result["routes"]
    assert list(routes) == list(probe.fixedpoint.ROUTES)
    assert all(t["outer"] > 0 for t in routes.values())  # every route is drawn
    assert sum(t["outer"] for t in routes.values()) == result["outer"]
    assert sum(t["cg"] for t in routes.values()) == result["cg"]
    assert " ".join(f"{r} outer {t['outer']} cg {t['cg']}" for r, t in routes.items()) in lines[0]


def test_the_cg_counter_is_removed_after_a_run():
    probe = load_probe()
    solve, anderson = probe.fixedpoint.solve_spd, probe.fixedpoint._anderson
    probe.run(7, 1)
    assert probe.fixedpoint.solve_spd is solve
    assert probe.fixedpoint._anderson is anderson


def test_levels_file_has_one_line_per_level(tmp_path, capsys):
    probe = load_probe()
    path = tmp_path / "levels.tsv"
    assert probe.main(["--seed", "7", "--cases", "10", "--levels", str(path)]) == 0
    summary = capsys.readouterr().out.splitlines()
    result = probe.run(7, 10)
    assert summary == [probe.line(result)]  # the summary line is unchanged by --levels
    rows = [row.split("\t") for row in path.read_text().splitlines()]
    assert len(rows) == result["levels"] == 22
    assert all(len(row) == 5 and row[0] == "7" for row in rows)
    assert sum(int(row[4]) for row in rows) == result["outer"]
    for route, totals in result["routes"].items():
        assert sum(int(row[4]) for row in rows if row[2] == route) == totals["outer"]
    # every case's levels ascend, and the file names each level once
    keys = [(int(row[1]), int(row[3])) for row in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
