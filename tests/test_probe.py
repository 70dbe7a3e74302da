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
    assert result["outer"] > 0 and result["cg"] > 0
    assert result["unconverged"] == result["clamps"] == result["errors"] == 0
    assert len(result["slowest"]) == 3
    assert lines[0] == probe.line(result)


def test_the_cg_counter_is_removed_after_a_run():
    probe = load_probe()
    solve = probe.fixedpoint.solve_spd
    probe.run(7, 1)
    assert probe.fixedpoint.solve_spd is solve
