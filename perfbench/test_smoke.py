"""Smoke test of the benchmark: every workload path, untraced and traced, on 9x9 grids."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def small(w):
    return dataclasses.replace(w, nx=9, n_list=w.n_list[:2])


@pytest.fixture(autouse=True)
def brief_setup(monkeypatch):
    """Set up only the minimum number of times, to keep the smoke test quick."""
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(name, trace, tmp_path):
    before = tracing.bindings()
    result = run.run(small(workloads.WORKLOADS[name]), seed=3, seconds=0, trace=trace, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    after = tracing.bindings()
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(v1 is v2 for (_, _, v1), (_, _, v2) in zip(before, after)), "a traced function stayed patched"
    assert not (tmp_path / f"work-{os.getpid()}").exists()
    assert (tmp_path / f"spans-{name}.jsonl").exists() == trace


def test_traced_counts_match_reports(tmp_path):
    w = small(workloads.WORKLOADS["sweep-direct-129"])
    result = run.run(w, seed=3, seconds=0, trace=True, out_dir=tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["fixedpoint.levels"] == len(w.n_list)
    assert m["linsolve.cg_iterations"] > 0
    assert m["linsolve.residual_checks"] >= m["linsolve.solves"]
    assert m["kernels.diffusion_matvec.calls"] == m["linsolve.matvecs"]


def test_seeded_centres_lie_off_both_axes():
    centres = set()
    for seed in range(50):
        centre = workloads.load_centre(seed)
        assert centre == workloads.load_centre(seed)
        centres.add(centre)
    assert centres == {(0.47, 0.47), (0.47, 0.53), (0.53, 0.47), (0.53, 0.53)}


def _small_sweep(tmp_path):
    p = workloads.setup(small(workloads.WORKLOADS["sweep-direct-129"]), 3, tmp_path)
    workloads.reset_outputs(p)
    status, stderr = workloads.run_operation(p)
    assert status == 0, stderr
    return p


def test_check_flags_a_wrong_dump(tmp_path):
    p = _small_sweep(tmp_path)
    assert workloads.check_operation(p, 0, "").failure is None
    k_path = p.out_dir / "k_n2.txt"
    lines = k_path.read_text().splitlines()
    lines[3] = " ".join(["-1"] + lines[3].split()[1:])
    k_path.write_text("\n".join(lines) + "\n")
    assert workloads.check_operation(p, 0, "").failure is not None


def test_exit_status_one_counts_as_unconverged_only_when_stderr_names_the_levels(tmp_path):
    p = _small_sweep(tmp_path)
    reports_path = p.out_dir / "reports.json"
    payload = json.loads(reports_path.read_text())
    payload["reports"][1]["converged"] = False
    reports_path.write_text(json.dumps(payload))
    outcome = workloads.check_operation(p, 1, "sweep entries did not converge at n = [2]\n")
    assert (outcome.levels, outcome.unconverged, outcome.failure) == (2, 1, None)
    assert workloads.check_operation(p, 1, "sweep entries did not converge at n = [1, 2]\n").failure
    assert workloads.check_operation(p, 0, "").failure


def test_kirchhoff_solve_verifies_its_dumps(tmp_path):
    w = small(workloads.WORKLOADS["solve-kirchhoff-129"])
    result = run.run(w, seed=3, seconds=0, trace=True, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["verify.full_report.calls"] == 1
    assert m["cli.read_field.calls"] == 2
