"""Record reference.json: per-level results of every workload at the reference seed.

    python3 perfbench/record_reference.py

Run this only on a commit whose numerics are the ones to compare against;
run.py then checks linf_u, linf_k and energy of every level that converged
in both to a relative 1e-6, at every seed: each seed's load is a mirror
image of the reference seed's, which leaves those values alone.
"""

import json
import shutil

import workloads
from run import OUT_DIR, single_thread_blas


def main():
    single_thread_blas()
    work_dir = OUT_DIR / "reference-work"
    recorded = {}
    try:
        for name, w in workloads.WORKLOADS.items():
            p = workloads.setup(w, workloads.REFERENCE_SEED, work_dir / name)
            if w.kind == "certify":
                levels = [p.fixture_report]
            else:
                workloads.reset_outputs(p)
                workloads.run_operation(p)
                report_file = "reports.json" if w.kind == "sweep" else "report.json"
                levels = json.loads((p.out_dir / report_file).read_text())["reports"]
            recorded[name] = [
                {key: r[key] for key in ("n", "converged", "outer_iterations", "linf_u", "linf_k", "energy")}
                for r in levels
            ]
            print(name, [(r["n"], r["converged"]) for r in levels])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    payload = {"seed": workloads.REFERENCE_SEED, "centre": workloads.load_centre(workloads.REFERENCE_SEED),
               "workloads": recorded}
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
