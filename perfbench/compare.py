"""Compare two sets of benchmark result records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py (``perfbench/out/results``
of a checkout).  For every workload and metric it prints each side's run
count, median and quartiles and the change of the median.  An end-to-end
metric whose new median is worse than the base median by more than its
bound in BENCHMARK.json is marked ``WORSE``; one whose base runs spread
wider than the bound is marked ``unresolved`` unless every new run beats
every base run.  Records measured on different kernel paths are not
compared: the script exits with status 2.  Exit status 1 means some metric
is WORSE.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{(workload, metric): [values]} and the set of kernel paths, from one directory."""
    values = defaultdict(list)
    paths = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        paths.add(record["environment"]["kernel_path"])
        for name, m in record["metrics"].items():
            values[(record["workload"], name)].append(m["value"])
    return values, paths


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def main(argv):
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE_DIR NEW_DIR", file=sys.stderr)
        return 2
    base, base_paths = load(argv[0])
    new, new_paths = load(argv[1])
    if len(base_paths | new_paths) > 1:
        print(f"refusing to compare results from different kernel paths: {sorted(base_paths | new_paths)}",
              file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        sign = 1.0 if spec["better"] == "lower" else -1.0
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        verdict = ""
        if "bound" in spec:
            spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
            all_better = all(sign * x < sign * y for x in n for y in b)
            if sign * change > spec["bound"]:
                verdict, worse = "WORSE", True
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{workload:22} {name:42} base {len(b):2d}x {bq[1]:<12.6g} [{bq[0]:.6g} .. {bq[2]:.6g}]  "
              f"new {len(n):2d}x {nq[1]:<12.6g} [{nq[0]:.6g} .. {nq[2]:.6g}]  {change:+.1%} {spec['unit']} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
