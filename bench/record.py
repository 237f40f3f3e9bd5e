"""Record the benchmark of one source tree into a BENCH_<n>.json file.

    python bench/record.py --label change --out BENCH_6.json
    python bench/record.py --tree ../parent-checkout --label parent --out BENCH_6.json

For every workload, ``perfbench/run.py`` runs once per seed with
``--trace 0`` (end-to-end metrics) and once more with ``--trace 1`` on the
first seed (per-layer metrics), each from the root of ``--tree``.  Only the
last line of each run, its JSON result, is read; all timing is the
benchmark's own.  The file keeps one entry per ``--label``, so the parent
and the change of one pull request sit side by side; other labels already
in the file are left as they are.  Per workload an entry holds, for every
end-to-end metric, the median, the quartiles and their distance (IQR) over
the seeds, plus ``attempted``, ``failed`` (per seed) and ``correct`` (all
runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("bem_nearfield", "near_singular", "oracle_sweep")
SEEDS = (301, 302, 303, 304, 305)
SECONDS = 25.0


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of one metric over the seeds."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def record(tree: Path, workload: str) -> dict:
    runs = [run(tree, workload, seed, 0) for seed in SEEDS]
    traced = run(tree, workload, SEEDS[0], 1)
    units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
    return {
        "metrics": {
            name: {"unit": unit, **spread([r["metrics"][name]["value"] for r in runs])}
            for name, unit in units.items()
        },
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs + [traced]),
        "traced": {
            "seed": SEEDS[0],
            "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            "units": {name: m["unit"] for name, m in traced["metrics"].items()},
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="root of the checkout to measure")
    ap.add_argument("--label", required=True, help="entry name in the output, e.g. parent or change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or update")
    args = ap.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = {
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {wl: record(args.tree.resolve(), wl) for wl in WORKLOADS},
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
