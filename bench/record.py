"""Record the benchmark of a parent and a change, in alternating pairs, into a BENCH_<n>.json file.

    python bench/record.py --parent ../parent-checkout --seeds 501-510 --out BENCH_33.json
    python bench/record.py --tree ../change-checkout --parent ../parent-checkout --seeds 501-510 --out BENCH_33.json

For every workload, ``perfbench/run.py`` runs with ``--trace 0``
(end-to-end metrics) on the tree under ``--parent`` and on ``--tree``
(this checkout by default) alternately, each from the root of its tree:
pair i takes seed i of ``--seeds``, and the parent goes first in the even
pairs, the change in the odd ones, so that a host that changes speed for
minutes at a time weighs on both alike.  One ``--trace 1`` run per tree
on the first seed (per-layer metrics) follows the pairs.  Only the last
line of each run, its JSON result, is read; all timing is the
benchmark's own.

The ``parent`` and ``change`` entries keep the keys of the earlier
BENCH files: per workload, for every end-to-end metric, the median, the
quartiles and their distance (IQR) over the pairs, plus ``attempted``,
``failed`` (per pair) and ``correct`` (all runs).  ``pairs`` adds, per
workload and for every end-to-end metric of ``BENCHMARK.json``, the wins
of each tree (ties count for neither), the median of the paired
differences (change minus parent) against the parent's IQR, and whether
``failed`` is the same on every pair.  Other entries already in the file
are left as they are.
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
SECONDS = 25.0
# end-to-end metric name -> "higher" or "lower", the direction that is better
BETTER = {m["name"]: m["better"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of one metric over the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def entry(runs: list[dict], traced: dict, seed: int) -> dict:
    """One label's record of one workload, from its untraced runs and one traced run on ``seed``."""
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
            "seed": seed,
            "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            "units": {name: m["unit"] for name, m in traced["metrics"].items()},
        },
    }


def pair_summary(parent: list[dict], change: list[dict]) -> dict:
    """The paired comparison of one workload's runs, ``parent[i]`` against ``change[i]``.

    Per end-to-end metric (``BETTER``): each tree's wins, a tie counting for
    neither; the median of the differences change - parent; the parent's
    IQR; and ``beyond_iqr``, whether that median is larger than the IQR.
    ``failed_same`` says whether both trees failed as often on every pair.
    """
    out = {"failed_same": [p["failed"] for p in parent] == [c["failed"] for c in change], "metrics": {}}
    for name, better in BETTER.items():
        a = [p["metrics"][name]["value"] for p in parent]
        b = [c["metrics"][name]["value"] for c in change]
        sign = 1.0 if better == "higher" else -1.0
        diff = statistics.median(y - x for x, y in zip(a, b))
        iqr = spread(a)["iqr"]
        out["metrics"][name] = {
            "better": better,
            "wins": {
                "parent": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
                "change": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            },
            "median_diff": diff,
            "parent_iqr": iqr,
            "beyond_iqr": abs(diff) > iqr,
        }
    return out


def record_pairs(trees: dict[str, Path], workload: str, seeds: list[int]) -> dict[str, dict]:
    """Both trees' entries of one workload and their ``pair_summary``, from alternating runs."""
    runs = {label: [] for label in trees}
    for i, seed in enumerate(seeds):
        for label in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[label].append(run(trees[label], workload, seed, 0))
    traced = {label: run(trees[label], workload, seeds[0], 1) for label in ("parent", "change")}
    out = {label: entry(runs[label], traced[label], seeds[0]) for label in trees}
    out["pairs"] = pair_summary(runs["parent"], runs["change"])
    return out


def seed_range(text: str) -> list[int]:
    """``a-b`` as the seeds a .. b, or one seed."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="root of the change's checkout")
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent's checkout")
    ap.add_argument("--seeds", type=seed_range, required=True, help="seeds a-b, one pair per seed")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or update")
    args = ap.parse_args()
    seeds = args.seeds
    if len(seeds) < 2:
        ap.error("--seeds must give at least 2 seeds")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    trees = {"parent": args.parent.resolve(), "change": args.tree.resolve()}
    done = {wl: record_pairs(trees, wl, seeds) for wl in WORKLOADS}
    for label in trees:
        doc[label] = {"seeds": seeds, "seconds": SECONDS, "workloads": {wl: done[wl][label] for wl in WORKLOADS}}
    doc["pairs"] = {"count": len(seeds), "first": ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))],
                    "workloads": {wl: done[wl]["pairs"] for wl in WORKLOADS}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
