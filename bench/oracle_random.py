"""Run ``adaptive_oracle`` on a seeded random set of inputs from one source tree.

    python bench/oracle_random.py --tree ../parent-checkout --out parent.npz
    python bench/oracle_random.py --out change.npz --against parent.npz

Inputs: vertices uniform in [-1, 1]^2, |z| log-uniform in [1e-4, 10] with
either sign, k uniform in [0, 3]; every call is full-component at tol
1e-13 with ``want_hyper=True``.  The values, status and wall time of each
call go to ``--out``.  One JSON line is printed: the number of calls, of
non-converged calls, the worst status error and the total time; with
``--against`` also the worst |v - v_ref| / (1 + |v_ref|) over all
components, the reference's counts, and ``over_bound``: the number of
inputs with a component where |v - v_ref| exceeds error + error_ref, the
sum of the two status errors (each is meant to bound its tree's true
error, so their sum bounds the difference), with the worst such ratio,
and ``over_bound_at``: each such input's index in the sequence of
``inputs`` followed by the names of its components over the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        verts = rng.uniform(-1.0, 1.0, size=(3, 2))
        z = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 1.0)
        yield verts, float(z), float(rng.uniform(0.0, 3.0))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="root of the checkout to run")
    ap.add_argument("--out", type=Path, required=True, help=".npz file for the results")
    ap.add_argument("--against", type=Path, help="an earlier --out file to compare with")
    ap.add_argument("--n", type=int, default=296)
    ap.add_argument("--seed", type=int, default=12)
    args = ap.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from helmpanel.analytic import COMPONENTS
    from helmpanel.numquad import adaptive_oracle

    values, errors, converged, seconds = [], [], [], []
    for verts, z, k in inputs(args.n, args.seed):
        t0 = time.perf_counter()
        v, status = adaptive_oracle(verts, z, k, tol=1e-13, want_hyper=True, return_status=True)
        seconds.append(time.perf_counter() - t0)
        values.append(v.values)
        errors.append(status["error"])
        converged.append(status["converged"])
    values = np.array(values)
    np.savez(args.out, values=values, errors=errors, converged=converged, seconds=seconds)
    summary = {
        "calls": len(values),
        "not_converged": int(np.count_nonzero(~np.array(converged))),
        "max_error": max(errors),
        "total_s": round(sum(seconds), 3),
    }
    if args.against:
        ref = np.load(args.against)
        diff = np.abs(values - ref["values"])
        bound = np.array(errors) + ref["errors"]
        ratio = diff.max(axis=1) / bound
        summary.update(
            max_rel_dev=float((diff / (1.0 + np.abs(ref["values"]))).max()),
            over_bound=int(np.count_nonzero(ratio > 1.0)),
            over_bound_at=[
                [int(i), *(COMPONENTS[c] for c in np.flatnonzero(diff[i] > bound[i]))]
                for i in np.flatnonzero(ratio > 1.0)
            ],
            worst_bound_ratio=float(ratio.max()),
            ref_not_converged=int(np.count_nonzero(~ref["converged"])),
            ref_total_s=round(float(ref["seconds"].sum()), 3),
        )
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
