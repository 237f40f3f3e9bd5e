"""Scan ``evaluate`` against ``adaptive_oracle`` on points a few diameters from the sample triangle.

    python bench/far_pairs.py --seed 5
    python bench/far_pairs.py --seed 5 --n-gauss 50    # every call forced numeric at n = 50

Inputs, from ``numpy.random.default_rng(--seed)`` as in ``auto_random.py``:
the sample triangle (``engine.sample_triangle``, in the plane z = 0); per
row ``--n`` field points at distance D diam from its centroid, D in DISTANCES, with the azimuth
uniform in [0, 2 pi) and the elevation uniform in [0, pi/2]; every row
is one (D, k, tol) of DISTANCES x WAVENUMBERS x TOLS.  Each call asks for
I0 and dI0/dn under method "auto" (or, with ``--n-gauss``, "numeric" at
that order) and is checked against ``adaptive_oracle`` at tol 1e-14 on
the triangle's plane vertices about the projection, which for the sample
triangle are its (x, y) less the point's.

A call misses when I0 is off by more than 10 tol or dI0/dn by more than
100 tol (the README contract).  Printed per row: the misses out of the
calls, the worst error over bound, the path-kind mix (the calls of kind
"panel", "numeric" and "analytic": the collapsed rule on the panel, the
polar rule on the fan and the expansion) and the median order of the
panel rule's and of the polar rule's calls (0 where none ran).  The last
line is JSON: the calls, the misses and per row [D, k, tol, calls,
misses, worst ratio, median polar n, median panel n, panel calls,
numeric calls, analytic calls].  ``--tree`` runs the library of another
checkout (one that names no "panel" kind counts none).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DISTANCES = (3.0, 10.0, 30.0, 100.0)
WAVENUMBERS = (0.5, 1.0)
TOLS = (1e-6, 1e-9)
FACTORS = np.array([10.0, 100.0])  # I0, dI0/dn
ORACLE_TOL = 1e-14
KINDS = ("panel", "numeric", "analytic")  # MethodInfo.kind, in the printed mix's order


def points(n: int, distance: float, centroid: np.ndarray, rng: np.random.Generator):
    """n field points at ``distance`` from ``centroid``, in random directions above the plane."""
    for _ in range(n):
        azimuth, elevation = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 0.5 * math.pi)
        c = math.cos(elevation)
        yield centroid + distance * np.array([c * math.cos(azimuth), c * math.sin(azimuth), math.sin(elevation)])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="root of the checkout to run")
    ap.add_argument("--n", type=int, default=200, help="points per row")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--n-gauss", type=int, help="force method 'numeric' at this order")
    args = ap.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from helmpanel.engine import EvalRequest, evaluate, sample_triangle
    from helmpanel.numquad import adaptive_oracle

    tri = sample_triangle()
    verts = tri.vertices
    centroid, diam = verts.mean(axis=0), tri.diameter
    method = "auto" if args.n_gauss is None else "numeric"
    rng = np.random.default_rng(args.seed)
    rows = []
    t0 = time.perf_counter()
    print(f"{'D/diam':>6s} {'k':>4s} {'tol':>6s}  {'misses':>9s} {'worst':>8s} {'panel/numeric/analytic':>22s}"
          f" {'polar n':>7s} {'panel n':>7s}")
    for distance in DISTANCES:
        for k in WAVENUMBERS:
            for tol in TOLS:
                ratios, orders = [], {kind: [] for kind in KINDS}
                for x in points(args.n, distance * diam, centroid, rng):
                    rep = evaluate(EvalRequest(tri, x, k, tol), method=method, n_gauss=args.n_gauss)
                    ref = adaptive_oracle(verts[:, :2] - x[:2], x[2], k, tol=ORACLE_TOL, components=("i0", "di0"))
                    err = np.abs([rep.result.i0 - ref.i0, rep.result.di0_dn - ref.di0_dn])
                    ratios.append(float((err / (FACTORS * tol)).max()))
                    orders[rep.method.kind].append(rep.method.n_gauss)
                ratios = np.array(ratios)
                misses = int(np.count_nonzero(ratios > 1.0))
                polar_p50, panel_p50 = (float(np.median(orders[kind])) if orders[kind] else 0.0
                                        for kind in ("numeric", "panel"))
                mix = [len(orders[kind]) for kind in KINDS]
                rows.append([distance, k, tol, len(ratios), misses, float(ratios.max()), polar_p50, panel_p50, *mix])
                print(f"{distance:6g} {k:4g} {tol:6.0e}  {f'{misses}/{len(ratios)}':>9s} {ratios.max():8.1e}"
                      f" {'/'.join(map(str, mix)):>22s} {polar_p50:7g} {panel_p50:7g}")
    summary = {
        "calls": sum(r[3] for r in rows),
        "misses": sum(r[4] for r in rows),
        "rows": rows,
        "method": method if args.n_gauss is None else f"numeric n={args.n_gauss}",
        "total_s": round(time.perf_counter() - t0, 2),
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
