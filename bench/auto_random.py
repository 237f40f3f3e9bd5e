"""Scan ``evaluate`` (method "auto") against ``adaptive_oracle`` on seeded random inputs.

    python bench/auto_random.py --tree ../parent-checkout --out parent.npz --seed 5
    python bench/auto_random.py --out change.npz --seed 5 --against parent.npz

Inputs: triangles with vertices uniform in [-1, 1]^2 in the plane z = 0
(those of area below 1e-3 are drawn again); the field point projects onto
a vertex, onto an edge, inside or outside the triangle, each class with
probability 1/4; 15% of the points lie in the plane, the rest at |z|
log-uniform in [1e-4, 10] with either sign; k uniform in [0, 3]; tol one
of 1e-6, 1e-9 and 1e-12.  Every call asks for all seven components
(``want_hypersingular``) and is checked against a full-component
``adaptive_oracle`` call at tol / 100 on the triangle's element-frame
vertices, computed here, independently of ``helmpanel.geometry``.

A component misses when |v - v_ref| exceeds its bound: 10 tol for I0,
100 tol for dI0/dn (the README contract), the same 10 tol for Ix, Iy and
100 tol for dIx/dn, dIy/dn, and 100 tol max(1, |v_ref|) for d2I0/dn2.  The
last three are this scan's yardstick, not a contract of the library.
The table gives, per (projection class, in-plane, path) and per
component, the misses out of the calls and the worst ratio of error to
bound; path is "numeric", "analytic" or "fallback" (numeric after the
analytic path was inadmissible).  The per-input results go to ``--out``.
The last line is JSON: the calls, the inputs with a miss, and per class
the calls, the inputs that miss I0 or dI0/dn, and those that miss any
component.  With ``--against`` an earlier ``--out`` file of the same
inputs is read and its table printed first; the JSON line then adds the
inputs whose path, Gauss order or expansion order differs and the worst
|v - v_ref| / (1 + |v_ref|) over the inputs whose verdicts agree.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
CLASSES = ("vertex", "edge", "interior", "exterior")
TOLS = (1e-6, 1e-9, 1e-12)
NAMES = ("I0", "Ix", "Iy", "dI0", "dIx", "dIy", "d2I0")
FACTORS = np.array([10.0, 10.0, 10.0, 100.0, 100.0, 100.0, 100.0])


def inputs(n: int, seed: int):
    """(vertices (3, 3), field point, k, tol, class, in_plane) for n inputs."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < n:
        v = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1, e2 = v[1] - v[0], v[2] - v[0]
        if 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0]) < 1e-3:
            continue
        cls = CLASSES[rng.integers(4)]
        if cls == "vertex":
            p = v[rng.integers(3)]
        elif cls == "edge":
            i = rng.integers(3)
            p = v[i] + rng.uniform(0.05, 0.95) * (v[(i + 1) % 3] - v[i])
        elif cls == "interior":
            p = rng.dirichlet(np.ones(3)) @ v
        else:
            while True:
                p = rng.uniform(-2.0, 2.0, size=2)
                bary = np.linalg.solve(np.vstack([v.T, np.ones(3)]), [*p, 1.0])
                if bary.min() < -1e-3:
                    break
        in_plane = bool(rng.uniform() < 0.15)
        z = 0.0 if in_plane else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 1.0)
        k = float(rng.uniform(0.0, 3.0))
        tol = TOLS[rng.integers(3)]
        made += 1
        yield np.column_stack([v, np.zeros(3)]), np.array([*p, z]), k, tol, cls, in_plane


def element_frame(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Planar vertices about the projection of x and its height, by NumPy
    products in the library's conventions (normal along (v2 - v1) x (v3 - v1),
    local x-axis along v2 - v1); an in-plane point keeps z = 0."""
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n /= np.linalg.norm(n)
    e1 = (v[1] - v[0]) / np.linalg.norm(v[1] - v[0])
    z = float(np.dot(x - v[0], n)) if x[2] != 0.0 else 0.0
    rel = v - (x - z * n)
    return np.column_stack([rel @ e1, rel @ np.cross(n, e1)]), z


def path_of(method) -> str:
    return "fallback" if "fallback" in method.note else method.kind


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="root of the checkout to run")
    ap.add_argument("--out", type=Path, required=True, help=".npz file for the results")
    ap.add_argument("--against", type=Path, help="an earlier --out file of the same inputs to compare with")
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from helmpanel.engine import EvalRequest, evaluate
    from helmpanel.geometry import Triangle3
    from helmpanel.numquad import adaptive_oracle

    rows, values, refs, ratios, orders = [], [], [], [], []
    t0 = time.perf_counter()
    for v, x, k, tol, cls, in_plane in inputs(args.n, args.seed):
        rep = evaluate(EvalRequest(Triangle3(*v), x, k, tol, want_hypersingular=True))
        verts2d, z = element_frame(v, x)
        ref, status = adaptive_oracle(verts2d, z, k, tol=tol / 100, want_hyper=True, return_status=True)
        bound = FACTORS * tol
        bound[6] *= max(1.0, abs(ref.values[6]))
        rows.append((cls, in_plane, path_of(rep.method), status["converged"]))
        orders.append((rep.method.n_gauss or 0, -1 if rep.method.q_expansion is None else rep.method.q_expansion))
        values.append(rep.result.values)
        refs.append(ref.values)
        ratios.append(np.abs(rep.result.values - ref.values) / bound)
    seconds = time.perf_counter() - t0
    cls, in_plane, path, converged = (np.array(c) for c in zip(*rows))
    values, refs, ratios, orders = np.array(values), np.array(refs), np.array(ratios), np.array(orders)
    np.savez(args.out, cls=cls, in_plane=in_plane, path=path, orders=orders, values=values, refs=refs, ratios=ratios)
    old = np.load(args.against) if args.against else None

    if old is not None:
        print(f"against {args.against}:")
        table(old["cls"], old["in_plane"], old["path"], old["ratios"])
        print(f"{args.tree}:")
    by_class = table(cls, in_plane, path, ratios)
    summary = {
        "calls": len(values),
        "misses": int(np.count_nonzero((ratios > 1.0).any(axis=1))),
        "by_class": by_class,
        "ref_not_converged": int(np.count_nonzero(~converged)),
        "total_s": round(seconds, 2),
    }
    if old is not None:
        changed = (old["path"] != path) | (old["orders"] != orders).any(axis=1)
        dev = np.abs(values - old["values"]) / (1.0 + np.abs(old["values"]))
        summary.update(
            verdicts_changed=int(np.count_nonzero(changed)),
            max_rel_dev_same_verdict=float(dev[~changed].max()) if (~changed).any() else 0.0,
            ref_misses=int(np.count_nonzero((old["ratios"] > 1.0).any(axis=1))),
        )
    print(json.dumps(summary))


def table(cls, in_plane, path, ratios) -> dict:
    """Print misses / calls and the worst ratio per (class, in-plane, path) and
    component; return {class/in-plane/path: [calls, I0 or dI0 misses, any misses]}."""
    print(f"{'class':9s} {'in-plane':8s} {'path':8s} {'calls':>5s}  " + "  ".join(f"{c:>13s}" for c in NAMES))
    out = {}
    for key in sorted(set(zip(cls.tolist(), in_plane.tolist(), path.tolist()))):
        r = ratios[(cls == key[0]) & (in_plane == key[1]) & (path == key[2])]
        miss = r > 1.0
        cells = "  ".join(f"{f'{int(miss[:, j].sum())}/{len(r)} {r[:, j].max():.1e}':>13s}" for j in range(len(NAMES)))
        print(f"{key[0]:9s} {str(key[1]):8s} {key[2]:8s} {len(r):5d}  {cells}")
        label = f"{key[0]}/{'in-plane' if key[1] else 'off-plane'}/{key[2]}"
        out[label] = [len(r), int(miss[:, [0, 3]].any(axis=1).sum()), int(miss.any(axis=1).sum())]
    return out


if __name__ == "__main__":
    main()
