"""Generate the workload pools and their oracle references (run once).

    python3 perfbench/gen_pools.py [workload ...]

Writes ``perfbench/data/<workload>.npz``.  Everything is drawn from
POOL_SEED, so the pools are reproducible; the references are
``adaptive_oracle`` values at a tolerance 100 times below each request
(``bem_nearfield``, ``near_singular``) or the oracle's own result at
ORACLE_TOL (``oracle_sweep``, a regression reference).  ``known_miss``
marks the entries the library misses against them when the pool is made:
a benchmark run is correct while no other entry misses.  Takes a few
minutes on two cores; the benchmark itself never runs it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from worker import call_all  # noqa: E402
from workloads import CLASSES, DATA_DIR, ORACLE_COMPONENTS, ORACLE_TOL, WORKLOADS, element_frame  # noqa: E402

POOL_SEED = 190205501
# Processes computing references.
JOBS = 2
# Poses in which every entry is sent to the library to find its misses.
MISS_POSES = 3

# bem_nearfield: icosphere level 3 (1280 panels), vertex jitter as a share of
# the mean edge, k * h, near-field radius in mean edges, pool panels.
BEM_LEVEL = 3
BEM_JITTER = 0.1
BEM_KH = 0.9
BEM_NEAR = 3.0
BEM_TOL = 1e-6
BEM_POOL_PANELS = 320

NS_POOL = 2400
NS_TOLS = (1e-6, 1e-9, 1e-12)
NS_ZERO_SHARE = 0.2

ORACLE_K = 1.0
# z on a log-spaced grid over [1e-4, 10]: the centres of equal strata of log10 z
ORACLE_LOGZ = (-4.0, 1.0)
ORACLE_STRATA = 6

# Reference tolerance relative to the request, and the largest achieved
# error estimate accepted (a tenth of the request, so a hundredth of the
# 10 tol bound on I0).
REF_SHARE = 1e-2
REF_ACCEPT = 1e-1


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere with outward-oriented faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in mid:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                mid[key] = len(verts) - 1
            return mid[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new
    v = np.array(verts)
    f = np.array(faces)
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    inward = np.einsum("ij,ij->i", n, v[f].mean(axis=1)) < 0.0
    f[inward] = f[inward][:, ::-1]
    return v, f


def mean_edge(v: np.ndarray, f: np.ndarray) -> float:
    e = np.concatenate([v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 1]], v[f[:, 0]] - v[f[:, 2]]])
    return float(np.linalg.norm(e, axis=1).mean())


def bem_pool(rng: np.random.Generator) -> tuple[dict, list]:
    v, f = icosphere(BEM_LEVEL)
    h0 = mean_edge(v, f)
    v = v + rng.normal(scale=BEM_JITTER * h0, size=v.shape)
    h = mean_edge(v, f)
    k = BEM_KH / h
    centroids = v[f].mean(axis=1)
    panels = np.sort(rng.choice(len(f), size=BEM_POOL_PANELS, replace=False))
    pair_panel, pair_point, starts = [], [], [0]
    for p in panels:
        near = np.flatnonzero(np.linalg.norm(centroids - centroids[p], axis=1) <= BEM_NEAR * h)
        pair_panel += [p] * len(near)
        pair_point += list(near)
        starts.append(len(pair_panel))
    pair_panel = np.array(pair_panel)
    pair_point = np.array(pair_point)
    in_plane = pair_panel == pair_point
    jobs = []
    for p, q, flat in zip(pair_panel, pair_point, in_plane):
        verts2d, z = element_frame(v[f[p]], centroids[q])
        jobs.append((verts2d, 0.0 if flat else z, k, BEM_TOL * REF_SHARE))
    pool = dict(
        vertices=v, faces=f, k=np.float64(k), tol=np.float64(BEM_TOL), mean_edge=np.float64(h),
        pool_panels=panels, pair_start=np.array(starts), pair_panel=pair_panel,
        pair_point=pair_point, in_plane=in_plane, ref_tol=np.full(len(jobs), BEM_TOL),
    )
    return pool, jobs


def near_singular_pool(rng: np.random.Generator) -> tuple[dict, list]:
    n = NS_POOL
    a = rng.uniform(0.15, 0.85, n)
    b = rng.uniform(0.45, 1.0, n)
    tri = np.zeros((n, 3, 2))
    tri[:, 1, 0] = 1.0
    tri[:, 2, 0], tri[:, 2, 1] = a, b
    edges = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2]], axis=1)
    diam = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
    tri *= (diam / np.linalg.norm(edges, axis=2).max(axis=1))[:, None, None]
    proj_class = rng.integers(0, 3, n)  # 0 vertex, 1 edge, 2 interior
    proj = np.empty((n, 2))
    for i in range(n):
        if proj_class[i] == 0:
            proj[i] = tri[i, rng.integers(3)]
        elif proj_class[i] == 1:
            j = rng.integers(3)
            t = rng.uniform(0.1, 0.9)
            proj[i] = (1 - t) * tri[i, j] + t * tri[i, (j + 1) % 3]
        else:
            lam = rng.dirichlet((1.0, 1.0, 1.0))
            while lam.min() < 0.05:
                lam = rng.dirichlet((1.0, 1.0, 1.0))
            proj[i] = lam @ tri[i]
    verts2d = tri - proj[:, None, :]
    zero = rng.uniform(size=n) < NS_ZERO_SHARE
    z = np.where(zero, 0.0, rng.choice((-1.0, 1.0), n) * diam * 10.0 ** rng.uniform(-4, -1, n))
    k = rng.uniform(0.3, 2.0, n) / diam
    tol = rng.choice(NS_TOLS, n)
    pool = dict(verts2d=verts2d, z=z, k=k, tol=tol, diam=diam, proj_class=proj_class, in_plane=zero, ref_tol=tol)
    jobs = [(verts2d[i], z[i], k[i], tol[i] * REF_SHARE) for i in range(n)]
    return pool, jobs


def oracle_pool(rng: np.random.Generator) -> tuple[dict, list]:
    from helmpanel.engine import SAMPLE_PROJECTIONS, sample_triangle

    tri = sample_triangle().vertices[:, :2]
    lo, hi = ORACLE_LOGZ
    z_grid = 10.0 ** (lo + (hi - lo) * (np.arange(ORACLE_STRATA) + 0.5) / ORACLE_STRATA)
    verts2d, z = [], []
    for p in sorted(SAMPLE_PROJECTIONS):
        verts2d += [tri - np.array(SAMPLE_PROJECTIONS[p])] * ORACLE_STRATA
        z += list(z_grid)
    pool = dict(
        verts2d=np.array(verts2d), z=np.array(z), k=np.float64(ORACLE_K),
        ref_tol=np.full(len(z), ORACLE_TOL / REF_ACCEPT),
    )
    return pool, [(v, zz) for v, zz in zip(verts2d, z)]


def _ref_i0_di0(job):
    from helmpanel.numquad import adaptive_oracle

    verts2d, z, k, tol = job
    val, status = adaptive_oracle(verts2d, z, k, tol=tol, components=("i0", "di0"), return_status=True)
    return val.i0, val.di0_dn, status["error"], status["converged"]


def _ref_oracle(job):
    from helmpanel.numquad import adaptive_oracle

    verts2d, z = job
    val, status = adaptive_oracle(verts2d, z, ORACLE_K, tol=ORACLE_TOL, want_hyper=True, return_status=True)
    return tuple(getattr(val, c) for c in ORACLE_COMPONENTS) + (status["error"], status["converged"])


def known_misses(workload: str, pool: dict) -> np.ndarray:
    """Entries the library misses against their references, in every one of MISS_POSES poses."""
    wl = CLASSES[workload](pool, POOL_SEED)
    wl.entries = np.arange(len(pool["ref_i0"]))  # every entry, not one run's selection
    verdicts = []
    for _ in range(MISS_POSES):
        p = wl.next_pass()
        results, _ = call_all(wl.call, p.items, np.empty(len(p.items)))
        miss = np.zeros(len(wl.entries), dtype=bool)
        miss[p.entries] = ~wl.check(p, results)
        verdicts.append(miss)
    flaky = np.flatnonzero(np.any(verdicts, axis=0) != np.all(verdicts, axis=0))
    if len(flaky):
        raise SystemExit(f"{workload}: {len(flaky)} entries pass in one pose and miss in another, e.g. {flaky[0]}")
    return verdicts[0]


def generate(workload: str) -> None:
    rng = np.random.default_rng([POOL_SEED, WORKLOADS.index(workload)])
    builder = {"bem_nearfield": bem_pool, "near_singular": near_singular_pool, "oracle_sweep": oracle_pool}
    pool, jobs = builder[workload](rng)
    fn = _ref_oracle if workload == "oracle_sweep" else _ref_i0_di0
    t0 = time.perf_counter()
    with ProcessPoolExecutor(JOBS, mp_context=get_context("spawn")) as ex:
        out = list(ex.map(fn, jobs, chunksize=8))
    names = ["ref_" + c for c in ORACLE_COMPONENTS] if workload == "oracle_sweep" else ["ref_i0", "ref_di0"]
    for j, name in enumerate(names):
        pool[name] = np.array([o[j] for o in out], dtype=complex)
    pool["ref_error"] = np.array([o[-2] for o in out])
    pool["ref_converged"] = np.array([o[-1] for o in out])
    bad = np.flatnonzero(pool["ref_error"] > REF_ACCEPT * pool.pop("ref_tol"))
    if len(bad):
        raise SystemExit(f"{workload}: {len(bad)} references above the accepted error, e.g. entry {bad[0]}")
    pool["known_miss"] = known_misses(workload, pool)
    DATA_DIR.mkdir(exist_ok=True)
    np.savez_compressed(DATA_DIR / f"{workload}.npz", **pool)
    print(
        f"{workload}: {len(jobs)} references in {time.perf_counter() - t0:.0f} s, "
        f"{int((~pool['ref_converged']).sum())} not converged, "
        f"max error estimate {pool['ref_error'].max():.2e}, "
        f"{int(pool['known_miss'].sum())} missed by the library"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    for w in args.workloads:
        generate(w)


if __name__ == "__main__":
    main()
