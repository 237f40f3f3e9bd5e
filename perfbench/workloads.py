"""Workload pools, seeded request generation and result checks.

Each workload draws its requests from a pool stored in ``data/<name>.npz``:
canonical geometry in the element frame, an ``adaptive_oracle``
reference for every entry, and the entries the library missed when the
pool was made (``known_miss``), all computed once by ``gen_pools.py``.  A run's
``--seed`` picks which pool entries run and, for every pass over them, a
fresh rigid pose (rotation, translation, cyclic vertex order).  ``I0``,
``dI0/dn`` and ``d2I0/dn2`` do not depend on the pose, so the stored
references stay valid for any seed, while no two calls of a run send the
library the same bytes.

Only the standard library and NumPy are used here; helmpanel is imported
lazily by the callers, after the thread limits are in the environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("bem_nearfield", "near_singular", "oracle_sweep")

# Accuracy contract of the library (README): |dI0| <= 10 tol, |d dI0/dn| <= 100 tol.
I0_FACTOR = 10.0
DI0_FACTOR = 100.0

# bem_nearfield: panels of the pool that one run assembles.
BEM_RUN_PANELS = 160
# oracle_sweep: tolerance of every call; the stored reference may be left
# by at most ORACLE_FACTOR times it.
ORACLE_TOL = 1e-13
ORACLE_FACTOR = 10.0
ORACLE_COMPONENTS = ("i0", "ix", "iy", "di0_dn", "dix_dn", "diy_dn", "d2i0_dn2")

_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def run_rng(workload: str, seed: int) -> np.random.Generator:
    """Generator for everything a run of ``workload`` draws from ``seed``."""
    return np.random.default_rng([_SALT[workload], seed])


def load_pool(workload: str) -> dict[str, np.ndarray]:
    path = DATA_DIR / f"{workload}.npz"
    with np.load(path, allow_pickle=False) as f:
        pool = {key: f[key] for key in f.files}
    bad = [key for key in pool if key.startswith("ref_") and not np.isfinite(pool[key]).all()]
    if bad:
        raise ValueError(f"{path}: non-finite reference values in {bad}")
    return pool


def rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly random proper rotation matrices, shape (n, 3, 3)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], -1),
            np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], -1),
            np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def element_frame(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Planar vertices (3, 2) about the projection of x, and the signed height.

    Written independently of ``helmpanel.geometry`` so that the references
    do not share its frame code; same conventions (normal along
    (v2 - v1) x (v3 - v1), local x-axis along v2 - v1).
    """
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n = n / np.linalg.norm(n)
    z = float(np.dot(x - v[0], n))
    origin = x - z * n
    e1 = (v[1] - v[0]) / np.linalg.norm(v[1] - v[0])
    e2 = np.cross(n, e1)
    rel = v - origin
    return np.column_stack([rel @ e1, rel @ e2]), z


@dataclass
class Pass:
    """One pass over a run's selection: call arguments and what checks them."""

    items: list       # one positional-argument tuple per call
    entries: np.ndarray  # pool index of each call
    tols: np.ndarray     # requested tolerance of each call
    extra: np.ndarray | None = None  # per-call pose data the check needs


class LibraryWorkload:
    """Base of the two workloads that call ``engine.evaluate``."""

    name = ""

    def __init__(self, pool: dict[str, np.ndarray], seed: int):
        self.pool = pool
        self.rng = run_rng(self.name, seed)
        from helmpanel.engine import EvalRequest, evaluate
        from helmpanel.geometry import Triangle3

        self._req = EvalRequest
        self._tri = Triangle3
        self.call = evaluate

    def check(self, p: Pass, results: list) -> np.ndarray:
        """True where the call returned a report within the contract."""
        ref_i0 = self.pool["ref_i0"][p.entries]
        ref_di0 = self.pool["ref_di0"][p.entries]
        in_plane = self.pool["in_plane"][p.entries]
        ok = np.zeros(len(results), dtype=bool)
        for i, rep in enumerate(results):
            if rep is None or rep.result is None:
                continue
            di0_ref = ref_di0[i]
            # In-plane field points: dI0/dn is the one-sided limit from the
            # side the library placed the point on (the reference is from z > 0).
            if in_plane[i] and rep.z is not None and rep.z < 0.0:
                di0_ref = -di0_ref
            e0 = abs(rep.result.i0 - ref_i0[i])
            e1 = abs(rep.result.di0_dn - di0_ref)
            ok[i] = e0 <= I0_FACTOR * p.tols[i] and e1 <= DI0_FACTOR * p.tols[i]
        return ok


class BemNearfield(LibraryWorkload):
    """Near-field block of a jittered icosphere, panel by panel."""

    name = "bem_nearfield"

    def __init__(self, pool, seed):
        super().__init__(pool, seed)
        panels = self.rng.choice(pool["pool_panels"], size=BEM_RUN_PANELS, replace=False)
        starts = pool["pair_start"]
        self.entries = np.concatenate(
            [np.arange(starts[i], starts[i + 1]) for i in np.searchsorted(pool["pool_panels"], panels)]
        )
        self.k = float(pool["k"])
        self.tol = float(pool["tol"])

    def next_pass(self) -> Pass:
        pool, rng = self.pool, self.rng
        rot = rotations(rng, 1)[0]
        shift = rng.uniform(-1.0, 1.0, 3)
        verts = pool["vertices"] @ rot.T + shift
        faces = pool["faces"]
        centroids = verts[faces].mean(axis=1)
        roll = rng.integers(0, 3, size=len(faces))
        tris = {}
        items = []
        for e in self.entries:
            f = int(pool["pair_panel"][e])
            if f not in tris:
                v = verts[np.roll(faces[f], roll[f])]
                tris[f] = self._tri(v[0], v[1], v[2])
            x = centroids[pool["pair_point"][e]]
            items.append((self._req(tris[f], x, self.k, self.tol, False),))
        return Pass(items, self.entries, np.full(len(items), self.tol))


class NearSingular(LibraryWorkload):
    """Fresh well-shaped triangles in random poses, analytic-path heavy."""

    name = "near_singular"

    def __init__(self, pool, seed):
        super().__init__(pool, seed)
        self.entries = np.arange(len(pool["z"]))

    def next_pass(self) -> Pass:
        pool, rng = self.pool, self.rng
        e = rng.permutation(self.entries)
        m = len(e)
        rot = rotations(rng, m)
        diam = pool["diam"][e]
        shift = rng.uniform(-1.0, 1.0, (m, 3)) * diam[:, None]
        roll = rng.integers(0, 3, size=m)
        v2 = pool["verts2d"][e]
        v3 = np.concatenate([v2, np.zeros((m, 3, 1))], axis=2)
        verts = np.einsum("mij,mvj->mvi", rot, v3) + shift[:, None, :]
        pts = rot[:, :, 2] * pool["z"][e][:, None] + shift
        items = []
        for i in range(m):
            v = np.roll(verts[i], roll[i], axis=0)
            tri = self._tri(v[0], v[1], v[2])
            items.append((self._req(tri, pts[i], float(pool["k"][e[i]]), float(pool["tol"][e[i]]), True),))
        return Pass(items, e, pool["tol"][e])


class OracleSweep:
    """Full-component ``adaptive_oracle`` calls on the sample triangle."""

    name = "oracle_sweep"

    def __init__(self, pool: dict[str, np.ndarray], seed: int):
        self.pool = pool
        self.rng = run_rng(self.name, seed)
        from helmpanel.numquad import adaptive_oracle

        self._oracle = adaptive_oracle
        self.k = float(pool["k"])

    def call(self, verts2d, z):
        return self._oracle(
            verts2d, z, self.k, tol=ORACLE_TOL, want_hyper=True, return_status=True
        )

    def next_pass(self) -> Pass:
        """Every (projection, z) of the pool, shuffled, each in a fresh in-plane rotation."""
        pool, rng = self.pool, self.rng
        e = rng.permutation(len(pool["z"]))
        beta = rng.uniform(0.0, 2.0 * math.pi, size=len(e))
        items = []
        for i, j in enumerate(e):
            c, s = math.cos(beta[i]), math.sin(beta[i])
            rot = np.array([[c, s], [-s, c]])  # row vectors: v @ rot rotates by +beta
            items.append((pool["verts2d"][j] @ rot, float(pool["z"][j])))
        return Pass(items, e, np.full(len(e), ORACLE_TOL), extra=beta)

    def check(self, p: Pass, results: list) -> np.ndarray:
        ok = np.zeros(len(results), dtype=bool)
        bound = ORACLE_FACTOR * ORACLE_TOL
        for i, out in enumerate(results):
            if out is None:
                continue
            val, status = out
            if not status["converged"]:
                continue
            ref = {c: self.pool[f"ref_{c}"][p.entries[i]] for c in ORACLE_COMPONENTS}
            c, s = math.cos(p.extra[i]), math.sin(p.extra[i])
            for a, b in (("ix", "iy"), ("dix_dn", "diy_dn")):
                ref[a], ref[b] = c * ref[a] - s * ref[b], s * ref[a] + c * ref[b]
            ok[i] = all(abs(getattr(val, comp) - ref[comp]) <= bound for comp in ORACLE_COMPONENTS)
        return ok


CLASSES = {"bem_nearfield": BemNearfield, "near_singular": NearSingular, "oracle_sweep": OracleSweep}


def make_workload(name: str, seed: int):
    return CLASSES[name](load_pool(name), seed)
