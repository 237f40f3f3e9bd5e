"""Bytes per ``Triangle3``, ``EvalRequest`` and ``EvalReport``, as one benchmark pass holds them.

    python bench/footprint.py

For ``near_singular`` and ``bem_nearfield``, one pass of
``perfbench/workloads.py`` (read, not edited) is generated for ``SEED``,
and its vertices, field points and request arguments are copied out.
Under ``tracemalloc`` the pass is then built again, one kind of object at
a time: its triangles (one per request on ``near_singular``, one per panel
on ``bem_nearfield``, shared by that panel's requests), one ``EvalRequest``
per request, on a row of one array of field points as the workload's own,
and one report per request from ``evaluate``, after an untraced call of
every request, so that the cached rules and tables are not counted.  An
object's bytes are the traced memory its step adds, divided by the number
of objects the step built and holds.  Printed: one line per workload; the
last line is JSON.

The library is the one under this checkout's ``src``.  To measure another
checkout, run a copy of this script placed in that checkout's ``bench``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import workloads  # noqa: E402
from helmpanel import EvalRequest, Triangle3, evaluate  # noqa: E402

SEED = 301
KINDS = ("near_singular", "bem_nearfield")


def pass_inputs(name: str) -> tuple[list[np.ndarray], list[int], np.ndarray, list[tuple]]:
    """One pass of workload ``name`` as plain inputs.

    The distinct triangles' (3, 3) vertex arrays, each request's index into
    them, the (m, 3) field points and each request's (k, tol, hypersingular).
    """
    wl = workloads.make_workload(name, SEED)
    items = wl.next_pass().items
    index: dict[int, int] = {}
    verts, which = [], []
    for (req,) in items:
        if id(req.triangle) not in index:
            index[id(req.triangle)] = len(verts)
            verts.append(np.array(req.triangle.vertices))
        which.append(index[id(req.triangle)])
    points = np.array([req.field_point for (req,) in items])
    args = [(req.k, req.tol, req.want_hypersingular) for (req,) in items]
    return verts, which, points, args


def traced_bytes(build, out: list) -> float:
    """Traced memory that filling ``out`` by ``build`` adds, per element of ``out``."""
    before = tracemalloc.get_traced_memory()[0]
    build(out)
    return (tracemalloc.get_traced_memory()[0] - before) / len(out)


def footprint(name: str) -> dict:
    verts, which, points, args = pass_inputs(name)
    tris, reqs, reps = [None] * len(verts), [None] * len(which), [None] * len(which)

    def build_triangles(out):
        for i, v in enumerate(verts):
            out[i] = Triangle3(v[0], v[1], v[2])

    def build_requests(out):
        for i, (t, (k, tol, hyper)) in enumerate(zip(which, args)):
            out[i] = EvalRequest(tris[t], points[i], k, tol, hyper)

    def build_reports(out):
        for i, req in enumerate(reqs):
            out[i] = evaluate(req)

    tracemalloc.start()
    tri_bytes = traced_bytes(build_triangles, tris)
    req_bytes = traced_bytes(build_requests, reqs)
    tracemalloc.stop()
    build_reports([None] * len(reqs))  # warm-up: cached rules, tables and method infos
    tracemalloc.start()
    rep_bytes = traced_bytes(build_reports, reps)
    tracemalloc.stop()
    return {
        "triangles": len(tris), "triangle_bytes": round(tri_bytes, 1),
        "requests": len(reqs), "request_bytes": round(req_bytes, 1), "report_bytes": round(rep_bytes, 1),
    }


def main() -> None:
    out = {"seed": SEED}
    for name in KINDS:
        f = out[name] = footprint(name)
        print(f"{name}: Triangle3 {f['triangle_bytes']:.0f} B x {f['triangles']}, "
              f"EvalRequest {f['request_bytes']:.0f} B and EvalReport {f['report_bytes']:.0f} B x {f['requests']}")
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
