"""Send one perfbench pass to two source trees, in one process, and compare.

    python bench/compare_trees.py --tree ../parent-checkout --workload near_singular --seed 301
    python bench/compare_trees.py --tree ../parent-checkout --workload bem_nearfield --seed 301 \
        --passes 3 --all-entries --rounds 1

The library of this checkout is imported as ``helmpanel``; the one under
``--tree``'s ``src`` is imported under the package name ``helmpanel_other``.
The requests are those of ``perfbench/workloads.py`` for ``--seed`` (read,
not edited), ``--passes`` passes of them, each in a fresh pose.  A library
request is rebuilt with each tree's own ``Triangle3`` and ``EvalRequest``;
an ``oracle_sweep`` item goes to each tree's ``adaptive_oracle`` with the
arguments of the workload's own call.  ``--all-entries`` makes a
``bem_nearfield`` pass cover every pool entry instead of the seed's panels.

Each request runs ``--rounds`` times on both trees, alternating which
tree goes first, and each call's best time is kept.  In every round the
request first runs once on both trees, untimed, right before its two
timed calls, so lazy set-up (cached tables, first imports) is not timed
and neither timed call is the first to run the request's code path: the
first of a pair runs about 20% slower on ``bem_nearfield``'s analytic
calls, which splits the per-call ratios into two clusters whose median
follows whichever tree went first more often.  The garbage collector is
off while the calls run, as in ``timeit``, so that its pauses do not land
on whichever call crosses its threshold.  Printed: the calls whose
``kind``, ``n_gauss``, ``q_expansion``, ``delta_x``, ``note``, ``z`` or
estimator order ``q`` differ (for the oracle, the convergence flag), the worst
|v - v_other| / (1 + |v_other|) per component (dI0/dn and d2I0/dn2 of
z = 0 numeric calls each on its own line) and the worst
|e_q - e_q_other| / e_q_other of the estimator's bound, per component
the number of calls that move by more than ``BEYOND`` (1e-14) times
(1 + |v_other|) and how many calls do so in any component, each side's
p50 of the best per-call times, the median of the per-call time ratios
and the ratio of the summed best times, this tree over the other; and
for each kind of call (panel, analytic, numeric, oracle, as this tree's
verdict names it) the median ratio, each side's p50 of the best per-call
times and how many calls of the kind agree in their verdict but not bit
for bit in their values (and how many of those are at z = 0).  A kind has
no summed ratio: on a few hundred calls one slow call moves the sum, and
on ``bem_nearfield``'s 463 analytic calls a tree against a copy of
itself read 0.995-1.056 in it while the median held at 0.997-1.005.

``--subtriangles`` adds the layer below: on every request that both trees
ran analytically, each tree's own walk gives the signed subtriangles, and
each tree's ``analytic.evaluate_ref`` runs on each of them, with the
reference parameters and the expansion entry built before the clock
starts, ``--rounds`` times, alternating, best time kept.  Printed: the
number of subtriangles, each side's p50 per subtriangle, the median of
the per-subtriangle time ratios and the ratio of the summed best times,
and the worst |v - v_other| / (1 + |v_other|) of the seven sums.  In one
process this resolves a change to the analytic layer that the traced
per-layer times of a perfbench run, which drift by about 15% between
runs, do not.

After the compared calls, one more run times each call once on each tree,
in pass order with the garbage collector on, as ``perfbench/run.py``
does: the trees take turns every BLOCK (300) requests, and each tree's
requests are built before the clock starts.  Printed: each tree's
perfbench-style p50 (the mean of the 30-70% band of the call times,
``worker.central_mean``) and the median over the blocks of the ratio of
those p50s, this tree over the other.  The per-call ratios above time
each call hot, right after an untimed run of the same request, and can
differ from pass order even in sign: with the far pairs' kernel rows as
1-D rows, each reduced by its own matrix-vector product, against one
block of them reduced by one matrix product, ``bem_nearfield``'s panel
calls read a median ratio of 1.118 hot and a block ratio of 0.857 in pass
order (seed 5341, every pool entry, three passes), and perfbench's
``eval_p50_us`` sided with pass order (0.83 of the block form's).

Both trees' results also go through the workload's own ``check``
against the stored references (a call that raised fails it); printed:
each tree's failures and the calls whose pass or fail differs between
the trees, with their pool entries.

The last line is JSON.  The exit status is 1 when any verdict or any
pass/fail against the references differs, so that a script can gate on
it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import workloads  # noqa: E402
from worker import central_mean  # noqa: E402

OTHER = "helmpanel_other"
COMPONENTS = ("i0", "ix", "iy", "di0_dn", "dix_dn", "diy_dn", "d2i0_dn2")
# dI0/dn and d2I0/dn2 of numeric calls at z = 0, reported apart from the other calls
DI0_Z0 = "di0_dn (numeric, z = 0)"
D2_Z0 = "d2i0_dn2 (numeric, z = 0)"
# the estimator's bound, compared relative to the other tree's
E_Q = "e_q"
# differing calls printed one by one
SHOW = 20
# a call moves beyond rounding when |v - v_other| > BEYOND (1 + |v_other|)
BEYOND = 1e-14
# requests per block of the pass-order run, which the trees take in turn
BLOCK = 300


def load_other(tree: Path):
    """The library under ``tree/src``, imported as the package ``OTHER``."""
    pkg = tree.resolve() / "src" / "helmpanel"
    spec = importlib.util.spec_from_file_location(
        OTHER, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = mod
    spec.loader.exec_module(mod)
    return mod


def library_calls(lib, items):
    """One ``evaluate`` closure per request, built with ``lib``'s own classes."""
    calls = []
    for (req,) in items:
        tri = lib.Triangle3(req.triangle.v1, req.triangle.v2, req.triangle.v3)
        mine = lib.EvalRequest(tri, req.field_point, req.k, req.tol, req.want_hypersingular)
        calls.append(lambda r=mine: lib.evaluate(r))
    return calls


def subtriangle_calls(lib, items):
    """Per request, one ``evaluate_ref`` closure per subtriangle of ``lib``'s own walk."""
    geometry, analytic = lib.geometry, lib.analytic
    per_request = []
    for (req,) in items:
        tri = lib.Triangle3(req.triangle.v1, req.triangle.v2, req.triangle.v3)
        verts2d, z = geometry.to_local_frame(tri, req.field_point)
        ext, fan = geometry.walk(verts2d, tri.edges)
        approx = lib.select_approx(req.k, ext.r_max, req.tol)
        per_request.append([
            lambda g=geometry.ref_params(sub, z), z=z, k=req.k, a=approx: analytic.evaluate_ref(g, z, k, a)
            for sub in fan
        ])
    return per_request


def compare_subtriangles(lib, other, items, rounds: int) -> dict:
    """Time and compare both trees' ``evaluate_ref`` on the subtriangles of ``items``."""
    mine, theirs = [], []
    for a, b in zip(subtriangle_calls(lib, items), subtriangle_calls(other, items)):
        if len(a) == len(b):  # a walk that differs is a verdict the request level reports
            mine += a
            theirs += b
    (res_mine, res_other), best = run(mine, theirs, rounds)
    worst = max(
        (float(np.max(np.abs(np.subtract(a, b)) / (1.0 + np.abs(b)))) for a, b in zip(res_mine, res_other)),
        default=0.0,
    )
    ratio = best[0] / best[1]
    out = {
        "subtriangles": len(mine),
        "p50_us": {"this": float(np.median(best[0]) * 1e6), "other": float(np.median(best[1]) * 1e6)},
        "median_ratio": float(np.median(ratio)),
        "total_ratio": float(best[0].sum() / best[1].sum()),
        "worst_rel": worst,
    }
    print(f"evaluate_ref on {out['subtriangles']} subtriangles of the analytic calls: p50 "
          f"{out['p50_us']['this']:.2f} us here, {out['p50_us']['other']:.2f} us in the other tree; "
          f"median ratio {out['median_ratio']:.3f}, total {out['total_ratio']:.3f}; "
          f"worst |dv|/(1+|v|) {worst:.3g}")
    return out


def oracle_calls(lib, items, k: float):
    """One ``adaptive_oracle`` closure per item, with the workload's arguments."""
    return [
        lambda v=verts2d, z=z: lib.adaptive_oracle(
            v, z, k, tol=workloads.ORACLE_TOL, want_hyper=True, return_status=True
        )
        for verts2d, z in items
    ]


def verdict(out) -> tuple:
    """What must agree between the trees: how a result was produced."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    if isinstance(out, tuple):  # adaptive_oracle with return_status
        return ("oracle", out[1]["converged"])
    m = out.method
    # n_gauss = max((q + 2) // 2, N_MIN) hides a changed order below q = 15
    q = None if out.estimator is None else out.estimator.q
    return (m.kind, m.n_gauss, m.q_expansion, m.delta_x, m.note, out.z, q)


def e_q(out) -> float | None:
    """The estimator's bound E_Q, when it ran and found an order."""
    if isinstance(out, (BaseException, tuple)) or out.estimator is None:
        return None
    return out.estimator.e_q


def values(out):
    if isinstance(out, BaseException):
        return None
    return (out[0] if isinstance(out, tuple) else out.result).values


def contract(wl, passes, results) -> np.ndarray:
    """Per call, whether the workload's own ``check`` passes it against the stored references."""
    ok, start = [], 0
    for p in passes:
        chunk = results[start : start + len(p.items)]
        ok.append(wl.check(p, [None if isinstance(out, BaseException) else out for out in chunk]))
        start += len(p.items)
    return np.concatenate(ok)


def timed(call):
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - a raising call is compared by its verdict
        out = exc
    return out, time.perf_counter() - t0


def run(mine, other, rounds: int):
    """Results of both trees and the best time of every call on each, each timed pair after an untimed one."""
    n = len(mine)
    best = np.full((2, n), np.inf)
    results = [[None] * n, [None] * n]
    gc.disable()
    try:
        for r in range(rounds):
            for i in range(n):
                order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
                for side in order:
                    timed((mine, other)[side][i])
                for side in order:
                    out, dt = timed((mine, other)[side][i])
                    results[side][i] = out
                    best[side, i] = min(best[side, i], dt)
    finally:
        gc.enable()
    return results, best


def pass_order(mine, other) -> dict:
    """Each call timed once on each tree, in pass order with the garbage collector on, the trees taking turns per BLOCK."""
    n = len(mine)
    lat = np.empty((2, n))
    for b, lo in enumerate(range(0, n, BLOCK)):
        for side in (0, 1) if b % 2 == 0 else (1, 0):
            calls = (mine, other)[side]
            for i in range(lo, min(lo + BLOCK, n)):
                lat[side, i] = timed(calls[i])[1]
    blocks = [central_mean(lat[0, lo : lo + BLOCK]) / central_mean(lat[1, lo : lo + BLOCK]) for lo in range(0, n, BLOCK)]
    out = {
        "p50_us": {"this": central_mean(lat[0]) * 1e6, "other": central_mean(lat[1]) * 1e6},
        "blocks": len(blocks),
        "median_block_ratio": float(statistics.median(blocks)),
    }
    print(f"pass order (each call timed once, gc on, the trees taking turns every {BLOCK} requests): "
          f"p50 {out['p50_us']['this']:.1f} us here, {out['p50_us']['other']:.1f} us in the other tree; "
          f"median ratio of the {len(blocks)} blocks {out['median_block_ratio']:.3f}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=3, help="timed calls per request and tree")
    ap.add_argument("--passes", type=int, default=1, help="passes (poses) of the workload")
    ap.add_argument("--all-entries", action="store_true", help="bem_nearfield: every pool entry")
    ap.add_argument("--subtriangles", action="store_true",
                    help="also time evaluate_ref on each analytic request's subtriangles")
    args = ap.parse_args()

    import helmpanel

    other = load_other(args.tree)
    wl = workloads.make_workload(args.workload, args.seed)
    if args.all_entries and args.workload == "bem_nearfield":
        wl.entries = np.arange(len(wl.pool["pair_panel"]))
    passes = [wl.next_pass() for _ in range(args.passes)]
    items = [item for p in passes for item in p.items]
    entries = [e for p in passes for e in p.entries.tolist()]
    if args.workload == "oracle_sweep":
        mine, theirs = oracle_calls(helmpanel, items, wl.k), oracle_calls(other, items, wl.k)
    else:
        mine, theirs = library_calls(helmpanel, items), library_calls(other, items)
    (res_mine, res_other), best = run(mine, theirs, args.rounds)

    differ = []
    worst: dict[str, float] = {}
    beyond: dict[str, int] = {}
    calls_beyond = 0
    not_identical, at_z0 = np.zeros((2, len(items)), dtype=bool)
    for i, (a, b) in enumerate(zip(res_mine, res_other)):
        va, vb = verdict(a), verdict(b)
        if va != vb:
            differ.append(i)
            if len(differ) <= SHOW:
                print(f"call {i} (pool entry {entries[i]}): {va} here, {vb} in the other tree")
            continue
        ea, eb = e_q(a), e_q(b)
        if ea is not None and eb is not None:
            worst[E_Q] = max(worst.get(E_Q, 0.0), abs(ea - eb) / eb)
        xa, xb = values(a), values(b)
        if xa is None or xb is None:
            continue
        if len(xa) != len(xb):
            differ.append(i)
            continue
        not_identical[i] = not np.array_equal(xa, xb)
        at_z0[i] = va[0] != "oracle" and a.z == 0.0
        rel = (np.abs(xa - xb) / (1.0 + np.abs(xb))).tolist()
        z0_numeric = va[0] == "numeric" and at_z0[i]
        for c, d in zip(COMPONENTS, rel):
            name = {"di0_dn": DI0_Z0, "d2i0_dn2": D2_Z0}.get(c, c) if z0_numeric else c
            worst[name] = max(worst.get(name, 0.0), d)
            beyond[name] = beyond.get(name, 0) + (d > BEYOND)
        calls_beyond += max(rel) > BEYOND
    print(f"{len(differ)} of {len(items)} calls differ in their verdict")
    passed = [contract(wl, passes, res) for res in (res_mine, res_other)]
    failed = [int((~ok).sum()) for ok in passed]
    contract_differ = np.flatnonzero(passed[0] != passed[1]).tolist()
    for i in contract_differ[:SHOW]:
        print(f"call {i} (pool entry {entries[i]}): "
              f"{'passes' if passed[0][i] else 'fails'} the contract here, "
              f"{'passes' if passed[1][i] else 'fails'} it in the other tree")
    print(f"{len(contract_differ)} of {len(items)} calls differ in their pass/fail against the references; "
          f"failed {failed[0]} here, {failed[1]} in the other tree")
    for name, d in worst.items():
        if name == E_Q:
            print(f"worst |de|/e {name}: {d:.3g}")
        else:
            print(f"worst |dv|/(1+|v|) {name}: {d:.3g}; {beyond[name]} calls beyond {BEYOND:g}")
    print(f"{calls_beyond} calls move beyond {BEYOND:g} (1+|v|) in some component")
    p50 = np.median(best, axis=1) * 1e6
    ratio = best[0] / best[1]
    kinds = np.array([verdict(out)[0] for out in res_mine])
    by_kind = {}
    for kind in sorted(set(kinds.tolist())):
        sel = kinds == kind
        by_kind[kind] = {
            "calls": int(sel.sum()),
            "median_ratio": float(np.median(ratio[sel])),
            "p50_us": {"this": float(np.median(best[0, sel]) * 1e6), "other": float(np.median(best[1, sel]) * 1e6)},
            "values_not_identical": int(not_identical[sel].sum()),
            "values_not_identical_z0": int((not_identical & at_z0)[sel].sum()),
        }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "calls": len(items),
        "rounds": args.rounds,
        "verdicts_differ": len(differ),
        "contract_differ": len(contract_differ),
        "failed": {"this": failed[0], "other": failed[1]},
        "worst_rel": worst,
        "beyond_rel": beyond,
        "calls_beyond": calls_beyond,
        "p50_us": {"this": float(p50[0]), "other": float(p50[1])},
        "median_ratio": float(statistics.median(ratio.tolist())),
        "total_ratio": float(best[0].sum() / best[1].sum()),
        "by_kind": by_kind,
    }
    print(f"p50 of best per-call time: {p50[0]:.1f} us here, {p50[1]:.1f} us in the other tree")
    print(f"time ratio, this tree over the other: median {summary['median_ratio']:.3f}, "
          f"total {summary['total_ratio']:.3f}")
    for kind, r in by_kind.items():
        print(f"  {kind} ({r['calls']} calls): p50 {r['p50_us']['this']:.1f} us here, {r['p50_us']['other']:.1f} us "
              f"in the other tree; median {r['median_ratio']:.3f}; "
              f"{r['values_not_identical']} not bit-identical in their values, "
              f"{r['values_not_identical_z0']} of them at z = 0")
    summary["pass_order"] = pass_order(mine, theirs)
    if args.subtriangles and args.workload != "oracle_sweep":
        differ_set = set(differ)
        analytic = [item for i, item in enumerate(items) if i not in differ_set and kinds[i] == "analytic"]
        summary["subtriangles"] = compare_subtriangles(helmpanel, other, analytic, args.rounds)
    print(json.dumps(summary, sort_keys=True))
    if differ or contract_differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
