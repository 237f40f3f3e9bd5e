"""One benchmark process: set-up probe, or one workload run.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1

Started by ``run.py`` from the root of a checkout, with the checkout's
``src`` on PYTHONPATH and NumPy/BLAS limited to one thread.  ``setup``
prints the seconds spent importing helmpanel and warming its caches.
``run`` prints one JSON object: the untraced measurements and, with
``--trace 1``, a second, traced phase and its per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

TOL_CLASSES = (1e-6, 1e-9, 1e-12)

# Host-speed calibration.  The host is shared and its speed drifts by tens
# of percent over seconds to minutes, for the library and for any fixed
# code alike.  A fixed kernel of small NumPy operations and Python
# arithmetic is timed after every CAL_EVERY_S of calls, and each call's time
# is scaled by CAL_REF_S over the median of the CAL_WINDOW kernel times
# around it: timings are reported as on a host that runs the kernel in
# CAL_REF_S.
CAL_EVERY_S = 0.25
CAL_WINDOW = 9
CAL_REF_S = 3.0e-3
CAL_REPS = 400

# Calls a phase may make; it ends early rather than grow its buffers.
MAX_CALLS = 1_000_000

# Unscaled seconds of calls in one pass of each workload at this commit, on
# the 2-core host the baseline comes from while the calibration kernel takes
# about 5 ms (it ranges from 3 to 6.5 ms there).  A run makes a fixed number
# of passes, chosen from --seconds with these, not as many as fit: then every
# run of a seed makes the same calls, and ``attempted`` and ``failed`` repeat
# exactly.
PASS_S = {"bem_nearfield": 5.3, "near_singular": 2.7, "oracle_sweep": 3.6}
# A phase stops after the pass in which its calls exceed this many seconds,
# so that a much slower library still ends within the run's time limit.
PHASE_LIMIT_S = 60.0


def setup() -> float:
    """Import helmpanel and warm its caches; seconds taken."""
    t0 = time.perf_counter()
    from helmpanel import engine, estimator, expapprox, numquad

    for dx in expapprox.DELTA_X_TIERS:
        for eps in expapprox.EPS_TIERS:
            expapprox.economize(dx, eps)
    for n in [*range(engine.N_MIN, (estimator.Q_CAP + 2) // 2 + 1), engine.N_FALLBACK]:
        numquad.gauss_rule(n)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel."""
    import math

    import numpy as np

    x = np.linspace(0.1, 1.0, 48)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_REPS):
        r = np.sqrt(x * x + 1e-3 * i)
        g = np.exp(1j * r) / r
        acc += float(np.sum(g).real) * 1e-9 + math.hypot(acc, 1.0) * 1e-12
    return time.perf_counter() - t0


class Calibration:
    """Kernel times taken between calls, and how many calls preceded each."""

    def __init__(self):
        self.kernel: list[float] = []
        self.ends: list[int] = []
        self._last = time.perf_counter()

    def after_call(self, done: int) -> None:
        """``done`` calls have run; time the kernel if CAL_EVERY_S has passed."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.kernel.append(calibrate())
            self.ends.append(done)
            self._last = time.perf_counter()

    def scale(self, n: int):
        """Factor for each of the first ``n`` calls: CAL_REF_S over the median kernel time around it."""
        import numpy as np

        if not self.ends or self.ends[-1] != n:
            self.kernel.append(calibrate())
            self.ends.append(n)
        half = CAL_WINDOW // 2
        k = self.kernel
        local = np.array([statistics.median(k[max(0, i - half): i + half + 1]) for i in range(len(k))])
        return np.repeat(CAL_REF_S / local, np.diff(self.ends, prepend=0))


class Samples:
    """Per-call data of a phase, in buffers of MAX_CALLS entries.

    The buffers are allocated and written through before the first call,
    so the benchmark's own resident memory does not grow with the number
    of calls and ``peak_rss_mb`` moves only with the library's.
    """

    def __init__(self):
        import numpy as np

        self.lat = np.full(MAX_CALLS, np.nan)  # seconds per call, unscaled
        self.ok = np.full(MAX_CALLS, False)  # the call met the contract
        self.tol = np.full(MAX_CALLS, -1, dtype=np.int8)  # index into TOL_CLASSES, -1 for other tolerances
        self.n = 0
        self.passes = 0
        self.kinds: Counter[str] = Counter()
        self.raised = 0
        self.first_error: str | None = None
        self.unexpected = 0  # returned misses of pool entries that met the contract when the pools were made
        self.cal = Calibration()


def check_source(root: Path) -> None:
    """Refuse to measure a helmpanel other than the checkout's own."""
    import helmpanel

    src = (root / "src").resolve()
    if src not in Path(helmpanel.__file__).resolve().parents:
        raise SystemExit(f"helmpanel imported from {helmpanel.__file__}, not from {src}")


def passes_for(workload: str, seconds: float) -> int:
    """Passes that take about ``seconds`` of calls at this commit (see PASS_S)."""
    return max(1, round(seconds / PASS_S[workload]))


def run_phase(wl, passes: int, call) -> Samples:
    """Closed loop, one caller: ``passes`` whole passes over the run's selection.

    Each call is timed on its own; its result is kept and checked against
    the reference after the pass, outside the timed region.  Every call
    that raises or misses the contract fails (``ok`` false).  Misses of
    pool entries in the pool's ``known_miss`` set are the library's defects
    at the commit the pools were made; ``unexpected`` counts the other
    misses that did not raise.  The phase ends early only once its calls
    have taken PHASE_LIMIT_S.
    """
    import numpy as np

    s = Samples()
    known_miss = wl.pool["known_miss"]
    elapsed = 0.0
    while s.passes < passes and elapsed < PHASE_LIMIT_S:
        p = wl.next_pass()
        lo, hi = s.n, s.n + len(p.items)
        if hi > len(s.lat):
            break
        results, errors = call_all(call, p.items, s.lat[lo:hi], s.cal, lo)
        ok = wl.check(p, results)
        s.ok[lo:hi] = ok
        s.tol[lo:hi] = tol_classes(p.tols)
        s.kinds.update(path_kind(r) for r in results)
        returned = np.array([r is not None for r in results], dtype=bool)
        s.unexpected += int((~ok & returned & ~known_miss[p.entries]).sum())
        if errors and s.first_error is None:
            s.first_error = errors[0]
        s.raised += len(errors)
        s.n = hi
        s.passes += 1
        elapsed += float(s.lat[lo:hi].sum())
        # hold one pass at a time: peak memory then does not grow with the passes
        del p, results, ok
    return s


def call_all(call, items, lat, cal: Calibration | None = None, done: int = 0) -> tuple[list, list]:
    """Call once per item, its time into ``lat``; the results (None where the call raised) and errors."""
    results = [None] * len(items)
    errors = []
    for i, args in enumerate(items):
        t0 = time.perf_counter()
        try:
            results[i] = call(*args)
        except Exception as exc:  # noqa: BLE001 - a raising request is a counted failure
            errors.append(f"{type(exc).__name__}: {exc}")
        lat[i] = time.perf_counter() - t0
        if cal is not None:
            cal.after_call(done + i + 1)
    return results, errors


def tol_classes(tols):
    """Index of each tolerance in TOL_CLASSES, -1 where it is none of them."""
    import numpy as np

    out = np.full(len(tols), -1, dtype=np.int8)
    for j, tol in enumerate(TOL_CLASSES):
        out[np.isclose(tols, tol, rtol=1e-9, atol=0.0)] = j
    return out


def path_kind(report) -> str:
    """numeric, analytic, fallback, oracle or error, from a call's result."""
    if report is None:
        return "error"
    if isinstance(report, tuple):
        return "oracle"
    if "fallback" in report.method.note:
        return "fallback"
    return report.method.kind


def central_mean(x) -> float:
    """The median, estimated as the mean of the values between the 30th and 70th percentiles.

    Where call costs cluster by input (oracle_sweep has 24 distinct calls)
    the single middle value jumps between two clusters from run to run; the
    central band averages across them and is close to the median for
    smooth data.  A 40-60 band left oracle_sweep's figure twice as noisy
    as its throughput.
    """
    import numpy as np

    s = np.sort(np.asarray(x))
    lo = int(0.3 * len(s))
    hi = max(lo + 1, int(np.ceil(0.7 * len(s))))
    return float(s[lo:hi].mean())


def summarize(s: Samples) -> dict:
    """Metrics of one phase, from host-calibrated call times (see CAL_REF_S)."""
    import numpy as np

    n = s.n
    raw = s.lat[:n]
    lat = raw * s.cal.scale(n)
    failed = int(n - s.ok[:n].sum())
    out = {
        "calls": n,
        "passes": s.passes,
        "elapsed_s": float(raw.sum()),
        "evals_per_s": n / float(lat.sum()),
        "eval_p50_us": central_mean(lat) * 1e6,
        # p99 only where at least ten samples lie beyond it
        "eval_p99_us": float(np.quantile(lat, 0.99)) * 1e6 if n >= 1000 else None,
        "raw_evals_per_s": n / float(raw.sum()),
        "raw_p50_us": central_mean(raw) * 1e6,
        "kernel_ms": float(np.median(s.cal.kernel)) * 1e3,
        "kernels": len(s.cal.kernel),
        "failed": failed,
        "raised": s.raised,
        "unexpected": s.unexpected,
        # known misses fail but do not make the run incorrect; new misses and raises do
        "correct": s.raised == 0 and s.unexpected == 0,
        "first_error": s.first_error,
        "path_mix": {k: s.kinds[k] / n for k in sorted(s.kinds)},
        "tol_p50_us": {},
    }
    for j, tol in enumerate(TOL_CLASSES):
        sel = s.tol[:n] == j
        out["tol_p50_us"][f"{tol:.0e}".replace("e-0", "e-")] = (
            central_mean(lat[sel]) * 1e6 if sel.any() else None,
            int(sel.sum()),
        )
    return out


def layer_metrics(tracer, summary: dict) -> dict:
    """Per-evaluation layer totals of the traced phase, times scaled like the calls'."""
    incl, own, calls = tracer.totals()
    c = tracer.counts
    n = summary["calls"]
    scale = summary["raw_evals_per_s"] / summary["evals_per_s"]

    def us(name, table=incl):
        return table.get(name, 0.0) * scale / n * 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    oracle_calls = calls.get("numquad.adaptive_oracle", 0)
    return {
        "geometry.to_local_frame.us": us("geometry.to_local_frame"),
        "geometry.radial_extents.us": us("geometry.radial_extents"),
        "geometry.subdivide.us": us("geometry.subdivide"),
        "geometry.ref_params.us": us("geometry.ref_params"),
        "geometry.subtris_per_eval": c["subtris"] / n,
        "estimator.select_order.us": us("estimator.select_order"),
        "expapprox.select_approx.us": us("expapprox.select_approx"),
        "expapprox.q_mean": ratio(c["q_sum"], c["q_calls"]),
        "elemints.build_table.us": us("elemints.build_table"),
        "elemints.binomial_calls_per_eval": c["binomial_calls"] / n,
        "analytic.k_terms.self_us": us("analytic.k_terms", own),
        "analytic.j_chain.us": us("analytic.j_chain"),
        "analytic.hypersingular.us": us("analytic.hypersingular"),
        "analytic.assemble.us": us("analytic.assemble"),
        "numquad.polar_nodes.us": us("numquad.polar_nodes"),
        "numquad.kernel.us": us("numquad.polar_integrate", own),
        "numquad.nodes_per_eval": c["nodes"] / n,
        "numquad.n_gauss_mean": ratio(c["n_sum"], c["n_calls"]),
        "numquad.adaptive_oracle.ms": ratio(incl.get("numquad.adaptive_oracle", 0.0) * scale, oracle_calls) * 1e3,
        "numquad.quad_adaptive.calls_per_oracle": ratio(calls.get("numquad.quad_adaptive", 0), oracle_calls),
        "numquad.integrand_points_per_oracle": ratio(c["integrand_points"], oracle_calls),
        "engine.evaluate.self_us": us("engine.evaluate", own),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from tracing import Tracer
    from workloads import make_workload

    setup()
    check_source(Path.cwd())
    calibrate()
    wl = make_workload(workload, seed)
    # warm-up on a pass of its own: its poses never recur
    warm = wl.next_pass().items[: 200 if workload != "oracle_sweep" else 1]
    call_all(wl.call, warm, np.empty(len(warm)))
    share = 0.5 if trace else 1.0
    passes = passes_for(workload, seconds * share)
    untraced = run_phase(wl, passes, wl.call)
    # before summarize() makes its copies of the call times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out = {"workload": workload, "seed": seed, "untraced": summarize(untraced), "peak_rss_mb": peak_rss_mb}
    if trace:
        root = "numquad.adaptive_oracle" if workload == "oracle_sweep" else "engine.evaluate"
        with Tracer() as tracer:
            traced = run_phase(wl, passes, tracer.span(wl.call, root, root=True))
        out["traced"] = summarize(traced)
        out["layers"] = layer_metrics(tracer, out["traced"])
        spans = Path.cwd() / ".bench_out" / f"spans-{workload}-seed{seed}.csv"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(Path.cwd()))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup")
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.cmd == "setup":
        seconds = setup()
        calibrate()
        kernel = statistics.median(calibrate() for _ in range(3))
        print(repr(seconds * CAL_REF_S / kernel))
        return
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
