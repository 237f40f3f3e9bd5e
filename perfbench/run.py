"""helmpanel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bem_nearfield --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src``; nothing is built or installed.  With ``--trace 0`` the
run reports the end-to-end metrics: ``setup_s`` is the median over
SETUP_PROBES fresh processes, and the workload runs in one more fresh
process, which also gives ``peak_rss_mb``.  With ``--trace 1`` the same
process runs an untraced and then a traced phase and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CAL_MS = CAL_REF_S * 1e3

# Fresh set-up processes per run, half before and half after the workload,
# so that their median spans the run.
SETUP_PROBES = 10
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def child(args: list[str], root: Path, deadline: float) -> str:
    """Run a worker to completion (killed at the deadline); its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return proc.stdout


def end_to_end(res: dict, setup_s: float) -> dict:
    u = res["untraced"]
    return {
        "evals_per_s": (u["evals_per_s"], "1/s"),
        "eval_p50_us": (u["eval_p50_us"], "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    u, t = res["untraced"], res["traced"]
    out = {}
    for name, value in res["layers"].items():
        unit = "us" if name.endswith("us") else "ms" if name.endswith(".ms") else "count"
        out[name] = (value, unit)
    mix = u["path_mix"]
    out["engine.analytic_frac"] = (mix.get("analytic", 0.0), "frac")
    out["engine.fallback_frac"] = (mix.get("fallback", 0.0), "frac")
    for label, (p50, _) in u["tol_p50_us"].items():
        out[f"engine.evaluate.us.tol_{label}"] = (p50 or 0.0, "us")
    out["eval_p99_us"] = (u["eval_p99_us"] or 0.0, "us")
    out["fail_frac"] = (u["failed"] / u["calls"], "frac")
    out["trace.overhead_frac"] = ((u["evals_per_s"] - t["evals_per_s"]) / u["evals_per_s"], "frac")
    return out


def report(args, res: dict, setups: list[float]) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    u = res["untraced"]
    n = u["calls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"  untraced: {n} calls in {u['passes']} passes, {u['elapsed_s']:.2f} s in calls; "
        f"calibration kernel {u['kernel_ms']:.3f} ms (median of {u['kernels']}), timings scaled to {CAL_MS} ms"
    )
    print(f"  evals_per_s  {u['evals_per_s']:12.2f} 1/s  (n={n}; unscaled {u['raw_evals_per_s']:.2f})")
    print(f"  eval_p50_us  {u['eval_p50_us']:12.1f} us   (n={n}; unscaled {u['raw_p50_us']:.1f})")
    if u["eval_p99_us"] is None:
        print(f"  eval_p99_us  {'n/a':>12}      (n={n} < 1000: fewer than ten samples beyond p99)")
    else:
        print(f"  eval_p99_us  {u['eval_p99_us']:12.1f} us   (n={n}, {n - int(n * 0.99)} beyond p99)")
    print(
        f"  fail_frac    {u['failed'] / n:12.4f}      ({u['failed']} of {n}: "
        f"{u['failed'] - u['raised']} missed the contract, {u['raised']} raised)"
    )
    print(
        f"  correct      {str(u['correct']):>12}      ({u['unexpected']} misses of entries that met the contract "
        f"when the pools were made, {u['raised']} raised)"
    )
    if u["first_error"]:
        print(f"    first error: {u['first_error']}")
    if setups:
        print(
            f"  setup_s      {statistics.median(setups):12.4f} s    (median of {len(setups)} fresh processes: "
            + " ".join(f"{x:.3f}" for x in setups) + ")"
        )
    print(f"  peak_rss_mb  {res['peak_rss_mb']:12.1f} MB")
    print("  path mix     " + ", ".join(f"{k} {v:.4f}" for k, v in u["path_mix"].items()))
    for label, (p50, count) in u["tol_p50_us"].items():
        if count:
            print(f"  tol {label:6s}   p50 {p50:10.1f} us   (n={count})")
    if "traced" in res:
        t = res["traced"]
        print(f"  traced: {t['calls']} calls, {t['evals_per_s']:.2f} evals/s; spans in {res['spans_file']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "helmpanel" / "__init__.py").is_file():
        raise SystemExit(f"no helmpanel sources under {root / 'src'}: run from the root of a checkout")

    def setup_probes() -> list[float]:
        if args.trace:
            return []
        return [float(child(["setup"], root, deadline)) for _ in range(SETUP_PROBES // 2)]

    setups = setup_probes()
    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    res = json.loads(child(run_args, root, deadline).splitlines()[-1])
    setups += setup_probes()
    u = res["untraced"]
    metrics = per_layer(res) if args.trace else end_to_end(res, statistics.median(setups))
    report(args, res, setups)
    print(json.dumps({
        "correct": u["correct"],
        "attempted": u["calls"],
        "failed": u["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
