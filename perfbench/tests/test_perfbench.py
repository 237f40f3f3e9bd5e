"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from helmpanel import analytic, engine  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ONE_PASS = 1


def small(name: str, seed: int, n: int):
    """A library workload cut to its first n calls per pass."""
    wl = workloads.make_workload(name, seed)
    wl.entries = wl.entries[:n]
    return wl


def request_bytes(p: workloads.Pass) -> bytes:
    out = []
    for args in p.items:
        first = args[0]
        if isinstance(first, engine.EvalRequest):
            out += [first.triangle.vertices.tobytes(), first.field_point.tobytes(),
                    np.float64([first.k, first.tol, first.want_hypersingular]).tobytes()]
        else:
            out += [np.asarray(a, dtype=float).tobytes() for a in args]
    return b"".join(out)


def layer_modules():
    return {m: sys.modules[f"helmpanel.{m}"] for m in ("engine", "analytic", "numquad", "elemints")}


def boundary_functions() -> dict:
    mods = layer_modules()
    return {key: getattr(mods[key[0]], key[1]) for key in [*tracing.SPANNED, *tracing.COUNTED]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b, other = (workloads.make_workload(name, s) for s in (7, 7, 8))
    for _ in range(2):
        assert request_bytes(a.next_pass()) == request_bytes(b.next_pass())
    assert request_bytes(other.next_pass()) != request_bytes(workloads.make_workload(name, 7).next_pass())


@pytest.mark.parametrize("name", ["bem_nearfield", "near_singular"])
def test_same_seed_gives_identical_fail_frac(name):
    runs = [worker.run_phase(small(name, 3, 150), ONE_PASS, engine.evaluate) for _ in range(2)]
    assert np.array_equal(runs[0].ok[: runs[0].n], runs[1].ok[: runs[1].n])
    a, b = worker.summarize(runs[0]), worker.summarize(runs[1])
    assert a["calls"] == b["calls"] and a["failed"] == b["failed"] > 0
    # every miss is of an entry the library missed when the pools were made
    assert a["correct"] and a["unexpected"] == b["unexpected"] == 0


@pytest.mark.parametrize("name", ["bem_nearfield", "near_singular"])
def test_pass_or_fail_does_not_depend_on_the_pose(name):
    """Each pass sends the same pool entries in a fresh pose; the verdicts repeat."""
    wl = small(name, 4, 150)
    verdicts = []
    for _ in range(2):
        p = wl.next_pass()
        ok = wl.check(p, [wl.call(*args) for args in p.items])
        verdicts.append(dict(zip(p.entries.tolist(), ok.tolist())))
    assert verdicts[0] == verdicts[1]


def test_perturbed_result_and_raising_request_count_as_failures():
    baseline = worker.run_phase(small("bem_nearfield", 5, 60), ONE_PASS, engine.evaluate)
    raise_at, perturb_at = np.flatnonzero(baseline.ok[: baseline.n])[:2]
    index = iter(range(10**6))

    def call(req):
        i = next(index)
        if i == raise_at:
            raise RuntimeError("injected")
        rep = engine.evaluate(req)
        if i == perturb_at:
            rep.result.i0 += 20.0 * req.tol
        return rep

    phase = worker.run_phase(small("bem_nearfield", 5, 60), ONE_PASS, call)
    s, b = worker.summarize(phase), worker.summarize(baseline)
    assert s["failed"] == b["failed"] + 2
    assert s["raised"] == 1 and s["first_error"] == "RuntimeError: injected"
    assert not phase.ok[raise_at] and not phase.ok[perturb_at]
    # both were entries that meet the contract at this commit, so the run is not correct
    assert b["correct"] and b["unexpected"] == 0
    assert not s["correct"] and s["unexpected"] == 1


def test_traced_run_reports_every_named_layer_metric_and_restores():
    originals = boundary_functions()
    wl = small("near_singular", 6, 40)
    untraced = worker.run_phase(wl, ONE_PASS, wl.call)
    assert boundary_functions() == originals
    with tracing.Tracer() as tracer:
        assert all(boundary_functions()[key] is not fn for key, fn in originals.items())
        traced = worker.run_phase(wl, ONE_PASS, tracer.span(wl.call, "engine.evaluate", root=True))
    assert all(boundary_functions()[key] is fn for key, fn in originals.items())

    res = {"untraced": worker.summarize(untraced), "traced": worker.summarize(traced), "peak_rss_mb": 1.0}
    res["layers"] = worker.layer_metrics(tracer, res["traced"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.per_layer(res)) == [m["name"] for m in spec["per_layer"]]
    assert list(run.end_to_end(res, 1.0)) == [m["name"] for m in spec["end_to_end"]]
    layers = res["layers"]
    for name in ("analytic.k_terms.self_us", "elemints.build_table.us", "geometry.to_local_frame.us"):
        assert layers[name] > 0.0
    assert layers["elemints.binomial_calls_per_eval"] > 0.0
    # one root span per request
    roots = {i for i, s in enumerate(tracer.spans) if s[3] == -1}
    assert len(roots) == traced.n


def test_missing_layer_boundary_stops_the_run(monkeypatch):
    originals = boundary_functions()
    del originals[("analytic", "j_chain")]
    monkeypatch.delattr(analytic, "j_chain")
    with pytest.raises(tracing.TraceError, match=r"analytic\.j_chain"):
        with tracing.Tracer():
            pass
    # the wrappers installed before the missing name are taken out again
    mods = layer_modules()
    assert all(getattr(mods[m], a) is fn for (m, a), fn in originals.items())


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "near_singular", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
