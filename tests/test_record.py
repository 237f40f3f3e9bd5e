"""The paired mode of bench/record.py on synthetic run results: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("record", Path(__file__).resolve().parents[1] / "bench" / "record.py")
record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record)


def result(failed=3, **values):
    """One run's JSON result with the given end-to-end values (the others 1.0)."""
    metrics = {name: {"value": values.get(name, 1.0), "unit": "x"} for name in record.BETTER}
    return {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}


def test_pair_summary_counts_wins_and_sets_the_median_difference_against_the_parent_iqr():
    parent = [result(eval_p50_us=v, evals_per_s=100.0) for v in (10.0, 12.0, 11.0, 13.0)]
    change = [result(eval_p50_us=v, evals_per_s=w) for v, w in ((9.0, 110.0), (12.0, 120.0), (12.0, 90.0), (10.0, 130.0))]
    got = record.pair_summary(parent, change)
    assert got["failed_same"]
    p50 = got["metrics"]["eval_p50_us"]
    # differences -1, 0, +1, -3: lower is better, and the tie counts for neither
    assert p50["wins"] == {"parent": 1, "change": 2}
    assert p50["median_diff"] == -0.5
    assert p50["parent_iqr"] == pytest.approx(1.5)  # quartiles 10.75 and 12.25
    assert not p50["beyond_iqr"]
    rate = got["metrics"]["evals_per_s"]
    # higher is better; the parent's runs do not spread, so any median difference is beyond them
    assert rate["wins"] == {"parent": 1, "change": 3}
    assert rate["median_diff"] == 15.0 and rate["parent_iqr"] == 0.0 and rate["beyond_iqr"]
    tied = got["metrics"]["setup_s"]
    assert tied["wins"] == {"parent": 0, "change": 0} and tied["median_diff"] == 0.0 and not tied["beyond_iqr"]
    assert set(got["metrics"]) == set(record.BETTER)


def test_pair_summary_flags_a_different_failure_count():
    assert not record.pair_summary([result(), result()], [result(), result(failed=4)])["failed_same"]


def test_pairs_alternate_which_tree_goes_first(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, trace):
        calls.append((tree.name, seed, trace))
        return result(eval_p50_us=float(seed) + (0.5 if tree.name == "change" else 0.0))

    monkeypatch.setattr(record, "run", fake_run)
    trees = {"parent": Path("parent"), "change": Path("change")}
    got = record.record_pairs(trees, "near_singular", [7, 8, 9])
    assert calls == [
        ("parent", 7, 0), ("change", 7, 0), ("change", 8, 0), ("parent", 8, 0), ("parent", 9, 0), ("change", 9, 0),
        ("parent", 7, 1), ("change", 7, 1),
    ]
    assert got["parent"]["metrics"]["eval_p50_us"]["values"] == [7.0, 8.0, 9.0]
    assert got["change"]["metrics"]["eval_p50_us"]["values"] == [7.5, 8.5, 9.5]
    assert got["change"]["failed"] == [3, 3, 3] and got["change"]["traced"]["seed"] == 7
    assert got["pairs"]["metrics"]["eval_p50_us"]["wins"] == {"parent": 3, "change": 0}


def test_seed_range():
    assert record.seed_range("501-504") == [501, 502, 503, 504]
    assert record.seed_range("7") == [7]
