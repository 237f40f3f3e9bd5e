"""Command-line interface: output contracts and determinism."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import helmpanel
from helmpanel import cli
from helmpanel.analytic import COMPONENTS
from helmpanel.cli import build_parser, main
from helmpanel.engine import METHODS, SAMPLE_PROJECTIONS, EvalRequest, evaluate, sample_triangle
from helmpanel.estimator import select_order
from helmpanel.geometry import radial_extents

from helpers import rigid_motion

TRI = "0,0,0,1,0,0,0.4,0.9,0"


def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_module(argv):
    """``python -m helmpanel`` in a subprocess, on the source tree of the imported package (no install needed)."""
    src = str(Path(helmpanel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "helmpanel", *argv], capture_output=True, text=True, env=env)


def parse_csv(text):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:]]
    return header, data


class TestIntegrate:
    def test_k_zero_prints_zero_imaginary(self):
        code, out = run_main(
            ["integrate", "--tri", TRI, "--point", "0.467,0.3,1.0", "--k", "0", "--tol", "1e-9"]
        )
        assert code == 0
        machine = [ln for ln in out.splitlines() if ln.startswith("RESULT,")][0]
        fields = machine.split(",")[2:]
        imag_parts = [abs(float(v)) for v in fields[1::2]]
        assert all(v <= 1e-14 for v in imag_parts)

    def test_tolerances_agree(self):
        vals = {}
        for tol in ("1e-9", "1e-12"):
            code, out = run_main(
                ["integrate", "--tri", TRI, "--point", "0.467,0.3,0.2", "--k", "1",
                 "--tol", tol, "--method", "analytic"]
            )
            assert code == 0
            machine = [ln for ln in out.splitlines() if ln.startswith("RESULT,")][0]
            f = machine.split(",")[2:]
            vals[tol] = complex(float(f[0]), float(f[1]))
        assert abs(vals["1e-9"] - vals["1e-12"]) <= 1e-8

    def test_python_m_helmpanel_runs_integrate(self):
        # the package runs as a module from a source checkout, with no install
        argv = ["integrate", "--tri", TRI, "--point", "0.45,0.3,0.001", "--k", "1", "--tol", "1e-9", "--hyper"]
        r = run_module(argv)
        assert r.returncode == 0, r.stderr
        code, out = run_main(argv)
        assert code == 0
        assert r.stdout == out
        assert [ln for ln in r.stdout.splitlines() if ln.startswith("RESULT,analytic,")]

    def test_missing_args_usage_error(self):
        r = run_module(["integrate"])
        assert r.returncode != 0
        assert "usage" in (r.stderr + r.stdout).lower()

    def test_malformed_triangle_rejected(self):
        r = run_module(["integrate", "--tri", "1,2", "--point", "0,0,1", "--k", "1"])
        assert r.returncode == 2
        assert "usage" in r.stderr.lower()
        errors = [ln for ln in r.stderr.splitlines() if ln.startswith("error:")]
        assert errors == ["error: --tri needs 9 comma-separated values"]
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--tri", TRI, "--point", "0.3,nan,0.1", "--k", "1"],
            ["integrate", "--tri", "0,0,0,1,0,0,2,0,0", "--point", "0.3,0.1,0.1", "--k", "1"],
            ["economize", "--dx", "pi"],
            ["economize", "--eps", "1e-20"],
            ["economize", "--eps", "nan"],
            ["estimate", "--rmax", "1", "--rmin", "0", "--z", "0.1", "--tol", "0"],
            ["sweep", "--zmin", "0.1", "--zmax", "1", "--steps", "2", "--tols", "abc"],
            ["sweep", "--zmin", "0.1", "--zmax", "1", "--steps", "2", "--tri", "0,0,0,1,0,0,2,0,0"],
            ["sweep", "--zmin", "0.1", "--zmax", "1", "--steps", "2", "--tols", "0"],
            ["sweep", "--zmin", "0.1", "--zmax", "1", "--steps", "2", "--orders", "0"],
            ["estimate", "--rmax", "1", "--rmin", "0", "--z", "0", "--tol", "-1"],
        ],
        ids=[
            "nan_point", "collinear_tri", "economize_dx_pi", "economize_eps_tiny", "economize_eps_nan",
            "estimate_tol_zero", "sweep_bad_tols", "sweep_collinear_tri",
            "sweep_tol_zero", "sweep_order_zero", "estimate_z0_negative_tol",
        ],
    )
    def test_invalid_input_is_one_error_line(self, argv, capsys):
        # every subcommand reports bad input as one "error:" line, exit 2
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "tri, message",
        [("0,0,0,1,0,0,0.4,0.9,x", "error: bad --tri: could not convert string to float: 'x'"),
         ("0,0,0,1,0,0,0.4,0.9", "error: --tri needs 9 comma-separated values")],
    )
    def test_unparsable_list_prints_usage_and_error(self, tri, message, capsys):
        # _parse_floats' errors reach main's ArgumentTypeError handler
        code = main(["integrate", "--tri", tri, "--point", "0.3,0.2,0.1", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: ") and lines[-1] == message

    def test_fallback_prints_note(self):
        # k * r_max >= pi/2 on the sample triangle at k = 3: the forced
        # expansion falls back to numeric quadrature and says why
        code, out = run_main(
            ["integrate", "--tri", TRI, "--point", "0.467,0.3,0.01", "--k", "3", "--method", "analytic"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["method: numeric", "n_gauss: 50",
                             "note: analytic inadmissible: k*r_max >= pi/2; numeric fallback"]

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @pytest.mark.parametrize("hyper", [False, True])
    def test_components_in_library_order(self, method, hyper):
        # one line per component in analytic.COMPONENTS order, each the
        # library's value, and the RESULT line holds them in that order
        label = {"i0": "I0", "ix": "Ix", "iy": "Iy", "di0_dn": "dI0/dn",
                 "dix_dn": "dIx/dn", "diy_dn": "dIy/dn", "d2i0_dn2": "d2I0/dn2"}
        point = [0.467, 0.3, 0.2]
        argv = ["integrate", "--tri", TRI, "--point", "0.467,0.3,0.2", "--k", "1", "--method", method]
        code, out = run_main(argv + ["--hyper"] * hyper)
        assert code == 0
        res = evaluate(EvalRequest(sample_triangle(), point, 1.0, want_hypersingular=hyper), method=method).result
        names = COMPONENTS if hyper else COMPONENTS[:6]
        lines = out.splitlines()
        start = lines.index(next(ln for ln in lines if ln.startswith("z: "))) + 1
        assert [ln.split(": ")[0] for ln in lines[start:-1]] == [label[c] for c in names]
        fields = lines[-1].split(",")
        assert fields[:2] == ["RESULT", method]
        got = [complex(float(re), float(im)) for re, im in zip(fields[2::2], fields[3::2])]
        assert got == [getattr(res, c) for c in names]

    def test_method_choices_are_the_engines(self):
        # integrate --method offers exactly the values evaluate accepts
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["integrate"]._actions if a.dest == "method")
        assert tuple(method.choices) == METHODS
        for m in METHODS:
            assert run_main(["integrate", "--tri", TRI, "--point", "0.467,0.3,0.2", "--k", "1", "--method", m])[0] == 0

    def test_hyper_flag_adds_component(self):
        code, out = run_main(
            ["integrate", "--tri", TRI, "--point", "0.467,0.3,0.5", "--k", "1",
             "--tol", "1e-9", "--hyper"]
        )
        assert code == 0
        assert "d2I0/dn2" in out


class TestSweep:
    def test_smoke_two_steps(self):
        code, out = run_main(
            ["sweep", "--zmin", "0.1", "--zmax", "1.0", "--steps", "2", "--log"]
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header[0] == "z"
        assert len(data) == 2
        # every cell parses as a float
        for row in data:
            assert len(row) == len(header)
            [float(v) for v in row]

    def test_deterministic_output(self):
        args = ["sweep", "--zmin", "0.05", "--zmax", "0.5", "--steps", "3", "--log"]
        _, out1 = run_main(args)
        _, out2 = run_main(args)
        assert out1 == out2

    def test_vertex_point_near_field_behavior(self):
        # qualitative shape of the error curves: the fixed-order numeric
        # error grows as z -> 0 while the analytic error stays at request
        code, out = run_main(
            ["sweep", "--sample-point", "1", "--zmin", "1e-3", "--zmax", "1.0",
             "--steps", "7", "--log", "--tols", "1e-9", "--orders", "16"]
        )
        assert code == 0
        header, data = parse_csv(out)
        col = {h: i for i, h in enumerate(header)}
        z = np.array([float(r[col["z"]]) for r in data])
        err_a = np.array([float(r[col["err_I0_tol1e-09"]]) for r in data])
        err_n = np.array([float(r[col["errn_I0_n16"]]) for r in data])
        assert np.all(err_a <= 10 * 1e-9)
        # numeric n=16 error at the smallest z dwarfs its far-field value
        assert err_n[0] > 1e3 * err_n[-1]
        assert err_n[0] > 1e-5

    def test_exterior_point_agreement(self):
        # numeric and analytic agree for z >= 0.5 at the exterior point
        code, out = run_main(
            ["sweep", "--sample-point", "4", "--zmin", "0.5", "--zmax", "2.0",
             "--steps", "4", "--log", "--tols", "1e-12", "--orders", "32"]
        )
        assert code == 0
        header, data = parse_csv(out)
        col = {h: i for i, h in enumerate(header)}
        for r in data:
            assert float(r[col["errn_I0_n32"]]) <= 1e-9
            assert float(r[col["oracle_ok"]]) == 1.0

    def test_rigidly_moved_triangle_same_columns(self):
        # the sweep places its points in the element frame, so a rigidly
        # moved copy of the sample triangle sees the same z, Q and oracle
        # verdicts as the sample triangle itself
        q, t = rigid_motion(np.random.default_rng(4))
        sample = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.4, 0.9, 0.0]])
        moved = ",".join(format(v, ".17g") for v in (sample @ q.T + t).ravel())
        args = ["sweep", "--sample-point", "2", "--zmin", "1e-3", "--zmax", "2.0",
                "--steps", "5", "--log", "--tols", "1e-6,1e-12", "--orders", "8"]
        _, out = run_main(args)
        _, out_moved = run_main(args + ["--tri", moved])
        header, data = parse_csv(out)
        header_m, data_m = parse_csv(out_moved)
        assert header_m == header
        keep = [i for i, h in enumerate(header) if h == "z" or h.startswith("Q_tol") or h == "oracle_ok"]
        assert len(keep) == 4
        assert [[r[i] for i in keep] for r in data_m] == [[r[i] for i in keep] for r in data]
        # and the Q columns are those of the requested projection
        ext = radial_extents(sample[:, :2] - SAMPLE_PROJECTIONS[2])
        for r in data:
            for tol in (1e-6, 1e-12):
                q = select_order(ext, float(r[0]), tol, q_cap=512).q
                assert int(r[header.index(f"Q_tol{tol:g}")]) == (-1 if q is None else q)

    @pytest.mark.parametrize(
        "tols, distinct", [(None, (1e-3, 1e-6, 1e-9, 1e-12)), ("1e-6", (1e-6, 1e-12)), ("1e-12,1e-6,1e-12", (1e-12, 1e-6))]
    )
    def test_one_evaluate_per_tolerance_and_order(self, tols, distinct, monkeypatch):
        # per z, one analytic call per distinct tolerance (the numeric
        # columns' reference 1e-12 among them) and one numeric call per order
        calls = []

        def counting(req, method="auto", n_gauss=None):
            calls.append((req.field_point[2], method, req.tol if n_gauss is None else n_gauss))
            return evaluate(req, method=method, n_gauss=n_gauss)

        monkeypatch.setattr(cli, "evaluate", counting)
        argv = ["sweep", "--zmin", "0.1", "--zmax", "1.0", "--steps", "3", "--log", "--orders", "8,16"]
        code, _ = run_main(argv + (["--tols", tols] if tols else []))
        assert code == 0
        zs = sorted({c[0] for c in calls})
        assert len(zs) == 3
        for z in zs:
            analytic = [c[2] for c in calls if c[0] == z and c[1] == "analytic"]
            numeric = [c[2] for c in calls if c[0] == z and c[1] == "numeric"]
            assert sorted(analytic) == sorted(distinct)
            assert numeric == [8, 16]

    def test_proj_matches_sample_point(self):
        # --proj places the sweep above the given projection, here sample point 3
        args = ["sweep", "--zmin", "0.1", "--zmax", "1.0", "--steps", "2", "--log", "--tols", "1e-6", "--orders", "8"]
        _, by_proj = run_main(args + ["--proj", "0.5,0"])
        _, by_index = run_main(args + ["--sample-point", "3"])
        assert by_proj == by_index

    def test_linear_spacing(self):
        code, out = run_main(
            ["sweep", "--zmin", "0.1", "--zmax", "0.5", "--steps", "3", "--tols", "1e-6", "--orders", "8"]
        )
        assert code == 0
        _, data = parse_csv(out)
        assert [r[0] for r in data] == [format(z, ".17g") for z in np.linspace(0.1, 0.5, 3)]

    @pytest.mark.parametrize(
        "extra, message",
        [(["--zmin", "0.1", "--steps", "1"], "error: --steps must be >= 2"),
         (["--zmin", "0", "--steps", "2", "--log"], "error: --zmin must be > 0 for log spacing"),
         (["--zmin", "-0.1", "--steps", "2", "--log"], "error: --zmin must be > 0 for log spacing")],
    )
    def test_bad_z_grid_is_one_error_line(self, extra, message, capsys):
        code = main(["sweep", "--zmax", "1.0", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_csv_round_trip(self):
        code, out = run_main(
            ["sweep", "--zmin", "0.1", "--zmax", "1.0", "--steps", "2", "--log"]
        )
        header, data = parse_csv(out)
        # 17 significant digits survive a parse/format cycle
        for row in data:
            for v in row:
                assert format(float(v), ".17g") == v


class TestEstimate:
    def test_basic_selection(self):
        code, out = run_main(
            ["estimate", "--rmax", "1", "--rmin", "0", "--z", "2.0", "--tol", "1e-6"]
        )
        assert code == 0
        assert "selection: Q =" in out

    def test_t_zero_case(self):
        # r_min = r_mid: t = 0 and the first order already suffices
        code, out = run_main(
            ["estimate", "--rmax", "1", "--rmin", "0.5", "--z", "0.4", "--tol", "1e-6"]
        )
        assert code == 0
        assert "selection: Q = 1" in out

    def test_phi_zero_reported(self):
        code, out = run_main(
            ["estimate", "--rmax", "1", "--rmin", "0.3", "--z", "0", "--tol", "1e-6"]
        )
        assert code == 0
        assert "phi = 0" in out and "analytic" in out
        code, out = run_main(
            ["estimate", "--rmax", "1", "--rmin", "0", "--z", "0", "--tol", "1e-6"]
        )
        assert code == 0
        assert "analytic" in out

    def test_analytic_required_reported(self):
        code, out = run_main(
            ["estimate", "--rmax", "1", "--rmin", "0", "--z", "0.05", "--tol", "1e-9"]
        )
        assert code == 0
        assert "analytic required" in out


    @pytest.mark.parametrize("flag", ["--z", "--rmin", "--rmax", "--tol"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_rejected(self, flag, bad, capsys):
        argv = {"--rmax": "1", "--rmin": "0", "--z": "0.1", "--tol": "1e-6"}
        argv[flag] = bad
        code = main(["estimate", *(v for item in argv.items() for v in item)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: need finite")


class TestEconomize:
    def test_single_entry(self):
        code, out = run_main(["economize", "--dx", "pi/2", "--eps", "1e-9"])
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["delta_x", "eps", "Q", "q", "c_q", "s_q"]
        assert len(data) == 9  # degree 8: coefficients q = 0..8
        assert float(data[0][4]) == pytest.approx(1.0, abs=1e-9)
        assert float(data[0][5]) == pytest.approx(0.0, abs=1e-9)

    def test_all_entries(self):
        code, out = run_main(["economize", "--all"])
        assert code == 0
        _, data = parse_csv(out)
        combos = {(r[0], r[1]) for r in data}
        assert len(combos) == 20

    def test_all_entries_match_frozen_tables(self):
        # 17 significant digits round-trip, so every printed coefficient
        # reads back as the frozen table's double
        frozen = json.loads((Path(__file__).parent / "data" / "economize_frozen.json").read_text())
        want = [
            (e["q"], float.fromhex(c), float.fromhex(s))
            for e in frozen["tiers"]
            for c, s in zip(e["cos"], e["sin"])
        ]
        _, data = parse_csv(run_main(["economize", "--all"])[1])
        assert [(int(r[2]), float(r[4]), float(r[5])) for r in data] == want

    def test_regeneration_reproduces_values(self):
        _, out1 = run_main(["economize", "--dx", "pi/4", "--eps", "1e-12"])
        _, out2 = run_main(["economize", "--dx", "pi/4", "--eps", "1e-12"])
        assert out1 == out2

    def test_dx_label_parsing(self):
        code, out = run_main(["economize", "--dx", str(math.pi / 8), "--eps", "1e-6"])
        assert code == 0
        _, data = parse_csv(out)
        assert float(data[0][0]) == pytest.approx(math.pi / 8)

    @pytest.mark.parametrize("dx", ["pi", "pi/3", "abc"])
    def test_bad_dx_label(self, dx, capsys):
        # pi lies outside (0, pi/2]; labels are only the four tiers
        code = main(["economize", "--dx", dx])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: bad delta-x {dx!r}"]
