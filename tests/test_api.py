"""The public surface: every exported name resolves, README's example runs, and every entry point reads each kind of argument by one rule."""

import copy
import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import helmpanel
from helmpanel import numquad
from helmpanel.engine import EvalRequest, evaluate
from helmpanel.estimator import EstimatorGeom, e_q_bound, select_order
from helmpanel.expapprox import LAPLACE, economize, select_approx
from helmpanel.geometry import (
    RadialExtents, Triangle3, check_height, edge_walk, flag, integer, positive, radial_extents, subdivide, to_local_frame,
)
from helmpanel.kronrod import quad_adaptive
from helmpanel.numquad import adaptive_oracle, polar_integrate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in helmpanel.__all__ if not hasattr(helmpanel, name)]
    assert missing == []


def test_readme_library_use_runs():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})


def test_reused_triangle_gives_the_same_reports():
    # a Triangle3 derives its frame and its edges' frames once; reusing it
    # across field points gives the reports a fresh triangle per point does
    rng = np.random.default_rng(50)
    verts = rng.uniform(-1.0, 1.0, size=(3, 3))
    shared = helmpanel.Triangle3(*verts)
    for _ in range(50):
        u, v = rng.uniform(-1.5, 1.5, size=2)
        h = rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 0.0)])
        x = shared.v1 + u * shared.e1 + v * shared.e2 + h * shared.normal
        tol = float(rng.choice([1e-6, 1e-9, 1e-12]))
        a = helmpanel.evaluate(helmpanel.EvalRequest(shared, x, 1.0, tol, want_hypersingular=True))
        b = helmpanel.evaluate(helmpanel.EvalRequest(helmpanel.Triangle3(*verts), x, 1.0, tol, want_hypersingular=True))
        assert a.result.values.tobytes() == b.result.values.tobytes()
        assert (a.method, a.estimator, a.z) == (b.method, b.estimator, b.z)
    with pytest.raises(AttributeError):
        shared.edges = (0.0,) * len(shared.edges)


@pytest.mark.parametrize(
    "clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_copied_triangle_is_the_same_triangle(clone):
    # a pickled or copied Triangle3 is built again from its vertices: the
    # same values, as read-only, and the same reports (a restored state
    # once had writable vertices that an edit moved away from its frame)
    tri = helmpanel.sample_triangle()
    twin = clone(tri)
    for name in ("v1", "v2", "v3", "vertices", "normal", "e1", "e2", "centroid"):
        assert getattr(twin, name).tobytes() == getattr(tri, name).tobytes()
    assert (twin.edges, twin.diameter, twin.area) == (tri.edges, tri.diameter, tri.area)
    with pytest.raises(ValueError, match="read-only"):
        twin.v1[0] = 0.3
    x = helmpanel.sample_field_point(2, 0.1)
    a = helmpanel.evaluate(helmpanel.EvalRequest(tri, x, 1.0, want_hypersingular=True))
    b = helmpanel.evaluate(helmpanel.EvalRequest(twin, x, 1.0, want_hypersingular=True))
    assert a.result.values.tobytes() == b.result.values.tobytes()
    assert (a.method, a.estimator, a.z) == (b.method, b.estimator, b.z)


@pytest.mark.parametrize(
    "clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_copied_report_owns_its_values(clone):
    # a PanelIntegrals owns its buffer, and so does a copy of it or of its
    # report: the same bytes, and an edit of either does not reach the other
    x = helmpanel.sample_field_point(2, 0.1)
    rep = helmpanel.evaluate(helmpanel.EvalRequest(helmpanel.sample_triangle(), x, 1.0, want_hypersingular=True))
    twin = clone(rep)
    assert (twin.method, twin.estimator, twin.z) == (rep.method, rep.estimator, rep.z)
    for res, res_twin in ((rep.result, clone(rep.result)), (rep.result, twin.result)):
        assert type(res_twin) is helmpanel.PanelIntegrals
        want = res.values.tobytes()
        assert res_twin.values.tobytes() == want
        res_twin.i0 += 1.0
        res_twin.values[1] = 0.0
        assert res.values.tobytes() == want


@pytest.mark.parametrize(
    "clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_copied_request_is_the_same_request(clone):
    tri = helmpanel.sample_triangle()
    req = helmpanel.EvalRequest(tri, helmpanel.sample_field_point(2, 0.1), 1.0, 1e-6, np.True_)
    twin = clone(req)
    assert twin.field_point.tobytes() == req.field_point.tobytes()
    assert (twin.k, twin.tol, twin.want_hypersingular) == (1.0, 1e-6, True)
    assert repr(twin) == repr(req)
    a, b = helmpanel.evaluate(req), helmpanel.evaluate(twin)
    assert a.result.values.tobytes() == b.result.values.tobytes()


def test_cached_tables_cannot_be_edited():
    # every call of these returns the same cached objects: an edit by one
    # caller would change every later evaluation in the process
    entry = economize(np.pi / 4, 1e-9)
    assert select_approx(1.0, 0.1, 1e-9) is select_approx(1.0, 0.1, 1e-9)
    for a in [*numquad.gauss_rule(6), *numquad.polar_rule(6)[1:]]:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 2.0
    for approx in (entry, LAPLACE):
        with pytest.raises(dataclasses.FrozenInstanceError):
            approx.q = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            approx.coeffs = ()
        assert isinstance(approx.coeffs, tuple)  # a tuple of complex numbers: nothing to edit
    assert entry.terms is entry.terms and isinstance(entry.terms, tuple)  # tuples of tuples: nothing to edit


@pytest.mark.parametrize(
    "record, name",
    [("triangle", "_block"), ("triangle", "v1"), ("triangle", "edges"), ("triangle", "other"),
     ("request", "k"), ("request", "triangle"), ("request", "field_point"), ("request", "other")],
)
def test_input_records_are_frozen(record, name):
    # Triangle3 and EvalRequest share one freeze rule: a field, a property
    # or an unknown name can be neither assigned nor deleted
    tri = helmpanel.sample_triangle()
    req = helmpanel.EvalRequest(tri, helmpanel.sample_field_point(2, 0.1), 1.0)
    obj = tri if record == "triangle" else req
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field {name!r}"):
        setattr(obj, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field {name!r}"):
        delattr(obj, name)
    assert tri.v1.tolist() == [0.0, 0.0, 0.0] and req.k == 1.0 and req.triangle is tri


# Every path of evaluate (numeric, analytic, in-plane analytic, n = 50
# fallback; k = 3), one full-component oracle call and the CLI's table,
# sweep and estimate commands; prints the paths taken and the loaded
# numpy.polynomial modules as JSON.
NO_POLYNOMIAL_SCRIPT = """
import contextlib, io, json, sys
import helmpanel as hp
from helmpanel import cli
from helmpanel.numquad import adaptive_oracle

sample = hp.sample_triangle()
small = hp.Triangle3((0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.12, 0.27, 0.0))
cases = [(sample, hp.sample_field_point(2, 0.5), "auto"), (small, (0.14, 0.09, 1e-4), "auto"),
         (small, (0.14, 0.09, 0.0), "auto"), (sample, hp.sample_field_point(2, 1e-3), "analytic")]
paths = []
for tri, x, method in cases:
    rep = hp.evaluate(hp.EvalRequest(tri, x, 3.0, 1e-9, want_hypersingular=True), method)
    paths.append([rep.method.kind, rep.method.n_gauss, rep.z])
adaptive_oracle(sample.vertices[:, :2] - (0.4, 0.3), 0.1, 3.0, want_hyper=True)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["economize", "--all"]),
             cli.main(["sweep", "--zmin", "0.01", "--zmax", "0.1", "--steps", "2", "--tols", "1e-6", "--orders", "4"]),
             cli.main(["estimate", "--rmax", "1", "--rmin", "0.1", "--z", "0.01", "--tol", "1e-9"])]
print(json.dumps([paths, codes, sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))]))
"""


def test_no_path_imports_numpy_polynomial():
    # the economised tables and the Gauss and Kronrod rules are built without
    # numpy.polynomial (and the LAPACK it maps), in a fresh interpreter
    src = str(Path(helmpanel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", NO_POLYNOMIAL_SCRIPT], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    paths, codes, loaded = json.loads(run.stdout)
    assert paths == [["numeric", 16, 0.5], ["analytic", None, 1e-4], ["analytic", None, 0.0], ["numeric", 50, 1e-3]]
    assert codes == [0, 0, 0]
    assert loaded == []


# One rule per kind of argument (geometry.real_array, real_number,
# positive, integer and flag): every entry point that reads coordinates,
# a scalar, an integer or a flag, the name its ValueError starts with, and
# what it reads.
TRI = helmpanel.sample_triangle()
POINT = [0.4, 0.3, 0.1]
VERTS2D = [[-0.4, -0.3], [0.6, -0.3], [0.0, 0.6]]
FAN = subdivide(VERTS2D)
COORDINATE_ENTRIES = {
    "Triangle3": ((3,), "triangle vertex v1", lambda c: Triangle3(c, [1.0, 0.0, 0.0], [0.4, 0.9, 0.0])),
    "from_flat": ((9,), "flat triangle coordinates", Triangle3.from_flat),
    "EvalRequest": ((3,), "field point", lambda c: EvalRequest(TRI, c, 1.0)),
    "to_local_frame": ((3,), "field point", lambda c: to_local_frame(TRI, c)),
    "to_local_frame-tuple": ((3,), "field point", lambda c: to_local_frame(TRI, tuple(c))),
    "adaptive_oracle": ((3, 2), "plane vertices", lambda c: adaptive_oracle(c, 0.1, 1.0)),
    "edge_walk": ((3, 2), "plane vertices", edge_walk),
    "subdivide": ((3, 2), "plane vertices", subdivide),
    "radial_extents": ((3, 2), "plane vertices", radial_extents),
}


def bad_coordinates(kind, shape):
    """Coordinates of ``shape`` spoiled as ``kind`` says."""
    good = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
    spoiled = good.tolist()
    first = spoiled if len(shape) == 1 else spoiled[0]
    if kind == "complex":
        first[0] = complex(first[0], 1.0)
    elif kind == "string":
        return good.astype(str).tolist()
    elif kind == "bool":
        return np.ones(shape, dtype=bool)
    elif kind in ("mixed-bool", "mixed-numpy-bool"):
        first[0] = True if kind == "mixed-bool" else np.True_  # NumPy promotes the list to floats
    elif kind == "None":
        first[0] = None
    elif kind == "ragged":
        spoiled[-1] = [spoiled[-1], spoiled[-1]] if len(shape) == 1 else spoiled[-1][:1]
    elif kind == "shape":
        return spoiled[:-1]
    else:
        first[0] = {"nan": math.nan, "inf": math.inf}[kind]
    return spoiled


SCALAR_ENTRIES = {
    "polar_integrate-z": ("height z", lambda v: polar_integrate(FAN, v, 1.0, 8)),
    "adaptive_oracle-z": ("height z", lambda v: adaptive_oracle(VERTS2D, v, 1.0)),
    "EvalRequest-k": ("k", lambda v: EvalRequest(TRI, POINT, v)),
    "polar_integrate-k": ("k", lambda v: polar_integrate(FAN, 0.1, v, 8)),
    "adaptive_oracle-k": ("k", lambda v: adaptive_oracle(VERTS2D, 0.1, v)),
    "select_approx-k": ("k", lambda v: select_approx(v, 0.5, 1e-9)),
    "EvalRequest-tol": ("tol", lambda v: EvalRequest(TRI, POINT, 1.0, v)),
    "select_order-tol": ("tol", lambda v: select_order(RadialExtents(0.0, 1.0), 0.1, v)),
    "adaptive_oracle-tol": ("tol", lambda v: adaptive_oracle(VERTS2D, 0.1, 1.0, tol=v)),
    "quad_adaptive-tol": ("tol", lambda v: quad_adaptive(lambda x: np.sin(x)[:, None], 0.0, 1.0, v)),
    "select_approx-eps": ("eps", lambda v: select_approx(0.5, 0.5, v)),
    "select_approx-ell": ("ell", lambda v: select_approx(0.5, v, 1e-9)),
    "select_order-z": ("z", lambda v: select_order(RadialExtents(0.0, 1.0), v, 1e-6)),
    "select_order-r_min": ("r_min", lambda v: select_order(RadialExtents(v, 1.0), 0.1, 1e-6)),
    "select_order-r_max": ("r_max", lambda v: select_order(RadialExtents(0.0, v), 0.1, 1e-6)),
    "from_extents-z": ("z", lambda v: EstimatorGeom.from_extents(RadialExtents(0.0, 1.0), v)),
}
BAD_SCALARS = {"bool": True, "numpy-bool": np.True_, "complex": 0.5j, "string": "0.5", "nan": math.nan}
# a NaN that is a real number meets the range check that owns it, whose message names the input too
GEOM = EstimatorGeom.from_extents(RadialExtents(0.0, 1.0), 0.3)
# name, least (None: any integer), call
INTEGER_ENTRIES = {
    "evaluate-n_gauss": ("n_gauss", 1, lambda v: evaluate(EvalRequest(TRI, POINT, 1.0), "numeric", v)),
    "gauss_rule": ("n_gauss", 1, numquad.gauss_rule),
    "polar_integrate-n": ("n_gauss", 1, lambda v: polar_integrate(FAN, 0.1, 1.0, v)),
    "select_order-q_cap": ("q_cap", None, lambda v: select_order(RadialExtents(0.0, 1.0), 0.1, 1e-6, v)),
    "e_q_bound-q": ("q", 0, lambda v: e_q_bound(GEOM, v)),
}
BAD_INTEGERS = {"bool": True, "numpy-bool": np.True_, "float": 2.0, "numpy-float": np.float64(2.0), "complex": 2j,
                "string": "2"}  # None is evaluate's "not given"
FLAG_ENTRIES = {
    "EvalRequest": ("want_hypersingular", lambda v: EvalRequest(TRI, POINT, 1.0, 1e-9, v)),
    "polar_integrate": ("want_hyper", lambda v: polar_integrate(FAN, 0.1, 1.0, 8, want_hyper=v)),
    "adaptive_oracle": ("want_hyper", lambda v: adaptive_oracle(VERTS2D, 0.1, 1.0, want_hyper=v)),
}
BAD_FLAGS = {"int-1": 1, "int-0": 0, "numpy-int": np.int64(1), "float": 1.0, "string": "no", "None": None,
             "array": np.array([True])}


def refused(call, value, name):
    """Assert that ``call(value)`` raises a ValueError whose message starts with ``name``, with no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            call(value)
    assert re.match(rf"{re.escape(name)}\b", str(err.value)), str(err.value)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "kind", ["complex", "string", "bool", "mixed-bool", "mixed-numpy-bool", "None", "ragged", "shape", "nan", "inf"]
)
@pytest.mark.parametrize("entry", list(COORDINATE_ENTRIES))
def test_bad_coordinates_refused(entry, kind):
    # each once ran (strings, bools, a bool among floats), raised a TypeError
    # (complex) or gave a message that does not name the input (ragged, None)
    # somewhere
    shape, name, call = COORDINATE_ENTRIES[entry]
    if entry == "to_local_frame-tuple" and kind in ("nan", "inf"):
        # a tuple of three floats is read as it is, evaluate's path: its
        # NaN or inf makes z NaN or infinite, which check_height refuses
        name = "height z"
    refused(call, bad_coordinates(kind, shape), name)


@pytest.mark.parametrize("kind", list(BAD_SCALARS))
@pytest.mark.parametrize("entry", list(SCALAR_ENTRIES))
def test_bad_scalars_refused(entry, kind):
    # a bool once ran as 0 or 1, a complex or string one raised a TypeError
    name, call = SCALAR_ENTRIES[entry]
    refused(call, BAD_SCALARS[kind], name)


@pytest.mark.parametrize(
    "entry, kind",
    [(e, k) for e in INTEGER_ENTRIES for k in [*BAD_INTEGERS, "below"] if k != "below" or INTEGER_ENTRIES[e][1] is not None],
)
def test_bad_integers_refused(entry, kind):
    name, least, call = INTEGER_ENTRIES[entry]
    refused(call, least - 1 if kind == "below" else BAD_INTEGERS[kind], name)


@pytest.mark.parametrize("kind", list(BAD_FLAGS))
@pytest.mark.parametrize("entry", list(FLAG_ENTRIES))
def test_bad_flags_refused(entry, kind):
    name, call = FLAG_ENTRIES[entry]
    refused(call, BAD_FLAGS[kind], name)


@pytest.mark.parametrize("triangle", ["tri", None, TRI.vertices, (TRI.v1, TRI.v2, TRI.v3)], ids=["str", "None", "array", "tuple"])
def test_triangle_must_be_a_triangle3(triangle):
    # "tri" once built a request that evaluate failed on with an AttributeError
    refused(lambda t: EvalRequest(t, POINT, 1.0), triangle, "triangle")


def test_rules_return_their_kind():
    # each rule returns the value as the Python type its callers read
    assert [type(v) for v in (integer(np.int64(3), "n"), integer(3, "n", 3), flag(np.True_, "f"), flag(False, "f"))] == [
        int, int, bool, bool]
    assert positive(np.float32(0.5), "tol") == 0.5 and type(positive(np.float32(0.5), "tol")) is float
    assert positive(1, "tol") == 1.0 and type(positive(1, "tol")) is float
    assert EvalRequest(TRI, POINT, 1.0, 1e-9, np.True_).want_hypersingular is True


@pytest.mark.parametrize("entry", ["polar_integrate-z", "adaptive_oracle-z"])
def test_float32_height_runs_as_its_float(entry):
    # check_height once warned of an overflow, casting Z_MAX to float32
    run = SCALAR_ENTRIES[entry][1]
    z = np.float32(0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run(z).values.tobytes()
        assert type(check_height(z)) is float and check_height(z) == float(z)
    assert [str(w.message) for w in caught] == []
    assert got == run(float(z)).values.tobytes()
