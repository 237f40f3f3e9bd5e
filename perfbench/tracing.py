"""Layer spans and counters for the traced run, installed from outside.

The library is not edited: ``Tracer`` replaces the module-level names
through which one layer calls the next (for example ``engine.select_order``
or ``analytic.build_table``) with wrappers that record a span -- name,
start, end, parent span and request id -- and put the originals back on
exit.  ``elemints.binomial_combination`` runs about 10^5 times per second,
so it is counted, not spanned.  A wrapped name that no longer exists stops
the run with ``TraceError`` naming it, so that a refactor cannot make a
layer vanish from the report unnoticed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) -> span name.  Names are "<defining layer>.<function>".
SPANNED = {
    ("engine", "to_local_frame"): "geometry.to_local_frame",
    ("engine", "radial_extents"): "geometry.radial_extents",
    ("engine", "select_order"): "estimator.select_order",
    ("engine", "subdivide"): "geometry.subdivide",
    ("engine", "ref_params"): "geometry.ref_params",
    ("engine", "select_approx"): "expapprox.select_approx",
    ("engine", "evaluate_ref"): "analytic.evaluate_ref",
    ("engine", "polar_integrate"): "numquad.polar_integrate",
    ("analytic", "build_table"): "elemints.build_table",
    ("analytic", "k_terms"): "analytic.k_terms",
    ("analytic", "j_chain"): "analytic.j_chain",
    ("analytic", "hypersingular"): "analytic.hypersingular",
    ("analytic", "assemble"): "analytic.assemble",
    ("numquad", "polar_nodes"): "numquad.polar_nodes",
    ("numquad", "subdivide"): "geometry.subdivide",
    ("numquad", "ref_params"): "geometry.ref_params",
    ("numquad", "quad_adaptive"): "numquad.quad_adaptive",
}
COUNTED = {("elemints", "binomial_combination"): "binomial_calls"}


class TraceError(RuntimeError):
    """A layer boundary the tracer wraps is missing from the library."""


class Tracer:
    """Context manager that wraps the layer boundaries while it is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, before=None, after=None, root: bool = False):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``before`` may rewrite the call's (args, kwargs); ``after`` sees
        the result.  Both feed the counters.
        """
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if root:
                self._request += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self._request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _hooks(self, name: str):
        """Counter hooks (before, after) for the span ``name``."""
        counts = self.counts

        def add(key, value):
            counts[key] += value

        if name == "geometry.subdivide":
            return None, lambda out: add("subtris", len(out))
        if name == "expapprox.select_approx":
            return None, lambda out: (add("q_sum", out.q), add("q_calls", 1))
        if name == "numquad.polar_nodes":
            return None, lambda out: add("nodes", len(out[0]))
        if name == "numquad.polar_integrate":
            def n_gauss(args, kwargs):
                add("n_sum", args[3] if len(args) > 3 else kwargs["n"])
                add("n_calls", 1)
                return args, kwargs
            return n_gauss, None
        if name == "numquad.quad_adaptive":
            def count_points(args, kwargs):
                f = args[0]

                def counted(x):
                    add("integrand_points", len(x))
                    return f(x)

                return (counted,) + tuple(args[1:]), kwargs
            return count_points, None
        return None, None

    def __enter__(self) -> "Tracer":
        try:
            for (mod_name, attr), name in SPANNED.items():
                mod = importlib.import_module(f"helmpanel.{mod_name}")
                self._replace(mod, mod_name, attr, lambda fn, n=name: self.span(fn, n, *self._hooks(n)))
            for (mod_name, attr), counter in COUNTED.items():
                mod = importlib.import_module(f"helmpanel.{mod_name}")
                self._replace(mod, mod_name, attr, lambda fn, c=counter: self._count(fn, c))
        except TraceError:
            self.restore()
            raise
        return self

    def _replace(self, mod, mod_name: str, attr: str, make) -> None:
        if not hasattr(mod, attr):
            raise TraceError(f"traced layer boundary {mod_name}.{attr} no longer exists")
        orig = getattr(mod, attr)
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def _count(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name."""
        if not self.spans:
            return {}, {}, {}
        a = np.array(self.spans, dtype=float)
        nid = a[:, 0].astype(int)
        dur = a[:, 2] - a[:, 1]
        parent = a[:, 3].astype(int)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(a))
        incl = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=dur - children, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return (
            dict(zip(self.names, incl)),
            dict(zip(self.names, own)),
            dict(zip(self.names, calls.tolist())),
        )

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start and end in us, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name,start_us,end_us,parent,request\n")
            for nid, start, end, parent, req in self.spans:
                f.write(f"{self.names[nid]},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{req}\n")

