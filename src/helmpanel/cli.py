"""Command-line front end.

Subcommands:
  integrate   evaluate one triangle / field point and print the report,
              its components in analytic.COMPONENTS order
  sweep       error-vs-z curves (analytic vs oracle, numeric orders, Q up
              to SWEEP_Q_CAP) as CSV, one evaluation per tolerance and order
  estimate    quadrature-order criterion for given radial extents
  economize   dump economized sin/cos coefficient tables as CSV

All numbers print with 17 significant digits; CSV output is deterministic,
comma-separated with '.' decimals, LF line endings, and '#'-prefixed header
comments recording the full invocation.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .engine import (
    METHODS,
    EvalRequest,
    SAMPLE_PROJECTIONS,
    check_tol,
    evaluate,
    sample_triangle,
)
from .estimator import Q_CAP, EstimatorGeom, e_q_bound, select_order
from .expapprox import DELTA_X_LABELS, DELTA_X_TIERS, EPS_TIERS, economize
from .geometry import RadialExtents, Triangle3, radial_extents, to_local_frame

# Printed names of PanelIntegrals.values, in analytic.COMPONENTS order.
LABELS = ("I0", "Ix", "Iy", "dI0/dn", "dIx/dn", "dIy/dn", "d2I0/dn2")
# sweep's Q columns search orders up to this, past the estimator's Q_CAP,
# so that they show the order a tolerance needs and not only the cap.
SWEEP_Q_CAP = 512


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what}: {exc}") from None
    if len(vals) != n:
        raise argparse.ArgumentTypeError(f"{what} needs {n} comma-separated values")
    return vals


def _parse_dx(text: str) -> float:
    """Accept 'pi/16' style labels or a plain float; anything else is a ValueError."""
    t = text.strip().lower().replace(" ", "")
    for label, dx in zip(DELTA_X_LABELS, DELTA_X_TIERS):
        if t == label:
            return dx
    try:
        return float(t)
    except ValueError:
        raise ValueError(f"bad delta-x {text!r}") from None


def cmd_integrate(args) -> int:
    tri = Triangle3.from_flat(_parse_floats(args.tri, 9, "--tri"))
    point = np.array(_parse_floats(args.point, 3, "--point"))
    req = EvalRequest(
        triangle=tri,
        field_point=point,
        k=args.k,
        tol=args.tol,
        want_hypersingular=args.hyper,
    )
    rep = evaluate(req, method=args.method)
    est = rep.estimator
    print(f"method: {rep.method.kind}")
    if rep.method.kind == "numeric":
        print(f"n_gauss: {rep.method.n_gauss}")
    else:
        print(f"q_expansion: {rep.method.q_expansion}  delta_x: {_fmt(rep.method.delta_x)}")
    if rep.method.note:
        print(f"note: {rep.method.note}")
    if est is not None:
        if est.analytic_required:
            print("estimator: analytic required (no Q <= cap meets tolerance)")
        else:
            print(f"estimator: Q = {est.q}  E_Q = {_fmt(est.e_q)}")
    print(f"z: {_fmt(rep.z)}")
    values = rep.result.values.tolist()  # 6 components, or 7 with --hyper
    for name, v in zip(LABELS, values):
        print(f"{name}: {_fmt(v.real)} {'+' if v.imag >= 0 else '-'} {_fmt(abs(v.imag))}j")
    print(",".join(["RESULT", rep.method.kind] + [_fmt(x) for v in values for x in (v.real, v.imag)]))
    return 0


def cmd_sweep(args) -> int:
    from .numquad import adaptive_oracle

    if args.tri is not None:
        tri = Triangle3.from_flat(_parse_floats(args.tri, 9, "--tri"))
    else:
        tri = sample_triangle()
    if args.proj is not None:
        px, py = _parse_floats(args.proj, 2, "--proj")
    else:
        px, py = SAMPLE_PROJECTIONS[args.sample_point]
    tols = [float(t) for t in args.tols.split(",")]
    orders = [int(n) for n in args.orders.split(",")]
    if min(orders) < 1:
        raise ValueError("--orders must be integers >= 1")
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    if args.log:
        if args.zmin <= 0.0:
            raise ValueError("--zmin must be > 0 for log spacing")
        zs = np.geomspace(args.zmin, args.zmax, args.steps)
    else:
        zs = np.linspace(args.zmin, args.zmax, args.steps)
    # sweep points in the element frame: origin v1, axes e1, e2 and the normal
    axes = np.array([tri.e1, tri.e2, tri.normal])
    points = [tri.v1 + np.array([px, py, z]) @ axes for z in zs]
    # per point, one request per distinct tolerance, the numeric columns'
    # reference 1e-12 among them, all built (and so checked) before the
    # first output line
    requests = [
        {t: EvalRequest(triangle=tri, field_point=p, k=args.k, tol=t) for t in dict.fromkeys((*tols, 1e-12))}
        for p in points
    ]

    out = sys.stdout
    out.write("# helmpanel sweep\n")
    out.write(
        "# tri=" + ",".join(_fmt(v) for v in tri.vertices.ravel())
        + f" proj={_fmt(px)},{_fmt(py)} k={_fmt(args.k)}\n"
    )
    out.write(
        f"# zmin={_fmt(args.zmin)} zmax={_fmt(args.zmax)} steps={args.steps} "
        f"log={int(args.log)} tols={args.tols} orders={args.orders}\n"
    )
    out.write("# err_* columns: |value - adaptive oracle (tol 1e-13)|;\n")
    out.write(f"# errn_* columns: |numeric(n) - analytic(1e-12)|; Q: order with E_Q <= tol (-1: none <= {SWEEP_Q_CAP})\n")
    cols = ["z"]
    cols += [f"err_I0_tol{t:g}" for t in tols]
    cols += [f"err_dI0_tol{t:g}" for t in tols]
    cols += [f"errn_I0_n{n}" for n in orders]
    cols += [f"errn_dI0_n{n}" for n in orders]
    cols += [f"Q_tol{t:g}" for t in tols]
    cols += ["oracle_ok"]
    out.write(",".join(cols) + "\n")

    for z, point, reqs in zip(zs, points, requests):
        verts2d, zloc = to_local_frame(tri, point)
        ext = radial_extents(verts2d)
        oracle, status = adaptive_oracle(
            verts2d, zloc, args.k, tol=1e-13, components=("i0", "di0"),
            return_status=True,
        )
        row = [_fmt(z)]
        refs = {t: evaluate(r, method="analytic").result for t, r in reqs.items()}
        row += [_fmt(abs(refs[t].i0 - oracle.i0)) for t in tols]
        row += [_fmt(abs(refs[t].di0_dn - oracle.di0_dn)) for t in tols]
        nums = [evaluate(reqs[1e-12], method="numeric", n_gauss=n).result for n in orders]
        row += [_fmt(abs(r.i0 - refs[1e-12].i0)) for r in nums]
        row += [_fmt(abs(r.di0_dn - refs[1e-12].di0_dn)) for r in nums]
        for t in tols:
            q = select_order(ext, zloc, t, q_cap=SWEEP_Q_CAP).q
            row.append(str(q if q is not None else -1))
        row.append("1" if status["converged"] else "0")
        out.write(",".join(row) + "\n")
    return 0


def cmd_estimate(args) -> int:
    finite = all(map(math.isfinite, (args.rmin, args.rmax, args.z, args.tol)))
    if not (finite and 0.0 <= args.rmin <= args.rmax and args.rmax > 0.0):
        raise ValueError("need finite --rmin, --rmax, --z and --tol, 0 <= rmin <= rmax and rmax > 0")
    check_tol(args.tol)
    ext = RadialExtents(r_min=args.rmin, r_max=args.rmax)
    sel = select_order(ext, args.z, args.tol)
    if args.z == 0.0:
        if args.rmin == 0.0:
            print("z = 0 with r_min = 0: singular integral, analytic evaluation required")
        else:
            print("phi = 0 (z = 0, projection outside): the signed subtriangles cancel in the angle, "
                  "analytic evaluation required")
        return 0
    geom = EstimatorGeom.from_extents(ext, args.z)
    print(
        f"r_mid={_fmt(geom.r_mid)} R_mid={_fmt(geom.R_mid)} "
        f"cos_phi={_fmt(geom.cos_phi)} t={_fmt(geom.t)}"
    )
    q_hi = sel.q if not sel.analytic_required else Q_CAP
    print("Q,E_Q")
    for q in range(1, q_hi + 1):
        print(f"{q},{_fmt(e_q_bound(geom, q))}")
    if sel.analytic_required:
        print(f"selection: analytic required (E_Q > {_fmt(args.tol)} for all Q <= {Q_CAP})")
    else:
        print(f"selection: Q = {sel.q}, n_gauss = {sel.n_gauss}, E_Q = {_fmt(sel.e_q)}")
    return 0


def cmd_economize(args) -> int:
    if args.all:
        pairs = [(dx, e) for dx in DELTA_X_TIERS for e in EPS_TIERS]
    else:
        pairs = [(_parse_dx(args.dx), args.eps)]
    approx = [economize(dx, eps) for dx, eps in pairs]  # ValueError before any output
    out = sys.stdout
    out.write("# helmpanel economize: e_q = c_q + j s_q with max|cos-p_c|,max|sin-p_s| <= eps on [0, delta_x)\n")
    out.write("delta_x,eps,Q,q,c_q,s_q\n")
    for (dx, eps), ap in zip(pairs, approx):
        for q, e in enumerate(ap.coeffs):
            out.write(f"{_fmt(dx)},{_fmt(eps)},{ap.q},{q},{_fmt(e.real)},{_fmt(e.imag)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="helmpanel",
        description="Helmholtz layer-potential integrals over plane triangles "
        "(values exclude the 1/4pi of the Green's function)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("integrate", help="evaluate one triangle / field point")
    pi.add_argument("--tri", required=True, help="x1,y1,z1,x2,y2,z2,x3,y3,z3")
    pi.add_argument("--point", required=True, help="px,py,pz")
    pi.add_argument("--k", type=float, required=True, help="wavenumber")
    pi.add_argument("--tol", type=float, default=1e-9, help="requested tolerance")
    pi.add_argument("--hyper", action="store_true", help="also compute d2I0/dn2")
    pi.add_argument("--method", choices=METHODS, default="auto")
    pi.set_defaults(func=cmd_integrate)

    ps = sub.add_parser("sweep", help="error-vs-z sweep as CSV on stdout")
    ps.add_argument("--tri", default=None, help="triangle coords (default: sample)")
    ps.add_argument("--proj", default=None, help="in-plane projection px,py")
    ps.add_argument(
        "--sample-point", type=int, choices=(1, 2, 3, 4), default=2,
        help="sample projection when --proj omitted: 1 vertex, 2 interior, 3 edge, 4 exterior",
    )
    ps.add_argument("--k", type=float, default=1.0)
    ps.add_argument("--zmin", type=float, required=True)
    ps.add_argument("--zmax", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--log", action="store_true", help="log-spaced z values")
    ps.add_argument("--tols", default="1e-3,1e-6,1e-9,1e-12")
    ps.add_argument("--orders", default="4,8,16,32")
    ps.set_defaults(func=cmd_sweep)

    pe = sub.add_parser("estimate", help="quadrature-order criterion")
    pe.add_argument("--rmax", type=float, required=True)
    pe.add_argument("--rmin", type=float, required=True)
    pe.add_argument("--z", type=float, required=True)
    pe.add_argument("--tol", type=float, required=True)
    pe.set_defaults(func=cmd_estimate)

    pc = sub.add_parser("economize", help="dump sin/cos coefficient table as CSV")
    pc.add_argument("--dx", default=DELTA_X_LABELS[-1], help="pi/16, pi/8, pi/4, pi/2 or float")
    pc.add_argument("--eps", type=float, default=1e-9)
    pc.add_argument("--all", action="store_true", help="emit the full table")
    pc.set_defaults(func=cmd_economize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # non-finite or out-of-range input, or a degenerate triangle; a
    # ValueError raised inside the library is reported the same way
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
