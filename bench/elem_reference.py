"""Write mpmath reference values of the elementary integral tables.

    python bench/elem_reference.py              # writes tests/data/elem_reference.json
    python bench/elem_reference.py --out ref.json --dps 40

Independent of ``helmpanel``: every integral is taken by mpmath's
tanh-sinh quadrature in u = tan(theta), where dtheta = du / (1 + u^2),
p = Delta / cos = sqrt(1 + alpha'^2 u^2) and cos = 1 / sqrt(1 + u^2).  So
the growth of the integrands as theta approaches +-pi/2 is a power of u,
not a pole; the u range is split at 0 and at +-10^j, so that each piece
spans at most one decade.  Per case it writes plain[n] = integral p^n
dtheta, n = -3 .. 17, tan[n] = integral p^n tan dtheta, n = -1 .. 17, and
L_c, L_s, the integrals of cos and sin times
log[(Delta - alpha')/(Delta + alpha')], taken as
2 log(alpha cos / (Delta + alpha')), which does not cancel (none at
alpha = 0, where the library stores them as 0).  Each comes with the
integral of its |integrand|: every integrand keeps its sign on either
side of u = 0, so that is the sum of the two sides' |values|.

It also writes the rows the expansion terms read, at n = 0 .. 17:
P_s[n] = integral (p - alpha)^n p^(-s) dtheta, s = 0 .. 3, and
T_s[n] = integral (p - alpha)^n p^(-s) tan dtheta, s = 0, 1, with
p - alpha taken as alpha'^2 (1 + u^2) / (p + alpha), which does not
cancel.  Each comes with the integral of (p + alpha)^n p^(-s) [|tan|], the
scale of the binomial sum over the powers of p: it is that sum with every
term taken positive, sum_m C(n, m) alpha^(n-m) times the |integrand|
integral of plain[m - s] (or tan[m - s]), so it needs no quadrature of
its own, and each row's integrand is divided by it for the quadrature.
A value is kept only when mpmath's error estimate is below 1e-20 of its
scale.

The grid is alpha in {0, 1e-9, 1e-3, 0.3, 0.95, 0.99999} over four
ranges, and one sliver: the table is built with alpha = 1.0 and
alpha' = 1e-9 given explicitly (as for a point 1e-9 S off an edge's line,
where |z|/S rounds to 1), and mpmath takes alpha = sqrt(1 - alpha'^2).
It runs about six minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "elem_reference.json"
ALPHAS = (0.0, 1e-9, 1e-3, 0.3, 0.95, 0.99999)
RANGES = ((-1.5, 1.5), (-0.2, 0.3), (1.0, math.pi / 2 - 1e-4), (-math.pi / 2 + 1e-4, -1.2))
SLIVER = (1.0, 1e-9, -math.pi / 2 + 2.5e-10, math.pi / 2 - 2e-10)  # alpha, alpha', range
PLAIN = range(-3, 18)
TAN = range(-1, 18)
ORDERS = range(18)
ROWS = (("P0", 0, False), ("P1", 1, False), ("P2", 2, False), ("P3", 3, False), ("T0", 0, True), ("T1", 1, True))
KEEP = mp.mpf("1e-20")


def pieces(u_lo, u_hi):
    """[u_lo .. 0] and [0 .. u_hi] (those of nonzero length), each split at +-10^j."""
    out = []
    for a, b in ((u_lo, min(u_hi, 0)), (max(u_lo, 0), u_hi)):
        if a < b:
            cuts = [c for j in range(-2, 11) for c in (-mp.mpf(10) ** j, mp.mpf(10) ** j) if a < c < b]
            out.append([a, *sorted(cuts), b])
    return out


def integral(f, u_lo, u_hi):
    """(value, integral of |f|, error estimate) over [u_lo, u_hi]; f keeps its sign on each side of 0."""
    value = scale = error = mp.mpf(0)
    for pts in pieces(u_lo, u_hi):
        v, e = mp.quad(f, pts, error=True, maxdegree=10)
        value, scale, error = value + v, scale + abs(v), error + e
    return value, scale, error


def case(alpha, alpha_p, theta_lo, theta_hi):
    """One entry; alpha_p is given only for the sliver (None: sqrt(1 - alpha^2))."""
    if alpha_p is None:
        a = mp.mpf(alpha)
        ap = mp.sqrt(1 - a * a)
    else:
        ap = mp.mpf(alpha_p)
        a = mp.sqrt(1 - ap * ap)
    u_lo, u_hi = mp.tan(mp.mpf(theta_lo)), mp.tan(mp.mpf(theta_hi))
    dropped = []
    scales = {}  # (family, n) -> integral of |integrand|, at full precision

    def kept(name, f, scale=None):
        """f's integral and scale; a given scale divides f first, since mpmath's error target is absolute."""
        if scale is None:
            v, s, e = integral(f, u_lo, u_hi)
        else:
            v, _, e = integral(lambda u: f(u) / scale, u_lo, u_hi)
            v, s, e = v * scale, scale, e * scale
        if e > KEEP * s:
            dropped.append(name)
            return None, s
        return [float(v), float(s)], s

    def p(u):
        return mp.sqrt(1 + (ap * u) ** 2)

    def weight(tan):
        return (lambda u: u / (1 + u * u)) if tan else (lambda u: 1 / (1 + u * u))

    entry = {"alpha": alpha, "alpha_p": alpha_p, "theta_lo": theta_lo, "theta_hi": theta_hi}
    for name, orders, tan in (("plain", PLAIN, False), ("tan", TAN, True)):
        values = {}
        for n in orders:
            values[str(n)], scales[name, n] = kept(f"{name}[{n}]", lambda u, n=n, w=weight(tan): p(u) ** n * w(u))
        entry[name] = {n: v for n, v in values.items() if v is not None}
    for name, s, tan in ROWS:
        family = "tan" if tan else "plain"
        values = {}
        for n in ORDERS:
            scale = mp.fsum(mp.binomial(n, m) * a ** (n - m) * scales[family, m - s] for m in range(n + 1))
            values[str(n)], _ = kept(
                f"{name}[{n}]",
                lambda u, n=n, s=s, w=weight(tan): (ap * ap * (1 + u * u) / (p(u) + a)) ** n * p(u) ** -s * w(u),
                scale,
            )
        entry[name] = {n: v for n, v in values.items() if v is not None}
    if alpha != 0.0:
        # cos = 1/sqrt(1+u^2), Delta = p cos, log term 2 log(alpha cos / (Delta + alpha'))
        def log_term(u):
            c = 1 / mp.sqrt(1 + u * u)
            return 2 * mp.log(a * c / (p(u) * c + ap))

        entry["lc"] = kept("lc", lambda u: log_term(u) / (1 + u * u) ** 1.5)[0]
        entry["ls"] = kept("ls", lambda u: log_term(u) * u / (1 + u * u) ** 1.5)[0]
    return entry, dropped


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT)
    ap.add_argument("--dps", type=int, default=40, help="mpmath working digits")
    args = ap.parse_args()
    mp.mp.dps = args.dps
    cases = [(alpha, None, lo, hi) for alpha in ALPHAS for lo, hi in RANGES] + [SLIVER]
    entries = []
    t0 = time.perf_counter()
    for alpha, alpha_p, lo, hi in cases:
        entry, dropped = case(alpha, alpha_p, lo, hi)
        entries.append(entry)
        note = f", dropped {', '.join(dropped)}" if dropped else ""
        print(f"alpha {alpha:g} alpha' {alpha_p} [{lo:.6g}, {hi:.6g}]: {time.perf_counter() - t0:.0f} s{note}", flush=True)
    about = (
        "mpmath reference for elemints.build_table, written by bench/elem_reference.py "
        f"at {args.dps} digits.  Per entry: plain[n] and tan[n] keyed by n, lc, ls, "
        "each as [value, integral of |integrand|], and the rows P0 .. P3, T0, T1 keyed "
        "by n = 0 .. 17, each as [value, integral of (p + alpha)^n p^-s [|tan|]]; "
        "alpha_p, when not null, is passed to "
        "build_table with alpha = 1.0, and mpmath used alpha = sqrt(1 - alpha_p^2)."
    )
    args.out.write_text(json.dumps({"about": about, "entries": entries}, indent=1) + "\n")


if __name__ == "__main__":
    main()
