"""The edge formulas of ``numquad.adaptive_oracle``, the independent reference.

``edge_integrand`` evaluates the integrands of the oracle's one adaptive
pass over the u-ranges of a triangle's edges, and ``edge_line_moment`` the
closed-form x/y moments of an edge on its own line in the plane.  Both
share nothing with the expansion, the recursions or the signed fan of
``geometry.walk``.  ``adaptive_oracle`` itself stays in ``numquad``,
which binds both names, while perfbench's tracer looks it up there.
"""

from __future__ import annotations

import math

import numpy as np

# 1 / (n + 2)! for n = 13 .. 0, the series of (e^y - 1 - y) / y^2 to eps / 30 at |y| < 1/2
_LINE_SERIES = [1.0 / math.factorial(n + 2) for n in range(13, -1, -1)]


def edge_line_moment(s: float, k: float) -> complex:
    """int_0^s (e^{jk|t|} - 1) / (jk) dt = sgn(s) s^2 [2 sin^2(x/2) + j (x - sin x)] / x^2, x = k|s|.

    Below x = 1/2, where x - sin x cancels, s |s| sum_n (jx)^n / (n + 2)!
    (s |s| / 2 at k = 0); above, s / k [2 sin^2(x/2) / x + j (1 - sin(x) / x)].
    """
    x = k * abs(s)
    if x < 0.5:
        return s * abs(s) * complex(np.polyval(_LINE_SERIES, 1j * x))
    half = math.sin(0.5 * x)
    return s / k * complex(2.0 * half * (half / x), 1.0 - math.sin(x) / x)


def edge_integrand(x, starts, table, z: float, k: float, want_xy: bool, want_hyper: bool) -> np.ndarray:
    """The integrands of ``numquad.adaptive_oracle`` at abscissae x of its u-ranges laid end to end.

    Range i runs from ``starts[i - 1]`` (0 for i = 0) to ``starts[i]``;
    ``table`` (7, ranges) holds per range the shift from x to u, h, 2h,
    h - |z|, d (0 on a range of moments only) and nu.  Returns a
    (len(x), 7) complex block with ``want_hyper``, (len(x), 6) without:
    column c is the term of component c in ``adaptive_oracle``'s
    docstring times R = ds / du, written into one ``np.empty`` block
    through ``out=``, with no temporary per column.  The columns it does
    not form, the x/y entries without ``want_xy`` and their normal
    derivatives at z = 0, are set to 0.  R and D = R - |z| are h and
    h - |z| = d^2 / (h + |z|) plus h (cosh u - 1) = 2h sinh(u/2)^2, which
    keeps their digits at small |u|; E = (sin(a) / a) e^{ja}, a = kD / 2,
    from one cosine and one sine; dI0/dn and the moments' derivatives
    share sigma (1 - jk|z| E) (z = sigma |z|).  Each term is a product of
    ratios, so nothing cancels or overflows far above a panel, up to
    ``geometry.Z_MAX``.
    """
    az, sigma = abs(z), (1.0 if z >= 0.0 else -1.0)
    shift, h, h2, h_z, d, nu_x, nu_y = table.take(starts.searchsorted(x, "right"), axis=1)
    hmc = np.sinh(0.5 * (x + shift))
    hmc *= hmc * h2  # h (cosh u - 1) = 2 h sinh(u / 2)^2
    R, D = h + hmc, h_z + hmc
    r_z = R + az
    dq = d / r_z  # at most 1 in size, as is d / R: 0 on a range of moments only, however small R is
    a = 0.5 * k * D
    ph = np.empty(len(x), dtype=complex)
    np.cos(a, out=ph.real)
    np.sin(a, out=ph.imag)
    E = np.divide(ph.imag, a, out=np.ones(len(x)), where=a != 0.0) * ph
    out = np.empty((len(x), 7 if want_hyper else 6), dtype=complex)
    er = E * R
    np.multiply(dq, er, out=out[:, 0])
    p = sigma - (sigma * 1j * k * az) * E
    np.multiply(dq, p, out=out[:, 3])
    if want_xy:
        moment = D * er
        np.multiply(nu_x, moment, out=out[:, 1])
        np.multiply(nu_y, moment, out=out[:, 2])
    else:
        out[:, 1:3] = 0.0
    if want_xy and z != 0.0:
        dmoment = D * p
        np.multiply(nu_x, dmoment, out=out[:, 4])
        np.multiply(nu_y, dmoment, out=out[:, 5])
    else:
        out[:, 4:6] = 0.0
    if want_hyper:  # d / R times jk (jk E |z|^2 / (R + |z|) - 1) + e^{jkD} / R
        t = ph * ph / R
        t -= 1j * k + (k * k * az) * (az / r_z) * E
        np.multiply(d / R, t, out=out[:, 6])
    return out
