"""Expansion-based evaluation of panel integrals on a reference triangle.

The Helmholtz kernel is written exp(jk|z|) exp(jk(R - |z|))/R and the
second exponential replaced by the economized polynomial
sum_q e_q (k(R - |z|))^q.  Term-by-term radial integration then leaves
one-dimensional angle integrals that reduce to the elementary tables:

    I0' = sum_q e_q K_{q,0},   Ix' = sum_q e_q K_{q,x},   Iy' = ...,

with K_{q,0} = S(kS)^q/(q+1) * integral (Delta/cos - alpha)^{q+1} dtheta
and the x/y terms adding the recursive integrals I_{q,c} and I_{q,s} of
J_q against cos and sin.  z-derivatives follow by differentiating each
term; the second z-derivative (hypersingular term) is provided for the
zeroth-order integral only.

``k_terms`` computes the primed sums in one pass over the orders, on
Python floats: it carries the J recursion, forms each order's terms and
adds them times e_q, so no per-order table is built.  ``j_chain`` and
``hypersingular`` write the same recursion and hypersingular term out per
order, as arrays; production does not call them, and the tests check
them against their defining integrals and the pass against them.

Sign convention: formulas use |z| with the upper sign for z > 0; z = 0
returns the one-sided limit from positive z.  All values exclude the
1/(4 pi) of the free-space Green's function (GREEN_PREFACTOR).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .elemints import ElemTable, build_table
from .expapprox import ExpApprox
from .geometry import RefGeom

# Multiply returned values by this to obtain integrals of the Green's
# function e^{jkR}/(4 pi R) instead of e^{jkR}/R.
GREEN_PREFACTOR = 1.0 / (4.0 * math.pi)


def _entry(i: int) -> property:
    """Entry i of ``self.values`` (None past its end), readable and writable."""

    def get(self):
        return self.values[i] if i < len(self.values) else None

    def put(self, value) -> None:
        self.values[i] = value

    return property(get, put)


# Component order of PanelIntegrals.values.
COMPONENTS = ("i0", "ix", "iy", "di0_dn", "dix_dn", "diy_dn", "d2i0_dn2")


@dataclass(eq=False, slots=True)
class PanelIntegrals:
    """Integrals of e^{jkR}/R weighted by {1, x, y} and normal derivatives.

    ``values`` is one complex vector in COMPONENTS order, with 7 entries
    when the hypersingular term was asked for and 6 otherwise (then
    ``d2i0_dn2`` is None); each component name reads and writes its entry.
    Normal derivative = -d/dz with the element normal along +z; values at
    z = 0 are one-sided limits from z > 0.  The 1/(4 pi) of the Green's
    function is excluded throughout.
    """

    values: np.ndarray
    i0 = _entry(0)
    ix = _entry(1)
    iy = _entry(2)
    di0_dn = _entry(3)
    dix_dn = _entry(4)
    diy_dn = _entry(5)
    d2i0_dn2 = _entry(6)


@functools.lru_cache(maxsize=32)
def _chain_ratios(q_max: int) -> tuple[tuple[float, float, float], ...]:
    """(2q+3)/(q+2), (q+1)/(q+2) and 1/(2(q+2)) for the steps q = 0 .. q_max - 1 of j_chain."""
    return tuple(((2 * q + 3) / (q + 2), (q + 1) / (q + 2), 1 / (2 * (q + 2))) for q in range(q_max))


def j_chain(geom: RefGeom, z: float, k: float, q_max: int, table: ElemTable) -> np.ndarray:
    """I_{q,c}, I_{q,s} and z-derivatives by upward recursion.

    Returns the rows (I_c, I_s, dI_c/dz, dI_s/dz) of one (4, q_max + 1)
    array.  This is the per-order reference form of the recursion that
    k_terms carries inline; production runs k_terms' pass.

    Seeds:  I_{0,c} = (s/2) Theta + (|z|/4) L_c  (and the log-cos analogue
    for I_{0,s}); each later order adds an elementary integral of
    (Delta/cos - alpha)^{q+1} and subtracts k|z|(2q+3)/(q+2) times the
    previous order.  The derivative seeds are +/-(L/4 + (s/2S) * integral
    of {cos, sin}/Delta).  The recursion is sequential and short, so it
    runs on floats, with its per-order ratios cached per q_max and
    (kS)^(q+1) kept as a running product.
    """
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    kS = k * S
    kaz = k * az
    p_m1, p_0 = table.plain[2:4]
    t_m1, t_0 = table.tan[:2]
    # binomial sums of order q + 1 at s = 0, 1, indexed [q]
    bp, bp1, _, _, bt, bt1 = table.binom[:, 1 : q_max + 1].tolist()
    c = 0.5 * s * p_0 + 0.25 * az * table.lc
    sn = 0.5 * s * t_0 + 0.25 * az * table.ls
    dc = sigma * (0.25 * table.lc + 0.5 * (s / S) * p_m1)
    ds = sigma * (0.25 * table.ls + 0.5 * (s / S) * t_m1)
    jc, js, djc, djs = [c], [sn], [dc], [ds]
    dsrc0 = -sigma * 0.5 * (s / S)
    kSq1 = 1.0
    for (fac, ratio, half), bp_q, bp1_q, bt_q, bt1_q in zip(_chain_ratios(q_max), bp, bp1, bt, bt1):
        kf = kaz * fac
        sfk = sigma * fac * k
        kSq1 *= kS
        src = s * kSq1 * half
        dsrc = dsrc0 * kSq1 * ratio
        c, sn, dc, ds = (
            src * bp_q - kf * c,
            src * bt_q - kf * sn,
            dsrc * bp1_q - sfk * c - kf * dc,
            dsrc * bt1_q - sfk * sn - kf * ds,
        )
        jc.append(c)
        js.append(sn)
        djc.append(dc)
        djs.append(ds)
    return np.array([jc, js, djc, djs])


def hypersingular(geom: RefGeom, k: float, q_max: int, table: ElemTable) -> np.ndarray:
    """Second z-derivatives of K_{q,0} (constant-element hypersingular term).

    The per-order reference form of the d2K_{q,0} term that k_terms forms
    inline, one array over q = 0 .. q_max; production runs k_terms' pass.
    """
    q = np.arange(q_max + 1.0)
    b = table.binom[:, 1 : q_max + 2]
    return (k * geom.S) ** q / geom.S * (geom.alpha * b[3] + (q + 1) * b[2])


def k_terms(geom: RefGeom, z: float, k: float, table: ElemTable, e: Sequence[complex]) -> list[complex]:
    """The primed sums I' = sum_q e_q K_q, q = 0 .. len(e) - 1, in one pass.

    Returns [I0', Ix', Iy', dI0'/dz, dIx'/dz, dIy'/dz, d2I0'/dz2].  One
    loop over the orders, on Python floats, carries j_chain's recursion
    for (I_c, I_s, dI_c/dz, dI_s/dz), forms each term from the rows of
    binomial sums B of order q + 1 (p = (kS)^q B_plain[0],
    p1 = (kS)^q (q+1) B_plain[1], t and t1 likewise from the tan family),

        K0  = S p / (q+1)         Kx  = (sS p + 2|z| I_c) / (q+2)
        dK0 = -sigma p1 / (q+1)   dKx = (-sigma s p1 + 2 sigma I_c + 2|z| dI_c) / (q+2)
        d2K0 = (kS)^q / S (alpha B_plain[3] + (q+1) B_plain[2]),

    Ky and dKy likewise from t, t1, I_s and dI_s, and adds each term times
    e_q to its sum; no per-order table is built.  ``table`` must reach
    order len(e).  j_chain and hypersingular are the same recursion and
    term written per order.
    """
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    kS = k * S
    kaz = k * az
    sS, az2, sig2, msig, msig_s = s * S, 2.0 * az, 2.0 * sigma, -sigma, -sigma * s
    alpha = geom.alpha
    p_m1, p_0 = table.plain[2:4]
    t_m1, t_0 = table.tan[:2]
    # binomial sums of order q + 1, indexed [row][q]
    bp, bp1, b2, b3, bt, bt1 = table.binom[:, 1 : len(e) + 1].tolist()
    c = 0.5 * s * p_0 + 0.25 * az * table.lc
    sn = 0.5 * s * t_0 + 0.25 * az * table.ls
    dc = sigma * (0.25 * table.lc + 0.5 * (s / S) * p_m1)
    ds = sigma * (0.25 * table.ls + 0.5 * (s / S) * t_m1)
    dsrc0 = -sigma * 0.5 * (s / S)
    kSq = 1.0
    i0 = ix = iy = d0 = dx = dy = d2 = 0j
    for q1, e_q, (fac, ratio, half), bp_q, bp1_q, b2_q, b3_q, bt_q, bt1_q in zip(
        itertools.count(1.0), e, _chain_ratios(len(e)), bp, bp1, b2, b3, bt, bt1
    ):
        q2 = q1 + 1.0
        p = bp_q * kSq
        t = bt_q * kSq
        p1 = bp1_q * (kSq * q1)
        t1 = bt1_q * (kSq * q1)
        i0 += e_q * (S * p / q1)
        ix += e_q * ((sS * p + az2 * c) / q2)
        iy += e_q * ((sS * t + az2 * sn) / q2)
        d0 += e_q * (msig * p1 / q1)
        dx += e_q * ((msig_s * p1 + sig2 * c + az2 * dc) / q2)
        dy += e_q * ((msig_s * t1 + sig2 * sn + az2 * ds) / q2)
        d2 += e_q * (kSq / S * (alpha * b3_q + q1 * b2_q))
        # j_chain's step to order q + 1 (one step past the last order is unused)
        kf = kaz * fac
        sfk = sigma * fac * k
        kSq *= kS
        src = s * kSq * half
        dsrc = dsrc0 * kSq * ratio
        c, sn, dc, ds = (
            src * bp_q - kf * c,
            src * bt_q - kf * sn,
            dsrc * bp1_q - sfk * c - kf * dc,
            dsrc * bt1_q - sfk * sn - kf * ds,
        )
    return [i0, ix, iy, d0, dx, dy, d2]


def assemble(z: float, k: float, sums: list[complex]) -> list[complex]:
    """Apply exp(jk|z|) and its z-derivatives to k_terms' sums; all seven, in COMPONENTS order.

    Linear in the sums and fixed by z and k, so the engine applies it once, to the fan's total."""
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    i0p, ixp, iyp, di0p, dixp, diyp, d2p = sums
    pref = cmath.exp(1j * k * az)
    jk = 1j * k
    return [
        pref * i0p,
        pref * ixp,
        pref * iyp,
        -(sigma * jk * pref * i0p + pref * di0p),
        -(sigma * jk * pref * ixp + pref * dixp),
        -(sigma * jk * pref * iyp + pref * diyp),
        pref * (-(k * k) * i0p + 2.0 * sigma * jk * di0p + d2p),
    ]


def evaluate_ref(geom: RefGeom, z: float, k: float, approx: ExpApprox) -> list[complex]:
    """k_terms' sums on one reference triangle, before ``assemble``.

    The expansion runs to order ``approx.q``, with the coefficients
    ``approx.coeffs`` as they are cached; the sums come as a list of all
    seven components in COMPONENTS order.  The x/y components are in the
    reference frame (x along the perpendicular-foot direction); callers
    sign and rotate each subtriangle's sums into the element frame, add
    them, and apply ``assemble``, which commutes with the rotation, once.
    """
    table = build_table(
        geom.alpha, geom.theta_lo, geom.theta_hi, approx.q + 1, alpha_p=geom.alpha_p
    )
    return k_terms(geom, z, k, table, approx.coeffs)
