"""Expansion-based evaluation of panel integrals on a reference triangle.

The Helmholtz kernel is written exp(jk|z|) exp(jk(R - |z|))/R and the
second exponential replaced by the economized polynomial
sum_q e_q (k(R - |z|))^q.  Term-by-term radial integration then leaves
one-dimensional angle integrals that reduce to the elementary rows:

    I0' = sum_q e_q K_{q,0},   Ix' = sum_q e_q K_{q,x},   Iy' = ...,

with K_{q,0} = S(kS)^q/(q+1) * integral (Delta/cos - alpha)^{q+1} dtheta
and the x/y terms adding the recursive integrals I_{q,c} and I_{q,s} of
J_q against cos and sin.  z-derivatives follow by differentiating each
term; the second z-derivative (hypersingular term) is provided for the
zeroth-order integral only.

``k_terms`` computes the primed sums in one pass over the orders, on
Python floats.  It carries the J recursion in variables scaled by
(kS)^-q, whose step reads no k, folds (kS)^q into each order's
coefficient, and adds each order's terms times the coefficient's real
pair to 14 float sums, so no per-order table and no complex arithmetic
is needed in the loop.  ``j_chain`` and ``hypersingular`` write the same
recursion, unscaled, and the hypersingular term out per order, as
arrays; production does not call them, and the tests check them against
their defining integrals and the pass against them.

Sign convention: formulas use |z| with the upper sign for z > 0; z = 0
returns the one-sided limit from positive z.  All values exclude the
1/(4 pi) of the free-space Green's function (GREEN_PREFACTOR).
"""

from __future__ import annotations

import cmath
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


def _check_depth(table: ElemTable, orders: int) -> None:
    """Raise ValueError unless ``table`` has rows up to order ``orders``."""
    if len(table.rows) < orders:
        raise ValueError(f"table reaches order {len(table.rows)}; the expansion reads order {orders}")


def _j_seeds(geom: RefGeom, z: float, table: ElemTable) -> tuple[float, float, float, float, float, float, float]:
    """The J chain's order-0 state: (|z|, sigma, I_{0,c}, I_{0,s}, dI_{0,c}/dz, dI_{0,s}/dz, dsrc0).

    sigma is the sign of z (+1 at z = 0).  I_{0,c} = (s/2) Theta +
    (|z|/4) L_c, and the log-cos analogue for I_{0,s}; the derivative seeds
    are +/-(L/4 + (alpha'/2) * integral of {cos, sin}/Delta), with
    alpha' = s/S as ``geom.alpha_p`` holds it, and dsrc0 = -sigma alpha'/2
    is the derivative source's factor at order 0.
    """
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    s, ap, lc, ls = geom.s, geom.alpha_p, table.lc, table.ls
    (p_m1, p_0), (t_m1, t_0) = table.plain[2:4], table.tan
    return (az, sigma, 0.5 * s * p_0 + 0.25 * az * lc, 0.5 * s * t_0 + 0.25 * az * ls,
            sigma * (0.25 * lc + 0.5 * ap * p_m1), sigma * (0.25 * ls + 0.5 * ap * t_m1), -sigma * 0.5 * ap)


def j_chain(geom: RefGeom, z: float, k: float, q_max: int, table: ElemTable) -> np.ndarray:
    """I_{q,c}, I_{q,s} and z-derivatives by upward recursion.

    Returns the rows (I_c, I_s, dI_c/dz, dI_s/dz) of one (4, q_max + 1)
    array.  This is the per-order reference form, in unscaled variables,
    of the recursion that k_terms carries scaled; production runs k_terms'
    pass.  ``table`` must reach order q_max.

    It starts from ``_j_seeds``; each later order adds an elementary
    integral of (Delta/cos - alpha)^{q+1} and subtracts k|z|(2q+3)/(q+2)
    times the previous order.  The recursion is sequential and short, so
    it runs on floats, with (kS)^(q+1) kept as a running product.
    """
    _check_depth(table, q_max)
    s = geom.s
    az, sigma, c, sn, dc, ds, dsrc0 = _j_seeds(geom, z, table)
    kS = k * geom.S
    kaz = k * az
    jc, js, djc, djs = [c], [sn], [dc], [ds]
    kSq1 = 1.0
    # table.rows[q] is order q + 1; the plain and tan rows at s = 0, 1 feed the chain
    for q, (bp_q, bp1_q, _, _, bt_q, bt1_q) in zip(range(q_max), table.rows):
        fac, ratio, half = (2 * q + 3) / (q + 2), (q + 1) / (q + 2), 1 / (2 * (q + 2))
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
    b = np.array(table.rows[: q_max + 1]).T
    return (k * geom.S) ** q / geom.S * (geom.alpha * b[3] + (q + 1) * b[2])


def k_terms(geom: RefGeom, z: float, k: float, table: ElemTable, terms: Sequence[tuple[float, ...]]) -> list[complex]:
    """The primed sums I' = sum_q e_q K_q, q = 0 .. len(terms) - 1, in one pass.

    Returns [I0', Ix', Iy', dI0'/dz, dIx'/dz, dIy'/dz, d2I0'/dz2].
    ``terms`` holds one tuple per order (``ExpApprox.terms``:
    e_q's real pair and the order's factors), and ``table`` must reach
    order len(terms), or ValueError.  One loop over the orders, on Python
    floats, carries j_chain's recursion in the scaled variables
    A_q = I_{q,c} / (kS)^q and A'_q = (dI_{q,c}/dz) / (kS)^q, whose step
    reads no k (alpha = |z|/S):

        A_{q+1}  = s/(2(q+2)) P_0 - alpha (2q+3)/(q+2) A_q
        A'_{q+1} = -sigma s/(2S) (q+1)/(q+2) P_1 - sigma/S (2q+3)/(q+2) A_q
                   - alpha (2q+3)/(q+2) A'_q,

    B_q and B'_q likewise from I_{q,s} on T_0 and T_1, with P_s, T_s the
    table's rows at order q + 1 (``elemints``).  Each order's terms, less
    their factor (kS)^q,

        K0  = S P_0 / (q+1)             Kx  = (sS P_0 + 2|z| A_q) / (q+2)
        dK0 = -sigma P_1                dKx = (-sigma s (q+1) P_1 + 2 sigma A_q + 2|z| A'_q) / (q+2)
        d2K0 = (alpha P_3 + (q+1) P_2) / S,

    Ky and dKy likewise from T_0, T_1, B_q and B'_q, are added times the
    real pair of e_q (kS)^q to 14 float sums; S, -sigma and 1/S are
    applied to the K0, dK0 and d2K0 sums after the loop.  j_chain and
    hypersingular are the same recursion, unscaled, and term written per
    order.
    """
    _check_depth(table, len(terms))
    s, S = geom.s, geom.S
    az, sigma, c, sn, dc, ds, dsrc0 = _j_seeds(geom, z, table)
    alpha = geom.alpha
    kS = k * S
    sS, az2, sig2, msig_s, sig_S = s * S, 2.0 * az, 2.0 * sigma, -sigma * s, sigma / S
    kSq = 1.0  # (kS)^q; c, sn, dc, ds hold A_q, B_q, A'_q, B'_q (order 0: J_0 unscaled)
    i0r = i0i = ixr = ixi = iyr = iyi = d0r = d0i = dxr = dxi = dyr = dyi = d2r = d2i = 0.0
    for (er, ei, q1, iq2, fac, ratio, half), (bp, bp1, b2, b3, bt, bt1) in zip(terms, table.rows):
        er *= kSq
        ei *= kSq
        kSq *= kS
        a = bp / q1
        i0r += er * a
        i0i += ei * a
        a = (sS * bp + az2 * c) * iq2
        ixr += er * a
        ixi += ei * a
        a = (sS * bt + az2 * sn) * iq2
        iyr += er * a
        iyi += ei * a
        d0r += er * bp1
        d0i += ei * bp1
        a = (msig_s * q1 * bp1 + sig2 * c + az2 * dc) * iq2
        dxr += er * a
        dxi += ei * a
        a = (msig_s * q1 * bt1 + sig2 * sn + az2 * ds) * iq2
        dyr += er * a
        dyi += ei * a
        a = alpha * b3 + q1 * b2
        d2r += er * a
        d2i += ei * a
        # the scaled J step to order q + 1, dc and ds first since they read A_q and B_q
        # (the step past the last order is unused; skipping it measured no faster)
        af = alpha * fac
        sf = sig_S * fac
        src = s * half
        dsrc = dsrc0 * ratio
        dc = dsrc * bp1 - sf * c - af * dc
        ds = dsrc * bt1 - sf * sn - af * ds
        c = src * bp - af * c
        sn = src * bt - af * sn
    return [
        complex(S * i0r, S * i0i),
        complex(ixr, ixi),
        complex(iyr, iyi),
        complex(-sigma * d0r, -sigma * d0i),
        complex(dxr, dxi),
        complex(dyr, dyi),
        complex(d2r / S, d2i / S),
    ]


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

    The expansion runs to order ``approx.q``, with the per-order tuples
    ``approx.terms`` as they are cached; the sums come as a list of all
    seven components in COMPONENTS order.  The x/y components are in the
    reference frame (x along the perpendicular-foot direction); callers
    sign and rotate each subtriangle's sums into the element frame, add
    them, and apply ``assemble``, which commutes with the rotation, once.
    """
    table = build_table(geom.alpha, geom.theta_lo, geom.theta_hi, approx.q + 1, alpha_p=geom.alpha_p)
    return k_terms(geom, z, k, table, approx.terms)
