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

Sign convention: formulas use |z| with the upper sign for z > 0; z = 0
returns the one-sided limit from positive z.  All values exclude the
1/(4 pi) of the free-space Green's function (GREEN_PREFACTOR).
"""

from __future__ import annotations

import cmath
import functools
import math
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


@dataclass(eq=False, slots=True)
class KTerms:
    """Per-order expansion terms and their z-derivatives, q = 0 .. Q.

    One (6, Q + 1) array, or (7, Q + 1) with the hypersingular row; its
    rows are read as ``k0``, ``kx``, ``ky``, ``dk0``, ``dkx``, ``dky`` and
    ``d2k0`` (None without the hypersingular row).
    """

    values: np.ndarray
    k0 = _entry(0)
    kx = _entry(1)
    ky = _entry(2)
    dk0 = _entry(3)
    dkx = _entry(4)
    dky = _entry(5)
    d2k0 = _entry(6)


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
def _orders(q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-order rows for q = 0 .. q_max, as floats: q itself, the factors
    (1, q + 1) of k_terms' s = 0 and s = 1 sources, and its six row divisors."""
    q = np.arange(q_max + 1.0)
    return q, np.stack([q**0, q + 1]), np.stack([q + 1, q + 2, q + 2, q + 1, q + 2, q + 2])


@functools.lru_cache(maxsize=32)
def _chain_ratios(q_max: int) -> tuple[tuple[float, float, float], ...]:
    """(2q+3)/(q+2), (q+1)/(q+2) and 1/(2(q+2)) for the steps q = 0 .. q_max - 1 of j_chain."""
    return tuple(((2 * q + 3) / (q + 2), (q + 1) / (q + 2), 1 / (2 * (q + 2))) for q in range(q_max))


# Flat index, into k_terms' (6, 8) coefficient matrix, of each coefficient
# it sets, in its order.  Rows are the K rows; the columns, the sources
# p = (kS)^q B_p[0], p1 = (kS)^q (q + 1) B_p[1], the same t and t1 of the
# tan table, then jc, js, djc and djs, where B[s] is the binomial sum of
# order q + 1 at s.
_K_FLAT = np.ravel_multi_index(tuple(zip(
    (0, 0),                  # k0:  S p
    (1, 0), (1, 4),          # kx:  sS p, 2|z| jc
    (2, 2), (2, 5),          # ky:  sS t, 2|z| js
    (3, 1),                  # dk0: -sigma p1
    (4, 1), (4, 4), (4, 6),  # dkx: -sigma s p1, 2 sigma jc, 2|z| djc
    (5, 3), (5, 5), (5, 7),  # dky: -sigma s t1, 2 sigma js, 2|z| djs
)), (6, 8))


def j_chain(geom: RefGeom, z: float, k: float, q_max: int, table: ElemTable) -> np.ndarray:
    """I_{q,c}, I_{q,s} and z-derivatives by upward recursion.

    Returns the rows (I_c, I_s, dI_c/dz, dI_s/dz) of one (4, q_max + 1)
    array.

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
    (p_m1, p_0), (t_m1, t_0) = table.powers[:, 2:4].tolist()
    # binomial sums of order q + 1 at s = 0, 1, indexed [q]
    (bp, bp1), (bt, bt1) = table.binom[:, :2, 1 : q_max + 1].tolist()
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
    """Second z-derivatives of K_{q,0} (constant-element hypersingular term)."""
    q, (_, q1), _ = _orders(q_max)
    b = table.binom[0, :, 1 : q_max + 2]
    return (k * geom.S) ** q / geom.S * (geom.alpha * b[3] + q1 * b[2])


def k_terms(
    geom: RefGeom,
    z: float,
    k: float,
    q_max: int,
    table: ElemTable,
    want_hyper: bool = False,
) -> KTerms:
    """All expansion terms K_{q,0/x/y} and z-derivatives for q = 0 .. q_max.

    Each row is a short sum of coefficient * source row (see _K_FLAT) over
    a per-order divisor:

        k0  = S p / (q+1)         kx  = (sS p + 2|z| jc) / (q+2)
        dk0 = -sigma p1 / (q+1)   dkx = (-sigma s p1 + 2 sigma jc + 2|z| djc) / (q+2)

    and ky, dky likewise from t, t1, js and djs, so all rows come from one
    coefficient matrix and one product.  The matrix is filled through the
    flat index ``_K_FLAT``, built at import, and the per-order rows come
    from ``_orders``, cached per q_max.
    """
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    j = j_chain(geom, z, k, q_max, table)
    q, factor, divisor = _orders(q_max)
    b = table.binom[:, :2, 1 : q_max + 2] * ((k * S) ** q * factor)
    coef = np.zeros((6, 8))
    coef.put(_K_FLAT, (
        S,                              # k0
        s * S, 2 * az,                  # kx
        s * S, 2 * az,                  # ky
        -sigma,                         # dk0
        -sigma * s, 2 * sigma, 2 * az,  # dkx
        -sigma * s, 2 * sigma, 2 * az,  # dky
    ))
    out = np.empty((7 if want_hyper else 6, q_max + 1))
    np.divide(coef @ np.concatenate([b.reshape(4, -1), j]), divisor, out=out[:6])
    if want_hyper:
        out[6] = hypersingular(geom, k, q_max, table)
    return KTerms(out)


def assemble(z: float, k: float, approx: ExpApprox, terms: KTerms) -> PanelIntegrals:
    """Sum the expansion with coefficients e_q and apply exp(jk|z|).

    One product of the term rows with e = ``approx.coeffs`` gives every
    primed sum.
    """
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    i0p, ixp, iyp, di0p, dixp, diyp, *d2p = (terms.values @ approx.coeffs).tolist()
    pref = cmath.exp(1j * k * az)
    jk = 1j * k
    out = [
        pref * i0p,
        pref * ixp,
        pref * iyp,
        -(sigma * jk * pref * i0p + pref * di0p),
        -(sigma * jk * pref * ixp + pref * dixp),
        -(sigma * jk * pref * iyp + pref * diyp),
    ]
    if d2p:
        out.append(pref * (-(k * k) * i0p + 2.0 * sigma * jk * di0p + d2p[0]))
    return PanelIntegrals(np.array(out))


def evaluate_ref(
    geom: RefGeom,
    z: float,
    k: float,
    approx: ExpApprox,
    want_hyper: bool = False,
) -> PanelIntegrals:
    """Full expansion evaluation on one reference triangle.

    The expansion runs to order ``approx.q``.  The x/y components are in
    the reference frame (x along the perpendicular-foot direction); callers
    rotate them by ``geom.psi`` into the element frame.
    """
    table = build_table(
        geom.alpha, geom.theta_lo, geom.theta_hi, approx.q + 1, alpha_p=geom.alpha_p
    )
    terms = k_terms(geom, z, k, approx.q, table, want_hyper=want_hyper)
    return assemble(z, k, approx, terms)
