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
import math
from dataclasses import dataclass

import numpy as np

from .elemints import ElemTable, build_table
from .expapprox import ExpApprox
from .geometry import RefGeom

# Multiply returned values by this to obtain integrals of the Green's
# function e^{jkR}/(4 pi R) instead of e^{jkR}/R.
GREEN_PREFACTOR = 1.0 / (4.0 * math.pi)


@dataclass
class JTerms:
    """I_{q,c}, I_{q,s} and their z-derivatives, q = 0 .. Q."""

    jc: np.ndarray
    js: np.ndarray
    djc: np.ndarray
    djs: np.ndarray


@dataclass
class KTerms:
    """Per-order expansion terms and their z-derivatives, q = 0 .. Q."""

    k0: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    dk0: np.ndarray
    dkx: np.ndarray
    dky: np.ndarray
    d2k0: np.ndarray | None = None


@dataclass
class PanelIntegrals:
    """Integrals of e^{jkR}/R weighted by {1, x, y} and normal derivatives.

    Normal derivative = -d/dz with the element normal along +z; values at
    z = 0 are one-sided limits from z > 0.  The 1/(4 pi) of the Green's
    function is excluded throughout.
    """

    i0: complex
    ix: complex
    iy: complex
    di0_dn: complex
    dix_dn: complex
    diy_dn: complex
    d2i0_dn2: complex | None = None

    @classmethod
    def zero(cls, want_hyper: bool = False) -> "PanelIntegrals":
        return cls(0j, 0j, 0j, 0j, 0j, 0j, 0j if want_hyper else None)

    def __add__(self, other: "PanelIntegrals") -> "PanelIntegrals":
        hyper = None
        if self.d2i0_dn2 is not None and other.d2i0_dn2 is not None:
            hyper = self.d2i0_dn2 + other.d2i0_dn2
        return PanelIntegrals(
            self.i0 + other.i0,
            self.ix + other.ix,
            self.iy + other.iy,
            self.di0_dn + other.di0_dn,
            self.dix_dn + other.dix_dn,
            self.diy_dn + other.diy_dn,
            hyper,
        )

    def __rmul__(self, c) -> "PanelIntegrals":
        return PanelIntegrals(
            c * self.i0,
            c * self.ix,
            c * self.iy,
            c * self.di0_dn,
            c * self.dix_dn,
            c * self.diy_dn,
            c * self.d2i0_dn2 if self.d2i0_dn2 is not None else None,
        )

    def rotated(self, psi: float) -> "PanelIntegrals":
        """Rotate the in-plane (x, y) components by angle psi."""
        c, s = math.cos(psi), math.sin(psi)
        return PanelIntegrals(
            i0=self.i0,
            ix=c * self.ix - s * self.iy,
            iy=s * self.ix + c * self.iy,
            di0_dn=self.di0_dn,
            dix_dn=c * self.dix_dn - s * self.diy_dn,
            diy_dn=s * self.dix_dn + c * self.diy_dn,
            d2i0_dn2=self.d2i0_dn2,
        )


def j_chain(geom: RefGeom, z: float, k: float, q_max: int, table: ElemTable) -> JTerms:
    """I_{q,c}, I_{q,s} and z-derivatives by upward recursion.

    Seeds:  I_{0,c} = (s/2) Theta + (|z|/4) L_c  (and the log-cos analogue
    for I_{0,s}); each later order adds an elementary integral of
    (Delta/cos - alpha)^{q+1} and subtracts k|z|(2q+3)/(q+2) times the
    previous order.  The derivative seeds are +/-(L/4 + (s/2S) * integral
    of {cos, sin}/Delta).
    """
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    kS = k * S
    bp, bt = table.binom_plain, table.binom_tan
    jc = np.zeros(q_max + 1)
    js = np.zeros(q_max + 1)
    djc = np.zeros(q_max + 1)
    djs = np.zeros(q_max + 1)
    jc[0] = 0.5 * s * table.plain_pow(0) + 0.25 * az * table.lc
    js[0] = 0.5 * s * table.tan_pow(0) + 0.25 * az * table.ls
    djc[0] = sigma * (0.25 * table.lc + 0.5 * (s / S) * table.plain_pow(-1))
    djs[0] = sigma * (0.25 * table.ls + 0.5 * (s / S) * table.tan_pow(-1))
    for q in range(q_max):
        fac = (2 * q + 3) / (q + 2)
        src = s * kS ** (q + 1) / (2 * (q + 2))
        dsrc = -sigma * 0.5 * (s / S) * kS ** (q + 1) * (q + 1) / (q + 2)
        jc[q + 1] = src * bp[0, q + 1] - k * az * fac * jc[q]
        js[q + 1] = src * bt[0, q + 1] - k * az * fac * js[q]
        djc[q + 1] = dsrc * bp[1, q + 1] - sigma * fac * k * jc[q] - k * az * fac * djc[q]
        djs[q + 1] = dsrc * bt[1, q + 1] - sigma * fac * k * js[q] - k * az * fac * djs[q]
    return JTerms(jc=jc, js=js, djc=djc, djs=djs)


def hypersingular(geom: RefGeom, z: float, k: float, q_max: int, table: ElemTable) -> np.ndarray:
    """Second z-derivatives of K_{q,0} (constant-element hypersingular term)."""
    q = np.arange(q_max + 1)
    b = table.binom_plain[:, 1 : q_max + 2]
    return (k * geom.S) ** q / geom.S * (geom.alpha * b[3] + (q + 1) * b[2])


def k_terms(
    geom: RefGeom,
    z: float,
    k: float,
    q_max: int,
    table: ElemTable,
    want_hyper: bool = False,
) -> KTerms:
    """All expansion terms K_{q,0/x/y} and z-derivatives for q = 0 .. q_max."""
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    jt = j_chain(geom, z, k, q_max, table)
    q = np.arange(q_max + 1)
    kSq = (k * S) ** q
    bp, bp1 = table.binom_plain[:2, 1 : q_max + 2]
    bt, bt1 = table.binom_tan[:2, 1 : q_max + 2]
    return KTerms(
        k0=S * kSq / (q + 1) * bp,
        kx=s * S * kSq / (q + 2) * bp + 2 * az / (q + 2) * jt.jc,
        ky=s * S * kSq / (q + 2) * bt + 2 * az / (q + 2) * jt.js,
        dk0=-sigma * kSq * bp1,
        dkx=(
            -sigma * s * kSq * (q + 1) / (q + 2) * bp1
            + sigma * 2 / (q + 2) * jt.jc
            + 2 * az / (q + 2) * jt.djc
        ),
        dky=(
            -sigma * s * kSq * (q + 1) / (q + 2) * bt1
            + sigma * 2 / (q + 2) * jt.js
            + 2 * az / (q + 2) * jt.djs
        ),
        d2k0=hypersingular(geom, z, k, q_max, table) if want_hyper else None,
    )


def assemble(
    geom: RefGeom,
    z: float,
    k: float,
    approx: ExpApprox,
    terms: KTerms,
) -> PanelIntegrals:
    """Sum the expansion with coefficients e_q and apply exp(jk|z|).

    At k = 0 the kernel is exactly 1/R and the single coefficient e_0 = 1
    is used, which keeps the imaginary parts identically zero.
    """
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    if k == 0.0:
        e = np.array([1.0 + 0.0j])
    else:
        e = approx.coeffs
    n = min(len(e), len(terms.k0))
    e = e[:n]
    i0p = complex(np.dot(e, terms.k0[:n]))
    ixp = complex(np.dot(e, terms.kx[:n]))
    iyp = complex(np.dot(e, terms.ky[:n]))
    di0p = complex(np.dot(e, terms.dk0[:n]))
    dixp = complex(np.dot(e, terms.dkx[:n]))
    diyp = complex(np.dot(e, terms.dky[:n]))
    pref = cmath.exp(1j * k * az)
    jk = 1j * k
    di0_dz = sigma * jk * pref * i0p + pref * di0p
    dix_dz = sigma * jk * pref * ixp + pref * dixp
    diy_dz = sigma * jk * pref * iyp + pref * diyp
    d2 = None
    if terms.d2k0 is not None:
        d2i0p = complex(np.dot(e, terms.d2k0[:n]))
        d2 = pref * (-(k * k) * i0p + 2.0 * sigma * jk * di0p + d2i0p)
    return PanelIntegrals(
        i0=pref * i0p,
        ix=pref * ixp,
        iy=pref * iyp,
        di0_dn=-di0_dz,
        dix_dn=-dix_dz,
        diy_dn=-diy_dz,
        d2i0_dn2=d2,
    )


def evaluate_ref(
    geom: RefGeom,
    z: float,
    k: float,
    approx: ExpApprox,
    want_hyper: bool = False,
) -> PanelIntegrals:
    """Full expansion evaluation on one reference triangle.

    The x/y components are in the reference frame (x along the
    perpendicular-foot direction); callers rotate into the element frame.
    """
    q_max = 0 if k == 0.0 else approx.q
    table = build_table(
        geom.alpha, geom.theta_lo, geom.theta_hi, q_max + 2, alpha_p=geom.alpha_p
    )
    terms = k_terms(geom, z, k, q_max, table, want_hyper=want_hyper)
    return assemble(geom, z, k, approx, terms)
