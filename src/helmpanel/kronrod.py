"""Round-based adaptive Gauss-Kronrod (7-15) integration of vector integrands.

``gk_rounds`` is the one adaptive loop: each round integrates every
pending interval in one call of the integrand and bisects those whose
estimate exceeds their share of the tolerance (QUADPACK's estimate,
Piessens et al. 1983); its error estimate also carries the roundoff of
the sum.  ``numquad.quad_adaptive`` sums its pieces.
``antiderivative`` keeps them with their samples, so that the integral up
to any limit can be evaluated afterwards without calling the integrand
again: the x/y moments of ``numquad.adaptive_oracle`` use it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

# Gauss-Kronrod 7-15 pair on [-1, 1]: (node, Gauss weight, Kronrod weight),
# each the double nearest the exact value.  A 15-digit table's Kronrod
# weights sum to 2 - 6e-15: every value is then off by 13 machine epsilons
# of the integral of |f|, and |K15 - G7| never falls below 7e-15 of it, so
# a pass over a large integrand cannot converge at tol 1e-13.
_GK15 = (
    (+0.9491079123427585, 0.1294849661688697, 0.06309209262997856),
    (-0.9491079123427585, 0.1294849661688697, 0.06309209262997856),
    (+0.7415311855993945, 0.27970539148927664, 0.14065325971552592),
    (-0.7415311855993945, 0.27970539148927664, 0.14065325971552592),
    (+0.4058451513773972, 0.3818300505051189, 0.19035057806478542),
    (-0.4058451513773972, 0.3818300505051189, 0.19035057806478542),
    (0.0, 0.4179591836734694, 0.20948214108472782),
    (+0.9914553711208126, 0.0, 0.022935322010529224),
    (-0.9914553711208126, 0.0, 0.022935322010529224),
    (+0.8648644233597691, 0.0, 0.10479001032225019),
    (-0.8648644233597691, 0.0, 0.10479001032225019),
    (+0.5860872354676911, 0.0, 0.1690047266392679),
    (-0.5860872354676911, 0.0, 0.1690047266392679),
    (+0.20778495500789848, 0.0, 0.20443294007529889),
    (-0.20778495500789848, 0.0, 0.20443294007529889),
)
_GK_X = np.array([row[0] for row in _GK15])
_GK_WG = np.array([row[1] for row in _GK15])
_GK_WK = np.array([row[2] for row in _GK15])


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a small square matrix by Gauss-Jordan elimination with row pivoting.

    Written out rather than taken from ``np.linalg``: a first
    ``np.linalg.inv`` raises a process's peak RSS by about 0.3 MB.
    """
    n = len(a)
    m = np.concatenate([a, np.eye(n)], axis=1)
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(m[r, i]))
        m[[i, p]] = m[[p, i]]
        m[i] /= m[i, i]
        factor = m[:, i].copy()
        factor[i] = 0.0
        m -= factor[:, None] * m[i]
    return m[:, n:]


def _legval(u: float, c: list[float]) -> float:
    """sum_n c[n] P_n(u), len(c) >= 2, by the Clenshaw recurrence of ``numpy.polynomial.legendre.legval``."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * u * ((2 * nd - 1) / nd)
    return c0 + c1 * u


def _leg2poly(c: list[float]) -> list[float]:
    """Monomial coefficients of sum_n c[n] P_n(u), len(c) >= 2, as ``numpy.polynomial.legendre.leg2poly`` runs it."""
    c0, c1 = [c[-2]], [c[-1]]
    for i in range(len(c) - 1, 1, -1):
        up = [v * (2 * i - 1) / i for v in [0.0] + c1]  # u c1 (2i - 1) / i
        low = [c[i - 2] - c1[0] * (i - 1) / i] + [-(v * (i - 1) / i) for v in c1[1:]]
        c0, c1 = low, [a + b for a, b in zip(c0, up)] + up[len(c0) :]
    up = [0.0] + c1
    return [a + b for a, b in zip(c0, up)] + up[len(c0) :]


@lru_cache(maxsize=None)
def _interp_tables():
    """Tables for integrating the interpolant of a GK15 piece's samples y.

    With u in [-1, 1] the piece's local variable and Q_n(u) the integral
    of P_n from -1 to u, they are:

    - ``coef`` (15, 15): the Legendre coefficients of the interpolant
      through the 15 nodes are ``coef @ y``;
    - ``qmon`` (16, 15): monomial coefficients of Q_0 .. Q_14, so that
      Q_n(u) = sum_i qmon[i, n] u^i;
    - ``tail``: ``coef``'s last two rows and Q_13, Q_14 at the nodes (15,
      2), for ``gk15``'s estimate of integrals that end inside a piece.

    Built on first use, so that importing the module builds nothing, on
    Python floats: the Legendre values at the nodes by the three-term
    recurrence, Q_n = (P_(n+1) - P_(n-1)) / (2n + 1) with the constant
    that makes Q_n(-1) = 0, and its monomials and values by Clenshaw's
    recurrence.  These are the operations ``numpy.polynomial.legendre``'s
    ``legvander``, ``legint``, ``leg2poly`` and ``legval`` perform, in
    their order, so the tables equal theirs bit for bit (a test holds
    them to it) without importing ``numpy.polynomial``.
    """
    nodes = _GK_X.tolist()
    vander = []  # P_0 .. P_14 at each node
    for u in nodes:
        p = [1.0, u]
        for i in range(2, 15):
            p.append((p[i - 1] * u * (2 * i - 1) - p[i - 2] * (i - 1)) / i)
        vander.append(p)
    coef = _inverse(np.array(vander))
    qleg = []  # Q_0 .. Q_14 as Legendre series of 16 terms
    for n in range(15):
        q = [0.0] * 16
        q[n + 1] = 1.0 / (2 * n + 1)
        if n >= 2:  # Q_1's P_0 term, like Q_0's, is left to the constant
            q[n - 1] = -q[n + 1]
        q[0] = 0.0 - _legval(-1.0, q)
        qleg.append(q)
    qmon = np.zeros((16, 15))
    for n, q in enumerate(qleg):
        qmon[: n + 2, n] = _leg2poly(q[: n + 2])
    tail = coef[13:], np.array([[_legval(u, qleg[13]), _legval(u, qleg[14])] for u in nodes])
    for a in (coef, qmon, *tail):
        a.flags.writeable = False  # cached and shared
    return coef, qmon, tail


def gk15(f, lo: np.ndarray, hi: np.ndarray, tail=None):
    """GK15 values and error estimates on the intervals [lo_i, hi_i].

    One call of ``f`` on all 15 * len(lo) abscissae.  Returns the K15
    values (intervals, ncomp), per interval the largest component of the
    QUADPACK-style estimate, and the samples (intervals, 15, ncomp).  The
    estimate is |K15 - G7| scaled by the interval's deviation-from-mean
    integral, so that smooth intervals are not held at the raw
    difference's roundoff floor.  With ``tail`` (from ``_interp_tables``)
    it is at least the largest integral, from the left end to a node, of
    the interpolant's two highest Legendre terms, unscaled: the error of
    the interpolant's integrals that end inside the interval.  A sample
    that is not finite gives an estimate that is not finite, without a
    warning (0 inf, inf - inf), and ``gk_rounds`` ends the pass there.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_X
    y = np.asarray(f(x.ravel())).reshape(len(lo), len(_GK_X), -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sk = _GK_WK @ y
        k15 = half[:, None] * sk
        g7 = half[:, None] * (_GK_WG @ y)
        # the Kronrod weights sum to 2, so sk / 2 is the mean of f
        resasc = half[:, None] * (_GK_WK @ np.abs(y - 0.5 * sk[:, None, :]))
        e = np.abs(k15 - g7)
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5),  # not taken where resasc is 0 or NaN
            e,
        )
        if tail is not None:
            (r13, r14), q = tail
            top = np.abs(q[:, :1, None] * (r13 @ y) + q[:, 1:, None] * (r14 @ y))
            scaled = np.maximum(scaled, half[:, None] * np.max(top, axis=0))
    return k15, np.max(scaled, axis=1), y


# roundoff of a pass's values per unit of its integral of |f|, per
# component.  Against 34-digit references on 47 random oracle inputs the
# angle integrals from the oracle's start stay within 3.2 machine
# epsilons, from four other starts within 8 but for one small d2I0/dn2
# whose integrand cancels (17), and the radial moments within 1
_ROUNDOFF = 16.0 * sys.float_info.epsilon


def gk_rounds(f, lo: np.ndarray, hi: np.ndarray, tol: float, max_rounds: int, max_added: int, tail=None):
    """Round-based adaptive GK15 over the intervals [lo_i, hi_i].

    Each round integrates every pending interval in one ``f`` call and
    bisects those whose estimate exceeds tol * width / total width.  The
    pass has converged once none does, or once the accepted plus pending
    estimate is within tol: below the roundoff floor the per-width share
    can never be met.  When ``max_rounds`` rounds are spent, or bisecting
    would add more than ``max_added`` intervals to the starting ones, the
    pending intervals count as they are and the pass has not converged,
    as it has not, at once, when that estimate is not finite.
    With ``tail`` (as in ``gk15``) the estimate also covers integrals
    that end at a node, and the samples of the final intervals are kept.
    Returns (left ends, K15 values, samples or None) of the final
    intervals, their summed error estimate plus the roundoff of their sum
    (``_ROUNDOFF`` times the largest component's K15 integral of |f|,
    which bisection cannot reduce and the convergence tests leave out),
    and the convergence flag.
    """
    total = float(np.sum(np.abs(hi - lo)))
    per_width = tol / total if total > 0.0 else 0.0
    done_lo, done_v, done_y, error, added, mass = [], [], [], 0.0, 0, 0.0
    for rounds in range(1, max_rounds + 1):
        v, e, y = gk15(f, lo, hi, tail)
        split = e > per_width * np.abs(hi - lo)
        n_split = np.count_nonzero(split)
        estimate = error + float(np.sum(e))
        finite = math.isfinite(estimate)
        converged = finite and bool(n_split == 0 or estimate <= tol)
        if converged or not finite or rounds == max_rounds or added + n_split > max_added:
            split[:] = False
        done = ~split
        done_lo.append(lo[done])
        done_v.append(v[done])
        if tail is not None:
            done_y.append(y[done])
        error += float(np.sum(e[done]))
        # K15 integral of |f| over the accepted intervals, per component
        mass = mass + np.sum(0.5 * np.abs(hi - lo)[done, None] * (_GK_WK @ np.abs(y[done])), axis=0)
        if not split.any():
            break
        added += n_split
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    samples = np.concatenate(done_y) if done_y else None
    error += _ROUNDOFF * float(np.max(mass))
    return np.concatenate(done_lo), np.concatenate(done_v), samples, error, converged


# limits evaluated together by an ``antiderivative``: a block gathers 16
# coefficients per limit and component (64 KB for the oracle's x/y
# moments), which bounds the peak memory of a round with many limits
_BLOCK = 128


def antiderivative(f, edges: np.ndarray, tol: float, max_rounds: int, max_added: int):
    """One adaptive pass of ``f`` over [edges[0], edges[-1]], kept for evaluation at any limit.

    ``edges`` cut the range into the starting intervals of one
    ``gk_rounds`` pass, whose estimate also covers the integral from each
    piece's left end to each of its nodes (``_interp_tables``' ``tail``).
    Returns (F, error_estimate, converged).  F maps limits tau in
    [edges[0], edges[-1]] to int_{edges[0]}^tau f, (len(tau), ncomp): the
    K15 sums of the whole pieces below tau plus the integral of the
    15-node interpolant of the piece holding tau, up to tau.  That
    interpolant integrates to the K15 value over its whole piece, so a
    limit on a piece end gets the K15 sums alone; a limit beyond the last
    edge gets the value at it.  The estimate is ``gk_rounds``': the summed
    error of all pieces, which bounds the error of every value, plus their
    roundoff.  When ``max_rounds`` rounds are
    spent, or bisection would add more than ``max_added`` intervals, the
    pending pieces are kept as they are and ``converged`` is False.
    """
    coef, qmon, tail = _interp_tables()
    lo, v, y, error, converged = gk_rounds(f, edges[:-1], edges[1:], tol, max_rounds, max_added, tail)
    # a Python sort of the pieces: NumPy's sort kernels would map about
    # 0.25 MB of code into a process that sorts nothing else
    order = sorted(range(len(lo)), key=lo.__getitem__)
    ends = np.append(lo[order], edges[-1])
    cum = np.concatenate([np.zeros_like(v[:1]), np.cumsum(v[order], axis=0)])
    half = 0.5 * (ends[1:] - ends[:-1])
    # piece j's integral from its left end up to local u is sum_i u^i c[j, i]:
    # its interpolant's Legendre coefficients, then mapped to monomials by
    # qmon.  qmon's entries grow with n (to about 1e4), but the coefficients
    # they multiply decay on an accepted piece; qmon @ coef taken first
    # would cost about four digits.  Both products run on real columns
    # (complex values as pairs) in einsum: a matmul here would be the first
    # matrix-matrix product of an oracle-only process, 0.2 MB more peak RSS
    dtype = np.promote_types(y.dtype, float)
    cols = y[order].transpose(1, 0, 2).reshape(len(coef), -1).astype(dtype, order="C")
    mono = np.einsum("kn,nj->kj", qmon, np.einsum("ni,ij->nj", coef, cols.view(float)))
    c = half[:, None, None] * mono.view(dtype).reshape(len(qmon), *y.shape[::2]).transpose(1, 0, 2)

    def integral_to(tau: np.ndarray) -> np.ndarray:
        j = np.searchsorted(ends[1:], tau, "right")  # the last end at or below tau
        values = cum[j]
        inside = np.flatnonzero((tau > ends[j]) & (tau < ends[-1]))
        # in blocks, so that the gathered coefficients stay small however
        # many limits one call brings
        for start in range(0, inside.size, _BLOCK):
            b = inside[start : start + _BLOCK]
            jb = j[b]
            u = ((tau[b] - ends[jb]) / half[jb] - 1.0)[:, None]
            powers = np.ones_like(u)  # u^0 .. u^15 by doubling
            for _ in range(4):
                powers = np.concatenate([powers, powers * u], axis=1)
                u = u * u
            values[b] += (powers[:, None, :] @ c[jb])[:, 0]
        return values

    return integral_to, error, converged
