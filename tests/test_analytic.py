"""Expansion terms and assembly against defining-integral oracles."""

import cmath
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from helmpanel.analytic import (
    COMPONENTS,
    GREEN_PREFACTOR,
    PanelIntegrals,
    assemble,
    evaluate_ref,
    hypersingular,
    j_chain,
    k_terms,
)
from helmpanel.elemints import build_table
from helmpanel.engine import EvalRequest, evaluate, sample_field_point, sample_triangle
from helmpanel.expapprox import DELTA_X_TIERS, EPS_TIERS, LAPLACE, economize, select_approx
from helmpanel.geometry import ref_params, to_local_frame, walk
from helmpanel.numquad import quad_adaptive

from helpers import canonical_sub, k_rows, radii, sub_area

RNG = np.random.default_rng(2718)


def ref_integrals(geom, z, k, approx) -> PanelIntegrals:
    """``evaluate_ref``'s sums through ``assemble``, read through PanelIntegrals' accessors."""
    return PanelIntegrals(np.array(assemble(z, k, evaluate_ref(geom, z, k, approx))))


def random_geom(rng, z_lo=0.05, z_hi=0.8):
    sub = canonical_sub(
        r1=float(rng.uniform(0.4, 1.4)),
        r2=float(rng.uniform(0.4, 1.4)),
        theta=float(rng.uniform(0.3, 2.4)),
    )
    z = float(rng.uniform(z_lo, z_hi)) * (1 if rng.uniform() < 0.5 else -1)
    return sub, z


def oracle_k_2d(geom, z, k, q, weight, tol=1e-13):
    """2-D quadrature of k^q (R-|z|)^q * weight(r, R, theta) over the triangle."""
    az = abs(z)

    def f_theta(ths):
        ths = np.atleast_1d(ths)
        out = np.empty((len(ths), 1))
        for i, th in enumerate(ths):
            rbar = geom.s / math.cos(th)

            def f_r(r):
                r = np.asarray(r)
                R = np.hypot(r, z)
                return ((k * (R - az)) ** q * weight(r, R, th))[:, None]

            v, _, _ = quad_adaptive(f_r, 0.0, rbar, tol * 0.05)
            out[i, 0] = v[0].real
        return out

    v, _, ok = quad_adaptive(f_theta, geom.theta_lo, geom.theta_hi, tol)
    assert ok
    return float(v[0].real)


def oracle_jq_theta(geom, z, k, q):
    """J_q(theta) from its defining radial integral (substituted form)."""
    az = abs(z)

    def jq(th):
        rbar = geom.s / math.cos(th)
        R_far = math.hypot(rbar, z)
        tau = math.sqrt(max(R_far - az, 0.0))
        if tau == 0.0:
            return 0.0

        def f(t):
            t = np.asarray(t)
            return ((t * t) ** (q + 0.5) * 2 * t)[:, None] * k**q

        # J_q = k^q int (t^2 - 2|z|)^{q+1/2} dt over [sqrt(2|z|), sqrt(R+|z|)];
        # substitute t^2 = u + 2|z| is avoided; integrate directly
        def g(t):
            t = np.asarray(t)
            return (np.maximum(t * t - 2 * az, 0.0) ** (q + 0.5))[:, None] * k**q

        v, _, _ = quad_adaptive(g, math.sqrt(2 * az), math.sqrt(R_far + az), 1e-13)
        return float(v[0].real)

    return jq


class TestKTerms:
    def setup_method(self):
        self.sub = canonical_sub(0.9, 0.7, 1.1)
        self.z = 0.5
        self.k = 1.0
        self.geom = ref_params(self.sub, self.z)
        self.table = build_table(
            self.geom.alpha, self.geom.theta_lo, self.geom.theta_hi, 10,
            alpha_p=self.geom.alpha_p,
        )
        self.kt = k_rows(self.geom, self.z, self.k, 8, self.table)

    def test_terms_match_2d_oracle(self):
        for q in range(0, 9, 2):
            o0 = oracle_k_2d(self.geom, self.z, self.k, q, lambda r, R, th: r / R)
            ox = oracle_k_2d(
                self.geom, self.z, self.k, q, lambda r, R, th: r * r / R * math.cos(th)
            )
            oy = oracle_k_2d(
                self.geom, self.z, self.k, q, lambda r, R, th: r * r / R * math.sin(th)
            )
            assert self.kt.k0[q] == pytest.approx(o0, abs=1e-11)
            assert self.kt.kx[q] == pytest.approx(ox, abs=1e-11)
            assert self.kt.ky[q] == pytest.approx(oy, abs=1e-11)

    def test_derivatives_match_finite_difference(self):
        h = 1e-5

        def kt_at(z):
            geom = ref_params(self.sub, z)
            table = build_table(
                geom.alpha, geom.theta_lo, geom.theta_hi, 10, alpha_p=geom.alpha_p
            )
            return k_rows(geom, z, self.k, 8, table)

        up, dn = kt_at(self.z + h), kt_at(self.z - h)
        for q in (0, 3, 7):
            for name in ("k0", "kx", "ky"):
                fd = (getattr(up, name)[q] - getattr(dn, name)[q]) / (2 * h)
                got = getattr(self.kt, "d" + name)[q]
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_laplace_vertex_case(self):
        # z = 0: K_{0,0} = s * [log(sec + tan)] over the angle range
        geom = ref_params(self.sub, 0.0)
        table = build_table(0.0, geom.theta_lo, geom.theta_hi, 4, alpha_p=1.0)
        kt = k_rows(geom, 0.0, 0.0, 0, table)
        closed = geom.s * (
            math.asinh(math.tan(geom.theta_hi)) - math.asinh(math.tan(geom.theta_lo))
        )
        assert kt.k0[0] == pytest.approx(closed, rel=1e-13)
        o = oracle_k_2d(geom, 0.0, 0.0, 0, lambda r, R, th: r / R)
        assert kt.k0[0] == pytest.approx(o, abs=1e-12)

    def test_far_field_limit(self):
        # K_{0,0} -> area / |z| as z -> infinity (k-independent term)
        sub = self.sub
        z = 1e3 * max(radii(sub))
        geom = ref_params(sub, z)
        table = build_table(
            geom.alpha, geom.theta_lo, geom.theta_hi, 4, alpha_p=geom.alpha_p
        )
        kt = k_rows(geom, z, 1e-3, 0, table)
        assert kt.k0[0] == pytest.approx(sub_area(sub) / z, rel=1e-6)

    def test_random_geometries_against_oracle(self):
        for _ in range(4):
            sub, z = random_geom(RNG)
            geom = ref_params(sub, z)
            k = float(RNG.uniform(0.3, 1.2))
            table = build_table(
                geom.alpha, geom.theta_lo, geom.theta_hi, 8, alpha_p=geom.alpha_p
            )
            kt = k_rows(geom, z, k, 6, table)
            for q in (0, 3, 6):
                o0 = oracle_k_2d(geom, z, k, q, lambda r, R, th: r / R)
                assert kt.k0[q] == pytest.approx(o0, abs=1e-11)


def reference_rows(geom, z, k, q_max, table):
    """K_q, q = 0 .. q_max, by the per-order formulas from j_chain, hypersingular and the table."""
    s, S = geom.s, geom.S
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    q = np.arange(q_max + 1.0)
    kSq = (k * S) ** q
    # rows at orders 1 .. q_max + 1
    bp, bp1, _, _, bt, bt1 = np.array(table.rows[: q_max + 1]).T
    p, t, p1, t1 = kSq * bp, kSq * bt, kSq * (q + 1) * bp1, kSq * (q + 1) * bt1
    jc, js, djc, djs = j_chain(geom, z, k, q_max, table)
    rows = [
        S * p / (q + 1),
        (s * S * p + 2 * az * jc) / (q + 2),
        (s * S * t + 2 * az * js) / (q + 2),
        -sigma * p1 / (q + 1),
        (-sigma * s * p1 + 2 * sigma * jc + 2 * az * djc) / (q + 2),
        (-sigma * s * t1 + 2 * sigma * js + 2 * az * djs) / (q + 2),
        hypersingular(geom, k, q_max, table),
    ]
    return np.array(rows)


def test_fused_pass_matches_per_order_rows():
    """k_terms' one pass against the per-order rows built from j_chain and hypersingular.

    Random subtriangles at z > 0, z < 0 and z = 0, for k > 0 and k = 0,
    all seven rows: each unit coefficient vector
    e = delta_q gives row q, and each production coefficient vector gives
    the e-weighted sum of the rows, both to 1e-14 (1 + |v|).
    """
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(24):
        sub, z = random_geom(rng, z_lo=1e-4, z_hi=0.8)
        if trial % 3 == 0:
            z = 0.0
        k = 0.0 if trial % 4 == 0 else float(rng.uniform(0.2, 1.2))
        geom = ref_params(sub, z)

        def table_to(q_max):
            return build_table(geom.alpha, geom.theta_lo, geom.theta_hi, q_max + 1, alpha_p=geom.alpha_p)

        if k == 0.0:
            approxes, q_max = [LAPLACE], 6
        else:
            approxes = [select_approx(k, max(radii(sub)), tol) for tol in (1e-6, 1e-9, 1e-12)]
            q_max = max(a.q for a in approxes)
        table = table_to(q_max)
        ref = reference_rows(geom, z, k, q_max, table)
        got = np.array(list(vars(k_rows(geom, z, k, q_max, table)).values()))
        assert got.shape == ref.shape == (7, q_max + 1)
        assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) <= 1e-14, trial
        for approx in approxes:
            sums = np.array(k_terms(geom, z, k, table_to(approx.q), approx.terms))
            want = ref[:, : approx.q + 1] @ approx.coeffs
            assert np.max(np.abs(sums - want) / (1 + np.abs(want))) <= 1e-14, (trial, approx.q)
            checked += 1
    assert checked >= 40


def assert_pass_matches_reference(geom, z, k, approx, bound=1e-14):
    """k_terms' scaled pass against the unscaled per-order rows of reference_rows.

    Each order's terms (``k_rows``, unit coefficients) and the e-weighted
    sum at ``approx``'s own coefficients, to ``bound`` (1 + |v|); returns
    the worst deviation seen.
    """
    q_max = approx.q
    table = build_table(geom.alpha, geom.theta_lo, geom.theta_hi, q_max + 1, alpha_p=geom.alpha_p)
    ref = reference_rows(geom, z, k, q_max, table)
    got = np.array(list(vars(k_rows(geom, z, k, q_max, table)).values()))
    dev = float(np.max(np.abs(got - ref) / (1 + np.abs(ref))))
    want = ref @ approx.coeffs
    sums = np.array(k_terms(geom, z, k, table, approx.terms))
    dev = max(dev, float(np.max(np.abs(sums - want) / (1 + np.abs(want)))))
    assert dev <= bound, (geom, z, k, approx.q)
    return dev


def mp_reference_rows(geom, z, k, q_max, table):
    """reference_rows' per-order formulas at 40 digits, from the same float table, as floats."""
    with mp.workdps(40):
        s, S, az, kk, alpha = (mp.mpf(v) for v in (geom.s, geom.S, abs(z), k, geom.alpha))
        sigma = 1 if z >= 0.0 else -1
        kS = kk * S
        p_m1, p_0 = (mp.mpf(v) for v in table.plain[2:4])
        t_m1, t_0 = (mp.mpf(v) for v in table.tan[:2])
        lc, ls = mp.mpf(table.lc), mp.mpf(table.ls)
        c, sn = s / 2 * p_0 + az / 4 * lc, s / 2 * t_0 + az / 4 * ls
        dc, ds = sigma * (lc / 4 + s / (2 * S) * p_m1), sigma * (ls / 4 + s / (2 * S) * t_m1)
        cols = []
        for q in range(q_max + 1):
            bp, bp1, b2, b3, bt, bt1 = (mp.mpf(v) for v in table.rows[q])
            kSq = kS**q
            p, t, p1, t1 = kSq * bp, kSq * bt, kSq * (q + 1) * bp1, kSq * (q + 1) * bt1
            cols.append([
                S * p / (q + 1),
                (s * S * p + 2 * az * c) / (q + 2),
                (s * S * t + 2 * az * sn) / (q + 2),
                -sigma * p1 / (q + 1),
                (-sigma * s * p1 + 2 * sigma * c + 2 * az * dc) / (q + 2),
                (-sigma * s * t1 + 2 * sigma * sn + 2 * az * ds) / (q + 2),
                kSq / S * (alpha * b3 + (q + 1) * b2),
            ])
            fac = mp.mpf(2 * q + 3) / (q + 2)
            src = s * kS ** (q + 1) / (2 * (q + 2))
            dsrc = -sigma * s / (2 * S) * kS ** (q + 1) * (q + 1) / (q + 2)
            kf = kk * az * fac
            c, sn, dc, ds = (
                src * bp - kf * c,
                src * bt - kf * sn,
                dsrc * bp1 - sigma * fac * kk * c - kf * dc,
                dsrc * bt1 - sigma * fac * kk * sn - kf * ds,
            )
        return np.array([[float(v) for v in col] for col in cols]).T


class TestScaledPass:
    """k_terms carries J_q / (kS)^q; the unscaled j_chain, hypersingular and rows are the reference."""

    @pytest.mark.parametrize("delta_x", DELTA_X_TIERS)
    @pytest.mark.parametrize("eps", EPS_TIERS)
    def test_every_table_entry(self, delta_x, eps):
        # at the q of every (delta_x, eps) entry, up to 13, with k r_max just inside
        # delta_x, on near-singular heights |z| <= 0.1 (larger k|z|: the next test)
        approx = economize(delta_x, eps)
        rng = np.random.default_rng([int(delta_x * 1e6), int(-math.log10(eps))])
        for trial in range(4):
            sub, z = random_geom(rng, z_lo=1e-4, z_hi=0.1)
            z = 0.0 if trial == 0 else z
            k = 0.99 * delta_x / max(radii(sub))
            assert_pass_matches_reference(ref_params(sub, z), z, k, approx)

    def test_as_accurate_as_unscaled_up_to_the_k_z_gate(self):
        # Both forms amplify rounding by up to about (2 k|z|)^q, so at q = 13 and
        # k|z| near 1 their single terms leave each other by more than 1e-14 (9 of
        # these 60 cases, by up to 7.5e-12 of 1 + |v|, where both miss the
        # recursion in extended precision by up to 1.8e-11).  Against the 40-digit
        # recursion from the same table, the scaled pass is as accurate as the
        # unscaled forms, case by case within the scatter of rounding, and in the
        # median and the total; its e-weighted sums, where the high orders carry
        # coefficients of 1e-10 and less, stay within 1e-14 (4e-16 seen).
        approx = economize(math.pi / 2, 1e-15)
        rng = np.random.default_rng(1357)
        errs = []
        while len(errs) < 60:
            sub, z = random_geom(rng, z_lo=1e-4, z_hi=0.8)
            k = 0.99 * (math.pi / 2) / max(radii(sub))
            if k * abs(z) > math.pi / 2:  # engine.K_Z_LIMIT
                continue
            geom = ref_params(sub, z)
            table = build_table(geom.alpha, geom.theta_lo, geom.theta_hi, approx.q + 1, alpha_p=geom.alpha_p)
            exact = mp_reference_rows(geom, z, k, approx.q, table)
            unscaled = reference_rows(geom, z, k, approx.q, table)
            scaled = np.array(list(vars(k_rows(geom, z, k, approx.q, table)).values()))
            errs.append([np.max(np.abs(v - exact) / (1 + np.abs(exact))) for v in (unscaled, scaled)])
            want = exact @ approx.coeffs
            sums = np.array(k_terms(geom, z, k, table, approx.terms))
            assert np.max(np.abs(sums - want) / (1 + np.abs(want))) <= 1e-14
        unscaled, scaled = np.array(errs).T
        assert np.all(scaled <= 1e-14 + 8 * unscaled)
        assert np.median(scaled / unscaled) <= 1.25
        assert scaled.sum() <= 1.25 * unscaled.sum()

    @pytest.mark.parametrize("z", [0.3, -1e-3, 0.0])
    def test_k_s_close_to_half_pi(self, z):
        approx = economize(math.pi / 2, 1e-15)
        assert approx.q == 13
        geom = ref_params(canonical_sub(1.0, 0.8, 1.3), z)
        k = (math.pi / 2) * (1 - 1e-9) / geom.S
        assert_pass_matches_reference(geom, z, k, approx)

    @pytest.mark.parametrize("z", [0.4, -0.05, 0.0])
    def test_k_zero(self, z):
        # (kS)^q is 1 at q = 0 and 0 above: only the order-0 term survives
        geom = ref_params(canonical_sub(0.9, 0.7, 1.1), z)
        for approx in (LAPLACE, economize(math.pi / 2, 1e-15)):
            assert_pass_matches_reference(geom, z, 0.0, approx)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("z", [0.01, 0.1])
    @pytest.mark.parametrize("offset", [1e-10, 1e-9])
    def test_just_above_an_edge_line(self, offset, z, k):
        # the projections of test_engine's TestJustAboveAnEdgeLine: alpha = |z|/S
        # within 1e-14 of 1 on the sliver subtriangle beside the edge y = 0
        tri = sample_triangle()
        verts2d, zloc = to_local_frame(tri, np.array([0.5, offset, z]))
        ext, fan = walk(verts2d, tri.edges)
        approx = select_approx(k, ext.r_max, 1e-12)
        geoms = [ref_params(sub, zloc) for sub in fan]
        assert max(g.alpha for g in geoms) > 1 - 1e-12
        for geom in geoms:
            assert_pass_matches_reference(geom, zloc, k, approx)


def test_short_table_is_an_error():
    # a table two orders deep under a six-term expansion: zip would drop orders 2 .. 5
    geom = ref_params(canonical_sub(0.9, 0.7, 1.1), 0.3)
    table = build_table(geom.alpha, geom.theta_lo, geom.theta_hi, 2, alpha_p=geom.alpha_p)
    approx = economize(math.pi / 4, 1e-9)
    assert approx.q == 7
    with pytest.raises(ValueError, match="order"):
        k_terms(geom, 0.3, 1.0, table, approx.terms[:6])
    with pytest.raises(ValueError, match="order"):
        j_chain(geom, 0.3, 1.0, 5, table)
    assert len(k_terms(geom, 0.3, 1.0, table, approx.terms[:2])) == 7
    assert j_chain(geom, 0.3, 1.0, 2, table).shape == (4, 3)


class TestJChain:
    def test_seed_in_plane(self):
        sub = canonical_sub(0.8, 0.6, 0.9)
        geom = ref_params(sub, 0.0)
        table = build_table(0.0, geom.theta_lo, geom.theta_hi, 4, alpha_p=1.0)
        jt = j_chain(geom, 0.0, 1.0, 2, table)
        assert jt[0][0] == pytest.approx(0.5 * geom.s * sub.theta, rel=1e-13)

    def test_terms_match_nested_oracle(self):
        sub = canonical_sub(1.0, 0.8, 1.3)
        z, k = 0.45, 0.9
        geom = ref_params(sub, z)
        table = build_table(
            geom.alpha, geom.theta_lo, geom.theta_hi, 10, alpha_p=geom.alpha_p
        )
        jt = j_chain(geom, z, k, 6, table)
        for q in (0, 2, 5):
            jq = oracle_jq_theta(geom, z, k, q)

            def f(ths):
                ths = np.atleast_1d(ths)
                vals = np.array([jq(float(t)) for t in ths])
                return np.stack([vals * np.cos(ths), vals * np.sin(ths)], axis=-1)

            v, _, ok = quad_adaptive(f, geom.theta_lo, geom.theta_hi, 5e-12)
            assert ok
            assert jt[0][q] == pytest.approx(float(v[0].real), abs=1e-10)
            assert jt[1][q] == pytest.approx(float(v[1].real), abs=1e-10)

    def test_sign_flip(self):
        sub = canonical_sub(1.0, 0.8, 1.3)
        k = 0.9

        def chain(z):
            geom = ref_params(sub, z)
            table = build_table(
                geom.alpha, geom.theta_lo, geom.theta_hi, 8, alpha_p=geom.alpha_p
            )
            return j_chain(geom, z, k, 5, table)

        plus, minus = chain(0.45), chain(-0.45)
        assert np.allclose(plus[0], minus[0], rtol=1e-14)
        assert np.allclose(plus[1], minus[1], rtol=1e-14)
        assert np.allclose(plus[2], -minus[2], rtol=1e-14)
        assert np.allclose(plus[3], -minus[3], rtol=1e-14)

    def test_derivatives_match_finite_difference(self):
        sub = canonical_sub(1.0, 0.8, 1.3)
        k, z, h = 0.9, 0.45, 1e-5

        def chain(zz):
            geom = ref_params(sub, zz)
            table = build_table(
                geom.alpha, geom.theta_lo, geom.theta_hi, 10, alpha_p=geom.alpha_p
            )
            return j_chain(geom, zz, k, 6, table)

        jt, up, dn = chain(z), chain(z + h), chain(z - h)
        for q in range(7):
            assert jt[2][q] == pytest.approx(
                (up[0][q] - dn[0][q]) / (2 * h), rel=1e-6, abs=1e-12
            )
            assert jt[3][q] == pytest.approx(
                (up[1][q] - dn[1][q]) / (2 * h), rel=1e-6, abs=1e-12
            )


class TestAssemble:
    def test_full_i0_matches_complex_oracle(self):
        sub = canonical_sub(0.9, 0.7, 1.1)
        z, k = 0.35, 1.0
        geom = ref_params(sub, z)
        approx = select_approx(k, max(radii(sub)), 1e-12)
        res = ref_integrals(geom, z, k, approx)

        def f_theta(ths):
            ths = np.atleast_1d(ths)
            out = np.empty((len(ths), 1), dtype=complex)
            for i, th in enumerate(ths):
                rbar = geom.s / math.cos(th)
                R_far = math.hypot(rbar, z)
                out[i, 0] = (
                    cmath.exp(1j * k * R_far) - cmath.exp(1j * k * abs(z))
                ) / (1j * k)
            return out

        v, _, ok = quad_adaptive(f_theta, geom.theta_lo, geom.theta_hi, 1e-13)
        assert ok
        assert abs(res.i0 - complex(v[0])) <= 1e-11

    def test_tolerance_levels_agree(self):
        sub = canonical_sub(0.9, 0.7, 1.1)
        z, k = 0.2, 1.0
        geom = ref_params(sub, z)
        loose = ref_integrals(geom, z, k, select_approx(k, max(radii(sub)), 1e-3))
        tight = ref_integrals(geom, z, k, select_approx(k, max(radii(sub)), 1e-12))
        assert abs(loose.i0 - tight.i0) <= 2e-3

    def test_k_zero_is_real_laplace(self):
        sub = canonical_sub(0.9, 0.7, 1.1)
        z = 0.3
        geom = ref_params(sub, z)
        res = ref_integrals(geom, z, 0.0, LAPLACE)
        assert res.i0.imag == 0.0
        assert res.di0_dn.imag == 0.0
        o = oracle_k_2d(geom, z, 0.0, 0, lambda r, R, th: r / R)
        assert res.i0.real == pytest.approx(o, abs=1e-12)

    def test_prefactor_constant_documented(self):
        assert GREEN_PREFACTOR == pytest.approx(1.0 / (4.0 * math.pi))

    def test_panel_integrals_vector_and_accessors(self):
        vals = np.array([1 + 1j, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        res = PanelIntegrals(vals)
        for i, name in enumerate(COMPONENTS):
            assert getattr(res, name) == vals[i]
        res.i0 += 2.0
        res.d2i0_dn2 = -1j
        assert res.values[0] == 3 + 1j and res.values[6] == -1j
        assert vals[0] == 1 + 1j and vals[6] == 7.0  # the values were copied in
        no_hyper = PanelIntegrals(np.zeros(6, dtype=complex))
        assert no_hyper.d2i0_dn2 is None
        assert no_hyper.diy_dn == 0.0

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(8), np.zeros((1, 7)), np.zeros((2, 3)), [], 1.0])
    def test_panel_integrals_takes_six_or_seven_values(self, bad):
        # three values once read i0 = 0.0, a float, and di0_dn = None
        with pytest.raises(ValueError, match="6 or 7 values"):
            PanelIntegrals(bad)

    def test_panel_integrals_repr_shows_the_values(self):
        res = PanelIntegrals([1, 2j, 3, 4, 5, 6])
        assert repr(res) == f"PanelIntegrals(values={res.values!r})"
        assert repr(res).startswith("PanelIntegrals(values=array([1.+0.j, 0.+2.j, 3.+0.j,")

    def test_panel_integrals_stores_complex(self):
        res = PanelIntegrals([1, 2, 3, 4, 5, 6])  # a list was kept as a list
        assert res.values.dtype == complex and res.values.tolist() == [1, 2, 3, 4, 5, 6]
        assert type(res.i0) is np.complex128
        res.values = np.arange(7.0)  # assignment copies and checks too
        assert res.values.dtype == complex and res.d2i0_dn2 == 6.0
        with pytest.raises(ValueError, match="6 or 7 values"):
            res.values = np.zeros(5)


class TestHypersingular:
    def test_matches_second_finite_difference(self):
        sub = canonical_sub(0.9, 0.7, 1.1)
        k, z, h = 1.0, 0.5, 1e-3

        def i0_at(zz):
            geom = ref_params(sub, zz)
            approx = select_approx(k, max(radii(sub)), 1e-15)
            return ref_integrals(geom, zz, k, approx).i0

        geom = ref_params(sub, z)
        res = ref_integrals(geom, z, k, select_approx(k, max(radii(sub)), 1e-15))
        fd = (i0_at(z + h) - 2 * i0_at(z) + i0_at(z - h)) / h**2
        assert abs(res.d2i0_dn2 - fd) <= 1e-5 * abs(fd)

    def test_laplace_case(self):
        sub = canonical_sub(0.9, 0.7, 1.1)
        z, h = 0.5, 1e-3

        def i0_at(zz):
            geom = ref_params(sub, zz)
            return ref_integrals(geom, zz, 0.0, LAPLACE).i0.real

        geom = ref_params(sub, z)
        res = ref_integrals(geom, z, 0.0, LAPLACE)
        fd = (i0_at(z + h) - 2 * i0_at(z) + i0_at(z - h)) / h**2
        assert res.d2i0_dn2.imag == 0.0
        assert res.d2i0_dn2.real == pytest.approx(fd, rel=1e-5)

    def test_far_field_asymptote(self):
        # d2I0/dz2 -> area * d2/dz2 (e^{jkz}/z) as z -> infinity
        sub = canonical_sub(0.9, 0.7, 1.1)
        k = 1e-4
        z = 1e3 * max(radii(sub))
        geom = ref_params(sub, z)
        res = ref_integrals(geom, z, k, select_approx(k, max(radii(sub)), 1e-15))
        g = cmath.exp(1j * k * z)
        asym = sub_area(sub) * g * (-k * k - 2j * k / z + 2.0 / (z * z)) / z
        assert abs(res.d2i0_dn2 - asym) <= 1e-4 * abs(asym)

    def test_hypersingular_terms_against_defining_integral(self):
        sub = canonical_sub(1.0, 0.8, 1.2)
        z, k = 0.4, 0.8
        geom = ref_params(sub, z)
        table = build_table(
            geom.alpha, geom.theta_lo, geom.theta_hi, 8, alpha_p=geom.alpha_p
        )
        d2 = hypersingular(geom, k, 4, table)
        ap = geom.alpha_p
        kS = k * geom.S
        for q in (0, 2, 4):
            def f(th):
                th = np.asarray(th)
                dd = np.hypot(np.cos(th), ap * np.sin(th))
                p = dd / np.cos(th)
                w = geom.alpha * (np.cos(th) / dd) ** 3 + (q + 1) * (np.cos(th) / dd) ** 2
                return ((p - geom.alpha) ** (q + 1) * w)[:, None]

            v, _, ok = quad_adaptive(f, geom.theta_lo, geom.theta_hi, 1e-13)
            assert ok
            assert d2[q] == pytest.approx(
                kS**q / geom.S * float(v[0].real), abs=1e-11
            )


def test_evaluate_matches_frozen():
    """All seven components at the sample projections, against frozen values.

    4 projections x z in {1e-4, 1e-2, 0.3} x k in {0, 1} x tol in
    {1e-6, 1e-12}, hypersingular term on; bound 1e-14 (1 + |v|).
    """
    frozen = json.loads((Path(__file__).parent / "data" / "analytic_frozen.json").read_text())
    assert len(frozen["rows"]) == 48
    for idx, z, k, tol, *parts in frozen["rows"]:
        req = EvalRequest(sample_triangle(), sample_field_point(idx, z), k, tol, True)
        rep = evaluate(req, method="analytic")
        assert rep.method.kind == "analytic"
        for i, name in enumerate(COMPONENTS):
            want = complex(parts[2 * i], parts[2 * i + 1])
            got = getattr(rep.result, name)
            assert abs(got - want) <= 1e-14 * (1 + abs(want)), (idx, z, k, tol, name)
