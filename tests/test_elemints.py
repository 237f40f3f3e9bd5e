"""Elementary integral tables against closed forms and adaptive quadrature."""

import math

import numpy as np
import pytest

from helmpanel.elemints import binomial_combination, build_table
from helmpanel.numquad import quad_adaptive

from helpers import delta, oracle_pow_plain, oracle_pow_tan

RNG = np.random.default_rng(991)


def pow_plain(alpha, lo, hi, n_max):
    """Integrals of (Delta/cos)^n over [lo, hi], n = -3 .. n_max, indexed [n + 3]."""
    return build_table(alpha, lo, hi, n_max).powers[0]


def pow_tan(alpha, lo, hi, n_max):
    """Integrals of (Delta/cos)^n tan over [lo, hi], indexed as ``pow_plain``.

    Only n >= -1 is tabulated; the slots n = -3, -2 hold NaN.
    """
    return build_table(alpha, lo, hi, n_max).powers[1]


def l_c(alpha, lo, hi):
    return build_table(alpha, lo, hi, 0).lc


def l_s(alpha, lo, hi):
    return build_table(alpha, lo, hi, 0).ls


class TestInPlaneClosedForms:
    def test_plain_seeds(self):
        th = 0.8
        tab = pow_plain(0.0, 0.0, th, 2)
        assert tab[-1 + 3] == pytest.approx(math.sin(th), abs=1e-15)
        assert tab[-2 + 3] == pytest.approx(
            0.5 * (math.sin(th) * math.cos(th) + th), abs=1e-15
        )
        assert tab[-3 + 3] == pytest.approx(
            math.sin(th) - math.sin(th) ** 3 / 3.0, abs=1e-15
        )

    def test_tan_seeds(self):
        th = 0.7
        tab = pow_tan(0.0, 0.0, th, 2)
        assert tab[-1 + 3] == pytest.approx(1.0 - math.cos(th), abs=1e-15)
        assert tab[0 + 3] == pytest.approx(-math.log(math.cos(th)), abs=1e-15)


class TestOracleEquivalence:
    def test_plain_alpha06_named_case(self):
        # frozen oracle values (adaptive quadrature at 1e-14) for
        # alpha = 0.6 over [-0.4, 0.9]
        tab = pow_plain(0.6, -0.4, 0.9, 8)
        assert tab[-3 + 3] == pytest.approx(1.0673230261177256, abs=1e-12)
        assert tab[2 + 3] == pytest.approx(1.545088919224636, abs=1e-12)
        assert tab[8 + 3] == pytest.approx(3.45122069733692, abs=1e-12)
        for n in range(-3, 9):
            assert tab[n + 3] == pytest.approx(
                oracle_pow_plain(0.6, -0.4, 0.9, n), abs=1e-12
            )

    def test_tan_alpha03_named_case(self):
        tab = pow_tan(0.3, -0.2, 0.7, 8)
        for n in range(-1, 9):
            assert tab[n + 3] == pytest.approx(
                oracle_pow_tan(0.3, -0.2, 0.7, n), abs=1e-12
            )

    def test_randomized_alpha_and_range(self):
        for _ in range(30):
            alpha = float(RNG.uniform(0.0, 0.99))
            lo = float(RNG.uniform(-1.2, 0.6))
            hi = float(RNG.uniform(lo + 0.05, min(lo + 1.8, 1.35)))
            plain = pow_plain(alpha, lo, hi, 8)
            tan = pow_tan(alpha, lo, hi, 8)
            for n in range(-3, 9):
                vo = oracle_pow_plain(alpha, lo, hi, n)
                assert abs(plain[n + 3] - vo) <= 1e-12 * (1 + abs(vo)), (alpha, lo, hi, n)
            for n in range(-1, 9):
                vo = oracle_pow_tan(alpha, lo, hi, n)
                assert abs(tan[n + 3] - vo) <= 1e-12 * (1 + abs(vo)), (alpha, lo, hi, n)

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 1e-3, 0.5, 0.99])
    def test_production_orders_near_pi_over_2(self, alpha):
        # every order production reads, n up to 14 = (largest economized
        # order 13) + 1, over ranges that reach |theta| = 1.45, where
        # (Delta/cos)^14 is of order 1e12
        for lo, hi in ((-1.45, 0.9), (-0.3, 1.45), (-1.45, 0.2), (0.9, 1.45), (-1.45, -1.1)):
            plain = pow_plain(alpha, lo, hi, 14)
            tan = pow_tan(alpha, lo, hi, 14)
            for n in range(-3, 15):
                vo = oracle_pow_plain(alpha, lo, hi, n)
                assert abs(plain[n + 3] - vo) <= 1e-12 * (1 + abs(vo)), (lo, hi, n)
            for n in range(-1, 15):
                vo = oracle_pow_tan(alpha, lo, hi, n)
                assert abs(tan[n + 3] - vo) <= 1e-12 * (1 + abs(vo)), (lo, hi, n)

    def test_small_alpha_stability(self):
        # the raw antiderivatives lose all digits here; the rearranged
        # seeds must not
        for alpha in (1e-7, 1e-5, 1e-3, 0.02, 0.049, 0.051):
            plain = pow_plain(alpha, -0.3, 0.8, 4)
            tan = pow_tan(alpha, -0.3, 0.8, 4)
            for n in range(-3, 5):
                vo = oracle_pow_plain(alpha, -0.3, 0.8, n)
                assert abs(plain[n + 3] - vo) <= 1e-12 * (1 + abs(vo))
            for n in range(-1, 5):
                vo = oracle_pow_tan(alpha, -0.3, 0.8, n)
                assert abs(tan[n + 3] - vo) <= 1e-12 * (1 + abs(vo))

    def test_threshold_continuity(self):
        # values on both sides of the alpha = 0 switch agree
        lo, hi = -0.4, 0.7
        below = pow_plain(0.5e-8, lo, hi, 6)
        above = pow_plain(2e-8, lo, hi, 6)
        assert np.allclose(below, above, rtol=1e-6)
        below = pow_tan(0.5e-8, lo, hi, 6)[2:]
        above = pow_tan(2e-8, lo, hi, 6)[2:]
        assert np.allclose(below, above, rtol=1e-6)


class TestProperties:
    def test_interval_additivity(self):
        alpha, a, b, c = 0.45, -0.5, 0.2, 0.9
        # tan starts at n = -1 (index 2)
        for build, first in ((pow_plain, 0), (pow_tan, 2)):
            full = build(alpha, a, c, 6)[first:]
            left = build(alpha, a, b, 6)[first:]
            right = build(alpha, b, c, 6)[first:]
            assert np.allclose(full, left + right, atol=1e-13, rtol=1e-13)

    def test_derivative_reproduces_integrand(self):
        # d/dtheta of the accumulated integral equals the integrand
        alpha = 0.6
        ap = math.sqrt(1 - alpha * alpha)
        h = 1e-6
        for _ in range(20):
            th = float(RNG.uniform(-1.1, 1.1))
            for n in (-3, -1, 0, 2, 5):
                dp = pow_plain(alpha, th - h, th + h, 6)[n + 3] / (2 * h)
                val = (delta(ap, th) / math.cos(th)) ** n
                assert dp == pytest.approx(val, rel=1e-8)
                if n >= -1:
                    dt = pow_tan(alpha, th - h, th + h, 6)[n + 3] / (2 * h)
                    assert dt == pytest.approx(val * math.tan(th), rel=1e-8, abs=1e-9)

    def test_range_touching_pi_over_2_rejected(self):
        with pytest.raises(ValueError):
            pow_plain(0.3, -0.2, math.pi / 2, 4)
        with pytest.raises(ValueError):
            pow_tan(0.3, -math.pi / 2, 0.2, 4)


class TestBinomialCombination:
    def test_empty_binomial(self):
        tab = pow_plain(0.4, -0.3, 0.6, 4)
        b = binomial_combination(4, 0.4, tab)
        assert b.shape == (4, 5)
        for s in (0, 1, 2, 3):
            assert b[s, 0] == tab[-s + 3]

    def test_alpha_zero_single_term(self):
        tab = pow_plain(0.0, -0.3, 0.6, 6)
        b = binomial_combination(6, 0.0, tab)
        for q in (1, 3, 5):
            for s in (0, 2):
                assert b[s, q] == tab[q - s + 3]

    def test_named_case_against_oracle(self):
        # q=3, s=1, alpha=0.5 over [-0.2, 0.7]; frozen adaptive value
        tab = pow_plain(0.5, -0.2, 0.7, 4)
        got = binomial_combination(4, 0.5, tab)[1, 3]
        assert got == pytest.approx(0.1504446417421232, abs=1e-12)

    def test_random_cases_against_oracle(self):
        for _ in range(10):
            alpha = float(RNG.uniform(0.05, 0.9))
            ap = math.sqrt(1 - alpha * alpha)
            lo, hi = -0.4, 0.75
            q = int(RNG.integers(1, 7))
            s = int(RNG.integers(0, 4))
            tab = pow_plain(alpha, lo, hi, q + 1)

            def f(th):
                th = np.asarray(th)
                p = delta(ap, th) / np.cos(th)
                return ((p - alpha) ** q * p ** (-s) * 1.0)[:, None]

            v, _, ok = quad_adaptive(f, lo, hi, 1e-13)
            assert ok
            assert binomial_combination(q, alpha, tab)[s, q] == pytest.approx(
                float(v[0].real), abs=5e-12
            )

    def test_matches_scalar_sum(self):
        # reference: the binomial sum term by term, for every (s, q)
        for alpha in (0.3, 0.7, 0.95):
            # the tan family is tabulated from n = -1, so only s <= 1
            for build, s_max in ((pow_plain, 3), (pow_tan, 1)):
                tab = build(alpha, -0.4, 0.75, 12)
                b = binomial_combination(12, alpha, tab)
                for s in range(s_max + 1):
                    for q in range(13):
                        terms = [
                            math.comb(q, u) * (-alpha) ** u * tab[q - u - s + 3]
                            for u in range(q + 1)
                        ]
                        scale = sum(abs(t) for t in terms)
                        assert abs(b[s, q] - sum(terms)) <= 1e-14 * scale, (alpha, s, q)

    def test_stacked_table_equals_row_by_row(self):
        # build_table passes both families as one (2, n + 4) table; the
        # result is that of one 1-D call per row, and a deeper stack of
        # such tables is one call as well
        for alpha, q_max in ((0.0, 3), (0.35, 8), (0.9, 13)):
            rows = build_table(alpha, -0.5, 1.2, q_max).powers
            stacked = binomial_combination(q_max, alpha, rows)
            assert stacked.shape == (2, 4, q_max + 1)
            for i in range(2):
                np.testing.assert_array_equal(stacked[i], binomial_combination(q_max, alpha, rows[i]))
            deeper = np.stack([rows, 2.0 * rows, -rows])
            got = binomial_combination(q_max, alpha, deeper)
            assert got.shape == (3, 2, 4, q_max + 1)
            for i, table in enumerate(deeper):
                np.testing.assert_array_equal(got[i], binomial_combination(q_max, alpha, table))


class TestLogIntegrals:
    def test_empty_interval(self):
        assert l_c(0.5, 0.3, 0.3) == 0.0
        assert l_s(0.5, 0.3, 0.3) == 0.0

    def test_l_s_odd_parity(self):
        for a in (0.2, 0.7):
            assert l_s(0.55, -a, a) == pytest.approx(0.0, abs=1e-14)

    def test_named_case_against_oracle(self):
        # alpha = 0.7 over [-0.3, 0.8]; frozen adaptive values
        assert l_c(0.7, -0.3, 0.8) == pytest.approx(-1.9319120275829067, abs=1e-11)
        assert l_s(0.7, -0.3, 0.8) == pytest.approx(-0.5393481671582099, abs=1e-11)

    def test_random_against_oracle(self):
        for _ in range(12):
            alpha = float(RNG.uniform(0.05, 0.98))
            ap = math.sqrt(1 - alpha * alpha)
            lo = float(RNG.uniform(-1.0, 0.4))
            hi = float(RNG.uniform(lo + 0.1, 1.2))

            def f(th):
                th = np.asarray(th)
                d = delta(ap, th)
                w = 2.0 * (np.log(alpha * np.cos(th)) - np.log(d + ap))
                return np.stack([np.cos(th) * w, np.sin(th) * w], axis=-1)

            v, _, ok = quad_adaptive(f, lo, hi, 1e-13)
            assert ok
            assert l_c(alpha, lo, hi) == pytest.approx(float(v[0].real), abs=1e-11)
            assert l_s(alpha, lo, hi) == pytest.approx(float(v[1].real), abs=1e-11)

    def test_alpha_zero_convention(self):
        # consumed only multiplied by |z| = 0: stored as zero
        assert l_c(0.0, -0.3, 0.8) == 0.0
        assert l_s(0.0, -0.3, 0.8) == 0.0


class TestTable:
    def test_build_table_consistency(self):
        tab = build_table(0.35, -0.5, 0.8, 10)
        assert tab.powers.shape == (2, 10 + 4)
        assert tab.powers[0, 0 + 3] == pytest.approx(1.3, abs=1e-14)
        assert tab.binom.shape == (2, 4, 11)
        assert tab.binom[0, 1, 0] == tab.powers[0, -1 + 3]
        assert tab.binom[1, 0, 2] == pytest.approx(
            binomial_combination(10, 0.35, tab.powers[1])[0, 2], abs=0.0
        )

    def test_untabulated_tan_entries_are_nan(self):
        # tan[-3], tan[-2] are not tabulated: they and the tan rows
        # s = 2, 3 of binom read as NaN, at alpha = 0 and above
        for alpha in (0.0, 0.35):
            tab = build_table(alpha, -0.5, 0.8, 6)
            assert np.isnan(tab.powers[1, :2]).all()
            assert np.isnan(tab.binom[1, 2:]).all()
            assert np.isfinite(tab.powers[:, 2:]).all() and np.isfinite(tab.powers[0]).all()
            assert np.isfinite(tab.binom[0]).all() and np.isfinite(tab.binom[1, :2]).all()
