"""Elementary integral tables against closed forms and adaptive quadrature."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helmpanel.elemints import binomial_combination, build_table
from helmpanel.numquad import quad_adaptive

from helpers import delta, oracle_pow_plain, oracle_pow_tan

RNG = np.random.default_rng(991)


def pow_plain(alpha, lo, hi, n_max):
    """Integrals of (Delta/cos)^n over [lo, hi], n = -3 .. n_max, indexed [n + 3]."""
    return np.array(build_table(alpha, lo, hi, n_max).plain)


def pow_tan(alpha, lo, hi, n_max):
    """Integrals of (Delta/cos)^n tan over [lo, hi], n = -1 .. n_max, indexed [n + 1]."""
    return np.array(build_table(alpha, lo, hi, n_max).tan)


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
        assert tab[-1 + 1] == pytest.approx(1.0 - math.cos(th), abs=1e-15)
        assert tab[0 + 1] == pytest.approx(-math.log(math.cos(th)), abs=1e-15)


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
            assert tab[n + 1] == pytest.approx(
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
                assert abs(tan[n + 1] - vo) <= 1e-12 * (1 + abs(vo)), (alpha, lo, hi, n)

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
                assert abs(tan[n + 1] - vo) <= 1e-12 * (1 + abs(vo)), (lo, hi, n)

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
                assert abs(tan[n + 1] - vo) <= 1e-12 * (1 + abs(vo))

    def test_threshold_continuity(self):
        # values on both sides of the alpha = 0 switch agree
        lo, hi = -0.4, 0.7
        below = pow_plain(0.5e-8, lo, hi, 6)
        above = pow_plain(2e-8, lo, hi, 6)
        assert np.allclose(below, above, rtol=1e-6)
        below = pow_tan(0.5e-8, lo, hi, 6)
        above = pow_tan(2e-8, lo, hi, 6)
        assert np.allclose(below, above, rtol=1e-6)


class TestProperties:
    def test_interval_additivity(self):
        alpha, a, b, c = 0.45, -0.5, 0.2, 0.9
        for build in (pow_plain, pow_tan):
            full = build(alpha, a, c, 6)
            left = build(alpha, a, b, 6)
            right = build(alpha, b, c, 6)
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
                    dt = pow_tan(alpha, th - h, th + h, 6)[n + 1] / (2 * h)
                    assert dt == pytest.approx(val * math.tan(th), rel=1e-8, abs=1e-9)

    def test_range_touching_pi_over_2_rejected(self):
        with pytest.raises(ValueError):
            pow_plain(0.3, -0.2, math.pi / 2, 4)
        with pytest.raises(ValueError):
            pow_tan(0.3, -math.pi / 2, 0.2, 4)


def binom(alpha, lo, hi, q_max):
    """``binomial_combination`` of both families over [lo, hi], and the two tables."""
    plain, tan = pow_plain(alpha, lo, hi, q_max), pow_tan(alpha, lo, hi, q_max)
    return binomial_combination(q_max, alpha, np.concatenate([plain, tan])), plain, tan


class TestBinomialCombination:
    def test_empty_binomial(self):
        b, plain, tan = binom(0.4, -0.3, 0.6, 4)
        assert b.shape == (6, 5)
        for s in (0, 1, 2, 3):
            assert b[s, 0] == plain[-s + 3]
        for s in (0, 1):
            assert b[4 + s, 0] == tan[-s + 1]

    def test_alpha_zero_single_term(self):
        b, plain, tan = binom(0.0, -0.3, 0.6, 6)
        for q in (1, 3, 5):
            for s in (0, 2):
                assert b[s, q] == plain[q - s + 3]
            assert b[5, q] == tan[q - 1 + 1]

    def test_named_case_against_oracle(self):
        # q=3, s=1, alpha=0.5 over [-0.2, 0.7]; frozen adaptive value
        got = build_table(0.5, -0.2, 0.7, 4).binom[1, 3]
        assert got == pytest.approx(0.1504446417421232, abs=1e-12)

    def test_random_cases_against_oracle(self):
        for _ in range(10):
            alpha = float(RNG.uniform(0.05, 0.9))
            ap = math.sqrt(1 - alpha * alpha)
            lo, hi = -0.4, 0.75
            q = int(RNG.integers(1, 7))
            s = int(RNG.integers(0, 4))

            def f(th):
                th = np.asarray(th)
                p = delta(ap, th) / np.cos(th)
                return ((p - alpha) ** q * p ** (-s) * 1.0)[:, None]

            v, _, ok = quad_adaptive(f, lo, hi, 1e-13)
            assert ok
            assert build_table(alpha, lo, hi, q).binom[s, q] == pytest.approx(float(v[0].real), abs=5e-12)

    def test_matches_scalar_sum(self):
        # reference: the binomial sum term by term, for each of the six
        # rows (plain s = 0 .. 3, tan s = 0, 1) and every q; build_table's
        # rows are binomial_combination's
        for alpha in (0.0, 0.3, 0.7, 0.95):
            b, plain, tan = binom(alpha, -0.4, 0.75, 12)
            np.testing.assert_array_equal(build_table(alpha, -0.4, 0.75, 12).binom, b)
            assert b.shape == (6, 13)
            for row, (tab, s, first) in enumerate(
                [(plain, s, 3) for s in range(4)] + [(tan, s, 1) for s in range(2)]
            ):
                for q in range(13):
                    terms = [
                        math.comb(q, u) * (-alpha) ** u * tab[q - u - s + first]
                        for u in range(q + 1)
                    ]
                    scale = sum(abs(t) for t in terms)
                    assert abs(b[row, q] - sum(terms)) <= 1e-14 * scale, (alpha, row, q)

    def test_stacked_table_equals_row_by_row(self):
        # build_table passes both families as one stacked table to a single
        # call; each row is that of its own family alone, and the other
        # family's entries play no part in it
        for alpha, q_max in ((0.0, 3), (0.35, 8), (0.9, 13)):
            b, plain, tan = binom(alpha, -0.5, 1.2, q_max)
            assert b.shape == (6, q_max + 1)
            np.testing.assert_array_equal(build_table(alpha, -0.5, 1.2, q_max).binom, b)
            only_plain = binomial_combination(q_max, alpha, np.concatenate([plain, 0.0 * tan]))
            only_tan = binomial_combination(q_max, alpha, np.concatenate([0.0 * plain, tan]))
            np.testing.assert_array_equal(b[:4], only_plain[:4])
            np.testing.assert_array_equal(b[4:], only_tan[4:])
            assert not only_plain[4:].any() and not only_tan[:4].any()


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
        assert (len(tab.plain), len(tab.tan)) == (10 + 4, 10 + 2)
        assert tab.plain[0 + 3] == pytest.approx(1.3, abs=1e-14)
        assert tab.binom.shape == (6, 11)
        assert tab.binom[1, 0] == tab.plain[-1 + 3]
        assert tab.binom[5, 0] == tab.tan[-1 + 1]
        np.testing.assert_array_equal(
            tab.binom, binomial_combination(10, 0.35, np.array(tab.plain + tab.tan))
        )

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
    def test_every_entry_is_finite(self, alpha):
        # only entries that are read are tabulated: no placeholder slots
        for n_max in (0, 6, 14):
            tab = build_table(alpha, -0.5, 0.8, n_max)
            assert np.isfinite(tab.plain).all() and np.isfinite(tab.tan).all()
            assert np.isfinite(tab.binom).all()


REFERENCE = json.loads((Path(__file__).parent / "data" / "elem_reference.json").read_text())["entries"]


@pytest.mark.parametrize(
    "entry", REFERENCE, ids=[f"{e['alpha']:g}-{e['alpha_p']}-{e['theta_lo']:.4g}-{e['theta_hi']:.4g}" for e in REFERENCE]
)
def test_against_independent_reference(entry):
    # mpmath values that share no code with the library (bench/elem_reference.py),
    # every order production reads and beyond, ranges out to pi/2 - 1e-4, and
    # the sliver a point just above an edge's line makes: alpha rounded to
    # 1.0 with alpha' = 1e-9 given, where plain[-3] was off by 3.2e-8 and
    # tan[-1] by 1.4e-7
    kw = {} if entry["alpha_p"] is None else {"alpha_p": entry["alpha_p"]}
    tab = build_table(entry["alpha"], entry["theta_lo"], entry["theta_hi"], 17, **kw)
    got = {f"plain[{n}]": tab.plain[n + 3] for n in range(-3, 18)}
    got.update({f"tan[{n}]": tab.tan[n + 1] for n in range(-1, 18)}, lc=tab.lc, ls=tab.ls)
    want = {f"{fam}[{n}]": v for fam in ("plain", "tan") for n, v in entry[fam].items()}
    want.update({name: entry[name] for name in ("lc", "ls") if entry.get(name)})  # none at alpha = 0
    assert len(want) >= 40
    for name, (value, scale) in want.items():
        assert abs(got[name] - value) <= 1e-14 * max(1.0, scale), name
