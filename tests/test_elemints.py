"""Elementary integrals, seeds and expansion rows, against closed forms, adaptive quadrature and mpmath."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from helmpanel import elemints
from helmpanel.elemints import binomial_combination, build_table
from helmpanel.numquad import quad_adaptive

from helpers import ROW_KINDS, delta, oracle_pow, oracle_rows, powers_from_rows, table_rows

RNG = np.random.default_rng(991)


def pow_plain(alpha, lo, hi):
    """Integrals of (Delta/cos)^n over [lo, hi], n = -3 .. 0, indexed [n + 3]: the plain seeds."""
    return np.array(build_table(alpha, lo, hi, 0).plain)


def pow_tan(alpha, lo, hi):
    """Integrals of (Delta/cos)^n tan over [lo, hi], n = -1, 0, indexed [n + 1]: the tan seeds."""
    return np.array(build_table(alpha, lo, hi, 0).tan)


def rows(alpha, lo, hi, n_max):
    """``table_rows`` of ``build_table`` over [lo, hi]: the six rows at orders 0 .. n_max."""
    return table_rows(build_table(alpha, lo, hi, n_max))


def l_c(alpha, lo, hi):
    return build_table(alpha, lo, hi, 0).lc


def l_s(alpha, lo, hi):
    return build_table(alpha, lo, hi, 0).ls


def check_rows(alpha, lo, hi, n_max, rel=1e-12, abs_=0.0):
    """Every row to n_max against its defining integral, and the power integrals reassembled from it against theirs.

    A row is held to rel (1 + its scale) + abs_, the size of the binomial
    sum over the powers of p it equals; each power integral
    plain[n] (n = -3 .. n_max) and tan[n] (n = -1 .. n_max) that
    ``powers_from_rows`` reassembles from any row is held to
    rel (1 + |v|) + abs_ against its own adaptive quadrature.
    """
    got = rows(alpha, lo, hi, n_max)
    want, scale = oracle_rows(alpha, lo, hi, n_max)
    bad = np.argwhere(np.abs(got - want) > rel * (1.0 + scale) + abs_)
    assert not len(bad), [(ROW_KINDS[r], n, got[r, n], want[r, n]) for r, n in bad[:5]]
    oracle = {}
    for family, n, value in powers_from_rows(got, alpha):
        if (family, n) not in oracle:
            oracle[family, n] = oracle_pow(family, alpha, lo, hi, n)
        vo = oracle[family, n]
        assert abs(value - vo) <= rel * (1.0 + abs(vo)) + abs_, (alpha, lo, hi, family, n)
    assert len(oracle) == 2 * n_max + 6  # plain[-3 .. n_max], tan[-1 .. n_max]
    return got


class TestInPlaneClosedForms:
    def test_plain_seeds(self):
        th = 0.8
        tab = pow_plain(0.0, 0.0, th)
        assert tab[-1 + 3] == pytest.approx(math.sin(th), abs=1e-15)
        assert tab[-2 + 3] == pytest.approx(
            0.5 * (math.sin(th) * math.cos(th) + th), abs=1e-15
        )
        assert tab[-3 + 3] == pytest.approx(
            math.sin(th) - math.sin(th) ** 3 / 3.0, abs=1e-15
        )

    def test_tan_seeds(self):
        th = 0.7
        tab = pow_tan(0.0, 0.0, th)
        assert tab[-1 + 1] == pytest.approx(1.0 - math.cos(th), abs=1e-15)
        assert tab[0 + 1] == pytest.approx(-math.log(math.cos(th)), abs=1e-15)


class TestOracleEquivalence:
    def test_plain_alpha06_named_case(self):
        # frozen oracle values (adaptive quadrature at 1e-14) for
        # alpha = 0.6 over [-0.4, 0.9]: plain[-3] is a seed, plain[2] and
        # plain[8] are reassembled from the P_0 row
        got = check_rows(0.6, -0.4, 0.9, 8, rel=0.0, abs_=1e-12)
        plain = {n: v for fam, n, v in powers_from_rows(got[:1], 0.6)}
        assert pow_plain(0.6, -0.4, 0.9)[-3 + 3] == pytest.approx(1.0673230261177256, abs=1e-12)
        assert plain[2] == pytest.approx(1.545088919224636, abs=1e-12)
        assert plain[8] == pytest.approx(3.45122069733692, abs=1e-12)

    def test_tan_alpha03_named_case(self):
        check_rows(0.3, -0.2, 0.7, 8, rel=0.0, abs_=1e-12)

    def test_randomized_alpha_and_range(self):
        for _ in range(30):
            alpha = float(RNG.uniform(0.0, 0.99))
            lo = float(RNG.uniform(-1.2, 0.6))
            hi = float(RNG.uniform(lo + 0.05, min(lo + 1.8, 1.35)))
            check_rows(alpha, lo, hi, 8)

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 1e-3, 0.5, 0.99])
    def test_production_orders_near_pi_over_2(self, alpha):
        # every order production reads, n up to 14 = (largest economized
        # order 13) + 1, over ranges that reach |theta| = 1.45, where
        # (Delta/cos)^14 is of order 1e12
        for lo, hi in ((-1.45, 0.9), (-0.3, 1.45), (-1.45, 0.2), (0.9, 1.45), (-1.45, -1.1)):
            check_rows(alpha, lo, hi, 14)

    def test_small_alpha_stability(self):
        # the raw antiderivatives lose all digits here; the rearranged
        # seeds must not
        for alpha in (1e-7, 1e-5, 1e-3, 0.02, 0.049, 0.051):
            check_rows(alpha, -0.3, 0.8, 4)

    def test_threshold_continuity(self):
        # values on both sides of the alpha = 0 switch agree
        lo, hi = -0.4, 0.7
        assert np.allclose(rows(0.5e-8, lo, hi, 6), rows(2e-8, lo, hi, 6), rtol=1e-6)


class TestProperties:
    def test_interval_additivity(self):
        alpha, a, b, c = 0.45, -0.5, 0.2, 0.9
        full = rows(alpha, a, c, 6)
        left = rows(alpha, a, b, 6)
        right = rows(alpha, b, c, 6)
        assert np.allclose(full, left + right, atol=1e-13, rtol=1e-13)

    def test_derivative_reproduces_integrand(self):
        # d/dtheta of the accumulated integral equals the integrand: for
        # each row, (p - alpha)^n p^-s [tan], within 1e-8 of the size
        # (p + alpha)^n p^-s [|tan|] of the binomial sum it equals; for
        # the power integrals reassembled from it, p^n [tan], within 1e-8
        alpha = 0.6
        ap = math.sqrt(1 - alpha * alpha)
        h = 1e-6
        for _ in range(20):
            th = float(RNG.uniform(-1.1, 1.1))
            got = rows(alpha, th - h, th + h, 6) / (2 * h)
            p = delta(ap, th) / math.cos(th)
            for (family, s), row in zip(ROW_KINDS, got):
                w = p**-s * (math.tan(th) if family == "tan" else 1.0)
                for n in (0, 2, 5):
                    scale = (p + alpha) ** n * abs(w)
                    assert abs(row[n] - (p - alpha) ** n * w) <= 1e-8 * scale, (family, s, n)
            for family, n, value in powers_from_rows(got, alpha):
                val = p**n
                if family == "plain":
                    assert value == pytest.approx(val, rel=1e-8)
                else:
                    assert value == pytest.approx(val * math.tan(th), rel=1e-8, abs=1e-9)

    def test_range_touching_pi_over_2_rejected(self):
        with pytest.raises(ValueError):
            pow_plain(0.3, -0.2, math.pi / 2)
        with pytest.raises(ValueError):
            pow_tan(0.3, -math.pi / 2, 0.2)


def ends(alpha, lo, hi):
    """(u, tan theta) at lo and at hi, u = p - alpha written as alpha'^2 / (cos (Delta + alpha cos))."""
    ap = math.sqrt((1 - alpha) * (1 + alpha))
    return tuple((ap * ap / (math.cos(th) * (delta(ap, th) + alpha * math.cos(th))), math.tan(th)) for th in (lo, hi))


def direct(alpha, lo, hi, n_max, plain=None, tan=None, ash=None):
    """``binomial_combination`` called on the seeds of ``build_table`` (or those given)."""
    ap = math.sqrt((1 - alpha) * (1 + alpha))
    tab = build_table(alpha, lo, hi, 0)
    if ash is None:
        ash = math.asinh(ap * math.tan(hi)) - math.asinh(ap * math.tan(lo))
    plain = tab.plain if plain is None else plain
    tan = tab.tan if tan is None else tan
    return binomial_combination(n_max, alpha, ap, plain, tan, ash, ends(alpha, lo, hi))


def mp_powers(alpha, lo, hi, n_max):
    """plain[n], n = -3 .. n_max, and tan[n], n = -1 .. n_max, by mpmath at 30 digits, as floats."""
    with mp.workdps(30):
        ap = mp.sqrt(1 - mp.mpf(alpha) ** 2)

        def power(n, tan):
            def f(th):
                p = mp.sqrt(1 + (ap * mp.tan(th)) ** 2)
                return p**n * (mp.tan(th) if tan else 1)

            return float(mp.quad(f, [lo, 0, hi] if lo < 0 < hi else [lo, hi]))

        return [power(n, False) for n in range(-3, n_max + 1)], [power(n, True) for n in range(-1, n_max + 1)]


class TestBinomialCombination:
    def test_empty_binomial(self):
        # no rows at n_max = 0; order 0 of every row is its seed
        assert direct(0.4, -0.3, 0.6, 0) == []
        tab = build_table(0.4, -0.3, 0.6, 4)
        assert len(tab.rows) == 4 and all(len(r) == 6 for r in tab.rows)
        got = table_rows(tab)
        for s in (0, 1, 2, 3):
            assert got[s, 0] == tab.plain[-s + 3]
        for s in (0, 1):
            assert got[4 + s, 0] == tab.tan[-s + 1]

    def test_alpha_zero_single_term(self):
        # at alpha = 0, (p - alpha)^q p^-s is p^(q - s): each row is its
        # family's powers shifted by s, and the steps that shift carry them
        # over exactly
        got = rows(0.0, -0.3, 0.6, 6)
        for q in (1, 3, 5):
            for s in (1, 2, 3):
                assert got[s, q] == got[s - 1, q - 1]
            assert got[0, q] == got[1, q + 1]
            assert got[5, q] == got[4, q - 1]

    def test_named_case_against_oracle(self):
        # q=3, s=1, alpha=0.5 over [-0.2, 0.7]; frozen adaptive value
        got = build_table(0.5, -0.2, 0.7, 4).rows[3 - 1][1]
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
            assert build_table(alpha, lo, hi, q).rows[q - 1][s] == pytest.approx(float(v[0].real), abs=5e-12)

    def test_matches_scalar_sum(self):
        # reference: the binomial sum term by term over power integrals
        # taken by mpmath, for each of the six rows (plain s = 0 .. 3, tan
        # s = 0, 1) and every q, within 1e-14 of the sum of its |terms|
        for alpha in (0.0, 0.3, 0.7, 0.95):
            plain, tan = mp_powers(alpha, -0.4, 0.75, 12)
            got = rows(alpha, -0.4, 0.75, 12)
            assert got.shape == (6, 13)
            for row, (tab, s, first) in enumerate(
                [(plain, s, 3) for s in range(4)] + [(tan, s, 1) for s in range(2)]
            ):
                for q in range(13):
                    terms = [
                        math.comb(q, u) * (-alpha) ** u * tab[q - u - s + first]
                        for u in range(q + 1)
                    ]
                    scale = sum(abs(t) for t in terms)
                    assert abs(got[row, q] - sum(terms)) <= 1e-14 * scale, (alpha, row, q)

    def test_stacked_table_equals_row_by_row(self):
        # build_table makes one binomial_combination call, through the
        # module's name, for both families; each family's rows come from
        # its own seeds, and the other family's seeds play no part in them
        for alpha, q_max in ((0.0, 3), (0.35, 8), (0.9, 13)):
            calls = []

            def counted(*args, fn=elemints.binomial_combination):
                calls.append(args)
                return fn(*args)

            with pytest.MonkeyPatch.context() as mpatch:
                mpatch.setattr(elemints, "binomial_combination", counted)
                tab = build_table(alpha, -0.5, 1.2, q_max)
            assert len(calls) == 1 and len(tab.rows) == q_max
            both = direct(alpha, -0.5, 1.2, q_max)
            assert tab.rows == both
            only_plain = direct(alpha, -0.5, 1.2, q_max, tan=[0.0, 0.0])
            only_tan = direct(alpha, -0.5, 1.2, q_max, plain=[0.0] * 4, ash=0.0)
            assert [r[:4] for r in only_plain] == [r[:4] for r in both]
            assert [r[4:] for r in only_tan] == [r[4:] for r in both]


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
        assert (len(tab.plain), len(tab.tan), len(tab.rows)) == (4, 2, 10)
        assert tab.plain[0 + 3] == pytest.approx(1.3, abs=1e-14)
        assert all(len(r) == 6 and all(type(v) is float for v in r) for r in tab.rows)
        assert tab.rows == direct(0.35, -0.5, 0.8, 10)

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
    def test_every_entry_is_finite(self, alpha):
        # only entries that are read are tabulated: no placeholder slots
        for n_max in (0, 6, 14):
            tab = build_table(alpha, -0.5, 0.8, n_max)
            assert len(tab.rows) == n_max
            assert np.isfinite(table_rows(tab)).all()


REFERENCE = json.loads((Path(__file__).parent / "data" / "elem_reference.json").read_text())["entries"]


@pytest.mark.parametrize(
    "entry", REFERENCE, ids=[f"{e['alpha']:g}-{e['alpha_p']}-{e['theta_lo']:.4g}-{e['theta_hi']:.4g}" for e in REFERENCE]
)
def test_against_independent_reference(entry):
    # mpmath values that share no code with the library (bench/elem_reference.py):
    # the seeds, and the six rows at every order production reads and
    # beyond, each within 1e-14 of its scale, the integral of
    # (p + alpha)^n p^-s [|tan|]; ranges out to pi/2 - 1e-4, and the sliver
    # a point just above an edge's line makes: alpha rounded to 1.0 with
    # alpha' = 1e-9 given, where plain[-3] was off by 3.2e-8 and tan[-1]
    # by 1.4e-7
    kw = {} if entry["alpha_p"] is None else {"alpha_p": entry["alpha_p"]}
    tab = build_table(entry["alpha"], entry["theta_lo"], entry["theta_hi"], 17, **kw)
    got = {f"plain[{n}]": tab.plain[n + 3] for n in range(-3, 1)}
    got.update({f"tan[{n}]": tab.tan[n + 1] for n in range(-1, 1)}, lc=tab.lc, ls=tab.ls)
    for row, (family, s) in zip(table_rows(tab).tolist(), ROW_KINDS):
        got.update({f"{'P' if family == 'plain' else 'T'}{s}[{n}]": v for n, v in enumerate(row)})
    families = ("plain", "tan", "P0", "P1", "P2", "P3", "T0", "T1")
    want = {f"{fam}[{n}]": v for fam in families for n, v in entry[fam].items() if f"{fam}[{n}]" in got}
    want.update({name: entry[name] for name in ("lc", "ls") if entry.get(name)})  # none at alpha = 0
    assert len(want) >= 6 * 18
    for name, (value, scale) in want.items():
        assert abs(got[name] - value) <= 1e-14 * max(1.0, scale), name
