"""Economized sin/cos approximations."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmpanel
from helmpanel.expapprox import (
    DELTA_X_LABELS,
    DELTA_X_TIERS,
    EPS_TIERS,
    LAPLACE,
    check_k,
    economize,
    select_approx,
    taylor_degree_for,
    taylor_sin_cos,
)

from helpers import eval_complex, sampled_errors


class TestTaylor:
    def test_degree_three(self):
        cos_c, sin_c = taylor_sin_cos(3)
        assert np.allclose(cos_c, [1.0, 0.0, -0.5, 0.0])
        assert np.allclose(sin_c, [0.0, 1.0, 0.0, -1.0 / 6.0])

    def test_degree_zero(self):
        cos_c, sin_c = taylor_sin_cos(0)
        assert np.allclose(cos_c, [1.0])
        assert np.allclose(sin_c, [0.0])

    def test_degree_fifteen_error(self):
        # remainder bound at x -> pi/2 is (pi/2)^16/16! ~ 6.6e-11
        cos_c, sin_c = taylor_sin_cos(15)
        x = np.linspace(0.0, math.pi / 2, 10001, endpoint=False)
        pc = np.polynomial.polynomial.polyval(x, cos_c)
        ps = np.polynomial.polynomial.polyval(x, sin_c)
        bound = (math.pi / 2) ** 16 / math.factorial(16)
        assert np.max(np.abs(pc - np.cos(x))) < bound
        assert np.max(np.abs(ps - np.sin(x))) < bound

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            taylor_sin_cos(-1)

    @pytest.mark.parametrize(
        "delta_x, eps",
        [(math.pi / 2, 0.0), (math.pi / 2, -1.0), (math.pi / 2, 1e-300), (math.pi / 2, math.nan),
         (math.pi / 2, 1e-2), (math.inf, 1e-9), (100.0, 1e-9), (math.nan, 1e-9), (-0.5, 1e-9), (0.0, 1e-9)],
    )
    def test_degree_outside_the_tables_rejected(self, delta_x, eps):
        # the pairs economize rejects; a vanishing eps or a large delta_x
        # overflowed the remainder bound, a NaN eps or a NaN or negative
        # delta_x gave degree 0
        for f in (taylor_degree_for, economize):
            with pytest.raises(ValueError, match="^(delta_x|eps) must lie in"):
                f(delta_x, eps)


class TestEconomize:
    def test_count_reduction_at_1e9(self):
        # the pi/2, 1e-9 entry: economized degree 8 vs Taylor degree 15
        assert taylor_degree_for(math.pi / 2, 1e-9) == 15
        ap = economize(math.pi / 2, 1e-9)
        assert ap.q <= 8
        ec, es, ez = sampled_errors(ap)
        assert max(ec, es) <= 1e-9
        assert ez <= math.sqrt(2.0) * 1e-9

    def test_full_table_sampled_errors(self):
        for dx in DELTA_X_TIERS:
            for eps in EPS_TIERS:
                ap = economize(dx, eps)
                ec, es, ez = sampled_errors(ap)
                assert max(ec, es) <= eps, (dx, eps)
                assert ez <= math.sqrt(2.0) * eps
                assert ap.q <= taylor_degree_for(dx, eps)

    def test_tables_match_frozen(self):
        # all 20 tiers bit for bit against the tables numpy.polynomial built;
        # on every entry the order and the per-order terms agree with coeffs
        frozen = json.loads((Path(__file__).parent / "data" / "economize_frozen.json").read_text())
        assert len(frozen["tiers"]) == len(DELTA_X_TIERS) * len(EPS_TIERS)
        for entry in frozen["tiers"]:
            ap = economize(DELTA_X_TIERS[DELTA_X_LABELS.index(entry["delta_x"])], entry["eps"])
            key = (entry["delta_x"], entry["eps"])
            assert ap.q == entry["q"], key
            assert [e.real.hex() for e in ap.coeffs] == entry["cos"], key
            assert [e.imag.hex() for e in ap.coeffs] == entry["sin"], key
        for ap in [economize(dx, eps) for dx in DELTA_X_TIERS for eps in EPS_TIERS] + [LAPLACE]:
            assert ap.q == len(ap.coeffs) - 1, (ap.delta_x, ap.eps)
            for q, e in enumerate(ap.coeffs):
                assert [v.hex() for v in ap.terms[q][:2]] == [e.real.hex(), e.imag.hex()], (ap.delta_x, ap.eps, q)

    def test_monotone_cost(self):
        for dx in DELTA_X_TIERS:
            qs = [economize(dx, eps).q for eps in EPS_TIERS]
            # tighter tolerance never costs fewer terms
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_endpoint_coefficients(self):
        for dx in DELTA_X_TIERS:
            ap = economize(dx, 1e-9)
            assert abs(ap.coeffs[0].real - 1.0) <= 1e-9
            assert abs(ap.coeffs[0].imag) <= 1e-9

    def test_tolerance_range_enforced(self):
        with pytest.raises(ValueError):
            economize(math.pi / 2, 1e-16)
        with pytest.raises(ValueError):
            economize(math.pi / 2, 1e-2)
        with pytest.raises(ValueError):
            economize(2.0, 1e-9)

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            economize(math.pi / 2, math.nan)

    def test_complex_eval_helper(self):
        ap = economize(math.pi / 4, 1e-12)
        x = np.linspace(0.0, ap.delta_x, 100, endpoint=False)
        assert np.max(np.abs(eval_complex(ap, x) - np.exp(1j * x))) < 2e-12


class TestSelectApprox:
    def test_smallest_covering_range(self):
        ap = select_approx(k=1.0, ell=0.1, eps=1e-6)
        assert ap.delta_x == pytest.approx(math.pi / 16)
        assert ap.eps == 1e-6

    def test_large_argument_needs_pi_over_2(self):
        ap = select_approx(k=1.0, ell=1.0, eps=1e-9)
        assert ap.delta_x == pytest.approx(math.pi / 2)

    def test_oversize_element_rejected(self):
        with pytest.raises(ValueError, match="pi/2"):
            select_approx(k=1.0, ell=1.6, eps=1e-9)

    def test_nan_rejected(self):
        # NaN never reaches a silent tier or an AssertionError
        with pytest.raises(ValueError, match="^k = nan"):
            select_approx(k=math.nan, ell=0.5, eps=1e-6)
        with pytest.raises(ValueError, match="eps"):
            select_approx(k=1.0, ell=0.5, eps=math.nan)

    def test_k_zero_gives_laplace_after_the_checks(self):
        # at k = 0 the kernel is exactly 1/R: e = [1] at order 0, whatever ell and eps
        for ell in (0.0, 0.3, 1e6):
            for eps in (1e-15, 1e-9, 1e-2):
                assert select_approx(0.0, ell, eps) is LAPLACE
        # the checks run first, so bad input still raises at k = 0
        with pytest.raises(ValueError, match="eps"):
            select_approx(0.0, 0.3, math.nan)
        with pytest.raises(ValueError, match="k\\*ell"):
            select_approx(0.0, math.inf, 1e-9)

    @pytest.mark.parametrize("k, ell", [(-1.0, 0.5), (1.0, -0.5), (-math.inf, 0.1), (-1.0, -0.5)])
    def test_negative_argument_rejected(self, k, ell):
        # the expansion covers [0, delta_x) only; each factor is checked, so
        # two negative ones with a positive product are rejected too
        with pytest.raises(ValueError, match=f"^{'k' if k < 0.0 else 'ell'} = .*: negative"):
            select_approx(k, ell, 1e-9)

    @pytest.mark.parametrize("k", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
    def test_bool_wavenumber_rejected(self, k):
        # select_approx(True, 0.5, 1e-9) once returned the pi/2 entry at q = 7;
        # the message is EvalRequest's
        with pytest.raises(ValueError, match="^k must be finite and real"):
            select_approx(k, 0.5, 1e-9)

    @pytest.mark.parametrize("k", [0, 0.0, 1, 2.5, np.float64(0.5), np.int64(3), np.float32(0.25)])
    def test_check_k_accepts_numbers(self, k):
        check_k(k)

    def test_eps_tier_selection(self):
        # 5e-12 is not a tier: falls to the nearest not-coarser tier 1e-12
        ap = select_approx(k=1.0, ell=0.1, eps=5e-12)
        assert ap.eps == 1e-12
        # requests coarser than 1e-3 use the coarsest tier
        ap = select_approx(k=1.0, ell=0.1, eps=1e-2)
        assert ap.eps == 1e-3

    def test_entry_of_documented_rule_on_grid(self):
        # the rule, written out: the smallest delta_x tier strictly above
        # k * ell, and the coarsest eps tier not above eps (the coarsest
        # tier for any eps above it); the grid holds every tier value and
        # values between and around the tiers
        def rule(x, eps):
            dx = min(t for t in DELTA_X_TIERS if t > x)
            fine_enough = [e for e in EPS_TIERS if e <= eps]
            return dx, max(fine_enough)

        xs = [0.0, 1e-12, *DELTA_X_TIERS[:-1]]
        xs += [0.5 * (a + b) for a, b in zip((0.0,) + DELTA_X_TIERS, DELTA_X_TIERS)]
        xs += [math.nextafter(t, 0.0) for t in DELTA_X_TIERS]
        xs += [math.nextafter(t, math.inf) for t in DELTA_X_TIERS[:-1]]
        epss = [*EPS_TIERS, 5e-3, 1e-2, math.inf]
        epss += [math.sqrt(a * b) for a, b in zip(EPS_TIERS, EPS_TIERS[1:])]
        epss += [math.nextafter(e, 0.0) for e in EPS_TIERS[:-1]]
        epss += [math.nextafter(e, math.inf) for e in EPS_TIERS]
        for x in xs:
            for eps in epss:
                for k, ell in ((1.0, x), (2.0, 0.5 * x)):
                    if k * ell != x:
                        continue
                    dx, tier = rule(x, eps)
                    got = select_approx(k, ell, eps)
                    want = economize(dx, tier)
                    assert (got.delta_x, got.eps, got.q) == (dx, tier, want.q), (x, eps)
                    np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_out_of_range_and_nan_rejected_on_grid(self):
        for x in (DELTA_X_TIERS[-1], math.nextafter(DELTA_X_TIERS[-1], math.inf), 2.0, math.inf):
            with pytest.raises(ValueError, match="pi/2"):
                select_approx(1.0, x, 1e-9)
        for eps in (math.nextafter(EPS_TIERS[-1], 0.0), 1e-16, 0.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="eps"):
                select_approx(1.0, 0.1, eps)
        for k, ell, name in ((math.nan, 0.1, "k ="), (1.0, math.nan, "ell ="), (math.inf, 0.0, "k\\*ell =")):
            with pytest.raises(ValueError, match=f"^{name}"):
                select_approx(k, ell, 1e-9)


def test_import_leaves_numpy_polynomial_out():
    # the economized tables and the Gauss-Legendre rules are built without
    # numpy.polynomial, and the oracle reads no other table, so no process
    # that imports helmpanel loads it
    code = (
        "import sys, helmpanel\n"
        "from helmpanel.expapprox import select_approx\n"
        "select_approx(1.0, 1.0, 1e-15)\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "from helmpanel.numquad import adaptive_oracle, gauss_rule\n"
        "gauss_rule(50)\n"
        "adaptive_oracle([(-0.3, -0.2), (0.7, -0.2), (0.1, 0.6)], 1e-3, 1.0, want_hyper=True)\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    src = str(Path(helmpanel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
