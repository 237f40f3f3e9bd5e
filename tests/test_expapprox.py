"""Economized sin/cos approximations."""

import math

import numpy as np
import pytest

from helmpanel.expapprox import (
    DELTA_X_TIERS,
    EPS_TIERS,
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

    def test_monotone_cost(self):
        for dx in DELTA_X_TIERS:
            qs = [economize(dx, eps).q for eps in EPS_TIERS]
            # tighter tolerance never costs fewer terms
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_endpoint_coefficients(self):
        for dx in DELTA_X_TIERS:
            ap = economize(dx, 1e-9)
            assert abs(ap.cos_coeffs[0] - 1.0) <= 1e-9
            assert abs(ap.sin_coeffs[0]) <= 1e-9

    def test_tolerance_range_enforced(self):
        with pytest.raises(ValueError):
            economize(math.pi / 2, 1e-16)
        with pytest.raises(ValueError):
            economize(math.pi / 2, 1e-2)
        with pytest.raises(ValueError):
            economize(2.0, 1e-9)

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

    def test_eps_tier_selection(self):
        # 5e-12 is not a tier: falls to the nearest not-coarser tier 1e-12
        ap = select_approx(k=1.0, ell=0.1, eps=5e-12)
        assert ap.eps == 1e-12
        # requests coarser than 1e-3 use the coarsest tier
        ap = select_approx(k=1.0, ell=0.1, eps=1e-2)
        assert ap.eps == 1e-3
