"""A-priori 1/R error estimate against brute-force Legendre remainders."""

import dataclasses
import math

import numpy as np
import pytest

from helmpanel.estimator import (
    EstimatorGeom,
    OrderSelection,
    Q_CAP,
    e_q_bound,
    select_order,
)
from helmpanel.geometry import RadialExtents
from helmpanel.numquad import gauss_rule

from helpers import e_q_bound_enclosed, epsilon_q, legendre_remainder, remainder_amplitude


def geom_for(r_max, r_min, z):
    return EstimatorGeom.from_extents(RadialExtents(r_min=r_min, r_max=r_max), z)


class TestFormulas:
    def test_t_zero_vanishes(self):
        g = geom_for(1.0, 0.5, 0.3)  # r_min = r_mid -> t = 0
        assert g.t == 0.0
        for q in (1, 5, 20):
            assert epsilon_q(g, q) == 0.0
            assert e_q_bound(g, q) == 0.0

    def test_enclosed_form_matches_general_at_t1(self):
        for z in (0.05, 0.3, 2.0):
            g = geom_for(1.0, 0.0, z)
            assert g.t == 1.0
            for q in (1, 8, 32):
                assert e_q_bound(g, q) == pytest.approx(
                    e_q_bound_enclosed(g, q), rel=1e-13
                )

    def test_cos_phi_zero_gives_zero(self):
        g = EstimatorGeom(r_mid=0.0, R_mid=1.0, cos_phi=0.0, sin_phi=1.0, t=1.0)
        for q in (0, 1, 7):
            assert e_q_bound(g, q) == 0.0

    def test_phi_zero_rejected(self):
        g = EstimatorGeom(r_mid=0.5, R_mid=0.5, cos_phi=1.0, sin_phi=0.0, t=1.0)
        with pytest.raises(ValueError, match="phi"):
            e_q_bound(g, 3)
        with pytest.raises(ValueError, match="phi"):
            epsilon_q(g, 3)

    @pytest.mark.parametrize("q", [-1, 2.0, True, math.nan])
    def test_bad_order_rejected(self, q):
        # q = -1 would divide by sqrt(q + 1) = 0; a float or bool is no order
        with pytest.raises(ValueError, match="q must be"):
            e_q_bound(geom_for(1.0, 0.0, 0.3), q)

    def test_numpy_integer_order_accepted(self):
        # the same value as for a Python int; NumPy's own power differs in the last bit
        g = geom_for(1.0, 0.0, 0.3)
        assert e_q_bound(g, np.int64(7)) == e_q_bound(g, 7)

    def test_magnitude_envelope_bounds_signed_estimate(self):
        # E_Q is the modulus of the complex series whose imaginary part
        # is epsilon_Q
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = geom_for(1.0, float(rng.uniform(0, 0.5)), float(rng.uniform(0.05, 3)))
            q = int(rng.integers(1, 40))
            assert abs(epsilon_q(g, q)) <= e_q_bound(g, q) * (1 + 1e-12)

    def test_e_q_decays_for_large_q(self):
        g = geom_for(1.0, 0.0, 0.4)
        vals = [e_q_bound(g, q) for q in range(1, 160)]
        assert vals[-1] < 1e-12 * vals[0]
        # monotone beyond a threshold
        tail = vals[40:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))


class TestBruteForce:
    def test_signed_estimate_tracks_remainder(self):
        # Q=32, r_mid=1/2, t=1: sign and magnitude of the true remainder
        zs = np.geomspace(0.05, 1.0, 25)
        sign_hits = 0
        n_signed = 0
        for z in zs:
            g = geom_for(1.0, 0.0, float(z))
            est = epsilon_q(g, 32)
            true = legendre_remainder(1.0, float(z), 0.5, 32)
            env = e_q_bound(g, 32)
            if abs(true) > 1e-13:
                n_signed += 1
                if math.copysign(1, est) == math.copysign(1, true):
                    sign_hits += 1
                # magnitude tracking away from oscillation nulls
                if abs(true) > 0.2 * env:
                    assert 0.2 <= abs(est) / abs(true) <= 5.0
        assert sign_hits >= 0.8 * n_signed

    def test_oscillatory_decay_vs_q(self):
        # r_mid=1/2, z=0.1, t=3/4: estimate follows the brute-force
        # remainder in magnitude as Q grows
        z, t = 0.1, 0.75
        g = EstimatorGeom.from_extents(RadialExtents(r_min=0.125, r_max=1.0), z)
        assert g.t == pytest.approx(t)
        for q in range(4, 41, 4):
            true = legendre_remainder(t, z, 0.5, q)
            env = e_q_bound(g, q)
            assert abs(true) <= 6.0 * env
        assert e_q_bound(g, 40) < e_q_bound(g, 4) * 1e-3

    def test_fidelity_band_over_grid(self):
        # ratio of E_Q to the brute-force remainder amplitude at that t
        # stays within [0.2, 20] over the whole grid
        for z in np.geomspace(0.05, 5.0, 8):
            for t in (0.75, 0.875, 1.0):
                for q in (8, 16, 32):
                    g = EstimatorGeom.from_extents(
                        RadialExtents(r_min=0.5 * (1 - t), r_max=1.0), float(z)
                    )
                    amp = remainder_amplitude(t, float(z), 0.5, q)
                    ratio = e_q_bound(g, q) / amp
                    assert 0.2 <= ratio <= 20.0, (z, t, q, ratio)


class TestSelectOrder:
    def test_far_field_low_order(self):
        sel = select_order(RadialExtents(0.0, 1.0), z=100.0, tol=1e-6)
        assert not sel.analytic_required
        assert sel.q == 1
        assert sel.n_gauss == 1

    def test_singular_limit_requires_analytic(self):
        sel = select_order(RadialExtents(0.0, 1.0), z=1e-7, tol=1e-9)
        assert sel.analytic_required
        sel = select_order(RadialExtents(0.0, 1.0), z=0.0, tol=1e-9)
        assert sel.analytic_required

    def test_in_plane_regular_is_constant_integrand(self):
        # r/R is constant along r at z = 0, but the signed fan about an
        # exterior projection cancels in the angle: analytic required
        sel = select_order(RadialExtents(0.4, 1.0), z=0.0, tol=1e-9)
        assert sel.analytic_required
        assert sel.q is None and sel.e_q is None

    def test_gauss_count(self):
        sel = select_order(RadialExtents(0.0, 1.0), z=2.0, tol=1e-9)
        assert not sel.analytic_required
        assert sel.n_gauss == (sel.q + 2) // 2

    def test_selected_order_integrates_model_problem(self):
        # Gauss rule of ceil((Q+1)/2) points on r/R achieves error <= 10 tol
        # (Q from the uncapped criterion; at z = 0.3 it exceeds the cap)
        tol = 1e-6
        ext = RadialExtents(r_min=0.0, r_max=1.0)
        z = 0.3
        q = select_order(ext, z, tol, q_cap=1024).q
        assert q is not None
        n = (q + 2) // 2
        x, w = gauss_rule(n)
        r = 0.5 * (x + 1.0)
        approx = float(np.sum(0.5 * w * r / np.hypot(r, z)))
        exact = math.hypot(1.0, z) - z
        assert abs(approx - exact) <= 10 * tol

    def test_q_required_uncapped(self):
        ext = RadialExtents(0.0, 1.0)
        q = select_order(ext, 0.2, 1e-6, q_cap=512).q
        assert q is not None and q > Q_CAP
        # arbitrarily slow decay as z -> 0
        assert select_order(ext, 0.01, 1e-6, q_cap=512).q is None
        assert select_order(ext, 0.0, 1e-6, q_cap=512).q is None
        assert select_order(RadialExtents(0.5, 1.0), 0.0, 1e-6, q_cap=512).q is None

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            select_order(RadialExtents(0.0, 1.0), 0.5, -1.0)

    @pytest.mark.parametrize(
        "r_min, r_max, z, tol",
        [
            (0.0, 1.0, 0.1, math.nan),
            (0.0, 1.0, math.nan, 1e-6),
            (0.0, 1.0, math.inf, 1e-6),
            (0.0, 1.0, -math.inf, 1e-6),
            (0.0, math.inf, 0.1, 1e-6),
            (0.0, math.nan, 0.1, 1e-6),
            (math.nan, 1.0, 0.1, 1e-6),
            (-0.1, 1.0, 0.1, 1e-6),
            (0.6, 0.5, 0.1, 1e-6),
            (0.0, 1.0, 0.0, math.nan),  # z = 0 is answered without E_Q, but not for a NaN tol
        ],
    )
    def test_non_finite_or_inconsistent_input_raises(self, r_min, r_max, z, tol):
        with pytest.raises(ValueError):
            select_order(RadialExtents(r_min, r_max), z, tol)

    @pytest.mark.parametrize("q_cap", [math.nan, 40.0, True])
    def test_q_cap_not_an_int_raises(self, q_cap):
        # the bisection would return q = nan for a NaN cap, and a float order for 40.0
        with pytest.raises(ValueError, match="q_cap"):
            select_order(RadialExtents(0.0, 1.0), 1.5, 1e-6, q_cap=q_cap)

    def test_numpy_integer_q_cap_accepted(self):
        # numquad.check_order takes NumPy integers as orders too
        sel = select_order(RadialExtents(0.0, 1.0), 1.5, 1e-6, q_cap=np.int64(40))
        assert sel == select_order(RadialExtents(0.0, 1.0), 1.5, 1e-6, q_cap=40)
        assert type(sel.q) is int

    @pytest.mark.parametrize("q_cap", [0, -5])
    def test_q_cap_below_one_requires_analytic(self, q_cap):
        assert select_order(RadialExtents(0.0, 1.0), 1.5, 1e-6, q_cap=q_cap).analytic_required

    def test_returns_selection_dataclass(self):
        sel = select_order(RadialExtents(0.0, 1.0), 1.5, 1e-6)
        assert isinstance(sel, OrderSelection)
        assert not sel.analytic_required
        assert sel.e_q <= 1e-6

    def test_selection_stores_only_q(self):
        assert [f.name for f in dataclasses.fields(OrderSelection)] == ["q", "e_q"]
        none = OrderSelection()
        assert none.analytic_required and none.n_gauss is None
        for q, n in ((1, 1), (2, 2), (5, 3), (32, 17)):
            sel = OrderSelection(q, 1e-9)
            assert not sel.analytic_required and sel.n_gauss == n

    def test_order_loop_matches_e_q_bound(self):
        # every selection must be the one a call of e_q_bound per order gives
        rng = np.random.default_rng(7151)
        q_max = 48
        for _ in range(400):
            r_max = float(rng.uniform(0.1, 3.0))
            ext = RadialExtents(r_min=float(rng.choice([0.0, rng.uniform(0.0, r_max)])), r_max=r_max)
            z = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 1.0))
            tol = float(10.0 ** rng.uniform(-13.0, -3.0))
            geom = EstimatorGeom.from_extents(ext, z)
            want = next((q for q in range(1, q_max + 1) if e_q_bound(geom, q) <= tol), None)
            sel = select_order(ext, z, tol, q_cap=q_max)
            assert sel.q == want
            assert sel.analytic_required == (want is None)
            if want is not None:
                assert sel.q == want and sel.e_q == e_q_bound(geom, want)

    def test_bisection_matches_linear_scan(self):
        # a grid of geometries, with tol set exactly to an E_Q, just below it
        # and just above it: the bisection must return what a scan of every
        # order up to q_cap returns, q and e_q alike
        for r_max in (0.2, 1.0, 3.0):
            for frac in (0.0, 0.3, 0.5, 0.9, 1.0):  # r_min / r_max; 0.5 gives t = 0
                ext = RadialExtents(r_min=frac * r_max, r_max=r_max)
                for z in (-2.0, -1e-3, 1e-6, 0.05, 0.7, 8.0):
                    geom = EstimatorGeom.from_extents(ext, z)
                    e = [e_q_bound(geom, q) for q in range(1, Q_CAP + 1)]
                    tols = [1e-13, 1e-6, 1e-1]
                    for q in (1, 2, 7, 16, Q_CAP - 1, Q_CAP):
                        tols += [e[q - 1], math.nextafter(e[q - 1], 0.0), math.nextafter(e[q - 1], 1.0)]
                    for tol in (t for t in tols if t > 0.0):
                        want = next((q for q in range(1, Q_CAP + 1) if e[q - 1] <= tol), None)
                        sel = select_order(ext, z, tol)
                        assert sel.q == want
                        assert sel.e_q == (None if want is None else e[want - 1])
