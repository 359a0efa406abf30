"""Unit tests for the background closed forms: scale factor, horizon,
curved mass, light cone, and the regime classification."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.integrate import quad

import kgflrw
from kgflrw.cosmology import (
    Background,
    ConeData,
    CosmologyParams,
    DomainError,
    Regime,
    background_arrays,
    classify_regime,
    cone_radius,
    curved_mass_bounds,
    curved_mass_sq,
    background,
    horizon_time,
    mass_sign_change_time,
    scale_factor,
    weight_exponent,
)
from oracles import cone_radius_quadrature, curved_mass_sq_from_derivatives


MINKOWSKI = CosmologyParams(n=1)
DE_SITTER_EXP = CosmologyParams(n=3, H=1.0, sigma=-1.0)
DE_SITTER_CON = CosmologyParams(n=3, H=-1.0, sigma=-1.0)
CRUNCH = CosmologyParams(n=3, H=-1.0, sigma=0.0)
RIP = CosmologyParams(n=2, H=1.0, sigma=-2.0)


class TestHorizon:
    def test_infinite_when_static_or_expanding(self):
        assert horizon_time(MINKOWSKI) == math.inf
        assert horizon_time(DE_SITTER_EXP) == math.inf
        assert horizon_time(DE_SITTER_CON) == math.inf
        # contracting power law with sigma < -1 - 2/n also never ends
        assert horizon_time(CosmologyParams(n=3, H=-1.0, sigma=-3.0)) == math.inf

    def test_finite_horizon_values(self):
        # T0 = -2 / (n (1+sigma) H)
        assert horizon_time(CRUNCH) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert horizon_time(RIP) == pytest.approx(1.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            scale_factor(CRUNCH, -0.1)
        with pytest.raises(DomainError):
            scale_factor(CRUNCH, 2.0 / 3.0)
        with pytest.raises(DomainError):
            cone_radius(ConeData(1.0, RIP), 1.5)


class TestScaleFactor:
    def test_initial_value(self):
        for params in (MINKOWSKI, DE_SITTER_EXP, CRUNCH, RIP):
            assert scale_factor(params, 0.0) == params.a0

    def test_de_sitter_is_exponential(self):
        assert scale_factor(DE_SITTER_EXP, 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)
        assert scale_factor(DE_SITTER_CON, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_power_law_value(self):
        # n=2, sigma=1, H=1: a = (1 + 2t)^(1/2)
        params = CosmologyParams(n=2, H=1.0, sigma=1.0)
        assert scale_factor(params, 4.0) == pytest.approx(3.0, rel=1e-14)

    @given(
        n=st.integers(1, 4),
        H=st.floats(-1.5, 1.5),
        sigma=st.floats(-3.0, 2.0),
        x=st.floats(0.0, 1.0),
    )
    def test_positive_before_horizon(self, n, H, sigma, x):
        params = CosmologyParams(n=n, H=H, sigma=sigma)
        t0 = horizon_time(params)
        t = x * (0.9 * t0 if math.isfinite(t0) else 10.0)
        assert scale_factor(params, t) > 0.0


class TestCurvedMass:
    def test_minkowski_reduces_to_flat_mass(self):
        params = CosmologyParams(n=3, m_sq=2.5)
        assert curved_mass_sq(params, 1.0) == 2.5

    def test_de_sitter_constant_shift(self):
        # M^2 = m^2 - (n H / 2c)^2 at sigma = -1
        params = CosmologyParams(n=3, H=2.0, sigma=-1.0, m_sq=1.0)
        expected = 1.0 - 9.0
        for t in (0.0, 1.0, 7.0):
            assert curved_mass_sq(params, t) == pytest.approx(expected, rel=1e-15)

    def test_matches_derivative_definition(self):
        for params in (DE_SITTER_CON, CRUNCH, RIP, CosmologyParams(n=4, H=0.6, sigma=1.2, m_sq=-1.0, c=1.3)):
            t0 = horizon_time(params)
            for t in (0.0, 0.2, 0.45):
                tt = t * (t0 if math.isfinite(t0) else 1.0)
                closed = curved_mass_sq(params, tt)
                fd = curved_mass_sq_from_derivatives(params, tt)
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-6)

    def test_sign_change_time(self):
        # crunch with m large enough that M^2 starts positive and must dive
        params = CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=4.0)
        t1 = mass_sign_change_time(params)
        assert t1 == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, rel=1e-14)
        assert abs(curved_mass_sq(params, t1)) < 1e-10
        assert curved_mass_sq(params, 0.5 * t1) > 0.0
        assert curved_mass_sq(params, 0.5 * (t1 + 1.0)) < 0.0

    def test_sign_change_none_cases(self):
        assert mass_sign_change_time(MINKOWSKI) is None
        # mass below the critical size: M^2 never reaches zero
        assert mass_sign_change_time(CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=1.0)) is None
        # wrong regime sign
        assert mass_sign_change_time(CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=4.0)) is None

    def test_bounds_envelope_contains_samples(self):
        cases = [MINKOWSKI, DE_SITTER_EXP, CRUNCH, RIP,
                 CosmologyParams(n=2, H=1.0, sigma=1.5, m_sq=-2.0),
                 CosmologyParams(n=3, H=-0.5, sigma=2.0, m_sq=1.0),
                 CosmologyParams(n=3, H=-1.0, sigma=-3.0, m_sq=-1.0)]
        for params in cases:
            bounds = curved_mass_bounds(params)
            t0 = horizon_time(params)
            ts = np.linspace(0.0, 0.95 * t0 if math.isfinite(t0) else 20.0, 64)
            for t in ts:
                msq = curved_mass_sq(params, float(t))
                assert bounds.lower - 1e-9 <= msq <= bounds.upper + 1e-9

    def test_bounds_case_labels(self):
        assert curved_mass_bounds(MINKOWSKI).case == "i"
        assert curved_mass_bounds(DE_SITTER_EXP).case == "ii"
        assert curved_mass_bounds(CosmologyParams(n=2, H=1.0, sigma=1.5)).case == "iii"
        assert curved_mass_bounds(CosmologyParams(n=2, H=1.0, sigma=-0.5)).case == "iv"
        assert curved_mass_bounds(CosmologyParams(n=2, H=-1.0, sigma=1.5)).case == "v"
        assert curved_mass_bounds(RIP).case == "vi"
        # the case follows the signs of 1 + sigma and H, also where their product underflows
        bounds = curved_mass_bounds(CosmologyParams(n=2, m_sq=-1.0, H=5e-324, sigma=-0.6))
        assert (bounds.case, bounds.lower, bounds.upper) == ("iv", -1.0, -1.0)


class TestCone:
    def test_minkowski_linear(self):
        cone = ConeData(1.0, CosmologyParams(n=1, c=2.0, a0=4.0))
        assert cone_radius(cone, 3.0) == pytest.approx(1.0 + 2.0 * 3.0 / 4.0, rel=1e-15)

    def test_log_branch(self):
        # n(1+sigma) = 2: r = r0 + (c / a0 H) log(1 + H t)
        cone = ConeData(0.5, CosmologyParams(n=2, H=1.0, sigma=0.0))
        assert cone_radius(cone, math.e - 1.0) == pytest.approx(1.5, rel=1e-13)

    def test_de_sitter_saturation(self):
        cone = ConeData(1.0, DE_SITTER_EXP)
        assert background(DE_SITTER_EXP, 1.0).r_limit == pytest.approx(2.0, rel=1e-15)
        assert cone_radius(cone, 40.0) == pytest.approx(2.0, rel=1e-12)

    def test_limit_unbounded_cases(self):
        assert background(MINKOWSKI, 1.0).r_limit == math.inf
        assert background(DE_SITTER_CON, 1.0).r_limit == math.inf
        assert background(MINKOWSKI).r_limit is None  # no cone without r0

    def test_limit_finite_crunch(self):
        # a ~ (T0 - t)^(2/3) near the crunch, so the integral of c/a
        # converges: r0 + 2c/(a0 |H| (q-2)) with q = 3 gives 3 here
        assert background(CRUNCH, 1.0).r_limit == pytest.approx(3.0, rel=1e-14)

    def test_limit_finite_rip(self):
        # big rip: a -> inf at T0, the integral of c/a converges
        lim = background(RIP, 1.0).r_limit
        assert math.isfinite(lim)
        assert cone_radius(ConeData(1.0, RIP), 0.999999) < lim

    @pytest.mark.parametrize("params", [
        MINKOWSKI, DE_SITTER_EXP, DE_SITTER_CON, CRUNCH, RIP,
        CosmologyParams(n=2, H=1.0, sigma=0.0),      # log branch
        CosmologyParams(n=3, H=0.7, sigma=1.1, c=1.4, a0=0.8),
        CosmologyParams(n=3, H=-0.8, sigma=-3.0),
    ])
    def test_closed_form_matches_quadrature(self, params):
        cone = ConeData(0.7, params)
        t0 = horizon_time(params)
        top = 0.9 * t0 if math.isfinite(t0) else 5.0
        for t in np.linspace(0.0, top, 7):
            closed = cone_radius(cone, float(t))
            ref = cone_radius_quadrature(cone, float(t))
            assert closed == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("eps", [-1e-9, -1e-11, -3e-12, -1e-13, 1e-13, 3e-12, 1e-11, 1e-9])
    @pytest.mark.parametrize("H", [0.8, -0.8])
    def test_closed_form_accurate_beside_the_log_cone(self, n, eps, H):
        # n(1+sigma) = 2 + eps: one closed form on both sides of the
        # logarithmic cone, with no cancellation as eps -> 0
        params = CosmologyParams(n=n, H=H, sigma=(2.0 + eps) / n - 1.0)
        cone = ConeData(0.7, params)
        t0 = horizon_time(params)
        for t in np.linspace(0.0, 0.9 * t0 if math.isfinite(t0) else 5.0, 7)[1:].tolist():
            assert cone_radius(cone, t) == pytest.approx(cone_radius_quadrature(cone, t), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("eps", [-1e-9, 1e-9])
    @pytest.mark.parametrize("H", [0.8, -0.8])
    def test_closed_form_accurate_beside_de_sitter(self, n, eps, H):
        # the reference integrates c/a with a = a0 exp((2/q) log1p(qHs/2)):
        # a(t)'s power form carries (2/q) ulps, about 1e-7 relative at this q
        params = CosmologyParams(n=n, H=H, sigma=-1.0 + eps, c=1.3, a0=0.8)
        q = n * (1.0 + params.sigma)

        def c_over_a(s):
            return params.c / (params.a0 * math.exp(2.0 / q * math.log1p(q * H * s / 2.0)))

        cone = ConeData(0.7, params)
        for t in np.linspace(0.0, 5.0, 7)[1:].tolist():
            integral, _ = quad(c_over_a, 0.0, t, epsabs=0.0, epsrel=1e-13)
            assert cone_radius(cone, t) == pytest.approx(0.7 + integral, rel=1e-10)

    def test_underflowing_scale_factor_overflows_the_cone(self):
        # a(t) underflows to 0 long before this crunch, where r ~ e^4600; the
        # comparison ODE's right-hand side maps the OverflowError to inf, and
        # the threshold grids get log r, which stays finite
        params = CosmologyParams(n=1, H=-1.0, sigma=-0.999)
        t = 0.9 * horizon_time(params)
        assert scale_factor(params, t) == 0.0
        with pytest.raises(OverflowError):
            cone_radius(ConeData(0.5, params), t)
        with pytest.raises(OverflowError):
            background(params, 0.5).mass_sq_weight(1.0, 2.0)(t)
        log_r = float(background_arrays(params, 0.5, [t])[1][0])
        assert math.log(sys.float_info.max) < log_r < math.inf

    def test_entry_time_solves_half_R(self):
        # the cone enters the annulus R/2 < |x| < R of R = 3 at radius 1.5
        bg = background(CRUNCH, 0.25)
        t = bg.cone_time(1.5)
        assert t is not None
        assert bg.r(t) == pytest.approx(1.5, rel=1e-12)

    def test_entry_time_boundary_and_unreachable(self):
        bg = background(DE_SITTER_EXP, 1.0)  # saturates at r = 2
        assert bg.cone_time(1.0) == 0.0
        assert bg.cone_time(0.5) is None  # r0 already past the radius
        assert bg.cone_time(3.0) is None  # cone never reaches 3

    @given(t=st.floats(0.0, 5.0), dt=st.floats(0.01, 1.0))
    def test_monotone_in_time(self, t, dt):
        cone = ConeData(1.0, CosmologyParams(n=2, H=0.5, sigma=0.3))
        assert cone_radius(cone, t + dt) > cone_radius(cone, t)


class TestRegimeAndArrays:
    def test_classification(self):
        assert classify_regime(MINKOWSKI) is Regime.MINKOWSKI
        assert classify_regime(DE_SITTER_EXP) is Regime.DE_SITTER_EXPANDING
        assert classify_regime(DE_SITTER_CON) is Regime.DE_SITTER_CONTRACTING
        assert classify_regime(CosmologyParams(n=2, H=1.0, sigma=0.5)) is Regime.EXPANDING_POLYNOMIAL
        assert classify_regime(RIP) is Regime.BIG_RIP
        assert classify_regime(CRUNCH) is Regime.BIG_CRUNCH
        assert classify_regime(CosmologyParams(n=3, H=-1.0, sigma=-2.0)) is Regime.CONTRACTING

    @pytest.mark.parametrize("params", [MINKOWSKI, DE_SITTER_CON, CRUNCH, RIP,
                                        CosmologyParams(n=2, H=1.0, sigma=0.0)])
    def test_vectorized_matches_scalar(self, params):
        r0 = 0.6
        t0 = horizon_time(params)
        ts = np.linspace(0.0, 0.9 * t0 if math.isfinite(t0) else 4.0, 11)
        log_a, log_r, msq = background_arrays(params, r0, ts)
        cone = ConeData(r0, params)
        for j, t in enumerate(ts):
            assert math.exp(log_a[j]) == pytest.approx(scale_factor(params, float(t)), rel=1e-13)
            assert math.exp(log_r[j]) == pytest.approx(cone_radius(cone, float(t)), rel=1e-13)
            assert msq[j] == pytest.approx(curved_mass_sq(params, float(t)), rel=1e-13, abs=1e-13)
        # a 0-d time gives the entries of a one-element grid
        for j in (0, 5):
            assert [float(x) for x in background_arrays(params, r0, ts[j])] == [
                float(log_a[j]), float(log_r[j]), float(msq[j])]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CosmologyParams(n=0)
        with pytest.raises(ValueError):
            CosmologyParams(n=2, c=0.0)
        with pytest.raises(ValueError):
            CosmologyParams(n=2, a0=-1.0)
        with pytest.raises(ValueError):
            ConeData(0.0, MINKOWSKI)


class TestScaleFactorNearDeSitter:
    def test_matches_a_50_digit_reference(self):
        # sigma -> -1 sends the exponent 2/q of the bracket to infinity; a
        # power of the rounded bracket was off by up to 2.2e-7 here, while
        # a0 exp(L) with L = (2/q) log1p(qHt/2) is off by |L| ulps at most
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for eps in (-1e-6, -1e-9, 1e-9, 1e-6):
                for n in (1, 3):
                    for H in (-0.7, 0.7):
                        params = CosmologyParams(n=n, H=H, sigma=-1.0 + eps, a0=1.3)
                        q = n * (1 + mpmath.mpf(params.sigma))
                        for t in np.linspace(0.0, 4.1, 42).tolist():
                            exact = mpmath.mpf(1.3) * (1 + q * mpmath.mpf(H) * t / 2) ** (2 / q)
                            rel = abs((mpmath.mpf(scale_factor(params, t)) - exact) / exact)
                            worst = max(worst, float(rel))
        assert worst <= 1e-14


@st.composite
def _regime_points(draw):
    """(params, r0) over the (H, sigma) plane, with the branch points drawn often."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["free", "de_sitter", "static", "near_log"]))
    H = 0.0 if kind == "static" else draw(st.floats(-1.5, 1.5, allow_subnormal=False))
    if kind == "de_sitter":
        sigma = -1.0
    elif kind == "near_log":
        # n(1+sigma) = 2 + eps, around the logarithmic cone
        eps = draw(st.sampled_from([-1e-3, -1e-9, -3e-12, -1e-13, 0.0, 1e-13, 3e-12, 1e-9, 1e-3]))
        sigma = (2.0 + eps) / n - 1.0
    else:
        sigma = draw(st.floats(-3.0, 2.0))
    params = CosmologyParams(
        n=n, H=H, sigma=sigma,
        m_sq=draw(st.floats(-2.0, 2.0)),
        c=draw(st.floats(0.5, 2.0)),
        a0=draw(st.floats(0.5, 2.0)),
    )
    return params, draw(st.floats(0.2, 2.0))


class TestBackground:
    @given(point=_regime_points())
    @example(point=(CosmologyParams(n=1, H=4e-301, sigma=1.0 + 1e-13), 1.0))  # e L subnormal
    def test_scalars_match_arrays(self, point):
        # numpy's log1p/expm1 may differ from math's by an ulp, so the bar is
        # round-off of the terms each closed form sums.  exp has condition
        # number |x|: an ulp of L = log(a/a0) moves a = a0 exp(L) by |L| ulps,
        # and the half ulp of log a = log a0 + L moves exp(log a) by |log a|/2
        # ulps, so a's bar is 1 + |L| + |log a| ulps of a.  In
        # r - r0 = (c/a0H) expm1(x)/e with x = e L, e = q/2 - 1, an ulp of L
        # moves expm1(x) by x e^x / expm1(x) < 1 + max(x, 0) ulps, and log r
        # by that relative error of r plus its own ulp
        params, r0 = point
        bg = Background(params, r0)
        t0 = horizon_time(params)
        ts = np.linspace(0.0, 0.9 * t0 if math.isfinite(t0) else 5.0, 9)
        log_a, log_r, msq = background_arrays(params, r0, ts)
        for j, t in enumerate(ts.tolist()):
            try:
                a_s, r_s = bg.a(t), bg.r(t)
            except OverflowError:  # a(t) underflows before a crunch, r overflows
                assert math.isfinite(log_r[j])
                continue
            m_s = bg.mass_sq(t)
            L = bg._log_a(t)
            spread = 1.0 + abs(L) + abs(log_a[j])
            assert abs(math.exp(log_a[j]) - a_s) <= 1e-15 * spread * abs(a_s)
            assert abs(msq[j] - m_s) <= 1e-15 * (abs(bg.m_sq) + abs(m_s - bg.m_sq))
            amplify = 1.0 + max(bg.cone_exp * L, 0.0)
            log_r_s = math.log(r_s)
            assert log_r[j] == log_r_s or abs(log_r[j] - log_r_s) <= 1e-15 * (
                1.0 + abs(r_s - r0) * amplify / r_s + abs(log_r_s))

    @given(point=_regime_points(), lam=st.floats(0.5, 2.0), p=st.floats(1.2, 3.0))
    def test_mass_sq_weight_is_mass_sq_and_b(self, point, lam, p):
        # the ODE's fused right side equals M^2(t) and b from a(t) and r(t) bit for bit
        params, r0 = point
        bg = background(params, r0)
        coefficients = bg.mass_sq_weight(lam, p)
        expo = weight_exponent(params.n, lam, p)
        t0 = horizon_time(params)
        for t in np.linspace(0.0, 0.9 * t0 if math.isfinite(t0) else 5.0, 9).tolist():
            try:
                b = bg.b(bg.a(t), bg.r(t), lam, expo)
            except (OverflowError, ZeroDivisionError) as exc:  # a(t) leaves the float range
                with pytest.raises(type(exc)):
                    coefficients(t)
                continue
            assert coefficients(t) == (bg.mass_sq(t), b)

    @given(point=_regime_points())
    def test_module_functions_are_the_background(self, point):
        params, r0 = point
        bg = background(params, r0)
        t0 = horizon_time(params)
        t = 0.5 * t0 if math.isfinite(t0) else 1.5
        assert bg.t0 == t0
        assert scale_factor(params, t) == bg.a(t)
        assert curved_mass_sq(params, t) == bg.mass_sq(t)
        assert cone_radius(ConeData(r0, params), t) == bg.r(t)

    @given(point=_regime_points(), x=st.floats(0.0, 1.0, exclude_max=True))
    # beside the log cone e H ~ 2e-314, so e L is subnormal
    @example(point=(CosmologyParams(n=1, H=4e-301, sigma=1.0 + 1e-13), 1.0), x=0.9)
    def test_cone_time_inverts_the_cone(self, point, x):
        params, r0 = point
        bg = background(params, r0)
        try:  # r at t_clamp or at t = 50, whichever comes first
            top = min(bg.r_limit, bg.r(min(bg.t_clamp, 50.0)))
        except OverflowError:  # a(t) underflows before a crunch
            top = bg.r_limit
        assume(math.isfinite(top))
        rho = r0 + x * (top - r0)
        assume(rho < top)  # x = 1 - ulp can round rho up to top
        t = bg.cone_time(rho)
        assert t is not None and 0.0 <= t <= bg.t_clamp
        # t is the inverse to round-off: 1e-12 relative in r, widened by the
        # few ulps of t itself, which move r by r'(t) t ulps (much, beside a crunch)
        lo, hi = bg.r(t * (1.0 - 1e-15)), bg.r(min(t * (1.0 + 1e-15), bg.t_clamp))
        assert lo * (1.0 - 1e-12) <= rho <= hi * (1.0 + 1e-12)

    @given(point=_regime_points())
    @example(point=(CRUNCH, 1.0))  # a finite horizon inside a finite cone limit
    @example(point=(RIP, 1.0))
    def test_cone_time_is_none_exactly_past_the_cone(self, point):
        params, r0 = point
        bg = background(params, r0)
        assert bg.cone_time(r0) == 0.0
        assert bg.cone_time(r0 * (1.0 - 1e-12)) is None  # the cone never shrinks
        if math.isfinite(bg.r_limit):
            assert bg.cone_time(bg.r_limit) is None
            assert bg.cone_time(2.0 * bg.r_limit) is None
        if math.isfinite(bg.t_clamp):
            try:
                r_end = bg.r(bg.t_clamp)
            except OverflowError:
                return
            # past r(t_clamp) the time passes t_clamp.  r is steep there, so the
            # radius is taken far enough past for t to resolve it: halfway to a
            # finite limit, unless r(t_clamp) is within round-off of it, or
            # twice as far out as r(t_clamp)
            if math.isinf(bg.r_limit):
                assert bg.cone_time(2.0 * r_end - r0) is None
            elif bg.r_limit - r_end > 1e-9 * (bg.r_limit - r0):
                assert bg.cone_time((r_end + bg.r_limit) / 2.0) is None
            # short of it, only the limit can stop the cone: beside a big rip,
            # r reaches r_limit in floats well before t_clamp
            short = bg.r(0.999 * bg.t_clamp)
            assert (bg.cone_time(short) is None) == (short >= bg.r_limit)

    def test_cone_time_beyond_a_bisection_bracket(self):
        # n(1+sigma) = 2, the logarithmic cone: r = 37.9 is reached at t ~ 1e74,
        # far past the 2^200 bracket a doubling search could reach
        bg = background(CosmologyParams(n=4, H=1.35, sigma=-0.5, c=0.52, a0=1.80), 1.37)
        t = bg.cone_time(37.9)
        assert t == pytest.approx(1.0e74, rel=0.05)
        assert bg.r(t) == pytest.approx(37.9, rel=1e-12)

    def test_domain_and_argument_checks(self):
        bg = Background(CRUNCH, 0.5)
        for method in (bg.a, bg.r, bg.mass_sq):
            with pytest.raises(DomainError):
                method(-1e-9)
            with pytest.raises(DomainError):
                method(2.0 / 3.0)
        # the clamp keeps evaluation finite just below a finite horizon
        assert bg.a(2.0 / 3.0 * (1.0 - 1e-15)) == bg.a(2.0 / 3.0 * (1.0 - 1e-12))
        with pytest.raises(ValueError):
            bg.mass_sq_weight(0.0, 2.0)
        with pytest.raises(ValueError):
            bg.mass_sq_weight(-1.0, 2.0)
        with pytest.raises(ValueError):
            bg.mass_sq_weight(1.0, 1.0)
        with pytest.raises(ValueError):
            Background(CRUNCH, 0.0)


def test_importing_cosmology_leaves_scipy_unloaded():
    # the quadrature and finite-difference oracles live in tests/oracles.py,
    # and testfn imports scipy where it calls it, so the CLI does not load it either
    code = ("import sys, kgflrw.cosmology; print('scipy' in sys.modules); "
            "import kgflrw.cli; print('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kgflrw.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
