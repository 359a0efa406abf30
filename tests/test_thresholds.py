"""Unit tests for the threshold quantities: damping rate, data threshold S,
exponent ranges, the scaling-condition ladder, and the verdict assembly."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from kgflrw import thresholds
from kgflrw.comparison_ode import OdeProblem, integrate_comparison, verify_lemma21
from kgflrw.cosmology import CosmologyParams, background, curved_mass_bounds, unit_ball_volume
from kgflrw.thresholds import (
    CaseMismatchError,
    InitialDataSummary,
    admissible_p_range,
    analytic_scaling_conditions,
    check_hypotheses,
    compare_prior_conditions,
    critical_exponent_p0,
    damping_rate_N,
    nonlinearity_weight,
    threshold_S,
)
from oracles import prior_S_via_scale_factor, threshold_S_via_scale_factor
from test_cosmology import _regime_points


def test_unit_ball_volume_small_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        unit_ball_volume(0)


class TestNonlinearityWeight:
    def test_initial_value(self):
        # b(0) = lam (omega_n^(2/n) a0 r0^2)^(-n(p-1)/2); for n=1, p=3,
        # a0=1, r0=1: b(0) = lam / 4
        params = CosmologyParams(n=1)
        assert nonlinearity_weight(params, 1.0, 2.0, 3.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_positive_and_decaying_under_expansion(self):
        params = CosmologyParams(n=2, H=1.0, sigma=1.0)
        vals = [nonlinearity_weight(params, 1.0, 1.0, 2.0, t) for t in (0.0, 1.0, 4.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_bad_arguments(self):
        params = CosmologyParams(n=1)
        with pytest.raises(ValueError):
            nonlinearity_weight(params, 1.0, -1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            nonlinearity_weight(params, 1.0, 1.0, 1.0, 0.0)

    @given(point=_regime_points(), lam=st.floats(0.5, 2.0), p=st.floats(1.2, 3.0),
           frac=st.floats(0.0, 1.0))
    def test_equals_b_of_one_background_bit_for_bit(self, point, lam, p, frac):
        # the module function gives the bits of one Background's b of its a(t) and r(t)
        params, r0 = point
        bg = background(params, r0)
        t = frac * min(bg.t_clamp, 5.0)
        assert nonlinearity_weight(params, r0, lam, p, t) == bg.b(bg.a(t), bg.r(t), lam,
                                                                  -params.n * (p - 1.0) / 2.0)


@st.composite
def _backgrounds(draw):
    """(n, c, m^2, H, sigma) over the regime cases, their edges and subnormal H."""
    n = draw(st.integers(1, 10))
    H = draw(st.one_of(st.just(0.0), st.sampled_from([5e-324, -5e-324]), st.floats(-100.0, 100.0)))
    sigma = draw(st.one_of(st.sampled_from([-1.0, 0.0, -1.0 - 2.0 / n]), st.floats(-10.0, 10.0)))
    m_sq = draw(st.one_of(st.just(0.0), st.floats(-100.0, 100.0)))
    return CosmologyParams(n=n, c=draw(st.floats(0.1, 10.0)), m_sq=m_sq, H=H, sigma=sigma)


class TestDampingRate:
    def test_static_case(self):
        N, case = damping_rate_N(CosmologyParams(n=1, m_sq=-4.0))
        assert case == "1"
        assert N == pytest.approx(2.0, rel=1e-15)

    def test_static_rejects_real_mass(self):
        with pytest.raises(CaseMismatchError):
            damping_rate_N(CosmologyParams(n=1, m_sq=1.0))

    def test_expanding_case_with_positive_sigma(self):
        params = CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-4.0)
        N, case = damping_rate_N(params)
        assert case == "2"
        assert N == pytest.approx(2.0, rel=1e-15)
        # |m| below sqrt(sigma) n H / 2c is out of range
        with pytest.raises(CaseMismatchError):
            damping_rate_N(CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-0.25))

    def test_expanding_case_with_negative_sigma(self):
        # N = sqrt(-m^2 - sigma (nH/2c)^2)
        params = CosmologyParams(n=2, H=1.0, sigma=-0.5, m_sq=-1.0)
        N, case = damping_rate_N(params)
        assert case == "2"
        assert N == pytest.approx(math.sqrt(1.0 + 0.5), rel=1e-14)

    def test_contracting_case(self):
        params = CosmologyParams(n=3, H=-1.0, sigma=-3.0, m_sq=-1.0)
        N, case = damping_rate_N(params)
        assert case == "3"
        assert N == pytest.approx(math.sqrt(1.0 + 3.0 * 2.25), rel=1e-14)

    def test_raw_fallback_de_sitter(self):
        # expanding de Sitter matches no numbered case but M^2 is a
        # nonpositive constant, so the minimal raw N exists
        params = CosmologyParams(n=3, H=1.0, sigma=-1.0, m_sq=0.0)
        N, case = damping_rate_N(params)
        assert case == "raw"
        assert N == pytest.approx(1.5, rel=1e-14)

    def test_user_supplied_N(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        N, case = damping_rate_N(params, 3.0)
        assert (N, case) == (3.0, "raw")
        with pytest.raises(ValueError):
            damping_rate_N(params, -1.0)

    def test_unbounded_mass_rejected(self):
        # big rip drives M^2 to -inf: no finite N
        with pytest.raises(CaseMismatchError):
            damping_rate_N(CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=-1.0))

    def test_subnormal_expansion_rate(self):
        # (1 + sigma) H underflows to 0, yet M^2 stays m^2 + sigma (nH/2c)^2 = m^2
        assert damping_rate_N(CosmologyParams(n=2, m_sq=-1.0, H=5e-324, sigma=-0.6)) == (1.0, "2")

    @pytest.mark.parametrize("params", [CosmologyParams(n=1), CosmologyParams(n=2, H=1.0)])
    def test_massless_N_is_a_positive_zero(self, params):
        N, _ = damping_rate_N(params)
        assert N == 0.0 and math.copysign(1.0, N) == 1.0

    @given(params=_backgrounds())
    def test_N_is_the_root_of_minus_inf_M2_bit_for_bit(self, params):
        try:
            N, _ = damping_rate_N(params)
        except CaseMismatchError:
            return
        expected = math.sqrt(max(0.0, -curved_mass_bounds(params).lower))
        assert struct.pack("<d", N) == struct.pack("<d", expected)

    @given(params=_backgrounds())
    def test_p_range_refuses_exactly_the_points_outside_the_cases(self, params):
        if thresholds._case(params) is None:
            with pytest.raises(CaseMismatchError):
                admissible_p_range(params)
        else:
            assert admissible_p_range(params)[0] == 1.0


@st.composite
def _window_points(draw):
    """(params, N or None) over `_backgrounds`, many within a few ulps of an edge of the window.

    m^2 is drawn as it is, or as 0 or -shift (where sup M^2 = 0 in cases i, iv
    and ii, iii) moved by up to 20 ulps of |shift|, of 1 or of 1e-13; N is
    None, sqrt(-inf M^2) moved by up to 20 ulps, or any N in [0, 10].
    """
    params = draw(_backgrounds())
    shift = background(params).shift
    if draw(st.booleans()):
        ulps = draw(st.integers(-20, 20)) * 2.0**-52 * draw(st.sampled_from([abs(shift), 1.0, 1e-13]))
        params = CosmologyParams(n=params.n, c=params.c, H=params.H, sigma=params.sigma,
                                 m_sq=draw(st.sampled_from([0.0, -shift])) + ulps)
    lower = curved_mass_bounds(params).lower
    N = draw(st.one_of(
        st.none(), st.floats(0.0, 10.0),
        st.integers(-20, 20).map(lambda k: math.sqrt(max(0.0, -lower)) * (1.0 + k * 2.0**-52)),
    ))
    return params, N


class TestMassWindow:
    """-N^2 <= M^2 <= 0 on the envelope of M^2, both edges at one relative round-off.

    The round-off is relative to the terms an edge sums: m^2 alone where
    sup M^2 = m^2, so a real mass is refused however small, and m^2 and the
    shift where sup M^2 = m^2 + shift.
    """

    @given(point=_window_points())
    def test_returns_exactly_when_both_edges_hold(self, point):
        params, N = point
        bounds, tol = curved_mass_bounds(params), thresholds._ROUNDOFF
        holds = (
            math.isfinite(bounds.lower) and math.isfinite(bounds.upper)
            and bounds.upper <= tol * (abs(params.m_sq) + abs(bounds.upper - params.m_sq))
            and (N is None or N * N + bounds.lower >= -tol * (N * N + abs(bounds.lower)))
        )
        try:
            got = damping_rate_N(params, N)
        except CaseMismatchError:
            assert not holds
            return
        assert holds
        if N is None:
            assert got == (math.sqrt(max(0.0, -bounds.lower)), thresholds._case(params) or "raw")
        else:
            assert got == (N, "raw")

    @given(point=_window_points(), k=st.integers(-40, 40))
    def test_verdict_does_not_depend_on_the_scale_of_the_mass(self, point, k):
        # m^2 -> 4^k m^2 and H -> 2^k H scale M^2(t) by 4^k and N by 2^k exactly
        # while every value stays in the normal float range
        params, N = point
        bounds = curved_mass_bounds(params)
        values = (params.m_sq, params.H, background(params).shift, N or 0.0, bounds.lower, bounds.upper)
        assume(all(x == 0.0 or math.isinf(x) or 2.0**-900 < abs(x) < 2.0**900 for x in values))
        s = 2.0**k
        scaled = CosmologyParams(n=params.n, c=params.c, m_sq=s * s * params.m_sq,
                                 H=s * params.H, sigma=params.sigma)
        N_scaled = None if N is None else s * N
        try:
            N_ref, label = damping_rate_N(params, N)
        except CaseMismatchError:
            with pytest.raises(CaseMismatchError):
                damping_rate_N(scaled, N_scaled)
            return
        assert damping_rate_N(scaled, N_scaled) == (s * N_ref, label)

    def test_expanding_edge_accepts_m_sq_at_minus_shift_and_an_ulp_either_side(self):
        # case 2 with sigma > 0: sup M^2 = m^2 + shift, zero at m^2 = -shift as computed
        shift = background(CosmologyParams(n=3, H=0.7, sigma=0.3)).shift
        for m_sq in (math.nextafter(-shift, -math.inf), -shift, math.nextafter(-shift, math.inf)):
            N, case = damping_rate_N(CosmologyParams(n=3, H=0.7, sigma=0.3, m_sq=m_sq))
            assert (N, case) == (math.sqrt(-m_sq), "2")
        with pytest.raises(CaseMismatchError, match="m_sq must drop by at least"):
            damping_rate_N(CosmologyParams(n=3, H=0.7, sigma=0.3, m_sq=-shift * (1.0 - 1e-12)))

    @pytest.mark.parametrize("m_sq", [1e-13, 5e-324])
    def test_static_real_mass_is_refused_however_small(self, m_sq):
        with pytest.raises(CaseMismatchError, match=r"sup M\^2 = .* \(case i\)"):
            damping_rate_N(CosmologyParams(n=1, m_sq=m_sq))

    def test_de_sitter_mass_just_above_the_window_is_refused(self):
        # n = 3, H = 1: M^2 = m^2 - 9/4, so sup M^2 is about 1e-13 > 0
        with pytest.raises(CaseMismatchError, match=r"\(case ii\)"):
            damping_rate_N(CosmologyParams(n=3, H=1.0, sigma=-1.0, m_sq=2.25 + 1e-13))
        assert damping_rate_N(CosmologyParams(n=3, H=1.0, sigma=-1.0, m_sq=2.25)) == (0.0, "raw")

    def test_user_N_at_the_root_of_minus_inf_M2_is_accepted(self):
        params = CosmologyParams(n=3, H=-1.0, sigma=-3.0, m_sq=-1.0)
        N = math.sqrt(-curved_mass_bounds(params).lower)
        assert damping_rate_N(params, N) == (N, "raw")
        assert damping_rate_N(params, math.nextafter(N, 0.0)) == (math.nextafter(N, 0.0), "raw")
        with pytest.raises(CaseMismatchError, match=r"N\^2 \+ inf M\^2"):
            damping_rate_N(params, N * (1.0 - 1e-14))

    def test_user_N_does_not_admit_a_real_mass(self):
        # the upper edge holds for a set N too: any N leaves M^2 = 5 outside the window
        for N in (0.0, 10.0):
            with pytest.raises(CaseMismatchError, match="m_sq must drop by at least 5.0"):
                damping_rate_N(CosmologyParams(n=1, m_sq=5.0), N)


class TestThresholdS:
    def test_exact_supremum_at_zero(self):
        # n=2, H=1, sigma=1, m^2=-4, c=a0=r0=lam=1, p=2, theta=1/2:
        # a r^2 = (1+2t)^(3/2) and N^2+M^2 = (1+2t)^(-2), so the sup
        # integrand is 2 pi e^(-2t) (1+2t)^(-1/2), maximized at t=0.
        params = CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-4.0)
        S = threshold_S(params, 1.0, 1.0, 2.0, 0.5, 2.0)
        assert S == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_zero_when_window_vanishes(self):
        # de Sitter with m = 0: N^2 + M^2 is identically zero
        params = CosmologyParams(n=3, H=1.0, sigma=-1.0, m_sq=0.0)
        assert threshold_S(params, 1.0, 1.0, 2.0, 0.5, 1.5) == 0.0

    def test_small_window_is_not_round_off(self):
        # static n=1, m^2 = -1e-12, N = 1.2e-6: N^2 + M^2 = 0.44e-12 is a third of its
        # terms, not round-off of 0, and with b = lam/(2r), r = 1/2 + t, the sup of
        # 4 (N^2 + m^2) r e^(-N t) sits at r = 1/N
        params, N = CosmologyParams(n=1, m_sq=-1e-12), 1.2e-6
        exact = 4.0 * (N * N - 1e-12) * math.exp(N * 0.5 - 1.0) / N
        assert threshold_S(params, 0.5, 1.0, 2.0, 0.5, N) == pytest.approx(exact, rel=1e-12)

    def test_decreasing_in_lambda_increasing_in_theta(self):
        # S scales like (lam (1 - theta))^(-1/(p-1)) pointwise in t
        params = CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-4.0)
        base = threshold_S(params, 1.0, 1.0, 2.0, 0.5, 2.0)
        assert threshold_S(params, 1.0, 4.0, 2.0, 0.5, 2.0) == pytest.approx(base / 4.0, rel=1e-9)
        assert threshold_S(params, 1.0, 1.0, 2.0, 0.9, 2.0) == pytest.approx(5.0 * base, rel=1e-9)
        with pytest.raises(ValueError):
            threshold_S(params, 1.0, 1.0, 2.0, 1.5, 2.0)

    def test_static_massless_window_is_positive(self):
        # Minkowski with m^2 = -1, N = 1: window = 0, S = 0 exactly
        params = CosmologyParams(n=1, m_sq=-1.0)
        assert threshold_S(params, 0.5, 1.0, 2.0, 0.5, 1.0) == 0.0

    def test_finite_where_the_cone_overflows(self):
        # contracting de Sitter: r(t) ~ e^(|H| t) overflows beyond |H| t ~ 709,
        # inside the default grid (t_max = 1e3), while the sup sits near t = 0;
        # the oracle's grid stops at t = 600, before the overflow
        params = CosmologyParams(n=2, c=1.3871, m_sq=0.10485, H=-1.16688, sigma=-1.0, a0=0.5)
        args = (params, 0.2, 1.3871, 1.2, 0.2, 1.77350)
        ref = threshold_S_via_scale_factor(*args, t_max=600.0)
        assert ref == pytest.approx(81.58596427711605, rel=1e-12)
        assert threshold_S(*args) == pytest.approx(ref, rel=1e-12)
        assert math.isfinite(thresholds._prior_S(*args))

    def test_infinite_where_the_integrand_grows_into_the_overflow(self):
        # the same family with slope n|H|/2 - cN = 0.03 > 0: the sup is infinite
        params = CosmologyParams(n=2, m_sq=0.3, H=-1.0, sigma=-1.0)
        assert threshold_S(params, 0.5, 1.0, 2.0, 0.5, 0.97) == math.inf

    def test_tiny_N_keeps_the_grid_finite(self):
        # 1/(cN) overflows; the grid still ends at a finite time
        S = threshold_S(CosmologyParams(n=1), 1.0, 1.0, 2.0, 0.5, 2.2e-311)
        assert isinstance(S, float) and S == 0.0  # N^2 + M^2 underflows to zero


class TestThresholdOracle:
    @given(point=_regime_points(), lam=st.floats(0.5, 2.0), p=st.floats(1.2, 3.0),
           theta=st.floats(0.2, 0.8), extra=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    def test_log_a_grid_matches_the_grid_of_a(self, point, lam, p, theta, extra):
        # both data thresholds from log a = log a0 + L against the oracle that
        # forms a as a power of the bracket and takes its log: round-off apart
        # wherever the oracle's a stays in the float range; where it does not,
        # log a still does, and S must still be a number
        params, r0 = point
        inf_m_sq = curved_mass_bounds(params).lower
        N = (math.sqrt(max(0.0, -inf_m_sq)) if math.isfinite(inf_m_sq) else 0.0) + extra
        for fast, oracle in ((threshold_S, threshold_S_via_scale_factor),
                             (thresholds._prior_S, prior_S_via_scale_factor)):
            S = fast(params, r0, lam, p, theta, N)
            try:
                ref = oracle(params, r0, lam, p, theta, N)
            except OverflowError:
                assert not math.isnan(S)
                continue
            assert S == ref or abs(S - ref) <= 1e-14 * abs(ref)


class TestThresholdMemo:
    # (params, r0, lam, p, theta, N) with S = 2 pi, as in TestThresholdS
    ARGS = (CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-4.0), 1.0, 1.0, 2.0, 0.5, 2.0)

    @pytest.fixture
    def grid_sups(self, monkeypatch):
        calls = []
        sup = thresholds._log_grid_sup
        monkeypatch.setattr(thresholds, "_log_grid_sup",
                            lambda *args, **kwargs: calls.append(args) or sup(*args, **kwargs))
        threshold_S.cache_clear()
        return calls

    def test_verify_lemma21_reuses_the_callers_S(self, grid_sups):
        params, r0, lam, p, theta, N = self.ARGS
        S = threshold_S(*self.ARGS)
        w0 = 2.0 * S + 1.0
        problem = OdeProblem(params=params, r0=r0, lam=lam, p=p, theta=theta, N=N,
                             w0=w0, w1=1.05 * params.c * N * w0, t_end=1.0)
        assert verify_lemma21(integrate_comparison(problem, rtol=1e-8), problem)["all_pass"]
        assert len(grid_sups) == 1
        assert threshold_S.__wrapped__(*self.ARGS) == S

    def test_holds_one_entry(self, grid_sups):
        other = (self.ARGS[0], 1.0, 4.0, 2.0, 0.5, 2.0)
        first = threshold_S(*self.ARGS)
        threshold_S(*other)
        assert threshold_S(*self.ARGS) == first
        assert len(grid_sups) == 3

    @pytest.mark.parametrize("grid_size", [4000, 10_000])
    def test_shared_grid_is_read_only_and_unchanged(self, grid_size):
        grid = thresholds._unit_log_grid(grid_size)
        assert thresholds._unit_log_grid(grid_size) is grid
        assert not grid.flags.writeable
        inline = 10.0 ** (-6.0 * (1.0 - np.linspace(0.0, 1.0, grid_size)))
        assert grid.tobytes() == inline.tobytes()
        with pytest.raises(ValueError):
            grid[0] = 1.0


class TestCriticalExponent:
    def test_exact_rational_value(self):
        assert critical_exponent_p0(3, -3) == Fraction(21, 13)
        assert isinstance(critical_exponent_p0(3, Fraction(-3)), Fraction)

    def test_boundary_is_exactly_one(self):
        for n in range(1, 9):
            sigma = Fraction(-1) - Fraction(2, n)
            assert critical_exponent_p0(n, sigma) == 1

    def test_strongly_contracting_limit(self):
        # sigma -> -inf: p0 -> (n+1)/(n-1); for n = 2 that is 3
        assert float(critical_exponent_p0(2, -1e9)) == pytest.approx(3.0, abs=1e-6)

    def test_rejects_sigma_above_boundary(self):
        with pytest.raises(ValueError):
            critical_exponent_p0(3, -1.0)

    @given(n=st.integers(2, 6), x=st.floats(0.01, 50.0))
    def test_below_strauss_style_bound(self, n, x):
        sigma = -1.0 - 2.0 / n - x
        p0 = critical_exponent_p0(n, sigma)
        assert 1.0 < p0 < (n + 1.0) / (n - 1.0)


class TestAdmissibleRange:
    def test_static(self):
        assert admissible_p_range(CosmologyParams(n=1, m_sq=-1.0)) == (1.0, math.inf)
        assert admissible_p_range(CosmologyParams(n=3, m_sq=-1.0)) == (1.0, 2.0)

    def test_expanding_branches(self):
        assert admissible_p_range(CosmologyParams(n=1, H=1.0, sigma=0.5))[1] == math.inf
        assert admissible_p_range(CosmologyParams(n=2, H=1.0, sigma=0.0))[1] == math.inf
        # n=3, sigma=0: ((n+1)(1+s)-1)/((n-1)(1+s)-1) = 3
        assert admissible_p_range(CosmologyParams(n=3, H=1.0, sigma=0.0))[1] == pytest.approx(3.0)
        # n=3 at the branch point sigma = -1 + 2/n: (n+2)/(n-2) = 5
        assert admissible_p_range(CosmologyParams(n=3, H=1.0, sigma=-1.0 / 3.0))[1] == pytest.approx(5.0)
        # n=1 below sigma = 0: -(2+sigma)/sigma
        assert admissible_p_range(CosmologyParams(n=1, H=1.0, sigma=-0.5))[1] == pytest.approx(3.0)

    def test_contracting_uses_p0(self):
        up = admissible_p_range(CosmologyParams(n=3, H=-1.0, sigma=-3.0))[1]
        assert up == pytest.approx(21.0 / 13.0, rel=1e-14)

    def test_mismatch(self):
        with pytest.raises(CaseMismatchError):
            admissible_p_range(CosmologyParams(n=2, H=-1.0, sigma=0.0))


class TestScalingLadder:
    def test_static(self):
        assert analytic_scaling_conditions(CosmologyParams(n=1), 7.0) == (True, True)
        assert analytic_scaling_conditions(CosmologyParams(n=3), 1.8) == (True, True)
        assert analytic_scaling_conditions(CosmologyParams(n=3), 2.5) == (False, False)

    def test_de_sitter_failure_modes(self):
        assert analytic_scaling_conditions(CosmologyParams(n=2, H=1.0, sigma=-1.0), 2.0) == (False, True)
        assert analytic_scaling_conditions(CosmologyParams(n=2, H=-1.0, sigma=-1.0), 2.0) == (True, False)

    def test_expanding(self):
        params = CosmologyParams(n=3, H=1.0, sigma=0.0)  # p_upper = 3
        assert analytic_scaling_conditions(params, 2.5) == (True, True)
        assert analytic_scaling_conditions(params, 3.5) == (False, True)

    def test_contracting_flags_are_separate(self):
        # n=3, sigma=-3, p=2: the layer integral grows like R^3.5 < R^(2p'=4)
        # but the annulus integral grows like R^(4+5/6) > R^4
        assert analytic_scaling_conditions(CosmologyParams(n=3, H=-1.0, sigma=-3.0), 2.0) == (True, False)

    def test_outside_ladder(self):
        assert analytic_scaling_conditions(CosmologyParams(n=3, H=-1.0, sigma=-1.5), 2.0) is None

    @given(
        n=st.integers(1, 6),
        x=st.floats(0.05, 20.0),
        offset=st.floats(-0.5, 0.5),
    )
    def test_contracting_joint_verdict_matches_p0(self, n, x, offset):
        # both limits vanish exactly when p stays below the critical exponent
        sigma = -1.0 - 2.0 / n - x
        p0 = float(critical_exponent_p0(n, sigma))
        p = p0 + offset
        if p <= 1.0 or abs(p - p0) < 1e-9:
            return
        h13, h14 = analytic_scaling_conditions(CosmologyParams(n=n, H=-1.0, sigma=sigma), p)
        assert (h13 and h14) == (p < p0)


class TestVerdicts:
    def test_admissible_point(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=10.0, r0=0.5)
        report = check_hypotheses(params, data, 1.0, 2.0)
        assert report.verdict == "admissible"
        assert report.case_label == "1"
        assert report.N == pytest.approx(1.0)
        assert report.S == 0.0
        assert report.hypothesis_flags["h13"] and report.hypothesis_flags["h14"]

    def test_small_slope_rejected(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=1.0, r0=0.5)
        report = check_hypotheses(params, data, 1.0, 2.0)
        assert report.verdict.startswith("inadmissible")
        assert "w1 < cNw0" in report.verdict
        assert not report.hypothesis_flags["w1_ge_cNw0"]

    def test_small_mean_rejected(self):
        params = CosmologyParams(n=2, H=1.0, sigma=1.0, m_sq=-4.0)
        data = InitialDataSummary(w0=1.0, w1=10.0, r0=1.0)  # w0 < S = 2 pi
        report = check_hypotheses(params, data, 1.0, 2.0)
        assert "w0 <= S" in report.verdict

    def test_case_mismatch_report(self):
        params = CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=10.0, r0=0.5)
        report = check_hypotheses(params, data, 1.0, 2.0)
        assert report.case_label == "none"
        assert math.isnan(report.N)
        assert report.verdict.startswith("inadmissible(case mismatch")

    def test_report_round_trips_to_dict(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=10.0, r0=0.5)
        d = check_hypotheses(params, data, 1.0, 2.0).to_dict()
        assert d["verdict"] == "admissible"
        assert isinstance(d["hypothesis_flags"], dict)


class TestPriorComparison:
    def test_prior_implies_present_on_a_passing_point(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=25.0, r0=0.5)
        out = compare_prior_conditions(params, data, 1.0, 2.0)
        assert out["prior"] and out["this_paper"]

    def test_separating_point(self):
        # the earlier conditions demand the extra slope floor
        # sqrt(2 lam c^2 theta / (p+1)) w0^((p+1)/2) ~ 18.3 here, while the
        # present ones only need w1 >= c N w0 = 10
        params = CosmologyParams(n=1, m_sq=-1.0)
        data = InitialDataSummary(w0=10.0, w1=10.0, r0=0.5)
        out = compare_prior_conditions(params, data, 1.0, 2.0)
        assert out == {"this_paper": True, "prior": False}

    def test_prior_implies_present_where_the_grid_sup_is_truncated(self):
        # contracting de Sitter with slope n|H|/2 - cN = 0.03 > 0: the log
        # integrand still grows where the grid ends at t_max = 1e3 max(1, 1/cN),
        # so both thresholds are infinite; a grid-truncated prior S of 4.09e13
        # once let w0 = 1e14 pass the prior conditions and fail the present ones
        params = CosmologyParams(n=2, m_sq=0.3, H=-1.0, sigma=-1.0)
        assert thresholds._prior_S(params, 0.5, 1.0, 2.0, 0.5, 0.97) == math.inf
        data = InitialDataSummary(w0=1e14, w1=1e22, r0=0.5)
        out = compare_prior_conditions(params, data, 1.0, 2.0, 0.5, 0.97)
        assert out == {"this_paper": False, "prior": False}

    def test_contracting_support_cap_only_in_prior(self):
        # contracting de Sitter: the earlier conditions cap r0 at 2c/(a0|H|)
        params = CosmologyParams(n=1, H=-1.0, sigma=-1.0, m_sq=-1.0)
        big = InitialDataSummary(w0=1e9, w1=1e10, r0=5.0)
        out = compare_prior_conditions(params, big, 1.0, 2.0)
        assert not out["prior"]
