"""Unit tests for the cutoff machinery: profile exactness, closed-form
derivatives, growth integrals against hand-derived values, exponent fits,
and the weak-identity coverage contract."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from kgflrw.cosmology import (ConeData, CosmologyParams, background, cone_radius, horizon_time,
                              unit_ball_volume)
from kgflrw import cli, testfn
from kgflrw.field_solver import init_field, run_until
from kgflrw.testfn import (
    CoverageError,
    II_prime,
    III_prime,
    build_cutoff,
    hypothesis_13_14,
    scaling_exponent,
    weak_identity_residual,
)
from oracles import II_prime_quad, III_prime_quad, dtt_psi_pow, lap_psi_pow, psi_pow


class TestCutoffProfile:
    def test_plateau_and_support(self):
        cut = build_cutoff()
        s = np.linspace(0.0, 0.5, 200)
        assert np.all(cut.eta(s) == 1.0)
        s = np.linspace(1.0, 3.0, 200)
        assert np.all(cut.eta(s) == 0.0)

    def test_midpoint_symmetry(self):
        # the descent integrand is symmetric about s = 3/4
        assert build_cutoff().eta(0.75) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_descent(self):
        cut = build_cutoff()
        s = np.linspace(0.5, 1.0, 500)
        vals = cut.eta(s)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_derivatives_match_finite_differences(self):
        cut = build_cutoff()
        h = 1e-6
        for s in (0.6, 0.75, 0.9):
            fd1 = (cut.eta(s + h) - cut.eta(s - h)) / (2 * h)
            assert cut.eta_prime(s) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
            fd2 = (cut.eta_prime(s + h) - cut.eta_prime(s - h)) / (2 * h)
            assert cut.eta_pp(s) == pytest.approx(fd2, rel=1e-6, abs=1e-9)

    def test_c2_flatness_at_junctions(self):
        cut = build_cutoff()
        for s in (0.5, 1.0):
            assert cut.eta_prime(s) == 0.0
            assert cut.eta_pp(s) == 0.0


class TestPsiPow:
    def test_plateau_interior_and_exterior_values(self):
        assert psi_pow(4.0, 2.0, 1.0, 1.5) == 1.0
        assert psi_pow(4.0, 2.0, 5.0, 1.0) == 0.0
        assert psi_pow(4.0, 2.0, 3.0, 3.0) == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_time_derivative_closed_form(self):
        R, p = 3.0, 2.5
        h = 1e-5
        for t, r in ((2.0, 0.7), (2.4, 2.2)):
            fd = (psi_pow(R, p, t + h, r) - 2 * psi_pow(R, p, t, r) + psi_pow(R, p, t - h, r)) / h**2
            assert dtt_psi_pow(R, p, t, r) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_laplacian_closed_form(self):
        R, p, n = 3.0, 2.0, 3
        h = 1e-5
        for t, r in ((1.0, 2.0), (2.3, 1.9)):
            f = lambda rr: psi_pow(R, p, t, rr)
            fd = (f(r + h) - 2 * f(r) + f(r - h)) / h**2 + (n - 1) / r * (f(r + h) - f(r - h)) / (2 * h)
            assert lap_psi_pow(R, p, t, r, n) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_laplacian_vanishes_on_plateau_and_outside(self):
        assert lap_psi_pow(4.0, 2.0, 0.0, 0.0, 3) == 0.0
        assert lap_psi_pow(4.0, 2.0, 0.0, 1.0, 3) == 0.0
        assert lap_psi_pow(4.0, 2.0, 0.0, 5.0, 3) == 0.0


class TestGrowthIntegrals:
    def test_minkowski_layer_integral_closed_form(self):
        # n=1, a=1, r(t)=r0+t: piecewise-linear integrand with a kink where
        # r(t) = R, integrated exactly by hand
        params = CosmologyParams(n=1)
        r0, R = 0.125, 4.0
        t_kink = R - r0
        exact = 2.0 * (
            r0 * (t_kink - R / 2.0) + (t_kink**2 - (R / 2.0) ** 2) / 2.0 + R * r0
        )
        assert II_prime(params, r0, R) == pytest.approx(exact, rel=1e-12)

    def test_minkowski_annulus_integral_closed_form(self):
        params = CosmologyParams(n=1)
        r0, R, p = 0.125, 4.0, 2.0
        exact = (R / 2.0) ** 2 + r0 * R
        assert III_prime(params, r0, R, p) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("H", [5e-324, -5e-324])
    def test_subnormal_expansion_rate_gives_the_static_integrals(self, H):
        # c/(a0 H) is not finite: the integrals are the static ones,
        # III' = (R/2)^2 + r0 R = 2.3744 in n = 1
        params, static = CosmologyParams(n=1, H=H, sigma=-0.96), CosmologyParams(n=1)
        r0, R, p = 0.5, 2.24, 2.94
        assert III_prime(params, r0, R, p) == pytest.approx((R / 2.0) ** 2 + r0 * R, rel=1e-12)
        assert III_prime(params, r0, R, p) == III_prime(static, r0, R, p)
        assert II_prime(params, r0, R) == II_prime(static, r0, R)

    @pytest.mark.parametrize("r0, exact", [(1.0, 1.0), (0.5, 0.75), (0.49, 0.74)])
    def test_annulus_integral_from_a_cone_that_starts_inside_it(self, r0, exact):
        # n=1, a=1, R=1: the integrand is 2 (min(1, r0 + t) - 1/2) once r0 + t > 1/2,
        # so it starts at t = 0 when r0 >= R/2 = 1/2
        params = CosmologyParams(n=1)
        assert III_prime(params, r0, 1.0, 2.0) == pytest.approx(exact, rel=1e-12)

    def test_annulus_vanishes_when_cone_saturates(self):
        # expanding de Sitter: the cone saturates at r0 + c/(a0 H) = 2, so
        # for R/2 > 2 the annulus never opens
        params = CosmologyParams(n=2, H=1.0, sigma=-1.0)
        assert III_prime(params, 1.0, 8.0, 2.0) == 0.0
        assert horizon_time(params) == math.inf

    def test_horizon_truncation_flagged(self):
        # crunch ends at T0 = 2/3, inside the window (R/2, R) = (1/2, 1)
        params = CosmologyParams(n=3, H=-1.0, sigma=0.0)
        t0 = horizon_time(params)
        assert t0 < 1.0
        val = II_prime(params, 0.5, 1.0)
        assert math.isfinite(val) and val > 0.0
        # the integral up to the horizon, of min(1, r)^3 a^(3/2) with a^(3/2) = 1 - 3t/2
        cone = ConeData(0.5, params)
        tail, _ = quad(lambda t: min(1.0, cone_radius(cone, t)) ** 3 * (1.0 - 1.5 * t), 0.5, t0)
        assert val == pytest.approx(4.0 / 3.0 * math.pi * tail, rel=1e-8)

    @pytest.mark.parametrize("p, beta", [(9.0, -0.5), (27.0 / 7.0, -0.8), (57.0 / 17.0, -0.9),
                                         (117.0 / 37.0, -0.95), (591.0 / 191.0, -0.97),
                                         (597.0 / 197.0, -0.99), (3.0, -1.0), (27.0 / 11.0, -1.25)])
    def test_annulus_integral_up_to_a_crunch(self, p, beta):
        # n=3, H=-1: a = (1 - t/T0)^(2/3) up to T0 = 2/3, and from r0 = R = 1 the
        # annulus is full throughout, so the integrand is omega_3 (1 - 1/8) a^k with
        # k = 3/2 - 2p', a power (1 - t/T0)^beta, beta = 2k/3, of the distance to
        # T0: T0/(1 + beta) in all, or divergent from beta = -1 on
        params = CosmologyParams(n=3, H=-1.0, sigma=0.0)
        if beta > -1.0:
            exact = 4.0 / 3.0 * math.pi * 7.0 / 8.0 * (2.0 / 3.0) / (1.0 + beta)
            assert III_prime(params, 1.0, 1.0, p) == pytest.approx(exact, rel=1e-12)
        else:
            assert III_prime(params, 1.0, 1.0, p) == math.inf

    def test_rule_calls_each_abscissa_once(self):
        # on a piece before any horizon the outer nodes round onto lo and hi, and
        # share the one call at each end
        calls = []

        def fn(t):
            calls.append(t)
            return math.exp(-t)

        value = testfn._tanh_sinh(fn, 0.5, 2.0, 1e-10)
        assert value == pytest.approx(math.exp(-0.5) - math.exp(-2.0), rel=1e-13)
        assert len(calls) == len(set(calls)) and {0.5, 2.0} <= set(calls)

    def test_integrals_up_to_a_crunch_past_the_float_range_of_a_and_r(self):
        # q = n(1 + sigma) = 0.3: a = (1 - t/T0)^(20/3) underflows, and r (unbounded, as
        # q/2 - 1 < 0) overflows, well inside the last 1e-50 of T0 = 20/3; from
        # r0 = R = 8 the integrands are powers of 1 - t/T0 times R^n or the annulus volume
        T0 = 20.0 / 3.0
        params = CosmologyParams(n=2, H=-1.0, sigma=-0.85)
        beta = 20.0 / 3.0  # a^(n/2)
        exact = math.pi * 64.0 * T0 / (1.0 + beta) * (1.0 - 4.0 / T0) ** (1.0 + beta)
        assert II_prime(params, 8.0, 8.0) == pytest.approx(exact, rel=1e-9)
        params, p = CosmologyParams(n=6, H=-1.0, sigma=-0.95), 2.9
        beta = 20.0 / 3.0 * (3.0 - 2.0 * p / (p - 1.0))  # a^(n/2 - 2p'), about -0.35
        exact = math.pi**3 / 6.0 * (8.0**6 - 4.0**6) * T0 / (1.0 + beta)
        assert III_prime(params, 8.0, 8.0, p) == pytest.approx(exact, rel=1e-9)

    def test_layer_integral_up_to_a_big_rip(self):
        # n=1, H=1, sigma=-3: a = 1/(1 - t) up to T0 = 1, and r >= r0 = 2 > R = 1.5,
        # so the integrand is 2 R (1 - t)^(-1/2) over (3/4, 1): 2 R = 3 in all
        params = CosmologyParams(n=1, H=1.0, sigma=-3.0)
        assert II_prime(params, 2.0, 1.5) == pytest.approx(3.0, rel=1e-9)

    def test_layer_integral_where_a_leaves_the_float_range(self):
        # expanding de Sitter, n=1, H=0.9, r0=1/2: r = k - e^(-Ht)/H with k = r0 + 1/H
        # stays below R, and a = e^(Ht) overflows before t = R = 1500, while
        # 2 int_(R/2)^R r a^(1/2) dt stays below the float maximum
        H, R = 0.9, 1500.0
        k = 0.5 + 1.0 / H
        exact = 2.0 * (2.0 * k / H * (math.exp(H * R / 2.0) - math.exp(H * R / 4.0))
                       - 2.0 / H**2 * (math.exp(-H * R / 4.0) - math.exp(-H * R / 2.0)))
        params = CosmologyParams(n=1, H=H, sigma=-1.0)
        assert II_prime(params, 0.5, R) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("R", [700.0, 1024.0, 1400.0, 2800.0])
    def test_layer_integral_where_r_leaves_the_float_range(self, R):
        # contracting de Sitter, n=2, H=-1: r = r0 + expm1(t) overflows past t ~ 709,
        # and from r0 = 1/2 the cone passes R before R/2, so the integral is
        # pi R^2 int_(R/2)^R e^(-t) dt, finite or 0
        params = CosmologyParams(n=2, H=-1.0, sigma=-1.0)
        exact = math.pi * R * R * (math.exp(-R / 2.0) - math.exp(-R))
        assert II_prime(params, 0.5, R) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_annulus_integral_with_its_kink_past_the_horizon_clamp(self, p):
        # n=6, sigma=-2/3: q = 2, a = 1 - t up to T0 = 1, and the logarithmic cone
        # r = 1/2 - log(1 - t) reaches R = 30 within 1e-12 of T0.  In s = -log(1 - t)
        # the integral is omega_6 int e^(-k s) (min(R, 1/2 + s)^6 - (R/2)^6) ds from
        # s = R/2 - 1/2, k = 4 - 2p' > 0, the part past s = R - 1/2 in closed form
        params, R, k = CosmologyParams(n=6, H=-1.0, sigma=-2.0 / 3.0), 30.0, 4.0 - 2.0 * p / (p - 1.0)
        before, _ = quad(lambda s: math.exp(-k * s) * ((0.5 + s) ** 6 - (R / 2.0) ** 6),
                         R / 2.0 - 0.5, R - 0.5, epsabs=0.0, epsrel=1e-13)
        past = (R**6 - (R / 2.0) ** 6) * math.exp(-k * (R - 0.5)) / k
        assert III_prime(params, 0.5, R, p) == pytest.approx(math.pi**3 / 6.0 * (before + past),
                                                             rel=1e-10)

    def test_no_rule_call_past_the_kink(self, monkeypatch):
        calls = []
        monkeypatch.setattr(testfn, "_tanh_sinh", lambda *args: calls.append(args))
        params = CosmologyParams(n=2, H=-0.1, sigma=0.5)
        assert II_prime(params, 4.0, 4.0) > 0.0 and III_prime(params, 4.0, 4.0, 2.0) > 0.0
        assert calls == []

    @given(n=st.integers(1, 6), H=st.floats(0.1, 3.0), sigma=st.floats(-1.0, 3.0, exclude_min=True),
           big_rip=st.booleans(), c=st.floats(0.5, 2.0), a0=st.floats(0.5, 2.0),
           p=st.floats(1.05, 4.0), log2_R=st.floats(-3.0, 6.0), excess=st.floats(0.0, 2.0))
    def test_past_the_kink_up_to_a_horizon(self, n, H, sigma, big_rip, c, a0, p, log2_R, excess):
        # a crunch (H < 0 < 1 + sigma) or a big rip (H > 0 > 1 + sigma) with r0 >= R: the
        # bracket is constant, and a^x = a0^x (1 - t/T0)^beta with beta = 2x/q, so
        # int_t1^t2 a^x dt = a0^x T0 (d1^(1+beta) - d2^(1+beta))/(1 + beta), d = 1 - t/T0,
        # up to t2 = min(R, T0); divergent at T0 from beta = -1 on
        if big_rip:
            H, sigma = H, -2.0 - sigma
        else:
            H = -H
        params, R = CosmologyParams(n=n, c=c, H=H, sigma=sigma, a0=a0), 2.0**log2_R
        T0, q, pp = horizon_time(params), n * (1.0 + sigma), p / (p - 1.0)
        assume(math.isfinite(T0))
        for value, t1, x, bracket in (
                (II_prime(params, R * (1.0 + excess), R), R / 2.0, n / 2.0, R**n),
                (III_prime(params, R * (1.0 + excess), R, p), 0.0, n / 2.0 - 2.0 * pp,
                 R**n - (R / 2.0) ** n)):
            k, t2 = (2.0 * x + q) / q, min(R, T0)  # 1 + beta, without cancelling
            try:
                d1_k = math.exp(k * math.log1p(-t1 / T0)) if t1 < T0 else 0.0
                if t1 >= t2:
                    exact = 0.0
                elif t2 == T0:
                    exact = T0 * d1_k / k if k > 0.0 else math.inf
                else:  # log(d2/d1), from the distances to T0 where t2 is near it
                    log_d = (math.log1p((t1 - t2) / (T0 - t1)) if t2 < (T0 + t1) / 2.0
                             else math.log((T0 - t2) / (T0 - t1)))
                    exact = -T0 * d1_k * (math.expm1(k * log_d) / k if k else log_d)
                exact *= unit_ball_volume(n) * bracket * a0**x
            except OverflowError:  # past the float maximum
                exact = math.inf
            assert value == exact or value == pytest.approx(exact, rel=1e-10)

    @given(n=st.integers(1, 6), H=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           sigma=st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(-5.0, 3.0)),
           p=st.floats(1.05, 4.0), log2_R=st.floats(-3.0, 17.0))
    def test_agree_with_adaptive_quadrature(self, n, H, sigma, p, log2_R):
        # windows that end before any horizon; up to one, quad integrates only to
        # the clamp and extrapolates, and the two tests above are the reference
        params, R = CosmologyParams(n=n, H=H, sigma=sigma), 2.0**log2_R
        assume(background(params).t0 >= R)
        for value, ref in ((II_prime(params, 0.5, R), II_prime_quad(params, 0.5, R)),
                           (III_prime(params, 0.5, R, p), III_prime_quad(params, 0.5, R, p))):
            assert value == ref or value == pytest.approx(ref, rel=1e-9)

    def test_annulus_integral_whose_volume_overflows_is_inf(self):
        # (R/2)^300 overflows at R = 2^16, the top of the fit's first R window,
        # which the window then slides below
        params = CosmologyParams(n=300, m_sq=-1.0)
        assert III_prime(params, 0.5, 2.0 ** 16, 2.0) == math.inf

    def test_tolerance_consistency(self):
        params = CosmologyParams(n=2, H=1.0, sigma=1.0)
        for fn in (lambda tol: II_prime(params, 0.5, 16.0, tol=tol),
                   lambda tol: III_prime(params, 0.5, 16.0, 2.0, tol=tol)):
            coarse, fine = fn(1e-6), fn(1e-10)
            assert coarse == pytest.approx(fine, rel=1e-6)

    def test_rejects_nonpositive_R(self):
        params = CosmologyParams(n=1)
        with pytest.raises(ValueError):
            II_prime(params, 0.5, 0.0)
        with pytest.raises(ValueError):
            III_prime(params, 0.5, -1.0, 2.0)


class TestScalingFits:
    def test_recovers_power_law(self):
        fit = scaling_exponent(lambda R: 3.0 * R**2.5, [2.0**k for k in range(1, 9)])
        assert not fit.exponential
        assert fit.slope == pytest.approx(2.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert fit.residual < 1e-10

    def test_flags_exponential_growth(self):
        fit = scaling_exponent(lambda R: math.exp(0.3 * R), [2.0**k for k in range(1, 9)])
        assert fit.exponential
        assert fit.exp_rate == pytest.approx(0.3, rel=1e-6)

    def test_all_zero_input(self):
        fit = scaling_exponent(lambda R: 0.0, [1.0, 2.0, 4.0])
        assert fit.all_zero

    def test_log_factor_model(self):
        fit = scaling_exponent(lambda R: R**2 * math.log(R), [2.0**k for k in range(2, 12)])
        assert fit.slope == pytest.approx(2.0, abs=1e-6)
        assert fit.log_factor_power == pytest.approx(1.0, abs=1e-6)

    def test_minkowski_hypothesis_decision(self):
        # n=1 static: both limits vanish and the layer integral grows like
        # R^(n+1) = R^2
        ev = hypothesis_13_14(CosmologyParams(n=1), 0.5, 2.0,
                              R_grid=[2.0**k for k in range(3, 11)])
        assert ev.h13_numeric and ev.h14_numeric
        assert not ev.disagreement
        assert ev.fit_II.slope == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("params, p, slides", [
        (CosmologyParams(n=1), 2.0, False),                  # power-law growth
        (CosmologyParams(n=1, H=1.0, sigma=-1.0), 2.0, True),  # exponential growth
    ])
    def test_each_radius_is_integrated_once(self, monkeypatch, params, p, slides):
        calls = {"II": [], "III": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args[2])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(testfn, "II_prime", counted("II", II_prime))
        monkeypatch.setattr(testfn, "III_prime", counted("III", III_prime))
        ev = hypothesis_13_14(params, 0.5, p, tol=1e-8)
        for name, fit, integral in (
            ("II", ev.fit_II, lambda R: II_prime(params, 0.5, R, tol=1e-8)),
            ("III", ev.fit_III, lambda R: III_prime(params, 0.5, R, p, tol=1e-8)),
        ):
            assert len(calls[name]) == len(set(calls[name])) >= len(fit.R)
            # a window that overflows slides down and keeps what it already has
            assert slides or len(calls[name]) == len(fit.R) == 11
            # the fit is the one a fresh evaluation over its grid gives
            ref = scaling_exponent(integral, fit.R)
            assert np.array_equal(fit.values, ref.values)
            assert (fit.slope, fit.exponential) == (ref.slope, ref.exponential)
        assert not ev.disagreement

    def test_save_fit_round_trip(self, tmp_path):
        fit = scaling_exponent(lambda R: R**3, [1.0, 2.0, 4.0, 8.0])
        csv_path, json_path = tmp_path / "fit.csv", tmp_path / "fit.json"
        # as `kgflrw scaling` writes II_prime.csv and II_prime.json
        cli._write_table(csv_path, ("R", "value"), (fit.R, fit.values))
        cli._write_sidecar(json_path, fit, sort_keys=True)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["R", "value"]
        assert float(rows[2][1]) == 8.0
        meta = json.loads(json_path.read_text())
        assert meta["slope"] == pytest.approx(3.0, abs=1e-10)


class TestWeakIdentityContract:
    def _run(self, t_end, keep=True, interval=0.25, w0=1.0, w1=0.8):
        params = CosmologyParams(n=1, m_sq=1.0)
        nodes = max(513, int(256 * (t_end + 1.0)) + 1)
        state = init_field(n=1, r0=0.5, r_max=t_end + 1.0, num_nodes=nodes,
                           w0=w0, w1=w1)
        return params, run_until(params, 0.0, 2.0, state, t_end, 0.5,
                                 output_interval=interval, keep_snapshots=keep)

    def test_requires_snapshots(self):
        params, diag = self._run(2.0, keep=False)
        with pytest.raises(CoverageError):
            weak_identity_residual(diag, params, 0.0, 2.0, 2.0)

    def test_requires_full_time_window(self):
        params, diag = self._run(1.0)
        with pytest.raises(CoverageError):
            weak_identity_residual(diag, params, 0.0, 2.0, 4.0)

    def test_requires_initial_snapshot(self):
        params, diag = self._run(2.0)
        diag.snapshots = diag.snapshots[1:]
        with pytest.raises(CoverageError):
            weak_identity_residual(diag, params, 0.0, 2.0, 2.0)

    def test_linear_residual_is_small(self):
        params, diag = self._run(2.0, interval=0.05)
        residual, parts = weak_identity_residual(diag, params, 0.0, 2.0, 2.0,
                                                 return_parts=True)
        assert residual < 1e-3
        # lam = 0 removes the forcing from the balance; the defect must be
        # carried entirely by the data term V against the cutoff terms
        assert parts["V"] > 0.0
        assert parts["I"] > 0.0

    @pytest.mark.parametrize("scale", [1e-3, 3.0, 1e4])
    def test_linear_residual_is_invariant_under_scaling_the_data(self, scale):
        # with lam = 0 every part is linear in (w0, w1), and so is the defect
        params, diag = self._run(2.0, interval=0.05)
        ref = weak_identity_residual(diag, params, 0.0, 2.0, 2.0)
        params, diag = self._run(2.0, interval=0.05, w0=scale, w1=0.8 * scale)
        assert weak_identity_residual(diag, params, 0.0, 2.0, 2.0) == pytest.approx(ref, rel=1e-12)

    def test_residual_without_a_data_term_is_on_the_scale_of_the_parts(self):
        # w1 = 0 and lam = 0 leave V = lam I = 0: the defect is measured against II, III and IV
        params, diag = self._run(2.0, interval=0.05, w1=0.0)
        residual, parts = weak_identity_residual(diag, params, 0.0, 2.0, 2.0, return_parts=True)
        assert parts["V"] == 0.0 and abs(parts["II"]) > 1.0
        assert residual < 1e-3

    def test_parts_match_per_snapshot_quadrature(self):
        # the parent form of the identity: scipy's Simpson rule over the full
        # products psi * weight on every snapshot, the cutoff re-evaluated each time
        from scipy.integrate import simpson

        from kgflrw.cosmology import curved_mass_sq, scale_factor, unit_ball_volume

        params, lam, p, R = CosmologyParams(n=3, H=0.5, sigma=0.0, m_sq=1.0), 1.0, 2.0, 2.0
        state = init_field(n=3, r0=0.5, r_max=3.0, num_nodes=3 * 128 + 1, w0=1.0, w1=0.5)
        diag = run_until(params, lam, p, state, R, 0.5, output_interval=0.05, keep_snapshots=True)
        r = diag.snapshot_grid
        weight = 3 * unit_ball_volume(3) * r**2
        snaps = [s for s in diag.snapshots if s[0] <= R * (1.0 + 1e-12)]
        ts = np.array([s[0] for s in snaps])
        rows = []
        for t, u, v in snaps:
            psi = psi_pow(R, p, t, r)
            a = scale_factor(params, t)
            rows.append([
                a ** (-3.0 * (p - 1.0) / 2.0) * simpson(np.abs(u) ** p * psi * weight, x=r),
                simpson(u * dtt_psi_pow(R, p, t, r) * weight, x=r),
                a ** -2.0 * simpson(u * lap_psi_pow(R, p, t, r, 3) * weight, x=r),
                curved_mass_sq(params, t) * simpson(u * psi * weight, x=r),
            ])
        ref = dict(zip(("I", "II", "III", "IV"), simpson(np.array(rows), x=ts, axis=0)))
        ref["V"] = simpson(snaps[0][2] * psi_pow(R, p, 0.0, r) * weight, x=r)
        _, parts = weak_identity_residual(diag, params, lam, p, R, return_parts=True)
        for key, value in ref.items():
            assert parts[key] == pytest.approx(value, rel=1e-12), key
