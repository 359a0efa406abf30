"""Unit tests for the comparison-ODE integrator: oracle agreement, blow-up
detection and extrapolation, positivity checks, and persistence."""

import csv
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kgflrw import cli, comparison_ode
from kgflrw.comparison_ode import (
    OdeProblem,
    PreconditionError,
    StepLimitError,
    StiffnessError,
    integrate_comparison,
    verify_lemma21,
)
from kgflrw.cosmology import Background, CosmologyParams, DomainError
from kgflrw.thresholds import damping_rate_N, threshold_S
from oracles import closed_form_oracle, verify_lemma21_per_sample


def _oracle_problem(p=2.0, b=1.0, w0=1.0, c=1.0, t_end_factor=2.0, m_sq=0.0):
    """Synthetic constant-weight, constant-mass problem with the oracle's slope (exact at m_sq = 0)."""
    oracle = closed_form_oracle(p, b, w0, c=c)
    problem = OdeProblem(
        params=CosmologyParams(n=1, c=c),
        r0=1.0, lam=1.0, p=p, theta=0.5, N=0.0,
        w0=w0, w1=oracle.w1(),
        t_end=t_end_factor * oracle.t_star,
        coefficients_fn=lambda t: (m_sq, b),
    )
    return problem, oracle


class TestOracle:
    def test_closed_form_consistency(self):
        oracle = closed_form_oracle(2.0, 1.0, 1.0)
        assert oracle.w(0.0) == pytest.approx(1.0)
        assert oracle.t_star == pytest.approx(1.0 / oracle.kappa)
        # the profile actually solves wddot = b w^p: check by central FD
        dt = 1e-5
        t = 0.4 * oracle.t_star
        fd = (oracle.w(t + dt) - 2 * oracle.w(t) + oracle.w(t - dt)) / dt**2
        assert fd == pytest.approx(oracle.b * oracle.w(t) ** oracle.p, rel=1e-6)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            closed_form_oracle(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_oracle(2.0, -1.0, 1.0)

    def test_integrator_hits_oracle_blowup_time(self):
        problem, oracle = _oracle_problem(p=2.5, b=0.7, w0=1.3, c=1.2)
        traj = integrate_comparison(problem)
        assert traj.blowup
        assert traj.t_star == pytest.approx(oracle.t_star, rel=1e-6)

    def test_error_bar_is_honest(self):
        problem, oracle = _oracle_problem(p=2.0, b=2.0, w0=0.8)
        traj = integrate_comparison(problem)
        assert traj.blowup and abs(traj.t_star - oracle.t_star) <= traj.t_star_err

    def test_solution_values_track_oracle(self):
        problem, oracle = _oracle_problem(p=3.0, b=1.0, w0=1.0)
        traj = integrate_comparison(problem)
        keep = traj.w < 1e4
        for t, w in zip(traj.t[keep], traj.w[keep]):
            assert w == pytest.approx(oracle.w(t), rel=1e-6)


class TestIntegrator:
    def test_no_blowup_for_oscillator(self):
        # pure oscillator: c^-2 wddot = -m^2 w with b = 0 stays bounded
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=4.0),
            r0=1.0, lam=1.0, p=2.0, theta=0.5, N=0.0,
            w0=1.0, w1=0.0, t_end=10.0,
            coefficients_fn=lambda t: (4.0, 0.0),
        )
        traj = integrate_comparison(problem)
        assert not traj.blowup and traj.t_star is None
        # w(t) = cos(2t) for c = 1
        assert traj.w[-1] == pytest.approx(math.cos(2.0 * traj.t[-1]), abs=1e-6)

    def test_deterministic(self):
        a = integrate_comparison(_oracle_problem()[0])
        b = integrate_comparison(_oracle_problem()[0])
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.w, b.w)
        assert a.t_star == b.t_star

    def test_horizon_caps_the_run(self):
        # big crunch ends at T0 = 2/3; a bounded run must stop just before
        problem = OdeProblem(
            params=CosmologyParams(n=3, H=-1.0, sigma=0.0, m_sq=0.5),
            r0=0.5, lam=1.0, p=2.0, theta=0.5, N=0.0,
            w0=0.1, w1=0.0, t_end=10.0,
            coefficients_fn=lambda t: (0.5, 0.0),  # M^2 = m^2 at sigma = 0
        )
        traj = integrate_comparison(problem)
        assert traj.t[-1] <= 2.0 / 3.0
        assert traj.t[-1] == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_step_cap_stops_a_run_that_attempts_more(self, monkeypatch):
        # w0 < 0 falls like -2t without blowing up: 514 attempted steps to t = 20, 10 rejected
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=-1.0), r0=1.0, lam=1.0, p=2.0, theta=0.5,
            N=1.0, w0=-0.5, w1=0.0, t_end=20.0,
        )
        traj = integrate_comparison(problem)
        attempts = traj.steps_accepted + traj.rejections
        monkeypatch.setattr(comparison_ode, "_MAX_ATTEMPTS", attempts)
        assert np.array_equal(integrate_comparison(problem).w, traj.w)
        monkeypatch.setattr(comparison_ode, "_MAX_ATTEMPTS", attempts - 1)
        with pytest.raises(StepLimitError, match=f"{attempts - 1} steps tried .* t_end = 20.0") as err:
            integrate_comparison(problem)
        assert isinstance(err.value, ValueError)

    def test_validation(self):
        params = CosmologyParams(n=1)
        with pytest.raises(ValueError):
            OdeProblem(params=params, r0=1.0, lam=1.0, p=0.5, theta=0.5,
                       N=0.0, w0=1.0, w1=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            OdeProblem(params=params, r0=1.0, lam=1.0, p=2.0, theta=1.5,
                       N=0.0, w0=1.0, w1=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            OdeProblem(params=params, r0=1.0, lam=1.0, p=2.0, theta=0.5,
                       N=0.0, w0=1.0, w1=0.0, t_end=-1.0)


    def test_step_cap_bounds_the_samples_memory(self, monkeypatch):
        # the step-capped problem above, stopped one attempt short of a
        # 5,335-attempt run: its samples sit in float columns, 40 bytes each
        # plus the columns' over-allocation, where Python floats and a
        # (M^2, b) tuple took about 190
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=-1.0), r0=1.0, lam=1.0, p=2.0, theta=0.5,
            N=1.0, w0=-0.5, w1=0.0, t_end=500.0,
        )
        traj = integrate_comparison(problem)
        monkeypatch.setattr(comparison_ode, "_MAX_ATTEMPTS", traj.steps_accepted + traj.rejections - 1)
        tracemalloc.start()
        try:
            with pytest.raises(StepLimitError):
                integrate_comparison(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.steps_accepted > 5000
        assert peak < 64 * traj.steps_accepted

    def test_samples_are_float64_c_contiguous(self):
        traj = integrate_comparison(_oracle_problem()[0])
        for column in (traj.t, traj.w, traj.wdot, traj.mass_sq, traj.b):
            assert column.dtype == np.float64 and column.flags.c_contiguous
            assert column.shape == (traj.steps_accepted + 1,)


class TestOneGuard:
    """An attempt whose (M^2, b) raises is rejected as one whose right side is infinite."""

    @staticmethod
    def _windowed(problem, lo, hi, kind):
        def coefficients(t):
            if lo <= t <= hi:
                if kind == "overflow":
                    return -1.0, 10.0 ** 400
                if kind == "zero_division":
                    return -1.0, 1.0 / 0.0
                return -1.0, math.inf
            return -1.0, 0.7

        return dataclasses.replace(problem, coefficients_fn=coefficients)

    @pytest.mark.parametrize("phase, window", [("w", (1.0, 1.0013)), ("zeta", (1.5429, 1.5432))])
    def test_a_raise_is_an_infinite_right_side(self, phase, window):
        problem, _ = _oracle_problem(p=2.5, b=0.7, w0=1.3, m_sq=-1.0)
        base = integrate_comparison(problem)
        # the run switches to zeta at t = 1.5421
        assert (window[1] < base.t_switch) if phase == "w" else (window[0] > base.t_switch)
        inf, overflow, zero_division = (integrate_comparison(self._windowed(problem, *window, kind))
                                        for kind in ("inf", "overflow", "zero_division"))
        assert inf.rejections > base.rejections and inf.blowup
        for traj in (overflow, zero_division):
            assert np.array_equal(traj.t, inf.t) and np.array_equal(traj.w, inf.w)
            assert np.array_equal(traj.wdot, inf.wdot) and np.array_equal(traj.b, inf.b)
            assert (traj.steps_accepted, traj.rejections, traj.rhs_evals) == (
                inf.steps_accepted, inf.rejections, inf.rhs_evals)
            assert (traj.t_star, traj.t_star_err, traj.t_switch) == (inf.t_star, inf.t_star_err, inf.t_switch)

    def test_a_raise_collapses_the_step_as_an_infinite_right_side(self):
        # a window in the zeta phase that no step gets across
        problem, _ = _oracle_problem(p=2.5, b=0.7, w0=1.3, m_sq=-1.0)
        messages = set()
        for kind in ("inf", "overflow", "zero_division"):
            with pytest.raises(StiffnessError) as err:
                integrate_comparison(self._windowed(problem, 1.5430, 1.5433, kind))
            messages.add(str(err.value))
        assert len(messages) == 1


class TestPositivityChecks:
    def _admissible_problem(self):
        # static background, imaginary mass: N = 1, S = 0
        params = CosmologyParams(n=1, m_sq=-1.0)
        return OdeProblem(
            params=params, r0=0.5, lam=1.0, p=2.0, theta=0.5, N=1.0,
            w0=1.0, w1=1.0, t_end=5.0,
        )

    def test_all_four_properties_hold(self):
        problem = self._admissible_problem()
        traj = integrate_comparison(problem)
        assert traj.blowup
        out = verify_lemma21(traj, problem)
        assert out["all_pass"]
        for key in ("exp_lower_bound", "weight_gap", "convexity", "wdot_floor"):
            assert out[key], f"{key} margin {out['worst_margins'][key]}"
        # plain bool and float, no numpy scalars
        assert json.loads(json.dumps(out)) == out
        assert all(type(out[k]) is bool for k in out if k != "worst_margins")
        assert all(type(m) is float for m in out["worst_margins"].values())

    def test_nan_sample_fails(self):
        problem = self._admissible_problem()
        traj = integrate_comparison(problem)
        w = traj.w.copy()
        w[len(w) // 2] = math.nan
        out = verify_lemma21(dataclasses.replace(traj, w=w), problem)
        # the NaN sample fails every check, and is the worst margin of (1)-(3)
        assert not any(out[key] for key in ("exp_lower_bound", "weight_gap", "convexity", "wdot_floor"))
        assert not out["all_pass"]
        for key in ("exp_lower_bound", "weight_gap", "convexity"):
            assert math.isnan(out["worst_margins"][key])

    def test_samples_near_the_float_maximum(self):
        # p = 1.02 ends within 1e3 of the float maximum, where b w^p overflows;
        # (3) is w times (2) there, so every margin stays finite
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=-1.0), r0=0.5, lam=1.0, p=1.02, theta=0.5,
            N=1.0, w0=1.0, w1=1.0, t_end=200.0,
        )
        traj = integrate_comparison(problem)
        assert traj.w[-1] > 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = verify_lemma21(traj, problem)
        assert out["all_pass"]
        assert all(math.isfinite(m) for m in out["worst_margins"].values())

    def test_reads_the_recorded_coefficients(self):
        calls = []
        problem = self._admissible_problem()
        coef = problem.coefficients()
        counting = dataclasses.replace(problem, coefficients_fn=lambda t: calls.append(t) or coef(t))
        traj = integrate_comparison(counting)
        calls.clear()
        assert verify_lemma21(traj, counting)["all_pass"]
        assert calls == []

    def test_matches_the_per_sample_check(self):
        for problem in _acceptance_4_problems(20):
            traj = integrate_comparison(problem, rtol=1e-8)
            out = verify_lemma21(traj, problem)
            ref = verify_lemma21_per_sample(traj, problem)
            assert {k: v for k, v in out.items() if k != "worst_margins"} == \
                {k: v for k, v in ref.items() if k != "worst_margins"}
            for key, margin in ref["worst_margins"].items():
                assert out["worst_margins"][key] == pytest.approx(margin, rel=1e-13, abs=0.0)

    def test_precondition_failure_raises(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        problem = OdeProblem(
            params=params, r0=0.5, lam=1.0, p=2.0, theta=0.5, N=1.0,
            w0=1.0, w1=0.2, t_end=5.0,  # w1 < c N w0
        )
        traj = integrate_comparison(problem)
        with pytest.raises(PreconditionError):
            verify_lemma21(traj, problem)


class TestPersistence:
    def test_csv_and_sidecar_round_trip(self, tmp_path):
        problem, _ = _oracle_problem()
        traj = integrate_comparison(problem)
        csv_path = tmp_path / "trajectory.csv"
        meta_path = tmp_path / "trajectory.json"
        # as `kgflrw ode` writes trajectory.csv and trajectory.json
        cli._write_table(csv_path, ("t", "w", "wdot"), (traj.t, traj.w, traj.wdot))
        cli._write_sidecar(meta_path, traj)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "w", "wdot"]
        assert len(rows) - 1 == traj.t.size
        assert float(rows[1][1]) == traj.w[0]
        assert float(rows[-1][0]) == traj.t[-1]
        meta = json.loads(meta_path.read_text())
        assert meta["blowup"] is True
        assert meta["t_star"] == pytest.approx(traj.t_star)
        assert meta["steps_accepted"] == traj.steps_accepted == traj.t.size - 1
        assert meta["rhs_evals"] == traj.rhs_evals == 1 + 6 * (traj.steps_accepted + traj.rejections)
        assert meta["stop_reason"] == traj.stop_reason == "blowup"
        assert meta["t_switch"] == traj.t_switch and 0.0 < traj.t_switch < traj.t_star
        # the sidecar holds the scalars only; the sample arrays stay out
        assert set(meta) == {
            "blowup", "t_star", "t_star_err", "rejections", "final_dt", "steps_accepted",
            "rhs_evals", "stop_reason", "t_switch",
        }


# The closed forms evaluated per call, as integrate_comparison once did at
# every stage: each call re-validates t and rebuilds every constant.


def _per_call_time(params, t):
    s = (1.0 + params.sigma) * params.H
    t0 = math.inf if s >= 0 else -2.0 / (params.n * (1.0 + params.sigma) * params.H)
    if t < 0 or t >= t0:
        raise DomainError(f"time {t} outside [0, {t0})")
    return min(t, (1.0 - 1e-12) * t0) if math.isfinite(t0) else t


def _per_call_log_a(params, t):
    if params.sigma == -1.0:
        return params.H * t
    q = params.n * (1.0 + params.sigma)
    return 2.0 / q * math.log1p(q * params.H * t / 2.0)


def _per_call_a(params, t):
    t = _per_call_time(params, t)
    return params.a0 * math.exp(_per_call_log_a(params, t))


def _per_call_mass_sq(params, t):
    t = _per_call_time(params, t)
    shift = params.sigma * (params.n * params.H / (2.0 * params.c)) ** 2
    if params.sigma == -1.0:
        return params.m_sq + shift
    q = params.n * (1.0 + params.sigma)
    x = 1.0 + q * params.H * t / 2.0
    return params.m_sq + shift / (x * x)


def _per_call_r(params, r0, t):
    t = _per_call_time(params, t)
    c, a0, H = params.c, params.a0, params.H
    if H == 0.0:
        return r0 + c * t / a0
    L = _per_call_log_a(params, t)
    e = params.n * (1.0 + params.sigma) / 2.0 - 1.0
    return r0 + c / (a0 * H) * (L if e == 0.0 else math.expm1(e * L) / e)


def _per_call_weight(params, r0, lam, p, t):
    n = params.n
    wn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    a, r = _per_call_a(params, t), _per_call_r(params, r0, t)
    return lam * (wn ** (2.0 / n) * a * r * r) ** (-n * (p - 1.0) / 2.0)


def _acceptance_4_problems(count):
    """The first ``count`` problems of the acceptance-4 positivity suite."""
    from test_acceptance import _random_background

    rng = np.random.default_rng(17)
    for _ in range(count):
        params = _random_background(rng, case=int(rng.integers(1, 4)))
        N, _ = damping_rate_N(params)
        r0 = float(rng.uniform(0.3, 1.5))
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(1.5, 2.5))
        theta = float(rng.uniform(0.2, 0.8))
        w0 = 2.0 * threshold_S(params, r0, lam, p, theta, N) + 1.0
        yield OdeProblem(params=params, r0=r0, lam=lam, p=p, theta=theta, N=N,
                         w0=w0, w1=1.05 * params.c * N * w0, t_end=2.0)


class TestBackgroundPath:
    def test_matches_per_call_formulas_bit_for_bit(self):
        blowups = 0
        for problem in _acceptance_4_problems(20):
            prm, r0, lam, p = problem.params, problem.r0, problem.lam, problem.p
            per_call = dataclasses.replace(
                problem,
                coefficients_fn=lambda t: (_per_call_mass_sq(prm, t), _per_call_weight(prm, r0, lam, p, t)),
            )
            fast = integrate_comparison(problem, rtol=1e-8)
            ref = integrate_comparison(per_call, rtol=1e-8)
            assert np.array_equal(fast.t, ref.t)
            assert np.array_equal(fast.w, ref.w)
            assert np.array_equal(fast.wdot, ref.wdot)
            assert fast.t_star == ref.t_star and fast.t_star_err == ref.t_star_err
            assert fast.rejections == ref.rejections
            assert verify_lemma21(fast, problem) == verify_lemma21(ref, per_call)
            blowups += fast.blowup
        assert 0 < blowups < 20

    def test_last_stage_is_reused(self):
        # 1 + 5 coefficient evaluations per attempted step, for 1 + 6 right
        # sides: the first stage of every step after the first is the last
        # stage of the step accepted before it, and stages 6 and 7 share the
        # node t + dt; the oracle run rejects no step, so a tachyonic mass is
        # added
        calls = []
        problem, _ = _oracle_problem()
        counting = dataclasses.replace(problem, coefficients_fn=lambda t: calls.append(t) or (-1.0, 1.0))
        traj = integrate_comparison(counting)
        attempts = traj.steps_accepted + traj.rejections
        assert traj.blowup and traj.rejections > 0
        assert len(calls) == 1 + 5 * attempts
        assert traj.rhs_evals == 1 + 6 * attempts

    def test_rhs_checks_time_once(self, monkeypatch):
        calls = []
        check_time = Background.check_time
        monkeypatch.setattr(Background, "check_time",
                            lambda self, t: calls.append(t) or check_time(self, t))
        # the first problem blows up, the second never switches
        for problem in _acceptance_4_problems(2):
            calls.clear()
            traj = integrate_comparison(problem, rtol=1e-8)
            assert len(calls) == 1 + 5 * (traj.steps_accepted + traj.rejections)
        assert traj.t_switch is None

    def test_records_the_coefficients_it_evaluated(self):
        # bit for bit the closure's values at every sample: a run that
        # switches to zeta, one that never switches, and an override
        problems = list(_acceptance_4_problems(2))
        problems.append(dataclasses.replace(
            _oracle_problem(p=2.5, b=0.7, w0=1.3)[0],
            coefficients_fn=lambda t: (-1.0 + math.sin(t), 0.7 * math.exp(-t))))
        switched = []
        for problem in problems:
            traj = integrate_comparison(problem, rtol=1e-8)
            switched.append(traj.t_switch is not None)
            coef = problem.coefficients()
            expected = np.array([coef(t) for t in traj.t]).T
            assert traj.mass_sq.shape == traj.b.shape == traj.t.shape
            assert traj.mass_sq.tobytes() == expected[0].tobytes()
            assert traj.b.tobytes() == expected[1].tobytes()
        assert switched == [True, False, True]


class TestRescaledBlowup:
    def test_blowups_take_few_steps(self):
        blowups = [traj for traj in (integrate_comparison(p, rtol=1e-8) for p in _acceptance_4_problems(20))
                   if traj.blowup]
        assert blowups
        for traj in blowups:
            assert traj.t_switch < traj.t_star and traj.stop_reason == "blowup"
            assert traj.steps_accepted < 1000

    @pytest.mark.parametrize("m_sq", [0.0, -1.0])
    @pytest.mark.parametrize("p", [1.3, 2.0, 2.5, 3.0])
    def test_scale_free(self, p, m_sq):
        # w0 -> s w0 with b -> b s^(1-p) scales the solution by s and leaves
        # t* unchanged (the oracle's at m^2 = 0); the run must not notice
        s = 1e6
        small, oracle = _oracle_problem(p=p, b=1.0, w0=1.0, m_sq=m_sq)
        large, oracle_large = _oracle_problem(p=p, b=s ** (1.0 - p), w0=s, m_sq=m_sq)
        assert oracle_large.t_star == pytest.approx(oracle.t_star, rel=1e-14)
        a, b = (integrate_comparison(prob) for prob in (small, large))
        assert a.blowup and b.blowup
        assert a.steps_accepted == b.steps_accepted and a.rejections == b.rejections
        assert abs(a.t_star - b.t_star) <= 1e-12 * oracle.t_star
        if m_sq == 0.0:
            assert abs(a.t_star - oracle.t_star) <= a.t_star_err

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_error_bar_covers_oracle(self, p):
        problem, oracle = _oracle_problem(p=p, b=0.9, w0=1.7, c=1.3)
        traj = integrate_comparison(problem)
        assert traj.blowup
        assert abs(traj.t_star - oracle.t_star) <= traj.t_star_err
        assert traj.t_star_err < 1e-7 * oracle.t_star

    def test_run_that_crosses_the_switch_without_blowup(self):
        # admissible problems whose mean passes 1e3 w0 but blows up after t_end
        crossing = []
        for problem in _acceptance_4_problems(20):
            traj = integrate_comparison(problem, rtol=1e-8)
            if traj.t_switch is not None and not traj.blowup:
                crossing.append((problem, traj))
        assert crossing
        for problem, traj in crossing:
            assert traj.t[-1] == problem.t_end and traj.stop_reason == "t_end"
            assert traj.t_star is None and np.max(traj.w) > 1e3 * problem.w0
            assert verify_lemma21(traj, problem)["all_pass"]

    def test_falling_back_below_the_switch_returns_to_w(self):
        # an oscillator whose amplitude 2000 w0 crosses the switch on both
        # signs: w = cos 3t + 2000 sin 3t
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=9.0), r0=1.0, lam=1.0, p=2.0, theta=0.5,
            N=0.0, w0=1.0, w1=6000.0, t_end=10.0, coefficients_fn=lambda t: (9.0, 0.0),
        )
        traj = integrate_comparison(problem)
        assert not traj.blowup and traj.stop_reason == "t_end" and traj.t[-1] == 10.0
        assert traj.t_switch > 9.0  # the last of its several crossings
        exact = np.cos(3.0 * traj.t) + 2000.0 * np.sin(3.0 * traj.t)
        assert np.max(np.abs(traj.w - exact)) <= 1e-8 * 2000.0
        assert np.allclose(traj.wdot, -3.0 * np.sin(3.0 * traj.t) + 6000.0 * np.cos(3.0 * traj.t),
                           rtol=0.0, atol=1e-8 * 6000.0)

    def test_blowup_to_minus_infinity(self):
        # b < 0 mirrors the oracle: w -> -w solves the problem with -b
        problem, oracle = _oracle_problem(p=2.5, b=0.7, w0=1.3)
        mirrored = dataclasses.replace(problem, w0=-problem.w0, w1=-problem.w1,
                                       coefficients_fn=lambda t: (0.0, -0.7))
        traj = integrate_comparison(mirrored)
        assert traj.blowup and traj.w[-1] < -1e3 * oracle.w0
        assert abs(traj.t_star - oracle.t_star) <= traj.t_star_err

    def test_p_near_one_stops_inside_the_float_range(self):
        # w = w_s zeta^(-1/k) with 1/k = 100 leaves the float range before
        # the quadratic term is resolved; the run stops there, honestly
        problem = OdeProblem(
            params=CosmologyParams(n=1, m_sq=-1.0), r0=0.5, lam=1.0, p=1.02, theta=0.5,
            N=1.0, w0=1.0, w1=1.0, t_end=200.0,
        )
        traj = integrate_comparison(problem)
        fine = integrate_comparison(problem, rtol=1e-12)
        assert traj.blowup and np.all(np.isfinite(traj.w)) and np.all(np.isfinite(traj.wdot))
        assert traj.w[-1] > 1e300
        assert traj.t_star_err > 100.0 * 1e-10 * traj.t_star  # the Taylor term is in the bar
        assert abs(traj.t_star - fine.t_star) <= traj.t_star_err

    def test_stop_reasons(self):
        problem, _ = _oracle_problem()
        assert integrate_comparison(dataclasses.replace(problem, t_end=1.0)).stop_reason == "t_end"
        crunch = OdeProblem(
            params=CosmologyParams(n=3, H=-1.0, sigma=0.0, m_sq=0.5),
            r0=0.5, lam=1.0, p=2.0, theta=0.5, N=0.0, w0=0.1, w1=0.0, t_end=10.0,
        )
        traj = integrate_comparison(crunch)
        assert traj.stop_reason == "horizon" and traj.t_switch is None
