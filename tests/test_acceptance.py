"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion (visible with -s or
in the captured output of a failing run) and then asserts the criterion.
Oracles are independent of the implementation wherever possible: closed
forms are cross-checked against finite differences and adaptive
quadrature, the integrator against a separable exact solution, the scaling
verdicts against the analytic condition ladder, and the solver against
conservation laws and the comparison principle.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kgflrw.comparison_ode import (
    OdeProblem,
    integrate_comparison,
    verify_lemma21,
)
from kgflrw.cosmology import (
    ConeData,
    CosmologyParams,
    cone_radius,
    curved_mass_sq,
    horizon_time,
)
from kgflrw.field_solver import energy, init_field, run_until
from kgflrw.testfn import hypothesis_13_14, weak_identity_residual
from kgflrw.thresholds import (
    InitialDataSummary,
    compare_prior_conditions,
    critical_exponent_p0,
    damping_rate_N,
    threshold_S,
)
from oracles import closed_form_oracle, cone_radius_quadrature, curved_mass_sq_from_derivatives


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_background(rng, case: int) -> CosmologyParams:
    """Random parameter point inside one of the three damping-rate regimes."""
    n = int(rng.integers(1, 4))
    c = float(rng.uniform(0.6, 1.8))
    a0 = float(rng.uniform(0.6, 1.8))
    if case == 1:
        return CosmologyParams(n=n, c=c, a0=a0, m_sq=-float(rng.uniform(0.25, 4.0)))
    if case == 2:
        H = float(rng.uniform(0.2, 1.2))
        sigma = float(rng.uniform(-0.9, 1.5))
        floor = sigma * (n * H / (2.0 * c)) ** 2 if sigma > 0 else 0.0
        m_sq = -(floor + float(rng.uniform(0.1, 2.0)))
        return CosmologyParams(n=n, c=c, a0=a0, H=H, sigma=sigma, m_sq=m_sq)
    H = -float(rng.uniform(0.2, 1.2))
    sigma = -1.0 - 2.0 / n - float(rng.uniform(0.1, 2.0))
    return CosmologyParams(n=n, c=c, a0=a0, H=H, sigma=sigma,
                           m_sq=-float(rng.uniform(0.1, 2.0)))


def test_acceptance_1_curved_mass_consistency(capsys):
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        params = CosmologyParams(
            n=int(rng.integers(1, 5)),
            c=float(rng.uniform(0.5, 2.0)),
            a0=float(rng.uniform(0.5, 2.0)),
            H=float(rng.uniform(-2.0, 2.0)),
            sigma=float(rng.uniform(-3.0, 2.0)),
            m_sq=float(rng.uniform(-4.0, 4.0)),
        )
        t0 = horizon_time(params)
        top = min(10.0, 0.9 * t0) if math.isfinite(t0) else 10.0
        for t in rng.uniform(0.0, top, size=50):
            closed = curved_mass_sq(params, float(t))
            fd = curved_mass_sq_from_derivatives(params, float(t))
            worst = max(worst, abs(fd - closed) / max(1.0, abs(closed)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"closed form vs finite differences, worst relative error "
             f"{worst:.2e} over 200x50 samples in {elapsed:.2f}s")


def test_acceptance_2_cone_closed_forms(capsys):
    branches = [
        CosmologyParams(n=1),                                  # static
        CosmologyParams(n=3, H=1.0, sigma=-1.0),               # de Sitter +
        CosmologyParams(n=3, H=-1.0, sigma=-1.0),              # de Sitter -
        CosmologyParams(n=2, H=1.0, sigma=0.0),                # log branch
        CosmologyParams(n=3, H=0.7, sigma=1.1, c=1.3, a0=0.8), # power, q > 2
        CosmologyParams(n=3, H=-1.0, sigma=0.0),               # crunch
        CosmologyParams(n=2, H=1.0, sigma=-2.0),               # rip
        CosmologyParams(n=3, H=-0.8, sigma=-3.0),              # contracting
    ]
    start = time.monotonic()
    worst = 0.0
    for params in branches:
        cone = ConeData(0.7, params)
        t0 = horizon_time(params)
        top = 0.9 * t0 if math.isfinite(t0) else 5.0
        for t in np.linspace(0.0, top, 9):
            closed = cone_radius(cone, float(t))
            ref = cone_radius_quadrature(cone, float(t))
            worst = max(worst, abs(closed - ref) / max(1.0, abs(ref)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _verdict(capsys, 2, ok,
             f"cone closed forms vs quadrature on {len(branches)} branches, "
             f"worst relative error {worst:.2e} in {elapsed:.2f}s")


def test_acceptance_3_critical_exponent_exactness(capsys):
    start = time.monotonic()
    boundary_exact = all(
        critical_exponent_p0(n, Fraction(-1) - Fraction(2, n)) == 1
        for n in range(1, 9)
    )
    limit_ok = abs(float(critical_exponent_p0(2, -1e9)) - 3.0) < 1e-6
    rng = np.random.default_rng(13)
    strauss_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        sigma = -1.0 - 2.0 / n - float(rng.uniform(1e-3, 50.0))
        p0 = critical_exponent_p0(n, sigma)
        strauss_ok = strauss_ok and 1.0 < p0 < (n + 1.0) / (n - 1.0)
    elapsed = time.monotonic() - start
    ok = boundary_exact and limit_ok and strauss_ok and elapsed < 1.0
    _verdict(capsys, 3, ok,
             f"boundary value exact for n=1..8: {boundary_exact}; deep "
             f"contraction limit 3: {limit_ok}; upper bound on 1000 draws: "
             f"{strauss_ok} ({elapsed:.2f}s)")


def test_acceptance_4_positivity_suite(capsys):
    rng = np.random.default_rng(17)
    start = time.monotonic()
    failures = []
    for i in range(100):
        params = _random_background(rng, case=int(rng.integers(1, 4)))
        N, _ = damping_rate_N(params)
        r0 = float(rng.uniform(0.3, 1.5))
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(1.5, 2.5))
        theta = float(rng.uniform(0.2, 0.8))
        S = threshold_S(params, r0, lam, p, theta, N)
        if not math.isfinite(S):
            failures.append((i, "S not finite"))
            continue
        w0 = 2.0 * S + 1.0
        w1 = 1.05 * params.c * N * w0
        problem = OdeProblem(params=params, r0=r0, lam=lam, p=p, theta=theta,
                             N=N, w0=w0, w1=w1, t_end=2.0)
        out = verify_lemma21(integrate_comparison(problem, rtol=1e-8), problem)
        if not out["all_pass"]:
            failures.append((i, out["worst_margins"]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _verdict(capsys, 4, ok,
             f"four positivity properties on 100 randomized admissible "
             f"problems, {len(failures)} failures in {elapsed:.1f}s"
             + (f"; first: {failures[0]}" if failures else ""))


def test_acceptance_5_blowup_oracle(capsys):
    rng = np.random.default_rng(19)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(1.3, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        w0 = float(rng.uniform(0.5, 5.0))
        c = float(rng.uniform(0.5, 2.0))
        oracle = closed_form_oracle(p, b, w0, c=c)
        problem = OdeProblem(
            params=CosmologyParams(n=1, c=c), r0=1.0, lam=1.0, p=p,
            theta=0.5, N=0.0, w0=w0, w1=oracle.w1(),
            t_end=2.0 * oracle.t_star,
            coefficients_fn=lambda t, b=b: (0.0, b),
        )
        traj = integrate_comparison(problem)
        if not traj.blowup:
            worst = math.inf
            continue
        worst = max(worst, abs(traj.t_star - oracle.t_star) / oracle.t_star)
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _verdict(capsys, 5, ok,
             f"blow-up time vs separable closed form on 20 cases, worst "
             f"relative error {worst:.2e} in {elapsed:.1f}s")


# (params, p, expected h13, expected h14) for the verdict matrix; the
# expectation column is the analytic condition ladder evaluated by hand
_MATRIX = [
    # static backgrounds
    (CosmologyParams(n=1), 2.0, True, True),
    (CosmologyParams(n=1), 6.0, True, True),
    (CosmologyParams(n=2), 2.5, True, True),
    (CosmologyParams(n=2), 3.5, False, False),
    (CosmologyParams(n=3), 1.7, True, True),
    (CosmologyParams(n=3), 2.5, False, False),
    (CosmologyParams(n=4), 1.5, True, True),
    (CosmologyParams(n=4), 2.0, False, False),
    # exponential scale factors
    (CosmologyParams(n=1, H=1.0, sigma=-1.0), 2.0, False, True),
    (CosmologyParams(n=3, H=1.0, sigma=-1.0), 2.0, False, True),
    (CosmologyParams(n=2, H=0.3, sigma=-1.0), 2.0, False, True),
    (CosmologyParams(n=1, H=-1.0, sigma=-1.0), 2.0, True, False),
    (CosmologyParams(n=2, H=-1.0, sigma=-1.0), 3.0, True, False),
    # polynomially expanding backgrounds
    (CosmologyParams(n=2, H=1.0, sigma=1.0), 2.0, True, True),
    (CosmologyParams(n=2, H=1.0, sigma=1.0), 6.0, False, True),
    (CosmologyParams(n=3, H=1.0, sigma=0.0), 2.5, True, True),
    (CosmologyParams(n=3, H=1.0, sigma=0.0), 3.5, False, True),
    (CosmologyParams(n=1, H=1.0, sigma=-0.5), 2.0, True, True),
    (CosmologyParams(n=1, H=1.0, sigma=-0.5), 4.0, False, True),
    (CosmologyParams(n=2, H=1.0, sigma=0.0), 3.0, True, True),
    (CosmologyParams(n=3, H=1.0, sigma=-1.0 / 3.0), 4.0, True, True),
    (CosmologyParams(n=3, H=1.0, sigma=-1.0 / 3.0), 6.0, False, True),
    (CosmologyParams(n=2, H=0.5, sigma=1.5), 2.0, True, True),
    # strongly contracting backgrounds
    (CosmologyParams(n=3, H=-1.0, sigma=-3.0), 2.0, True, False),
    (CosmologyParams(n=3, H=-1.0, sigma=-3.0), 1.3, True, True),
    (CosmologyParams(n=3, H=-1.0, sigma=-3.0), 1.55, True, True),
    (CosmologyParams(n=3, H=-1.0, sigma=-2.0), 1.5, True, False),
    (CosmologyParams(n=3, H=-1.0, sigma=-2.0), 1.2, True, True),
    (CosmologyParams(n=1, H=-1.0, sigma=-4.0), 2.0, True, False),
    (CosmologyParams(n=1, H=-1.0, sigma=-4.0), 1.3, True, True),
    (CosmologyParams(n=2, H=-1.0, sigma=-2.5), 1.5, True, False),
    (CosmologyParams(n=2, H=-1.0, sigma=-2.5), 1.3, True, True),
]


def test_acceptance_6_scaling_verdict_matrix(capsys):
    start = time.monotonic()
    mismatches = []
    slope_checks = []
    for params, p, h13_exp, h14_exp in _MATRIX:
        ev = hypothesis_13_14(params, 0.5, p, tol=1e-8)
        if (ev.h13_numeric, ev.h14_numeric) != (h13_exp, h14_exp) or ev.disagreement:
            mismatches.append((params.n, params.H, params.sigma, p,
                               ev.h13_numeric, ev.h14_numeric, h13_exp, h14_exp))
        if params.H == 0.0 and p == 2.0 and params.n == 1:
            slope_checks.append(("layer slope n+1 (static n=1)",
                                 ev.fit_II.slope, params.n + 1.0))
        if params.H > 0 and params.sigma == -1.0 and params.n == 1:
            slope_checks.append(("layer growth flagged exponential",
                                 1.0 if ev.fit_II.exponential else 0.0, 1.0))
    # static slope check in a second dimension as well
    ev2 = hypothesis_13_14(CosmologyParams(n=2), 0.5, 2.5, tol=1e-8)
    slope_checks.append(("layer slope n+1 (static n=2)", ev2.fit_II.slope, 3.0))
    slope_ok = all(abs(got - want) <= 0.05 for _, got, want in slope_checks)
    elapsed = time.monotonic() - start
    ok = not mismatches and slope_ok and elapsed < 300.0
    _verdict(capsys, 6, ok,
             f"numeric vs analytic scaling verdicts on {len(_MATRIX)} points, "
             f"{len(mismatches)} mismatches; slope/flag checks "
             f"{[(name, round(got, 3)) for name, got, _ in slope_checks]} "
             f"in {elapsed:.0f}s" + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_acceptance_7_pde_physics(capsys):
    start = time.monotonic()
    details = []
    ok = True

    # (a) energy conservation over ten crossings of the unit bump
    params = CosmologyParams(n=1, m_sq=1.0)
    state = init_field(n=1, r0=1.0, r_max=12.0, num_nodes=12 * 512 + 1, w0=1.0)
    e0 = energy(state, params)
    diag = run_until(params, 0.0, 2.0, state, 10.0, 1.0, output_interval=0.5)
    drift = max(abs(e - e0) for e in diag.energy) / e0
    ok = ok and drift <= 1e-6
    details.append(f"energy drift {drift:.2e}")

    # (b) cone containment across the regime family (run_until raises on
    # violation; additionally measure the worst margin)
    regimes = [
        (CosmologyParams(n=1, m_sq=1.0), 3.0, 5.0),
        (CosmologyParams(n=3, m_sq=-1.0), 2.0, 4.0),
        (CosmologyParams(n=2, H=1.0, sigma=-1.0, m_sq=1.0), 2.0, 3.0),
        (CosmologyParams(n=1, H=-0.5, sigma=-1.0), 1.5, 3.5),
        (CosmologyParams(n=3, H=-1.0, sigma=0.0, m_sq=1.0), 5.0, 4.0),
        (CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=1.0), 5.0, 4.0),
    ]
    worst_margin = -math.inf
    for reg_params, t_end, r_max in regimes:
        st = init_field(n=reg_params.n, r0=1.0, r_max=r_max, num_nodes=1025, w0=1.0)
        d = run_until(reg_params, 0.0, 2.0, st, t_end, 1.0, output_interval=0.1)
        margins = [sr - rc for sr, rc in zip(d.support_radius, d.cone_radius)]
        worst_margin = max(worst_margin, max(margins) / st.dr)
    ok = ok and worst_margin <= 2.0
    details.append(f"worst support-cone margin {worst_margin:.1f} dr (limit 2)")

    # (c) admissible nonlinear point: the field diverges and its mean
    # dominates the exponential lower bound until it does
    nl = CosmologyParams(n=1, m_sq=-1.0)
    problem = OdeProblem(params=nl, r0=0.5, lam=1.0, p=2.0, theta=0.5,
                         N=1.0, w0=1.0, w1=1.0, t_end=8.0)
    traj = integrate_comparison(problem)
    t_star = traj.t_star
    st = init_field(n=1, r0=0.5, r_max=2.0 * t_star + 1.0,
                    num_nodes=int(512 * (2.0 * t_star + 1.0)) + 1, w0=1.0, w1=1.0)
    d = run_until(nl, 1.0, 2.0, st, 2.0 * t_star, 0.5, output_interval=0.05)
    ratio = min(m / math.exp(t) for t, m in zip(d.t[:-1], d.mean[:-1]))
    ok = ok and traj.blowup and d.diverged and d.divergence_time < 2.0 * t_star
    ok = ok and ratio >= 0.95 and math.isfinite(d.mass_integral[-1])
    details.append(
        f"nonlinear run diverged at {d.divergence_time:.3f} "
        f"(comparison t* = {t_star:.3f}), min mean/(w0 e^t) = {ratio:.4f}"
    )

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(capsys, 7, ok, "; ".join(details) + f" ({elapsed:.0f}s)")


def _identity_residual(params, lam, r0, w0, w1, R, nodes_per_unit, r_max):
    # one "refinement" halves the grid spacing, the CFL time step, and the
    # snapshot interval feeding the temporal quadrature together
    nodes = int(nodes_per_unit * r_max) + 1
    state = init_field(n=1, r0=r0, r_max=r_max, num_nodes=nodes, w0=w0, w1=w1)
    diag = run_until(params, lam, 2.0, state, R, r0,
                     output_interval=R / (0.625 * nodes_per_unit),
                     keep_snapshots=True)
    return weak_identity_residual(diag, params, lam, 2.0, R)


def test_acceptance_8_weak_identity(capsys):
    start = time.monotonic()
    # linear window: no forcing, real mass
    lin = CosmologyParams(n=1, m_sq=1.0)
    lin_desk = _identity_residual(lin, 0.0, 1.0, 1.0, 0.8, R=4.0,
                                  nodes_per_unit=256, r_max=5.5)
    lin_fine = _identity_residual(lin, 0.0, 1.0, 1.0, 0.8, R=4.0,
                                  nodes_per_unit=512, r_max=5.5)
    # nonlinear window on the admissible point, stopped before divergence
    nl = CosmologyParams(n=1, m_sq=-1.0)
    nl_desk = _identity_residual(nl, 1.0, 0.5, 1.0, 1.0, R=2.5,
                                 nodes_per_unit=256, r_max=4.0)
    nl_fine = _identity_residual(nl, 1.0, 0.5, 1.0, 1.0, R=2.5,
                                 nodes_per_unit=512, r_max=4.0)
    lin_ratio = lin_fine / lin_desk
    nl_ratio = nl_fine / nl_desk
    elapsed = time.monotonic() - start
    # the solver is second order, so one refinement reduces the residual by
    # about 4x; the criterion requires at least a halving
    ok = (lin_desk <= 5e-2 and nl_desk <= 5e-2
          and lin_ratio <= 0.6 and nl_ratio <= 0.6 and elapsed < 600.0)
    _verdict(capsys, 8, ok,
             f"identity residual linear {lin_desk:.2e} -> {lin_fine:.2e} "
             f"(ratio {lin_ratio:.2f}), nonlinear {nl_desk:.2e} -> "
             f"{nl_fine:.2e} (ratio {nl_ratio:.2f}) in {elapsed:.0f}s")


def test_acceptance_9_prior_condition_dominance(capsys):
    rng = np.random.default_rng(23)
    start = time.monotonic()
    violations = 0
    prior_passes = 0
    for _ in range(500):
        params = _random_background(rng, case=int(rng.integers(1, 4)))
        N, _ = damping_rate_N(params)
        r0 = float(rng.uniform(0.3, 1.5))
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(1.5, 2.5))
        theta = float(rng.uniform(0.2, 0.8))
        w0 = float(10.0 ** rng.uniform(-1.0, 7.0))
        w1 = float(rng.uniform(0.0, 3.0)) * max(params.c * N * w0, w0 ** ((p + 1) / 2))
        data = InitialDataSummary(w0=w0, w1=w1, r0=r0)
        out = compare_prior_conditions(params, data, lam, p, theta=theta)
        if out["prior"]:
            prior_passes += 1
            if not out["this_paper"]:
                violations += 1
    # constructed separating point: passes the present conditions but not
    # the earlier slope floor (about 18.3 here vs the required c N w0 = 10)
    sep = compare_prior_conditions(
        CosmologyParams(n=1, m_sq=-1.0),
        InitialDataSummary(w0=10.0, w1=10.0, r0=0.5), 1.0, 2.0, theta=0.5,
    )
    separated = sep == {"this_paper": True, "prior": False}
    elapsed = time.monotonic() - start
    ok = violations == 0 and prior_passes > 0 and separated and elapsed < 30.0
    _verdict(capsys, 9, ok,
             f"prior implies present on 500 draws ({prior_passes} prior "
             f"passes, {violations} violations); separating point found: "
             f"{separated} ({elapsed:.1f}s)")
