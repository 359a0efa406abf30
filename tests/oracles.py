"""Independent oracles and reference forms, used only by the tests.

Finite differences of a(t) for the curved mass M^2 and adaptive quadrature
of c/a for the light cone; neither shares code with the closed forms they
check beyond a(t) itself.  The data thresholds S on a grid that takes a(t)
as a power of the bracket and then its log, as they were once computed.
The Lemma 2.1 check as a loop over samples that evaluates (M^2, b) per
sample, as it once was.  The separable blow-up solution of the comparison
ODE.  The cutoff psi_R^p' and its closed-form derivatives pointwise, from
the profile the weak identity folds into its weights.  The CFL step a
field state takes by default.  Simpson's weights on a uniform grid, and the
growth integrals II'_R and III'_R by scipy's adaptive quadrature, as they
were once computed.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from kgflrw.cosmology import (
    ConeData, CosmologyParams, background, horizon_time, scale_factor, unit_ball_volume,
)
from kgflrw.field_solver import FieldState, _cfl
from kgflrw.testfn import _holder_conjugate, _pow_deriv_factors, _radial_lap_pow, build_cutoff


def curved_mass_sq_from_derivatives(
    params: CosmologyParams, t: float, dt: Optional[float] = None
) -> float:
    """M^2 from the defining derivative form, via 4th-order finite differences.

    M^2 = m^2 - n(n-2)/(4c^2) (adot/a)^2 - n/(2c^2) (addot/a).  Used only as a
    cross-check of the closed form.  Central stencil where it fits, one-sided
    near t = 0.  The step balances truncation against roundoff on the local
    timescale, which shrinks toward a finite horizon.
    """
    t = background(params).check_time(t)
    t0 = horizon_time(params)
    if dt is None:
        scale = 1.0 + t
        if math.isfinite(t0):
            scale = min(scale, 0.4 * (t0 - t))
        dt = 2e-3 * scale
    elif math.isfinite(t0):
        dt = min(dt, (t0 - t) / 8.0)
    if t >= 2 * dt:
        a = [scale_factor(params, t + k * dt) for k in (-2, -1, 0, 1, 2)]
        a_here = a[2]
        adot = (a[0] - 8 * a[1] + 8 * a[3] - a[4]) / (12.0 * dt)
        addot = (-a[0] + 16 * a[1] - 30 * a[2] + 16 * a[3] - a[4]) / (12.0 * dt * dt)
    else:
        a = [scale_factor(params, t + k * dt) for k in range(6)]
        a_here = a[0]
        adot = (-25 * a[0] + 48 * a[1] - 36 * a[2] + 16 * a[3] - 3 * a[4]) / (12.0 * dt)
        addot = (45 * a[0] - 154 * a[1] + 214 * a[2] - 156 * a[3] + 61 * a[4] - 10 * a[5]) / (
            12.0 * dt * dt
        )
    n, c = params.n, params.c
    return params.m_sq - n * (n - 2) / (4.0 * c * c) * (adot / a_here) ** 2 - n / (2.0 * c * c) * addot / a_here


def cone_radius_quadrature(cone: ConeData, t: float, tol: float = 1e-12) -> float:
    """r(t) by adaptive quadrature of c/a(s); cross-check for cone_radius."""
    p = cone.params
    t = background(p).check_time(t)
    if t == 0.0:
        return cone.r0
    val, _ = quad(lambda s: p.c / scale_factor(p, s), 0.0, t, epsabs=tol, epsrel=1e-12, limit=200)
    return cone.r0 + val


def _grid_via_scale_factor(params: CosmologyParams, r0: float, ts):
    """(a, r, M^2) over the times ts, a as a power of the bracket 1 + qHt/2.

    The grid the data thresholds were once built on; the closed forms now
    derive a from L = log(a/a0), and this is the cross-check that S did not
    move by more than round-off.
    """
    n, c, H, sigma, a0 = params.n, params.c, params.H, params.sigma, params.a0
    shift = sigma * (n * H / (2.0 * c)) ** 2
    q = n * (1.0 + sigma)
    if sigma == -1.0:
        L = H * ts
        a = a0 * np.exp(L)
        msq = np.full_like(ts, params.m_sq + shift)
    else:
        a = a0 * (1.0 + q * H * ts / 2.0) ** (2.0 / q)
        L = 2.0 / q * np.log1p(q * H * ts / 2.0)
        msq = params.m_sq + shift * (1.0 + q * H * ts / 2.0) ** (-2.0)
    e = q / 2.0 - 1.0
    if H == 0.0:
        r = r0 + c * ts / a0
    elif e == 0.0:
        r = r0 + c / (a0 * H) * L
    else:
        eL = e * L
        r = r0 + c / (a0 * H) * np.where(np.abs(eL) < sys.float_info.min, L, np.expm1(eL) / e)
    return a, r, msq


def _grid_sup_via_scale_factor(params, r0, N, log_value, grid_size, t_max=None):
    """(top, ts, best) of a data threshold's log integrand ``log_value(ts, a, r, log_window)``.

    Raises OverflowError where a(t) under- or overflows on the grid, as its
    log is then no longer the log of a(t).
    """
    bg = background(params, r0)
    if t_max is None:
        t_max = 1e3 * max(1.0, 1.0 / (params.c * N)) if N > 0 else 1e3
    t_max = min(t_max, bg.t_end_cap)
    ts = np.concatenate(([0.0], t_max * 10.0 ** (-6.0 * (1.0 - np.linspace(0.0, 1.0, grid_size)))))
    ts = np.minimum(ts, bg.t_clamp)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, r, msq = _grid_via_scale_factor(params, r0, ts)
        if not np.all((a > 0.0) & (a < math.inf)):
            raise OverflowError("a(t) leaves the float range on the grid")
        window = N * N + msq
        window = np.where(window <= 1e-12 * (N * N + np.abs(msq) + 1.0), 0.0, window)
        log_vals = log_value(ts, a, r, np.log(window))
    log_vals = np.where(window > 0.0, log_vals, -np.inf)
    best = int(np.argmax(log_vals))
    top = float(log_vals[best])
    # a maximizer at the end of the grid on an infinite horizon: the sup is not reached
    truncated = best == ts.size - 1 and math.isinf(bg.t_end_cap)
    return (math.inf if truncated or top > math.log(1e30) else top), ts, best


def threshold_S_via_scale_factor(params, r0, lam, p, theta, N, grid_size=10_000, t_max=None):
    """`threshold_S` on the grid above, refined by golden section on a power of the bracket.

    ``t_max`` ends the grid before its default 1e3 max(1, 1/cN), to stay
    clear of times where r(t) overflows.
    """
    n, c = params.n, params.c
    expo = -n * (p - 1.0) / 2.0
    log_wn_2n = 2.0 / n * math.log(unit_ball_volume(n))

    def log_value(ts, a, r, log_window):
        log_b = math.log(lam) + expo * (log_wn_2n + np.log(a) + 2.0 * np.log(r))
        return -c * N * ts + (log_window - math.log(1.0 - theta) - log_b) / (p - 1.0)

    top, ts, best = _grid_sup_via_scale_factor(params, r0, N, log_value, grid_size, t_max)
    if not math.isfinite(top):
        return math.exp(top)

    def f(t):
        a, r, msq = (float(x[0]) for x in _grid_via_scale_factor(params, r0, np.array([t])))
        val = N * N + msq
        if val <= 1e-12 * (N * N + abs(msq) + 1.0):
            return 0.0
        b = lam * (unit_ball_volume(n) ** (2.0 / n) * a * r * r) ** expo
        return math.exp(-c * N * t) * (val / ((1.0 - theta) * b)) ** (1.0 / (p - 1.0))

    lo = float(ts[best - 1] if best > 0 else ts[0])
    hi = float(ts[best + 1] if best + 1 < len(ts) else ts[-1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return max(math.exp(top), f1, f2)


def prior_S_via_scale_factor(params, r0, lam, p, theta, N, grid_size=4000):
    """The earlier work's data threshold on the grid above, with max{a0 r0^2, a r^2}."""
    n, c = params.n, params.c
    log_wn = math.log(unit_ball_volume(n))

    def log_value(ts, a, r, log_window):
        log_bulk = n / 2.0 * np.log(np.maximum(params.a0 * r0 * r0, a * r * r))
        log_rest = (log_window - math.log((1.0 - theta) * lam)) / (p - 1.0)
        return log_wn - c * N * ts + log_bulk + log_rest

    top, _, _ = _grid_sup_via_scale_factor(params, r0, N, log_value, grid_size)
    return math.exp(top)


def verify_lemma21_per_sample(trajectory, problem) -> dict:
    """`verify_lemma21` without its precondition, one sample at a time.

    Calls ``problem.coefficients()`` at every sample instead of reading the
    trajectory's recorded coefficients; reference for the array check.
    """
    p = problem
    c, w0, w1, pp, theta = p.params.c, p.w0, p.w1, p.p, p.theta
    cN, keep, N2 = c * p.N, 1.0 - theta, p.N ** 2
    coef = p.coefficients()
    keys = ("exp_lower_bound", "weight_gap", "convexity", "wdot_floor")
    results = dict.fromkeys(keys, True)
    worst = dict.fromkeys(keys, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, w, wdot in zip(trajectory.t, trajectory.w, trajectory.wdot):
            tol = 1e-8 * (1.0 + abs(w))
            msq, b = coef(t)
            margin2 = keep * b * w ** (pp - 1.0) - msq - N2
            if w > 0:
                margin3 = w * margin2
            else:
                wddot = c * c * (b * abs(w) ** pp - msq * w)
                margin3 = wddot / (c * c) - N2 * w - theta * b * w ** pp
            margins = (w - w0 * math.exp(cN * t), margin2, margin3, wdot - w1)
            for key, margin in zip(keys, margins):
                if margin < worst[key] or math.isnan(margin):
                    worst[key] = margin
                if not margin >= -tol:
                    results[key] = False
    results["worst_margins"] = worst
    results["all_pass"] = all(results[k] for k in keys)
    return results


@dataclass(frozen=True)
class OracleSolution:
    """Closed-form separable blow-up solution for constant weight, zero mass."""

    p: float
    b: float
    w0: float
    c: float
    kappa: float
    t_star: float

    def w(self, t: float) -> float:
        return self.w0 * (1.0 - self.kappa * t) ** (-2.0 / (self.p - 1.0))

    def w1(self) -> float:
        return self.c * math.sqrt(2.0 * self.b / (self.p + 1.0)) * self.w0 ** ((self.p + 1.0) / 2.0)


def closed_form_oracle(p: float, b_const: float, w0: float, c: float = 1.0) -> OracleSolution:
    """Exact solution of c^-2 wddot = b w^p with energy-matched initial slope.

    w(t) = w0 (1 - kappa t)^(-2/(p-1)), kappa = c (p-1)/2 sqrt(2b/(p+1))
    w0^((p-1)/2); finite blow-up at t* = 1/kappa.  Independent oracle for the
    integrator; requires p > 1, b > 0, w0 > 0.
    """
    if p <= 1 or b_const <= 0 or w0 <= 0 or c <= 0:
        raise ValueError("oracle requires p > 1, b > 0, w0 > 0, c > 0")
    kappa = c * (p - 1.0) / 2.0 * math.sqrt(2.0 * b_const / (p + 1.0)) * w0 ** ((p - 1.0) / 2.0)
    return OracleSolution(p=p, b=b_const, w0=w0, c=c, kappa=kappa, t_star=1.0 / kappa)


def psi_pow(R: float, p: float, t, radius):
    """psi_R(t, x)^p' = eta(t/R)^p' eta(|x|/R)^p' with p' = p/(p-1)."""
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    cut = build_cutoff()
    pp = _holder_conjugate(p)
    t_arr = np.asarray(t, dtype=float)
    r_arr = np.asarray(radius, dtype=float)
    out = cut.eta(t_arr / R) ** pp * cut.eta(r_arr / R) ** pp
    return float(out) if np.ndim(t) == 0 and np.ndim(radius) == 0 else out


def dtt_psi_pow(R: float, p: float, t, radius):
    """Second time derivative of psi_R^p', in closed form."""
    cut = build_cutoff()
    pp = _holder_conjugate(p)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    r_arr = np.atleast_1d(np.asarray(radius, dtype=float))
    out = _pow_deriv_factors(cut, t_arr / R, pp)[1] / R**2 * cut.eta(r_arr / R) ** pp
    return float(out[0]) if np.ndim(t) == 0 and np.ndim(radius) == 0 else out


def lap_psi_pow(R: float, p: float, t, radius, n: int):
    """Spatial Laplacian of psi_R^p' for radial x, in closed form.

    Delta f(|x|) = f'' + (n-1)/|x| f'; the first-derivative term vanishes
    identically on the plateau, so the origin needs no special casing.
    """
    cut = build_cutoff()
    pp = _holder_conjugate(p)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    r_arr = np.atleast_1d(np.asarray(radius, dtype=float))
    out = cut.eta(t_arr / R) ** pp * _radial_lap_pow(cut, R, pp, r_arr, n)
    return float(out[0]) if np.ndim(t) == 0 and np.ndim(radius) == 0 else out


def uniform_simpson_weights(r: np.ndarray) -> np.ndarray:
    """Simpson's weights on the uniform grid r from its first step h alone.

    h/3 (1, 4, 2, ..., 4, 1) for an odd node count; for an even one, the same
    up to the last interval plus h (-1, 8, 5)/12 on the last three nodes.
    """
    h = r[1] - r[0]
    odd = r.size - 1 + r.size % 2
    w = np.zeros_like(r)
    w[:odd] = 2.0 * h / 3.0
    w[1:odd:2] = 4.0 * h / 3.0
    w[0] = w[odd - 1] = h / 3.0
    if odd < r.size:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * (h / 12.0)
    return w


def cfl_dt(params: CosmologyParams, state: FieldState) -> float:
    """Wave-speed limited timestep `_CFL` * dr * a(t) / c, the step `field_solver.step` takes by default."""
    return _cfl(state.dr, background(params).a(state.t), params.c)


def _guarded_quad(fn, lo, hi, points, tol) -> float:
    """Adaptive quadrature that maps divergence to inf instead of garbage."""
    if hi <= lo:
        return 0.0
    pts = [q for q in points if q is not None and lo < q < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(fn, lo, hi, points=pts or None, epsrel=tol, epsabs=0.0, limit=200)
        except (IntegrationWarning, OverflowError):
            return math.inf
    if not math.isfinite(val) or (val != 0.0 and err > 0.1 * abs(val)):
        return math.inf
    return val


def _r_and_a_pow(bg, t: float, x: float) -> tuple[float, float]:
    """r(t), inf where it leaves the float range (far past any R), and a(t)^x through log a,
    which stays finite where a(t) does not."""
    t = bg.check_time(t)
    L = bg._log_a(t)
    try:
        r = bg._r(t, L)
    except OverflowError:
        r = math.inf
    return r, math.exp(x * (math.log(bg.a0) + L))


def II_prime_quad(params: CosmologyParams, r0: float, R: float, tol: float = 1e-10) -> float:
    """`testfn.II_prime` by `quad`, up to the horizon clamp when the spacetime ends before R."""
    bg = background(params, r0)
    upper = bg.t_clamp if bg.t0 < R else R
    n = params.n

    def integrand(t):
        r, a_pow = _r_and_a_pow(bg, t, n / 2.0)
        return min(R, r) ** n * a_pow

    return unit_ball_volume(n) * _guarded_quad(integrand, R / 2.0, upper, [bg.cone_time(R)], tol)


def III_prime_quad(params: CosmologyParams, r0: float, R: float, p: float,
                   tol: float = 1e-10) -> float:
    """`testfn.III_prime` by `quad`, up to the horizon clamp when the spacetime ends before R."""
    pp = _holder_conjugate(p)
    bg = background(params, r0)
    upper = bg.t_clamp if bg.t0 < R else R
    n = params.n
    wn = unit_ball_volume(n)
    t_entry = 0.0 if r0 >= R / 2.0 else bg.cone_time(R / 2.0)
    if t_entry is None or t_entry >= upper:
        return 0.0

    def integrand(t):
        r, a_pow = _r_and_a_pow(bg, t, n / 2.0 - 2.0 * pp)
        annulus = min(R, r) ** n - (R / 2.0) ** n
        return a_pow * wn * annulus if annulus > 0.0 else 0.0

    return _guarded_quad(integrand, t_entry, upper, [bg.cone_time(R)], tol)
