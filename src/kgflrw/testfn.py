"""Smooth space-time cutoffs and the scaling integrals built on them.

This module owns the compactly supported test-function machinery: a C^2
bump profile eta that is 1 on [0, 1/2] and 0 from 1 on, the rescaled
space-time cutoff psi_R(t, x) = eta(t/R) eta(|x|/R) raised to the Holder
conjugate power p' = p/(p-1), the two growth integrals II'_R and III'_R
that control the cutoff error terms, log-log exponent fits of their growth
in R, and the resulting verdicts for the two vanishing-limit hypotheses
lim R^-2 (II'_R)^(1/p') = 0 and lim R^-2 (III'_R)^(1/p') = 0.

It also evaluates the weak-solution integral identity on stored solver
snapshots, with every derivative of the cutoff computed in closed form so
that the reported residual measures solver and quadrature error only.

Its quadratures are its own: eta's partial integral is the exact integral
of a cubic Hermite interpolant, the identity's time integrals take
`field_solver`'s Simpson weights, and II'_R and III'_R are closed form past
the cone's kink and, before it, a tanh-sinh rule (Takahasi & Mori, Publ. RIMS
9, 1974) on a bounded integrand over the a^x clock.  The package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .cosmology import CosmologyParams, _expm1_over, _log1p_over, background, unit_ball_volume
from .field_solver import _mean_weights, _simpson_weights
from .thresholds import analytic_scaling_conditions

__all__ = [
    "CutoffProfile",
    "ScalingFit",
    "HypothesisEvidence",
    "CoverageError",
    "build_cutoff",
    "II_prime",
    "III_prime",
    "scaling_exponent",
    "hypothesis_13_14",
    "weak_identity_residual",
]

# Below this value of eta the transition-layer derivative quotients are
# treated as zero: eta decays faster than any power there, so the dropped
# contributions are far below quadrature tolerance.
_ETA_FLOOR = 1e-250


class CoverageError(ValueError):
    """Solver snapshots do not span the window a cutoff integral needs."""


def _bump_integrand(s, deriv: bool = False):
    """exp(-1/((s-1/2)(1-s))) on (1/2, 1), or its derivative, zero elsewhere (vectorized)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.5) & (s < 1.0)
    si = s[inside]
    phi = (si - 0.5) * (1.0 - si)
    out[inside] = np.exp(-1.0 / phi) * ((1.5 - 2.0 * si) / phi**2 if deriv else 1.0)
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """The C^2 profile eta: 1 on [0,1/2], smooth descent, 0 on [1,inf).

    eta0 is the normalization making eta continuous with eta(1) = 0; the
    descent is eta(s) = 1 - eta0 * int_{1/2}^s exp(-1/((q-1/2)(1-q))) dq.
    The partial integral is that of the cubic Hermite interpolant of the
    (smooth, endpoint-flat) integrand and its derivative, so that pointwise
    calls are cheap and accurate to ~1e-14.
    """

    eta0: float
    _partial: Callable = field(repr=False)

    def eta(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = np.ones_like(s_arr)
        out[s_arr >= 1.0] = 0.0
        mid = (s_arr > 0.5) & (s_arr < 1.0)
        out[mid] = np.clip(1.0 - self.eta0 * self._partial(s_arr[mid]), 0.0, 1.0)
        return float(out) if np.ndim(s) == 0 else out

    def eta_prime(self, s):
        out = -self.eta0 * _bump_integrand(s)
        return float(out) if np.ndim(s) == 0 else out

    def eta_pp(self, s):
        out = -self.eta0 * _bump_integrand(s, deriv=True)
        return float(out) if np.ndim(s) == 0 else out


@lru_cache(maxsize=1)
def build_cutoff() -> CutoffProfile:
    """The shared cutoff profile.

    eta's partial integral is exact for the cubic Hermite interpolant of the
    integrand on 4,097 nodes: h (f0 + f1)/2 + h^2 (f0' - f1')/12 per interval,
    summed, and a quartic in the offset inside one.
    """
    nodes = np.linspace(0.5, 1.0, 4097)
    h = nodes[1] - nodes[0]
    f, df = _bump_integrand(nodes), _bump_integrand(nodes, deriv=True) * h
    cumulative = np.concatenate(([0.0], np.cumsum(h * (f[:-1] + f[1:]) / 2.0
                                                   + h * (df[:-1] - df[1:]) / 12.0)))

    def partial(s):
        i = np.minimum(((s - 0.5) / h).astype(int), nodes.size - 2)
        x, f0, f1, d0, d1 = (s - nodes[i]) / h, f[i], f[i + 1], df[i], df[i + 1]
        # the interpolant is f0 + d0 x + c2 x^2 + c3 x^3 in x = (s - node)/h
        c2, c3 = 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1
        return cumulative[i] + h * x * (f0 + x * (d0 / 2.0 + x * (c2 / 3.0 + x * c3 / 4.0)))

    return CutoffProfile(eta0=1.0 / cumulative[-1], _partial=partial)


def _holder_conjugate(p: float) -> float:
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    return p / (p - 1.0)


def _pow_deriv_factors(cut: CutoffProfile, s: np.ndarray, pp: float):
    """d/ds and d^2/ds^2 of eta(s)^p' in closed form, with the underflow floor.

    p' eta^(p'-1) eta' and p'((p'-1) eta^(p'-2) eta'^2 + eta^(p'-1) eta'').
    Where eta has decayed below the floor both are super-polynomially small,
    so they are set to zero instead of risking 0 * inf.
    """
    e = cut.eta(s)
    ep = cut.eta_prime(s)
    epp = cut.eta_pp(s)
    first, second = np.zeros_like(e), np.zeros_like(e)
    live = e > _ETA_FLOOR
    el, epl, eppl = e[live], ep[live], epp[live]
    e1 = el ** (pp - 1.0)
    first[live] = pp * e1 * epl
    second[live] = pp * ((pp - 1.0) * el ** (pp - 2.0) * epl**2 + e1 * eppl)
    return first, second


def _radial_lap_pow(cut: CutoffProfile, R: float, pp: float, r: np.ndarray, n: int) -> np.ndarray:
    """Delta of eta(|x|/R)^p' at radii r: f'' + (n-1)/r f', the first term only where f' != 0."""
    first, second = _pow_deriv_factors(cut, r / R, pp)
    lap = second / R**2
    first = first / R
    live = first != 0.0
    lap[live] += (n - 1.0) / r[live] * first[live]
    return lap


# The tanh-sinh nodes u = j 2^-k run over |u| <= 6, within 2e-275 of the
# half-length of the ends of the interval (node and weight still normal
# floats), and the step stops at 2^-8.
_DE_U_MAX = 6.0
_DE_LEVELS = 9


@lru_cache(maxsize=None)
def _tanh_sinh_level(k: int):
    """(1 - x, w) at x = tanh(pi/2 sinh(u)), for u = j 2^-k > 0 new at level k (j odd past 0).

    1 - x = 2/(exp(2v) + 1) keeps a node's distance from the end, and w = pi/2 cosh(u)/cosh(v)^2.
    """
    u = np.arange(1, int(_DE_U_MAX * 2**k) + 1, 1 if k == 0 else 2) / 2.0**k
    e = np.exp(-math.pi * np.sinh(u))
    return tuple(zip((2.0 * e / (1.0 + e)).tolist(),
                     (2.0 * math.pi * np.cosh(u) * e / (1.0 + e) ** 2).tolist()))


def _tanh_sinh(fn, lo: float, hi: float, tol: float) -> float:
    """int_lo^hi fn(t) dt for a scalar fn bounded and smooth on (lo, hi), by the tanh-sinh rule.

    Halves the step from 1 until two levels agree to tol, relative, and gives
    the finest level's estimate when none do (Takahasi & Mori).  fn is called
    once per abscissa, so the outer nodes that round onto lo or hi share one call.
    """
    if hi <= lo:
        return 0.0
    fn = cache(fn)
    half = (hi - lo) / 2.0
    total, last = math.pi / 2.0 * fn(lo + half), None
    for k in range(_DE_LEVELS):
        total += sum(w * (fn(lo + half * d) + fn(hi - half * d)) for d, w in _tanh_sinh_level(k))
        estimate = half * total / 2.0**k
        if last is not None and abs(estimate - last) <= tol * abs(estimate):
            break
        last = estimate
    return estimate


def _growth_integral(params: CosmologyParams, r0: float, R: float, t_lo: float, x: float,
                     inner: float, tol: float) -> float:
    """omega_n int_t_lo^min(R, T0) a^x g dt, with the bracket g = max(min(R, r)^n - inner^n, 0).

    As dt = e^(qL/2) dtau in tau = L/H (t at sigma = -1 and when static), a piece
    from tau_a is a0^x e^(e L_a) int_0^v_b g dv over the a^x clock
    v = expm1(e H (tau - tau_a))/(e H), e = x + q/2.  g is 0 until the cone reaches
    inner, and past the kink where it reaches R the constant R^n - inner^n, both
    found in tau by `_cone_tau`; between them `_tanh_sinh` takes each node v back to
    tau_a + log1p(e H v)/(e H).  tau is inf at a horizon, so v_b is finite or inf,
    and the integral diverges; inf also where a power overflows.
    """
    bg = background(params, r0)
    n, H, eH = params.n, bg.H, (x + bg.q / 2.0) * bg.H

    def reach(radius):  # the tau at which the cone reaches radius, inf if never
        tau = 0.0 if r0 >= radius else bg._cone_tau(radius)
        return math.inf if tau is None else tau

    def bracket(tau):  # `_r` reads its t only for a static cone, where tau = t; r_limit at a horizon
        r = bg._r(tau, H * tau) if tau < math.inf else bg.r_limit
        return max(min(R, r) ** n - inner**n, 0.0)

    def piece(tau_a: float, tau_b: float, past_kink: bool) -> float:
        if tau_b <= tau_a:
            return 0.0
        v_b = _expm1_over(eH, tau_b - tau_a)
        if v_b == math.inf:
            return math.inf
        scale = math.exp(x * math.log(bg.a0) + eH * tau_a)
        if past_kink:
            return scale * (R**n - inner**n) * v_b
        return scale * _tanh_sinh(lambda v: bracket(tau_a + _log1p_over(eH, v)), 0.0, v_b, tol)

    start = max(_log1p_over(bg.qH / 2.0, t_lo), reach(inner))
    end = math.inf if R >= bg.t0 else _log1p_over(bg.qH / 2.0, R)
    kink = min(max(reach(R), start), end)
    try:
        return unit_ball_volume(n) * (piece(start, kink, False) + piece(kink, end, True))
    except OverflowError:
        return math.inf


def II_prime(
    params: CosmologyParams,
    r0: float,
    R: float,
    tol: float = 1e-10,
) -> float:
    """Cutoff-layer growth integral omega_n int_{R/2}^R min(R, r(t))^n a^(n/2) dt.

    a(t) and r(t) come from the problem's `Background`, and the kink where
    the cone reaches R is closed form.  Up to the horizon when the spacetime
    ends before t = R.  Returns inf when the integral diverges at the horizon.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    return _growth_integral(params, r0, R, R / 2.0, params.n / 2.0, 0.0, tol)


def III_prime(
    params: CosmologyParams,
    r0: float,
    R: float,
    p: float,
    tol: float = 1e-10,
) -> float:
    """Annulus growth integral int_0^R a^(n/2-2p') vol(R/2 < |x| < min(R, r(t))) dt.

    The integrand starts where the cone enters the annulus, or at t = 0 when
    r0 >= R/2 and the cone starts inside it, and has its kink where the cone
    reaches R.  Exactly zero when the light cone never reaches radius R/2
    before both t = R and the horizon; up to the horizon as II_prime is.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    pp = _holder_conjugate(p)
    return _growth_integral(params, r0, R, 0.0, params.n / 2.0 - 2.0 * pp, R / 2.0, tol)


@dataclass
class ScalingFit:
    """Least-squares growth fit of an integral against the scaling radius."""

    R: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residual: float
    exponential: bool
    exp_rate: Optional[float] = None
    log_factor_power: Optional[float] = None
    all_zero: bool = False
    note: str = ""


def _lsq(cols: list, y) -> tuple[list[float], float]:
    """Least squares of y on one or two columns and a constant: (coefficients + [intercept], rms residual).

    The normal equations of the centred columns, every sum taken by
    math.fsum and the 2 x 2 system solved by Cramer's rule, so the fit's
    digits do not depend on a BLAS kernel.  A single column with no spread
    gets slope 0.
    """
    m = len(y)
    means = [math.fsum(col) / m for col in (*cols, y)]
    *dx, dy = ([v - mu for v in col] for col, mu in zip((*cols, y), means))

    def dot(u, v):
        return math.fsum(a * b for a, b in zip(u, v))

    if len(dx) == 1:
        sxx = dot(dx[0], dx[0])
        coef = [dot(dx[0], dy) / sxx if sxx > 0.0 else 0.0]
    else:
        (s00, s01), (_, s11) = ([dot(u, v) for v in dx] for u in dx)
        r0, r1 = (dot(u, dy) for u in dx)
        det = s00 * s11 - s01 * s01
        coef = [(r0 * s11 - r1 * s01) / det, (s00 * r1 - s01 * r0) / det]
    intercept = means[-1] - math.fsum(c * mu for c, mu in zip(coef, means))
    resid = [dy[i] - math.fsum(c * u[i] for c, u in zip(coef, dx)) for i in range(m)]
    return coef + [intercept], math.sqrt(dot(resid, resid) / m)


def scaling_exponent(integral: Callable[[float], float], R_grid: Sequence[float]) -> ScalingFit:
    """Fit the growth of integral(R) on a log-spaced grid.

    Fits log I = slope * log R + intercept by least squares and reports the
    root-mean-square log residual.  When the power-law residual is large
    but log I is linear in R itself, the growth is flagged exponential and
    the rate in R is reported instead.  Otherwise a log-log R term is also
    fitted where log R > 1, and kept when it absorbs a logarithmic
    correction to the power law.
    """
    R_arr = np.asarray(list(R_grid), dtype=float)
    vals = np.array([float(integral(R)) for R in R_arr])
    finite = np.isfinite(vals) & (vals > 0.0)
    if not np.any(finite):
        return ScalingFit(
            R=R_arr, values=vals, slope=0.0, intercept=-math.inf, residual=0.0,
            exponential=False, all_zero=True, note="no positive finite values",
        )
    Rf, vf = R_arr[finite], vals[finite]
    note = ""
    if finite.sum() < len(vals):
        note = f"fit restricted to {int(finite.sum())} of {len(vals)} points"
    x, y = np.log(Rf), np.log(vf)

    (slope, intercept), resid_pow = _lsq([x], y)
    (rate, _), resid_exp = _lsq([Rf], y)
    exponential = resid_pow > 0.1 and resid_exp < 0.2 * resid_pow

    log_power = None
    if not exponential:
        usable = x > 1.0
        if usable.sum() >= 4:
            coef, resid_log = _lsq([x[usable], np.log(x[usable])], y[usable])
            if resid_log < 0.1 * max(resid_pow, 1e-300) and abs(coef[1]) > 0.25:
                slope, log_power, intercept = coef
                note = (note + "; " if note else "") + "log-factor model selected"
    return ScalingFit(
        R=R_arr,
        values=vals,
        slope=slope,
        intercept=intercept,
        residual=resid_pow,
        exponential=bool(exponential),
        exp_rate=rate if exponential else None,
        log_factor_power=log_power,
        note=note,
    )


def _adaptive_R_grid(integral: Callable[[float], float], scale: float) -> list[float]:
    """Log-spaced R values 2^k * scale, backing off overflowing tops.

    Starts from k = 6..16 and slides the window down until at least six
    values are finite, so exponentially growing integrals still yield a
    usable fit window.
    """
    k_hi = 16
    while k_hi >= 5:
        ks = range(k_hi - 10, k_hi + 1)
        grid = [scale * 2.0**k for k in ks]
        vals = [integral(R) for R in grid]
        finite = [math.isfinite(v) and v < 1e280 for v in vals]
        if sum(finite) >= 6:
            return [R for R, ok in zip(grid, finite) if ok]
        k_hi -= 2
    return [scale * 2.0**k for k in range(-4, 7)]


@dataclass
class HypothesisEvidence:
    """Numeric and analytic verdicts for the two vanishing-limit hypotheses."""

    h13_numeric: bool
    h14_numeric: bool
    h13_analytic: Optional[bool]
    h14_analytic: Optional[bool]
    disagreement: bool
    fit_II: ScalingFit
    fit_III: ScalingFit


# Margin below the critical exponent ratio 2 that the numeric verdict
# requires; keeps fit noise on a borderline slope from flipping a verdict.
_SLOPE_MARGIN = 5e-3


def _numeric_verdict(fit: ScalingFit, pp: float) -> bool:
    if fit.all_zero:
        return True
    if fit.exponential:
        # exponential growth overwhelms any power of R; exponential decay
        # (negative rate, contracting backgrounds) vanishes all the faster
        return fit.exp_rate is not None and fit.exp_rate < 0.0
    slope = fit.slope
    if fit.log_factor_power is not None and abs(slope / pp - 2.0) < _SLOPE_MARGIN:
        # exactly critical power with a positive log correction diverges
        return fit.log_factor_power < 0.0
    return slope / pp < 2.0 - _SLOPE_MARGIN


def hypothesis_13_14(
    params: CosmologyParams,
    r0: float,
    p: float,
    R_grid: Optional[Sequence[float]] = None,
    tol: float = 1e-10,
) -> HypothesisEvidence:
    """Decide both vanishing-limit hypotheses numerically and analytically.

    The numeric verdict fits the growth of II'_R and III'_R over a
    log-spaced R window and compares the exponent against the critical
    ratio slope/p' = 2; exponential growth fails the limit outright and an
    identically vanishing tail passes it.  The closed-form regime ladder is
    evaluated alongside and any disagreement is flagged rather than hidden.
    """
    pp = _holder_conjugate(p)
    scale = max(1.0, r0, 1.0 / params.c)

    # the grid search and the fits share one evaluation per radius
    @lru_cache(maxsize=None)
    def ii(R):
        return II_prime(params, r0, R, tol=tol)

    @lru_cache(maxsize=None)
    def iii(R):
        return III_prime(params, r0, R, p, tol=tol)

    grid_ii = list(R_grid) if R_grid is not None else _adaptive_R_grid(ii, scale)
    grid_iii = list(R_grid) if R_grid is not None else _adaptive_R_grid(iii, scale)
    fit_ii = scaling_exponent(ii, grid_ii)
    fit_iii = scaling_exponent(iii, grid_iii)

    # a tail of exact zeros at large R means the annulus integral vanished
    vals_iii = np.asarray(fit_iii.values)
    tail_zero = vals_iii.size > 0 and np.all(vals_iii[-max(2, vals_iii.size // 2):] == 0.0)

    h13 = _numeric_verdict(fit_ii, pp)
    h14 = True if (fit_iii.all_zero or tail_zero) else _numeric_verdict(fit_iii, pp)

    ladder = analytic_scaling_conditions(params, p)
    h13_a, h14_a = ladder if ladder is not None else (None, None)
    disagree = ladder is not None and (h13 != h13_a or h14 != h14_a)
    return HypothesisEvidence(
        h13_numeric=h13,
        h14_numeric=h14,
        h13_analytic=h13_a,
        h14_analytic=h14_a,
        disagreement=disagree,
        fit_II=fit_ii,
        fit_III=fit_iii,
    )


def weak_identity_residual(
    diag,
    params: CosmologyParams,
    lam: float,
    p: float,
    R: float,
    return_parts: bool = False,
):
    """Residual of the weak-solution identity on stored solver snapshots.

    Pairs the numerical field with psi_R^p' and its closed-form derivatives
    and evaluates the five space-time integrals I, II, III, IV (over time)
    and the data term V.  An exact solution satisfies
    lam I = -c^-2 V + c^-2 II - III + IV, so the defect over the sum of its terms'
    magnitudes (Oettli & Prager, Numer. Math. 6, 1964), |lam I + c^-2 V - c^-2 II
    + III - IV| / (|lam I| + c^-2 |V| + c^-2 |II| + |III| + |IV|), measures solver
    discretization plus quadrature error.  The cutoff is separable, so the
    spatial factor eta(|x|/R)^p' and its radial Laplacian are formed once on
    the snapshot grid and folded into the solver's Simpson weights; each
    snapshot then costs three dot products and scalar time factors, with a
    and M^2 from the run's `Background`.  Simpson's rule over the uneven
    snapshot times, `field_solver._simpson_weights` of their steps, gives
    the four time integrals.  Requires snapshots spanning [0, R], where
    psi_R vanishes, and R > 2 r0 so the data sit on the cutoff plateau.
    """
    cut = build_cutoff()
    pp = _holder_conjugate(p)
    snaps = getattr(diag, "snapshots", None)
    if not snaps:
        raise CoverageError("run carries no snapshots; rerun with keep_snapshots")
    bg = background(params)
    ts_all = np.array([s[0] for s in snaps])
    if ts_all[0] > 1e-12:
        raise CoverageError(f"first snapshot at t = {ts_all[0]}, need t = 0 for the data term")
    if ts_all[-1] < R * (1.0 - 1e-9):
        raise CoverageError(
            f"snapshots end at t = {ts_all[-1]}, need coverage to R = {R}"
        )
    keep = ts_all <= R * (1.0 + 1e-12)
    if keep.sum() < 5:
        raise CoverageError("fewer than five snapshots inside the cutoff window")
    r = getattr(diag, "snapshot_grid", None)
    if r is None:
        raise CoverageError("diagnostics carry no radial grid for the snapshots")

    n = params.n
    weights = _mean_weights(r, n)
    w_psi = weights * cut.eta(r / R) ** pp
    w_lap = weights * _radial_lap_pow(cut, R, pp, r, n)
    ts = ts_all[keep]
    psi_t = cut.eta(ts / R) ** pp
    dtt_t = _pow_deriv_factors(cut, ts / R, pp)[1] / R**2
    expo = -n * (p - 1.0) / 2.0
    rows = np.empty((4, ts.size))  # the integrands of I, II, III and IV over time
    for j, idx in enumerate(np.flatnonzero(keep)):
        t, u, _ = snaps[idx]
        a = bg.a(t)
        u_psi = u @ w_psi
        rows[:, j] = (
            a**expo * psi_t[j] * (np.abs(u) ** p @ w_psi),
            dtt_t[j] * u_psi,
            a ** (-2.0) * psi_t[j] * (u @ w_lap),
            bg.mass_sq(t) * psi_t[j] * u_psi,
        )
    I_R, II_R, III_R, IV_R = (rows @ _simpson_weights(np.diff(ts))).tolist()
    V_R = float(psi_t[0] * (snaps[0][2] @ w_psi))

    c2 = params.c**2
    defect = lam * I_R + V_R / c2 - II_R / c2 + III_R - IV_R
    scale_norm = abs(lam * I_R) + abs(V_R) / c2 + abs(II_R) / c2 + abs(III_R) + abs(IV_R)
    if scale_norm == 0.0:
        residual = 0.0 if defect == 0.0 else math.inf
    else:
        residual = abs(defect) / scale_norm
    if return_parts:
        return residual, {"I": I_R, "II": II_R, "III": III_R, "IV": IV_R, "V": V_R}
    return residual
