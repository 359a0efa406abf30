"""Blow-up threshold quantities and admissibility verdicts.

Computes the damping rate N, the weight b(t), the data threshold S, the
admissible exponent ranges per regime (including the critical exponent p0
for contracting backgrounds), and renders a per-hypothesis verdict for a
parameter point.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Optional, Union

from .cosmology import (
    ConeData,
    CosmologyParams,
    background,
    background_arrays,
    cone_radius,
    curved_mass_bounds,
    scale_factor,
    unit_ball_volume,
    weight_exponent,
)

__all__ = [
    "InitialDataSummary",
    "ThresholdReport",
    "CaseMismatchError",
    "nonlinearity_weight",
    "damping_rate_N",
    "threshold_S",
    "critical_exponent_p0",
    "admissible_p_range",
    "analytic_scaling_conditions",
    "check_hypotheses",
    "compare_prior_conditions",
]

_S_OVERFLOW = 1e30
# Round-off allowed at both edges of the mass window -N^2 <= M^2 <= 0, relative to their terms.
_ROUNDOFF = 8.0 * sys.float_info.epsilon


class CaseMismatchError(ValueError):
    """Parameter point matches no admissible regime case."""


@dataclass(frozen=True)
class InitialDataSummary:
    """Spatial means of the data and their common support radius."""

    w0: float
    w1: float
    r0: float

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"support radius must be positive, got {self.r0}")


@dataclass
class ThresholdReport:
    """Per-hypothesis ledger for one parameter point."""

    N: float
    S: float
    p_lower: float
    p_upper: float
    case_label: str
    hypothesis_flags: dict
    verdict: str  # "admissible" or "inadmissible(<reason>)"

    def to_dict(self) -> dict:
        return asdict(self)


def nonlinearity_weight(
    params: CosmologyParams, r0: float, lam: float, p: float, t: float
) -> float:
    """b(t) = lambda * (omega_n^(2/n) a(t) r(t)^2)^(-n(p-1)/2).

    Strictly positive for lambda > 0; equivalently
    lambda / (omega_n^(p-1) (a r^2)^(n(p-1)/2)).  Repeated evaluation on one
    background should use ``background(params, r0).mass_sq_weight(lam, p)``.
    """
    expo = weight_exponent(params.n, lam, p)
    a = scale_factor(params, t)
    r = cone_radius(ConeData(r0, params), t)
    return background(params, r0).b(a, r, lam, expo)


def _case(params: CosmologyParams) -> Optional[str]:
    """The regime case of a background: "1" static, "2" polynomially expanding
    (H > 0, sigma > -1), "3" strongly contracting (H < 0, sigma < -1 - 2/n), else None."""
    H, sigma = params.H, params.sigma
    if H == 0.0:
        return "1"
    if H > 0 and sigma > -1:
        return "2"
    if H < 0 and sigma < -1 - 2.0 / params.n:
        return "3"
    return None


def damping_rate_N(
    params: CosmologyParams, N_user: Optional[float] = None
) -> tuple[float, str]:
    """Damping rate N with its regime case label.

    Hypothesis (1.10), -N^2 <= M^2(t) <= 0, on the envelope of
    `curved_mass_bounds`, with the round-off _ROUNDOFF allowed at each edge
    relative to the terms it sums: |m^2| + |sup M^2 - m^2| for sup M^2 (m^2,
    or m^2 + shift), N^2 + |inf M^2| for N^2 + inf M^2.  N = sqrt(-inf M^2),
    labelled by `_case` or "raw", unless ``N_user`` is set, which is checked
    and labelled "raw".  CaseMismatchError when no window holds M^2.
    """
    if N_user is not None and N_user < 0:
        raise ValueError(f"N must be nonnegative, got {N_user}")
    bounds = curved_mass_bounds(params)
    if not (math.isfinite(bounds.lower) and math.isfinite(bounds.upper)):
        raise CaseMismatchError(f"M^2 is unbounded (case {bounds.case}); no window holds it")
    if bounds.upper > _ROUNDOFF * (abs(params.m_sq) + abs(bounds.upper - params.m_sq)):
        raise CaseMismatchError(f"sup M^2 = {bounds.upper} > 0 (case {bounds.case}): the curved mass is"
                                f" not purely imaginary; m_sq must drop by at least {bounds.upper}")
    if N_user is None:
        return math.sqrt(max(0.0, -bounds.lower)), _case(params) or "raw"
    if N_user * N_user + bounds.lower < -_ROUNDOFF * (N_user * N_user + abs(bounds.lower)):
        raise CaseMismatchError(f"N^2 + inf M^2 = {N_user * N_user + bounds.lower} < 0")
    return N_user, "raw"


@functools.lru_cache(maxsize=4)
def _unit_log_grid(grid_size: int):
    """Read-only ``grid_size`` points log-spaced over six decades below 1."""
    import numpy as np

    grid = 10.0 ** (-6.0 * (1.0 - np.linspace(0.0, 1.0, grid_size)))
    grid.flags.writeable = False
    return grid


def _window(N: float, msq):
    """(N^2 + M^2, where it is round-off of its infimum 0 under (1.10): at most _ROUNDOFF of
    the terms it sums, N^2 + |M^2|) for a float or array M^2."""
    window = N * N + msq
    return window, window <= _ROUNDOFF * (N * N + abs(msq))


def _log_grid_sup(bg, N: float, log_value, grid_size: int):
    """Grid maximum of a data threshold's log integrand: (top, ts, best).

    ``log_value(ts, log_a, log_r, log_window)`` is the log integrand from the
    times, log a(t), log r(t) and log(N^2 + M^2(t)), none of which overflows
    where a(t) or r(t) would; times where N^2 + M^2 vanishes count as zero.
    The grid is t = 0 plus ``grid_size`` points log-spaced over six decades
    below t_max = 1e3 max(1, 1/cN), kept finite and capped before a finite
    horizon.  ``top`` is -inf when every sample is zero, and inf above the
    overflow guard or when, on an infinite horizon, the maximizer is the last
    grid point: the integrand still grows where the grid ends.
    """
    import numpy as np

    cN = bg.c * N
    t_max = 1e3 * max(1.0, 1.0 / cN) if cN > 0 else 1e3
    t_max = min(t_max, bg.t_end_cap, sys.float_info.max)
    ts = np.concatenate(([0.0], t_max * _unit_log_grid(grid_size)))
    log_a, log_r, msq = background_arrays(bg.params, bg.r0, ts)
    window, zero = _window(N, msq)
    window[zero] = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_vals = log_value(ts, log_a, log_r, np.log(window))
    log_vals[zero] = -np.inf
    best = int(np.argmax(log_vals))
    top = float(log_vals[best])
    truncated = best == ts.size - 1 and math.isinf(bg.t_end_cap)
    return (math.inf if truncated or top > math.log(_S_OVERFLOW) else top), ts, best


# One entry: enough for a caller that computes S and then checks a problem
# built from the same arguments (``verify_lemma21``); a larger memo would also
# answer repeats of earlier problems, which a single run never makes.
@functools.lru_cache(maxsize=1)
def threshold_S(
    params: CosmologyParams,
    r0: float,
    lam: float,
    p: float,
    theta: float,
    N: float,
) -> float:
    """S = sup_t e^(-cNt) ((N^2 + M^2(t)) / ((1-theta) b(t)))^(1/(p-1)).

    Supremum of its log over a grid of 10,000 times from log a(t), log r(t)
    and M^2(t), which stay finite where a(t) and r(t) do not; then
    golden-section refinement near the grid maximizer on one
    `mass_sq_weight` closure.  inf when sampled values exceed the overflow
    guard, or when the maximizer lies where r(t) overflows, which the
    grid reaches only where the integrand still grows.  Negative values of
    N^2 + M^2 (round-off under the mass hypothesis) contribute zero.  The
    last result is memoized.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    import numpy as np

    bg = background(params, r0)
    expo = weight_exponent(params.n, lam, p)

    def log_value(ts, log_a, log_r, log_window):
        log_b = bg.log_b(log_a, log_r, lam, expo)
        return -params.c * N * ts + (log_window - math.log(1.0 - theta) - log_b) / (p - 1.0)

    top, ts, best = _log_grid_sup(bg, N, log_value, 10_000)
    if not math.isfinite(top):
        return math.exp(top)
    coefficients = bg.mass_sq_weight(lam, p)

    def f(t):
        try:
            msq, b = coefficients(t)
        except OverflowError:  # r(t) leaves the float range
            return math.inf
        except ZeroDivisionError:  # a r^2 underflows, so b is infinite
            return 0.0
        val, zero = _window(N, msq)
        if zero:
            return 0.0
        try:
            return math.exp(-params.c * N * t) * (val / ((1.0 - theta) * b)) ** (1.0 / (p - 1.0))
        except ArithmeticError:  # b underflows to 0, or the power overflows
            return math.inf

    # golden-section refinement on the bracketing interval
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
    return max(float(np.exp(top)), f1, f2)


Number = Union[int, float, Fraction]


def critical_exponent_p0(n: int, sigma: Number) -> Number:
    """p0 = n((n+1)(sigma+1) + 1) / (n(n-1)(sigma+1) + n - 4).

    Defined for sigma <= -1 - 2/n; the boundary value is exactly 1.  Exact
    arithmetic is preserved when sigma is an int or Fraction.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    exact = isinstance(sigma, (int, Fraction))
    s = Fraction(sigma) if exact else sigma
    boundary = Fraction(-1) - Fraction(2, n)
    if s > (boundary if exact else float(boundary) + 1e-15):
        raise ValueError(f"sigma must satisfy sigma <= -1 - 2/n, got {sigma}")
    return n * ((n + 1) * (s + 1) + 1) / (n * (n - 1) * (s + 1) + n - 4)


def admissible_p_range(params: CosmologyParams) -> tuple[float, float]:
    """(1, p_upper) for the matched regime case; raises on mismatch."""
    n, sigma, case = params.n, params.sigma, _case(params)
    if case == "1":
        return 1.0, math.inf if n == 1 else (n + 1.0) / (n - 1.0)
    if case == "2":
        branch = -1.0 + 2.0 / n
        if n == 1 and sigma >= 0:
            return 1.0, math.inf
        if n == 2 and sigma == 0.0:
            return 1.0, math.inf
        if n >= 2 and sigma > branch:
            den = (n - 1) * (1.0 + sigma) - 1.0  # 0 where 1 + sigma rounds to 1 at n = 2
            return 1.0, ((n + 1) * (1.0 + sigma) - 1.0) / den if den else math.inf
        if n >= 3 and sigma == branch:
            return 1.0, (n + 2.0) / (n - 2.0)
        # remaining: n=1 with -1<sigma<0, or n>=2 with -1<sigma<branch
        return 1.0, -(2.0 + sigma) / sigma
    if case == "3":
        return 1.0, float(critical_exponent_p0(n, sigma))
    raise CaseMismatchError(
        f"(H={params.H}, sigma={sigma}) matches no admissible exponent-range case"
    )


def analytic_scaling_conditions(
    params: CosmologyParams, p: float
) -> Optional[tuple[bool, bool]]:
    """Analytic verdict for the two scaling-limit hypotheses, per regime.

    Returns (h13, h14) -- whether the cutoff-integral limits vanish -- or
    None when the regime is outside the analyzed condition ladder.
    """
    n, sigma, case = params.n, params.sigma, _case(params)
    if case == "1":
        ok = n == 1 or p < (n + 1.0) / (n - 1.0)
        return ok, ok
    if sigma == -1.0:
        return (False, True) if params.H > 0 else (True, False)
    if case == "2":
        _, p_up = admissible_p_range(params)
        return p < p_up, True
    if case == "3":
        # polynomially contracting case: a ~ t^(2/q) with q = n(1+sigma) < -2.
        # The cutoff-layer integral grows like R^(n+1+1/(1+sigma)); the
        # annulus integral carries gamma = (1-4p'/n)/(1+sigma) and its decay
        # switches between the R- and t_R-dominated branches at gamma = -1.
        # Both limits vanish iff the growth exponent stays below 2p'
        # (equality leaves a nonvanishing, or log-growing, limit).
        pp = p / (p - 1.0)
        h13 = n + 1.0 + 1.0 / (1.0 + sigma) < 2.0 * pp
        gamma = (1.0 - 4.0 * pp / n) / (1.0 + sigma)
        q = n * (1.0 + sigma)
        if gamma > -1.0:
            slope_iii = n + 1.0 + gamma
        elif gamma < -1.0:
            slope_iii = n + (gamma + 1.0) * q / (q - 2.0)
        else:
            slope_iii = float(n)  # exact critical line, times (log R)^(1/p')
        h14 = slope_iii < 2.0 * pp
        return h13, h14
    return None


def check_hypotheses(
    params: CosmologyParams,
    data: InitialDataSummary,
    lam: float,
    p: float,
    theta: float = 0.5,
    N_user: Optional[float] = None,
) -> ThresholdReport:
    """Full hypothesis ledger and admissibility verdict for one point.

    The scaling-limit hypotheses are decided by the analytic condition
    ladder; `testfn.hypothesis_13_14` decides them numerically.  The
    space-time integral condition on M^2 u constrains the unknown solution
    and is recorded as diagnostic-only.
    """
    flags: dict = {}
    reasons: list[str] = []

    try:
        N, case_label = damping_rate_N(params, N_user)
        flags["mass_window_1_10"] = True
    except CaseMismatchError as exc:
        return ThresholdReport(
            N=math.nan, S=math.nan, p_lower=1.0, p_upper=math.nan,
            case_label="none",
            hypothesis_flags={"mass_window_1_10": False},
            verdict=f"inadmissible(case mismatch: {exc})",
        )

    S = threshold_S(params, data.r0, lam, p, theta, N)
    flags["S_finite"] = math.isfinite(S)
    flags["w0_gt_S"] = math.isfinite(S) and data.w0 > S
    flags["w1_ge_cNw0"] = data.w1 >= params.c * N * data.w0
    if not flags["S_finite"]:
        reasons.append("S = inf")
    elif not flags["w0_gt_S"]:
        reasons.append("w0 <= S")
    if not flags["w1_ge_cNw0"]:
        reasons.append("w1 < cNw0")

    ladder = analytic_scaling_conditions(params, p)
    if ladder is None:
        flags["h13"] = flags["h14"] = False
        reasons.append("regime outside the analyzed scaling ladder")
    else:
        flags["h13"], flags["h14"] = ladder
        if not flags["h13"]:
            reasons.append("(1.13) fails")
        if not flags["h14"]:
            reasons.append("(1.14) fails")
    flags["mass_integral_1_15"] = "diagnostic-only"

    if case_label in {"1", "2", "3"}:
        p_lower, p_upper = admissible_p_range(params)
    else:
        p_lower, p_upper = 1.0, math.inf
    in_range = p_lower < p < p_upper
    if not in_range:
        reasons.append(f"p outside ({p_lower}, {p_upper})")

    core = ("mass_window_1_10", "S_finite", "w0_gt_S", "w1_ge_cNw0", "h13", "h14")
    ok = in_range and all(flags[k] for k in core)
    verdict = "admissible" if ok else "inadmissible(" + "; ".join(reasons) + ")"
    return ThresholdReport(
        N=N, S=S, p_lower=p_lower, p_upper=p_upper, case_label=case_label,
        hypothesis_flags=flags, verdict=verdict,
    )


def _prior_w1_floor(params: CosmologyParams, data, lam, p, theta, N) -> float:
    wn = unit_ball_volume(params.n)
    c = params.c
    extra = math.sqrt(2.0 * lam * c * c * theta / (p + 1.0)) * data.w0 ** ((p + 1.0) / 2.0) / (
        (wn ** (2.0 / params.n) * params.a0 * data.r0 ** 2) ** (params.n * (p - 1.0) / 4.0)
    )
    return max(c * N * data.w0, extra)


def _prior_S(params: CosmologyParams, r0, lam, p, theta, N) -> float:
    """Earlier-work data threshold: the sup carries max{a0 r0^2, a r^2}, on 4,000 grid times."""
    import numpy as np

    log_wn, log_bulk0 = math.log(unit_ball_volume(params.n)), math.log(params.a0 * r0 * r0)

    def log_value(ts, log_a, log_r, log_window):
        log_bulk = params.n / 2.0 * np.maximum(log_bulk0, log_a + 2.0 * log_r)
        return (
            log_wn - params.c * N * ts + log_bulk
            + (log_window - math.log((1.0 - theta) * lam)) / (p - 1.0)
        )

    top, _, _ = _log_grid_sup(background(params, r0), N, log_value, 4000)
    return math.exp(top)


def compare_prior_conditions(
    params: CosmologyParams,
    data: InitialDataSummary,
    lam: float,
    p: float,
    theta: float = 0.5,
    N_user: Optional[float] = None,
) -> dict:
    """Evaluate this work's data conditions against the earlier, stronger ones.

    The earlier conditions carry a max over {a0 r0^2, a r^2} inside the sup,
    an extra lower bound on w1, and a cap on r0 in the contracting de Sitter
    family; passing them implies passing the present ones.
    """
    N, _ = damping_rate_N(params, N_user)
    S_this = threshold_S(params, data.r0, lam, p, theta, N)
    this_ok = (
        math.isfinite(S_this) and data.w0 > S_this and data.w1 >= params.c * N * data.w0
    )
    S_prior = _prior_S(params, data.r0, lam, p, theta, N)
    prior_ok = (
        math.isfinite(S_prior)
        and data.w0 > S_prior
        and data.w1 >= _prior_w1_floor(params, data, lam, p, theta, N)
    )
    if params.H < 0 and params.sigma <= -1:
        prior_ok = prior_ok and data.r0 <= 2.0 * params.c / (params.a0 * abs(params.H))
    return {"this_paper": this_ok, "prior": prior_ok}
