"""Adaptive integration of the scalar comparison ODE with blow-up detection.

The spatial mean of the field obeys the differential inequality
c^-2 wddot + M^2(t) w - b(t)|w|^p >= 0; this module integrates its extremal
equality member with an embedded Dormand-Prince 5(4) pair, finds the
finite-time divergence as the root of a rescaled variable, and verifies the
four positivity properties the mean is guaranteed to satisfy.  (M^2, b) are
evaluated once per distinct stage time; the trajectory keeps them at its
samples, where the positivity check reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cosmology import CosmologyParams, background
from .thresholds import threshold_S

__all__ = [
    "OdeProblem",
    "Trajectory",
    "StiffnessError",
    "StepLimitError",
    "PreconditionError",
    "integrate_comparison",
    "verify_lemma21",
]

# The loop leaves (w, wdot) for the rescaled zeta = (w_s/w)^k once an accepted
# sample has |w| above this multiple of the data scale |w0| (|w1| when w0 = 0)
# and |w| is growing.
_SWITCH = 1e3
_DT_FLOOR = 1e-13
# The most steps a run may attempt: 200 times the benchmark's longest problems, about 5,000.
_MAX_ATTEMPTS = 1_000_000

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


class StiffnessError(RuntimeError):
    """Step size collapsed below the floor before t_end, in either phase."""


class StepLimitError(ValueError):
    """_MAX_ATTEMPTS steps were attempted before t_end or blow-up."""


class StartError(ValueError):
    """The right side is not finite at t = 0, so no step can start."""


class PreconditionError(ValueError):
    """The positivity lemma's entry condition fails; carries the clause."""


@dataclass(frozen=True)
class OdeProblem:
    """Data of the extremal comparison ODE c^-2 wddot = b|w|^p - M^2 w."""

    params: CosmologyParams
    r0: float
    lam: float
    p: float
    theta: float
    N: float
    w0: float
    w1: float
    t_end: float
    # (M^2, b) as a function of t, overriding the background's for synthetic
    # problems (oracle cases, sanity runs)
    coefficients_fn: Optional[Callable[[float], tuple[float, float]]] = None

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")

    def coefficients(self) -> Callable[[float], tuple[float, float]]:
        """(M^2, b) as one function of t: the override, else the background's, built once."""
        bg = background(self.params, self.r0)
        return self.coefficients_fn or bg.mass_sq_weight(self.lam, self.p)


@dataclass
class Trajectory:
    """Accepted samples of one integration, with blow-up metadata.

    `mass_sq` and `b` are the coefficients M^2(t) and b(t) at the samples,
    as the integrator evaluated them: bit for bit `problem.coefficients()(t)`.
    """

    t: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    mass_sq: np.ndarray
    b: np.ndarray
    blowup: bool
    t_star: Optional[float]
    t_star_err: Optional[float]
    rejections: int
    final_dt: float
    steps_accepted: int
    rhs_evals: int  # right-hand sides, 1 + 6 per attempted step (on 1 + 5 (M^2, b) evaluations)
    stop_reason: str  # "t_end", "horizon" or "blowup"
    t_switch: Optional[float]  # last switch to zeta = (w_s/w)^k; None if never


def _taylor_root(z, zd, zdd) -> tuple[float, float]:
    """(s, correction): first root of z + zd s + zdd s^2/2 for z > 0 > zd.

    The correction |zdd| tau^2 / (2|zd|), tau = z/|zd|, is the shift the
    quadratic term makes to the linear root tau.
    """
    tau = z / -zd
    s = 2.0 * z / (math.sqrt(max(zd * zd - 2.0 * zdd * z, 0.0)) - zd)
    return s, abs(zdd) * tau * tau / (-2.0 * zd)


def integrate_comparison(problem: OdeProblem, rtol: float = 1e-10) -> Trajectory:
    """Integrate to t_end or blow-up with an embedded RK 5(4) pair.

    The pair steps (w, wdot) until an accepted sample has |w| above _SWITCH
    times the data scale and growing.  It then steps zeta = (w_s/w)^k with
    k = (p-1)/2 and w_s the switching value: zeta starts at 1, its equation
    does not depend on the data scale, and on the power-law asymptote it
    vanishes linearly at the blow-up time t*.  Steps there stay below half
    the linear root distance zeta/|zeta'|; once the quadratic term moves
    that root by at most rtol max(1, t), t* is the root of zeta's
    second-order Taylor polynomial.  A run whose |w| falls back below |w_s|
    returns to (w, wdot).  Samples are always (t, w, wdot), with the
    (M^2, b) their last stage evaluated.  A step collapse raises
    StiffnessError, a right side not finite at t = 0 StartError, and a run
    past _MAX_ATTEMPTS steps StepLimitError.  Runs are deterministic.
    """
    t_end = min(problem.t_end, background(problem.params).t_end_cap)
    t = 0.0
    x, xd = float(problem.w0), float(problem.w1)
    c2 = problem.params.c ** 2
    p_exp = problem.p
    k = (p_exp - 1.0) / 2.0
    k1 = (k + 1.0) / k
    coef = problem.coefficients()
    switch_at = _SWITCH * (abs(problem.w0) or abs(problem.w1))

    def coefs(ti):
        # (M^2, b) at ti, or None where evaluating them overflows or divides by zero (a r^2 = 0)
        try:
            return coef(ti)
        except ArithmeticError:
            return None

    def acc_w(cf, wi, _):
        if cf is None:
            return math.inf
        msq, b = cf
        try:
            return c2 * (b * abs(wi) ** p_exp - msq * wi)
        except OverflowError:
            return math.inf

    def acc_zeta(w_s):
        # zeta'' = [(k+1)/k zeta'^2 - k c^2 b sgn(w_s) |w_s|^(2k)] / zeta + k c^2 M^2 zeta
        kc2 = k * c2
        load = kc2 * math.copysign(abs(w_s) ** (2.0 * k), w_s)

        def acc(cf, z, zd):
            if cf is None:
                return math.inf
            msq, b = cf
            try:
                return (k1 * zd * zd - load * b) / z + kc2 * msq * z
            except (OverflowError, ZeroDivisionError):
                return math.inf

        return acc

    atol = 1e-12
    dt = min(1e-3, t_end / 10.0) or t_end  # t_end / 10 underflows for a subnormal t_end
    ts = [t]
    ws = [x]
    wds = [xd]
    rejections = 0
    blowup = False
    w_s = t_switch = None  # w_s is set while the loop steps zeta
    acc = acc_w
    shrink, min_fac, max_fac = 0.9, 0.2, 5.0
    a21, = _DP_A[1]
    a31, a32 = _DP_A[2]
    a41, a42, a43 = _DP_A[3]
    a51, a52, a53, a54 = _DP_A[4]
    a61, a62, a63, a64, a65 = _DP_A[5]
    a71, a72, a73, a74, a75, a76 = _DP_A[6]
    b41, b42, b43, b44, b45, b46, b47 = (float(b) for b in _DP_B4)
    c2_, c3_, c4_, c5_ = (float(c) for c in _DP_C[1:5])
    # the last stage is evaluated at the accepted solution, so it is the next
    # step's first (FSAL); a rejected step keeps its first stage.  Stages 6
    # and 7 share the node t + dt and so one evaluation of (M^2, b), which
    # the accepted sample keeps.
    cf = coefs(t)
    cfs = [cf]
    g1 = acc(cf, x, xd)
    if not (math.isfinite(g1) and math.isfinite(xd)):
        raise StartError(f"the right side (wdot, wddot) = ({xd}, {g1}) is not finite at t = 0:"
                         f" lower w0 = {problem.w0} or w1 = {problem.w1}")
    while t < t_end:
        if w_s is not None and xd < 0.0:
            # zeta = 0 is singular: stop at the Taylor root once it is resolved
            s, corr = _taylor_root(x, xd, g1)
            if corr <= rtol * max(1.0, t) and t + s < t_end:
                blowup = True
                break
            dt = min(dt, 0.5 * x / -xd)
        dt = min(dt, t_end - t)
        if len(ts) + rejections > _MAX_ATTEMPTS:  # this attempt would pass the cap
            raise StepLimitError(f"{_MAX_ATTEMPTS} steps tried by t = {t:.6g}: lower t_end = {problem.t_end}")
        # stage derivatives: (k_x, k_v) with k_x = v, k_v = acc
        v1 = xd
        x2 = x + dt * a21 * v1
        v2 = xd + dt * a21 * g1
        g2 = acc(coefs(t + c2_ * dt), x2, v2)
        x3 = x + dt * (a31 * v1 + a32 * v2)
        v3 = xd + dt * (a31 * g1 + a32 * g2)
        g3 = acc(coefs(t + c3_ * dt), x3, v3)
        x4 = x + dt * (a41 * v1 + a42 * v2 + a43 * v3)
        v4 = xd + dt * (a41 * g1 + a42 * g2 + a43 * g3)
        g4 = acc(coefs(t + c4_ * dt), x4, v4)
        x5 = x + dt * (a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
        v5 = xd + dt * (a51 * g1 + a52 * g2 + a53 * g3 + a54 * g4)
        g5 = acc(coefs(t + c5_ * dt), x5, v5)
        x6 = x + dt * (a61 * v1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        v6 = xd + dt * (a61 * g1 + a62 * g2 + a63 * g3 + a64 * g4 + a65 * g5)
        cf = coefs(t + dt)
        g6 = acc(cf, x6, v6)
        # 5th-order solution (FSAL row)
        x7 = x + dt * (a71 * v1 + a73 * v3 + a74 * v4 + a75 * v5 + a76 * v6)
        v7 = xd + dt * (a71 * g1 + a73 * g3 + a74 * g4 + a75 * g5 + a76 * g6)
        g7 = acc(cf, x7, v7)
        x_lo = x + dt * (b41 * v1 + b43 * v3 + b44 * v4 + b45 * v5 + b46 * v6 + b47 * v7)
        v_lo = xd + dt * (b41 * g1 + b43 * g3 + b44 * g4 + b45 * g5 + b46 * g6 + b47 * g7)
        bad = not (math.isfinite(x7) and math.isfinite(v7) and math.isfinite(x_lo) and math.isfinite(v_lo))
        bad = bad or (w_s is not None and x7 <= 0.0)
        if not bad:
            sw = atol + rtol * max(abs(x), abs(x7))
            sv = atol + rtol * max(abs(xd), abs(v7))
            try:
                err = math.sqrt(0.5 * (((x7 - x_lo) / sw) ** 2 + ((v7 - v_lo) / sv) ** 2))
            except OverflowError:
                err = math.inf
        if bad or err > 1.0:
            rejections += 1
            fac = min_fac if bad else max(min_fac, shrink * err ** (-0.2))
            dt *= fac
            if dt < _DT_FLOOR and (t_end - t) > 10.0 * _DT_FLOOR or t + dt == t:
                raise StiffnessError(
                    f"step collapsed to {dt:.3e} at t={t:.6g} with |w|={abs(ws[-1]):.3e}"
                )
            continue
        if w_s is None:
            w, wd = x7, v7
        else:
            try:
                w = w_s * x7 ** (-1.0 / k)
            except OverflowError:
                w = math.inf
            wd = -w * v7 / (k * x7)
            if not (math.isfinite(w) and math.isfinite(wd)):
                # w leaves the float range (p near 1) before the root is resolved
                blowup = True
                break
        t += dt
        x, xd, g1 = x7, v7, g7
        ts.append(t)
        ws.append(w)
        wds.append(wd)
        cfs.append(cf)
        dt *= min(max_fac, max(min_fac, shrink * (err + 1e-30) ** (-0.2)))
        # switch variables at an accepted sample; zeta'' and w'' follow from
        # the FSAL stage, so a switch costs no right-hand side
        if w_s is None and abs(w) > switch_at and w * wd > 0.0:
            w_s, t_switch, acc = w, t, acc_zeta(w)
            x, xd = 1.0, -k * wd / w
            g1 = k1 * xd * xd - k * g1 / w
        elif w_s is not None and x > 1.0 and xd > 0.0:
            g1 = w * (k1 * xd * xd / x - g1) / (k * x)
            w_s, acc = None, acc_w
            x, xd = w, wd

    t_star = t_star_err = None
    if blowup:
        s, corr = _taylor_root(x, xd, g1)
        t_star = t + s
        t_star_err = corr + 100.0 * rtol * max(1.0, t_star)
    stop_reason = "blowup" if blowup else "t_end" if t_end == problem.t_end else "horizon"
    mass_sq, b = np.array(cfs, dtype=float).T
    return Trajectory(
        t=np.array(ts),
        w=np.array(ws),
        wdot=np.array(wds),
        mass_sq=mass_sq,
        b=b,
        blowup=blowup,
        t_star=t_star,
        t_star_err=t_star_err,
        rejections=rejections,
        final_dt=dt,
        steps_accepted=len(ts) - 1,
        rhs_evals=1 + 6 * (len(ts) - 1 + rejections),
        stop_reason=stop_reason,
        t_switch=t_switch,
    )


def verify_lemma21(trajectory: Trajectory, problem: OdeProblem) -> dict:
    """Check the four positivity properties at every accepted sample.

    (1) w >= w0 e^(cNt); (2) (1-theta) b w^(p-1) - M^2 > N^2;
    (3) c^-2 wddot - N^2 w - theta b w^p >= 0 with wddot reconstructed from
    the ODE right side; (4) wdot >= w1.  Tolerance 1e-8 (1 + |w|); a margin
    that is not a number fails and is the worst margin.  Where w > 0, (3)
    equals w times (2), and is computed so, since b w^p can overflow where
    w (2) does not.  The margins are array expressions over the samples and
    the (M^2, b) the trajectory recorded, so the check evaluates no
    coefficient.  Raises PreconditionError when the entry condition fails;
    S for it comes from `threshold_S`'s memo when the caller has just
    computed it for this problem.
    """
    p = problem
    S = threshold_S(p.params, p.r0, p.lam, p.p, p.theta, p.N)
    if not p.w0 > S:
        raise PreconditionError(f"w0 = {p.w0} does not exceed the sup threshold S = {S}")
    if not p.w1 >= p.params.c * p.N * p.w0:
        raise PreconditionError(f"w1 = {p.w1} < cNw0 = {p.params.c * p.N * p.w0}")

    c, pp, theta = p.params.c, p.p, p.theta
    t, w, msq, b = trajectory.t, trajectory.w, trajectory.mass_sq, trajectory.b
    N2 = p.N ** 2
    keys = ("exp_lower_bound", "weight_gap", "convexity", "wdot_floor")
    # a margin past the float range is +-inf and is judged as such; inf - inf
    # is NaN and fails
    with np.errstate(over="ignore", invalid="ignore"):
        margin2 = (1.0 - theta) * b * w ** (pp - 1.0) - msq - N2
        # where w <= 0, (1) fails already; wddot from the ODE right side
        wddot = c * c * (b * np.abs(w) ** pp - msq * w)
        margin3 = np.where(w > 0, w * margin2, wddot / (c * c) - N2 * w - theta * b * w ** pp)
        margins = (w - p.w0 * np.exp(c * p.N * t), margin2, margin3, trajectory.wdot - p.w1)
        tol = 1e-8 * (1.0 + np.abs(w))
        results = {key: bool(np.all(m >= -tol)) for key, m in zip(keys, margins)}
        # np.min propagates NaN, so a NaN margin stays the worst
        results["worst_margins"] = {key: float(np.min(m)) for key, m in zip(keys, margins)}
    results["all_pass"] = all(results[k] for k in keys)
    return results
