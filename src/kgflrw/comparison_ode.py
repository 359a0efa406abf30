"""Adaptive integration of the scalar comparison ODE with blow-up detection.

The spatial mean of the field obeys the differential inequality
c^-2 wddot + M^2(t) w - b(t)|w|^p >= 0; this module integrates its extremal
equality member with an embedded Dormand-Prince 5(4) pair, detects the
finite-time divergence, and verifies the four positivity properties the
mean is guaranteed to satisfy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cosmology import CosmologyParams, background
from .thresholds import threshold_S

__all__ = [
    "OdeProblem",
    "Trajectory",
    "BlowupNotReachedError",
    "StiffnessError",
    "PreconditionError",
    "integrate_comparison",
    "verify_lemma21",
    "blowup_time_estimate",
    "closed_form_oracle",
    "save_trajectory_csv",
]

# Blow-up needs |w| above this multiple of the data scale |w0| (|w1| when
# w0 = 0) when the step collapses; a collapse below it is a stiffness failure.
_DIVERGENCE_GUARD = 1e8
_DT_FLOOR = 1e-13

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
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


class BlowupNotReachedError(RuntimeError):
    """The run reached t_end without divergence."""


class StiffnessError(RuntimeError):
    """Step size collapsed without the divergence guard firing."""


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
    # optional overrides for synthetic problems (oracle cases, sanity runs)
    mass_sq_fn: Optional[Callable[[float], float]] = None
    weight_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")

    def coefficients(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """(M^2, b) as functions of t, built once; the override functions win."""
        mass_sq, weight = self.mass_sq_fn, self.weight_fn
        if mass_sq is None or weight is None:
            bg = background(self.params, self.r0)
            if mass_sq is None:
                mass_sq = bg.mass_sq
            if weight is None:
                weight = bg.weight(self.lam, self.p)
        return mass_sq, weight


@dataclass
class Trajectory:
    """Accepted samples of one integration, with blow-up metadata."""

    t: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    blowup: bool
    t_star: Optional[float]
    t_star_err: Optional[float]
    rejections: int
    final_dt: float
    steps_accepted: int
    rhs_evals: int  # evaluations of the right-hand side, 1 + 6 per attempted step


def _extrapolate_t_star(t1, w1, t2, w2, p) -> float:
    """Blow-up time from the power-law asymptote w ~ C (t* - t)^(-2/(p-1))."""
    kappa = (abs(w1) / abs(w2)) ** ((p - 1.0) / 2.0)
    if kappa >= 1.0:
        return t2
    return (t1 - kappa * t2) / (1.0 - kappa)


def integrate_comparison(problem: OdeProblem, rtol: float = 1e-10) -> Trajectory:
    """Integrate to t_end or blow-up with an embedded RK 5(4) pair.

    Blow-up is declared when the step collapses below the floor while |w|
    exceeds the divergence guard; a collapse without divergence raises
    StiffnessError.  Runs are deterministic for fixed inputs.
    """
    t_end = min(problem.t_end, background(problem.params).t_end_cap)
    t = 0.0
    w, wd = float(problem.w0), float(problem.w1)
    c2 = problem.params.c ** 2
    p_exp = problem.p
    mass_sq, weight = problem.coefficients()
    guard = _DIVERGENCE_GUARD * (abs(problem.w0) or abs(problem.w1))

    def acc(ti, wi):
        try:
            return c2 * (weight(ti) * abs(wi) ** p_exp - mass_sq(ti) * wi)
        except OverflowError:
            return math.inf

    atol = 1e-12
    dt = min(1e-3, t_end / 10.0)
    ts = [t]
    ws = [w]
    wds = [wd]
    rejections = 0
    blowup = False
    safety, min_fac, max_fac = 0.9, 0.2, 5.0
    a21, = _DP_A[1]
    a31, a32 = _DP_A[2]
    a41, a42, a43 = _DP_A[3]
    a51, a52, a53, a54 = _DP_A[4]
    a61, a62, a63, a64, a65 = _DP_A[5]
    a71, a72, a73, a74, a75, a76 = _DP_A[6]
    b41, b42, b43, b44, b45, b46, b47 = (float(b) for b in _DP_B4)
    c2_, c3_, c4_, c5_ = (float(c) for c in _DP_C[1:5])
    # the last stage is evaluated at the accepted solution, so it is the next
    # step's first stage (FSAL); a rejected step keeps its first stage
    g1 = acc(t, w)
    while t < t_end:
        dt = min(dt, t_end - t)
        # stage derivatives: (k_w, k_v) with k_w = v, k_v = acc
        v1 = wd
        w2 = w + dt * a21 * v1
        v2 = wd + dt * a21 * g1
        g2 = acc(t + c2_ * dt, w2)
        w3 = w + dt * (a31 * v1 + a32 * v2)
        v3 = wd + dt * (a31 * g1 + a32 * g2)
        g3 = acc(t + c3_ * dt, w3)
        w4 = w + dt * (a41 * v1 + a42 * v2 + a43 * v3)
        v4 = wd + dt * (a41 * g1 + a42 * g2 + a43 * g3)
        g4 = acc(t + c4_ * dt, w4)
        w5 = w + dt * (a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
        v5 = wd + dt * (a51 * g1 + a52 * g2 + a53 * g3 + a54 * g4)
        g5 = acc(t + c5_ * dt, w5)
        w6 = w + dt * (a61 * v1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        v6 = wd + dt * (a61 * g1 + a62 * g2 + a63 * g3 + a64 * g4 + a65 * g5)
        g6 = acc(t + dt, w6)
        # 5th-order solution (FSAL row)
        w7 = w + dt * (a71 * v1 + a73 * v3 + a74 * v4 + a75 * v5 + a76 * v6)
        v7 = wd + dt * (a71 * g1 + a73 * g3 + a74 * g4 + a75 * g5 + a76 * g6)
        g7 = acc(t + dt, w7)
        w_lo = w + dt * (b41 * v1 + b43 * v3 + b44 * v4 + b45 * v5 + b46 * v6 + b47 * v7)
        v_lo = wd + dt * (b41 * g1 + b43 * g3 + b44 * g4 + b45 * g5 + b46 * g6 + b47 * g7)
        bad = not (math.isfinite(w7) and math.isfinite(v7) and math.isfinite(w_lo) and math.isfinite(v_lo))
        if not bad:
            sw = atol + rtol * max(abs(w), abs(w7))
            sv = atol + rtol * max(abs(wd), abs(v7))
            err = math.sqrt(0.5 * (((w7 - w_lo) / sw) ** 2 + ((v7 - v_lo) / sv) ** 2))
        if bad or err > 1.0:
            rejections += 1
            fac = min_fac if bad else max(min_fac, safety * err ** (-0.2))
            dt *= fac
            if dt < _DT_FLOOR and (t_end - t) > 10.0 * _DT_FLOOR:
                if abs(w) > guard:
                    blowup = True
                    break
                raise StiffnessError(
                    f"step collapsed to {dt:.3e} at t={t:.6g} with |w|={abs(w):.3e}"
                )
            continue
        t += dt
        w, wd, g1 = w7, v7, g7
        ts.append(t)
        ws.append(w)
        wds.append(wd)
        dt *= min(max_fac, max(min_fac, safety * (err + 1e-30) ** (-0.2)))

    t_star = t_star_err = None
    if blowup:
        # power-law extrapolation from the last accepted pairs; the
        # second-to-last pair supplies the error bar
        t1, t2 = ts[-2], ts[-1]
        est = _extrapolate_t_star(t1, ws[-2], t2, ws[-1], problem.p)
        # extrapolation spread plus the accumulated-integration-error scale
        spread = abs(est - t2) + (t2 - t1)
        if len(ts) >= 3:
            est_prev = _extrapolate_t_star(ts[-3], ws[-3], t1, ws[-2], problem.p)
            spread += abs(est - est_prev)
        t_star_err = spread + 100.0 * rtol * max(1.0, est)
        t_star = est
    return Trajectory(
        t=np.array(ts),
        w=np.array(ws),
        wdot=np.array(wds),
        blowup=blowup,
        t_star=t_star,
        t_star_err=t_star_err,
        rejections=rejections,
        final_dt=dt,
        steps_accepted=len(ts) - 1,
        rhs_evals=1 + 6 * (len(ts) - 1 + rejections),
    )


def verify_lemma21(trajectory: Trajectory, problem: OdeProblem) -> dict:
    """Check the four positivity properties at every accepted sample.

    (1) w >= w0 e^(cNt); (2) (1-theta) b w^(p-1) - M^2 > N^2;
    (3) c^-2 wddot - N^2 w - theta b w^p >= 0 with wddot reconstructed from
    the ODE right side; (4) wdot >= w1.  Tolerance 1e-8 (1 + |w|).
    Raises PreconditionError when the entry condition fails.
    """
    p = problem
    S = threshold_S(p.params, p.r0, p.lam, p.p, p.theta, p.N)
    if not p.w0 > S:
        raise PreconditionError(f"w0 = {p.w0} does not exceed the sup threshold S = {S}")
    if not p.w1 >= p.params.c * p.N * p.w0:
        raise PreconditionError(f"w1 = {p.w1} < cNw0 = {p.params.c * p.N * p.w0}")

    c = p.params.c
    mass_sq, weight = p.coefficients()
    results = {"exp_lower_bound": True, "weight_gap": True, "convexity": True, "wdot_floor": True}
    worst = {k: math.inf for k in results}
    for t, w, wdot in zip(trajectory.t, trajectory.w, trajectory.wdot):
        tol = 1e-8 * (1.0 + abs(w))
        b = weight(t)
        msq = mass_sq(t)
        margin1 = w - p.w0 * math.exp(c * p.N * t)
        margin2 = (1.0 - p.theta) * b * w ** (p.p - 1.0) - msq - p.N ** 2
        # wddot from the ODE right side
        wddot = c * c * (b * abs(w) ** p.p - msq * w)
        margin3 = wddot / (c * c) - p.N ** 2 * w - p.theta * b * w ** p.p
        margin4 = wdot - p.w1
        for key, margin in (
            ("exp_lower_bound", margin1),
            ("weight_gap", margin2),
            ("convexity", margin3),
            ("wdot_floor", margin4),
        ):
            worst[key] = min(worst[key], margin)
            if margin < -tol:
                results[key] = False
    results["worst_margins"] = worst
    results["all_pass"] = all(results[k] for k in ("exp_lower_bound", "weight_gap", "convexity", "wdot_floor"))
    return results


def blowup_time_estimate(problem: OdeProblem, rtol: float = 1e-10) -> tuple[float, float]:
    """(t_star, error bar); raises when the run reaches t_end without blow-up."""
    traj = integrate_comparison(problem, rtol=rtol)
    if not traj.blowup:
        raise BlowupNotReachedError(f"no blow-up before t_end = {problem.t_end}")
    return traj.t_star, traj.t_star_err


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


def save_trajectory_csv(traj: Trajectory, csv_path, sidecar_path=None) -> None:
    """Write samples as CSV (t,w,wdot) with blow-up metadata in a JSON sidecar."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "w", "wdot"])
        for t, w, wd in zip(traj.t, traj.w, traj.wdot):
            writer.writerow([repr(float(t)), repr(float(w)), repr(float(wd))])
    if sidecar_path is not None:
        meta = {
            "blowup": traj.blowup,
            "t_star": traj.t_star,
            "t_star_err": traj.t_star_err,
            "rejections": traj.rejections,
            "final_dt": traj.final_dt,
            "steps_accepted": traj.steps_accepted,
            "rhs_evals": traj.rhs_evals,
        }
        with open(sidecar_path, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
