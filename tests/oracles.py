"""Independent oracles for the background closed forms, used only by the tests.

Finite differences of a(t) for the curved mass M^2 and adaptive quadrature
of c/a for the light cone; neither shares code with the closed forms they
check beyond a(t) itself.
"""

import math
from typing import Optional

from scipy.integrate import quad

from kgflrw.cosmology import ConeData, CosmologyParams, background, horizon_time, scale_factor


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
