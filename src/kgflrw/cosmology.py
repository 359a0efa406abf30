"""FLRW background: scale function, curved mass, light cone.

All quantities are closed-form in the power-law / exponential family of
scale functions, through one log scale factor L = log(a/a0):

    a(t) = a0 * exp(L),  L = H t                                (sigma = -1)
                         L = (2/q) log1p(q H t / 2), q = n(1+sigma) (sigma != -1)

on [0, T0), where T0 is finite exactly when (1+sigma) H < 0.  r(t) and b(t)
derive from L, M^2 from the bracket 1 + q H t / 2, and `background_arrays`
gives (log a, log r, M^2).  Tests check the cone by quadrature, M^2 by differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Optional

__all__ = [
    "CosmologyParams",
    "Regime",
    "ConeData",
    "MassBounds",
    "DomainError",
    "Background",
    "background",
    "unit_ball_volume",
    "weight_exponent",
    "horizon_time",
    "scale_factor",
    "curved_mass_sq",
    "mass_sign_change_time",
    "cone_radius",
    "classify_regime",
    "curved_mass_bounds",
    "background_arrays",
]

# Fraction of T0 kept usable when the horizon is finite; evaluation at the
# horizon itself is singular.
_HORIZON_CLAMP = 1.0 - 1e-12
# Fraction of a finite T0 at which runs, and the threshold grids, end.
_RUN_END = 1.0 - 1e-9
# Beyond this log, r(t) or expm1(e L) is within e^10 of the float maximum, and
# `_log_cone` takes log r in closed form.
_LOG_R_FAR = 700.0
# Below the smallest normal float a product e L has lost bits, while
# expm1(e L)/e and log1p(e L)/e equal L to round-off: the cone uses L there.
_TINY = sys.float_info.min


def _expm1_over(e: float, x: float) -> float:
    """expm1(e x)/e, x itself at e = 0 or where e x is below the normal range (`_r` inlines it)."""
    ex = e * x
    return x if e == 0.0 or abs(ex) < _TINY else math.expm1(ex) / e


def _log1p_over(e: float, x: float) -> float:
    """log1p(e x)/e, the inverse of `_expm1_over`, and -inf/e where e x rounds to -1 or below."""
    ex = e * x
    return x if e == 0.0 or abs(ex) < _TINY else (math.log1p(ex) if ex > -1.0 else -math.inf) / e


class DomainError(ValueError):
    """Time argument outside [0, T0)."""


@dataclass(frozen=True)
class CosmologyParams:
    """Spacetime model (n, c, m^2, H, sigma, a0).

    ``m_sq < 0`` encodes a purely imaginary mass m; every formula below
    uses m^2 only, so the complex square root is never taken.
    """

    n: int
    c: float = 1.0
    m_sq: float = 0.0
    H: float = 0.0
    sigma: float = 0.0
    a0: float = 1.0

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"spatial dimension must be a positive integer, got {self.n}")
        if self.c <= 0:
            raise ValueError(f"speed of light must be positive, got {self.c}")
        if self.a0 <= 0:
            raise ValueError(f"initial scale factor must be positive, got {self.a0}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.c, self.m_sq, self.H, self.sigma, self.a0))

    def __hash__(self):
        # computed once: every scalar closed form looks its Background up by these params
        return self._hash


class Regime(Enum):
    MINKOWSKI = "minkowski"
    DE_SITTER_EXPANDING = "de_sitter_expanding"
    DE_SITTER_CONTRACTING = "de_sitter_contracting"
    EXPANDING_POLYNOMIAL = "expanding_polynomial"
    BIG_RIP = "big_rip"
    CONTRACTING = "contracting"
    BIG_CRUNCH = "big_crunch"


@dataclass(frozen=True)
class ConeData:
    """Initial support radius together with the background it propagates in."""

    r0: float
    params: CosmologyParams

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"initial support radius must be positive, got {self.r0}")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in n dimensions: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _ball_volume(n)


def _ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class Background:
    """The scalar closed forms of one background, with their constants computed once.

    Built from the spacetime model and the initial support radius r0 (needed
    only by the light cone r(t) and the weight b(t)).  Every method takes a
    time in [0, T0), raises DomainError outside it and clamps just below a
    finite horizon.  a, r and b derive from L = `_log_a(t)`; q = n(1+sigma).
    Construction calls no public function of this module, so what a shared
    cache holds never changes which of them run.
    """

    params: CosmologyParams
    r0: Optional[float] = None
    # copies of the model's scalars, read on every call
    c: float = field(init=False, repr=False)
    a0: float = field(init=False, repr=False)
    H: float = field(init=False, repr=False)
    m_sq: float = field(init=False, repr=False)
    t0: float = field(init=False, repr=False)
    t_clamp: float = field(init=False, repr=False)
    t_end_cap: float = field(init=False, repr=False)  # last time a run reaches
    de_sitter: bool = field(init=False, repr=False)  # sigma = -1
    static: bool = field(init=False, repr=False)  # H = 0
    flat_cone: bool = field(init=False, repr=False)  # c/(a0 H) not finite: r = r0 + c t/a0
    q: float = field(init=False, repr=False)
    qH: float = field(init=False, repr=False)
    two_over_q: float = field(init=False, repr=False)
    shift: float = field(init=False, repr=False)  # sigma (nH/2c)^2
    cone_coef: float = field(init=False, repr=False)  # c/(a0 H)
    cone_exp: float = field(init=False, repr=False)  # q/2 - 1
    r_limit: Optional[float] = field(init=False, repr=False)  # sup of r(t), None without r0
    wn_2n: float = field(init=False, repr=False)  # omega_n^(2/n)
    log_wn_2n: float = field(init=False, repr=False)  # log omega_n^(2/n)

    def __post_init__(self):
        if self.r0 is not None and self.r0 <= 0:
            raise ValueError(f"initial support radius must be positive, got {self.r0}")
        p = self.params
        n, c, H, a0 = p.n, p.c, p.H, p.a0
        # the spacetime ends at T0 = -2/(n(1+sigma)H) when (1+sigma)H < 0
        t0 = math.inf if (1.0 + p.sigma) * H >= 0 else -2.0 / (n * (1.0 + p.sigma) * H)
        de_sitter = p.sigma == -1.0
        q = n * (1.0 + p.sigma)
        cone_coef = math.nan if H == 0.0 else c / (a0 * H)
        e = q / 2.0 - 1.0
        r_limit = None
        if self.r0 is not None:
            # L = log(a/a0) tends to +-inf with the sign of H at the end of the time
            # domain, so expm1(e L)/e tends to -1/e when e H < 0 and diverges otherwise
            r_limit = self.r0 - cone_coef / e if e * H < 0 else math.inf
        derived = {
            "c": c,
            "a0": a0,
            "H": H,
            "m_sq": p.m_sq,
            "t0": t0,
            "t_clamp": _HORIZON_CLAMP * t0 if math.isfinite(t0) else math.inf,
            "t_end_cap": _RUN_END * t0 if math.isfinite(t0) else math.inf,
            "de_sitter": de_sitter,
            "static": H == 0.0,
            "flat_cone": not math.isfinite(cone_coef),
            "q": q,
            "qH": q * H,
            "two_over_q": math.nan if de_sitter else 2.0 / q,
            "shift": p.sigma * (n * H / (2.0 * c)) ** 2,
            "cone_coef": cone_coef,
            "cone_exp": e,
            "r_limit": r_limit,
            "wn_2n": _ball_volume(n) ** (2.0 / n),
            "log_wn_2n": (2.0 / n) * math.log(_ball_volume(n)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def check_time(self, t: float) -> float:
        """Validate t in [0, T0) and clamp just below a finite horizon."""
        if t < 0:
            raise DomainError(f"time must be nonnegative, got {t}")
        if t >= self.t0:
            raise DomainError(f"time {t} is beyond the horizon T0 = {self.t0}")
        if t > self.t_clamp:
            t = self.t_clamp
        return t

    def a(self, t: float) -> float:
        """a(t) = a0 exp(L), L = log(a/a0) from `_log_a`."""
        return self.a0 * math.exp(self._log_a(self.check_time(t)))

    def _log_a(self, t, xp=math):
        """L = log(a/a0), computed here only: H t at sigma = -1, else (2/q) log1p(qHt/2)."""
        if self.de_sitter:
            return self.H * t
        return self.two_over_q * xp.log1p(self.qH * t / 2.0)

    def mass_sq(self, t: float) -> float:
        """M^2(t) = m^2 + sigma (nH/2c)^2 (1 + n(1+sigma)Ht/2)^-2.

        At sigma = -1 the bracket is 1 and this reduces to the constant
        m^2 - (nH/2c)^2.
        """
        return self._mass_sq(self.check_time(t))

    def _mass_sq(self, t):
        x = 1.0 + self.qH * t / 2.0  # exactly 1 at sigma = -1, where q = 0
        return self.m_sq + self.shift / (x * x)

    def r(self, t: float) -> float:
        """Light-cone radius r(t) = r0 + int_0^t c/a(s) ds, in closed form."""
        t = self.check_time(t)
        return self._r(t, self._log_a(t))

    def _r(self, t, L, xp=math):
        """r0 + c/(a0 H) expm1(e L)/e with e = q/2 - 1 and L = `_log_a(t)`.

        One form for every (H, sigma): e = -1 is de Sitter's 1 - exp(-Ht)
        and e = 0 the logarithmic cone of n(1+sigma) = 2.  expm1 keeps full
        relative accuracy as e L -> 0, where (a/a0)^e - 1 cancels, and L
        stands in where e L is below the normal range, e = 0 included.
        Raises OverflowError where e L exceeds the float range (a(t) underflows).
        Where c/(a0 H) is not finite (H = 0, or H subnormal) the cone is the
        static one, r0 + c t/a0.
        """
        if self.flat_cone:
            return self.r0 + self.c * t / self.a0
        e = self.cone_exp
        eL = e * L
        if xp is math:
            return self.r0 + self.cone_coef * (L if abs(eL) < _TINY else math.expm1(eL) / e)
        growth = xp.asarray(xp.expm1(eL) / e)  # an array also for a 0-d t
        xp.copyto(growth, L, where=xp.abs(eL) < _TINY)
        return self.r0 + self.cone_coef * growth

    def cone_time(self, radius: float) -> Optional[float]:
        """The t in [0, t_clamp] with r(t) = radius, or None when there is none.

        t = `_expm1_over`(qH/2, tau) of tau = `_cone_tau(radius)`, as tau = log1p(qHt/2)/(qH/2).
        """
        tau = self._cone_tau(radius)
        try:
            t = math.inf if tau is None else _expm1_over(self.qH / 2.0, tau)
        except OverflowError:
            return None
        return t if t <= self.t_clamp and math.isfinite(t) else None

    def _cone_tau(self, radius: float) -> Optional[float]:
        """tau = L/H (t when static) where r = radius, or None where the cone never gets there.

        The closed inverse of `_r`: L = `_log1p_over`(e, x), x = (radius - r0)/(c/(a0 H)),
        and (radius - r0) a0/c where the cone is static.
        """
        if not self.r0 <= radius < self.r_limit:
            return None
        if self.flat_cone:
            return (radius - self.r0) * self.a0 / self.c
        x = (radius - self.r0) / self.cone_coef
        if self.cone_exp * x <= -1.0:  # beyond the limit by round-off
            return None
        return _log1p_over(self.cone_exp, x) / self.H

    def b(self, a: float, r: float, lam: float, expo: float) -> float:
        """b = lambda * (omega_n^(2/n) a r^2)^expo from a(t) and r(t); expo = -n(p-1)/2."""
        return lam * (self.wn_2n * a * r * r) ** expo

    def log_b(self, log_a, log_r, lam: float, expo: float):
        """log b from log a(t) and log r(t); also over arrays, where b itself overflows."""
        return math.log(lam) + expo * (self.log_wn_2n + log_a + 2.0 * log_r)

    def mass_sq_weight(self, lam: float, p: float) -> Callable[[float], tuple[float, float]]:
        """(M^2(t), b(t)) as a function of t, checking t and taking L once per call.

        The comparison ODE's right side: `_mass_sq` and `b` of a(t), r(t), so
        it equals `mass_sq` and `b` bit for bit.  Checks lambda > 0 and p > 1
        once.
        """
        expo = weight_exponent(self.params.n, lam, p)
        check, log_a, cone, mass_sq, b = self.check_time, self._log_a, self._r, self._mass_sq, self.b
        a0, exp = self.a0, math.exp

        def mass_sq_weight_at(t: float) -> tuple[float, float]:
            t = check(t)
            L = log_a(t)
            return mass_sq(t), b(a0 * exp(L), cone(t, L), lam, expo)

        return mass_sq_weight_at


def weight_exponent(n: int, lam: float, p: float) -> float:
    """The exponent -n(p-1)/2 of b(t), after checking lambda > 0 and p > 1."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    return -n * (p - 1.0) / 2.0


@lru_cache(maxsize=256)
def background(params: CosmologyParams, r0: Optional[float] = None) -> Background:
    """The shared Background of (params, r0), built once per distinct pair."""
    return Background(params, r0)


def horizon_time(params: CosmologyParams) -> float:
    """End of the spacetime: inf when (1+sigma)H >= 0, else -2/(n(1+sigma)H)."""
    return background(params).t0


def scale_factor(params: CosmologyParams, t: float) -> float:
    """a(t) on [0, T0)."""
    return background(params).a(t)


def curved_mass_sq(params: CosmologyParams, t: float) -> float:
    """M^2(t) = m^2 + sigma (nH/2c)^2 (1 + n(1+sigma)Ht/2)^-2."""
    return background(params).mass_sq(t)


def mass_sign_change_time(params: CosmologyParams) -> Optional[float]:
    """Time T1 at which M^2 changes sign, when it exists.

    Requires (1+sigma)H < 0, sigma < 0 and m real with
    m > sqrt(|sigma|) n |H| / 2c; otherwise M^2 keeps its sign and None is
    returned.
    """
    t0 = background(params).t0
    if not math.isfinite(t0) or params.sigma >= 0 or params.m_sq <= 0:
        return None
    m = math.sqrt(params.m_sq)
    crit = math.sqrt(abs(params.sigma)) * params.n * abs(params.H) / (2.0 * params.c)
    if m <= crit:
        return None
    return t0 * (1.0 - crit / m)


def cone_radius(cone: ConeData, t: float) -> float:
    """Light-cone radius r(t) = r0 + int_0^t c/a(s) ds, in closed form."""
    return background(cone.params, cone.r0).r(t)


def classify_regime(params: CosmologyParams) -> Regime:
    """Total classification of (H, sigma)."""
    H, sigma = params.H, params.sigma
    if H == 0.0:
        return Regime.MINKOWSKI
    if sigma == -1.0:
        return Regime.DE_SITTER_EXPANDING if H > 0 else Regime.DE_SITTER_CONTRACTING
    if H > 0:
        return Regime.EXPANDING_POLYNOMIAL if sigma > -1 else Regime.BIG_RIP
    return Regime.BIG_CRUNCH if sigma > -1 else Regime.CONTRACTING


def background_arrays(params: CosmologyParams, r0: float, ts) -> tuple:
    """Vectorized (log a(t), log r(t), M^2(t)) over an array of times in [0, T0).

    Evaluates the scalar Background bodies with numpy's functions, for the
    threshold grids.  log a = log a0 + L is finite where a(t) is not, and
    log r (`_log_cone`) where r(t) is not.
    """
    import numpy as np

    bg = background(params, r0)
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < 0 or ts.max() >= bg.t0):
        raise DomainError("times must lie in [0, T0)")
    ts = np.minimum(ts, bg.t_clamp)
    L = bg._log_a(ts, np)
    # expm1(e L)/e is 0/0 at e = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return math.log(bg.a0) + L, _log_cone(bg, ts, L), bg._mass_sq(ts)


def _log_cone(bg: Background, ts, L):
    """log r(t) over arrays, as the log of `Background._r` or in closed form.

    Where e H > 0, r ~ c/(a0 H e) (a/a0)^e grows.  Where moreover e L > 1
    and e L or e L + log(c/(a0 H e)) passes `_LOG_R_FAR`,
    log r = e L + log(c/(a0 H e)) + log1p((r0 a0 H e/c - 1) e^(-e L)), and
    r itself is not formed.
    """
    import numpy as np

    e = bg.cone_exp
    if e * bg.H > 0:
        # log(c/(a0 H e)) from logs, as c/(a0 H e) itself may overflow
        lead = math.log(bg.c / bg.a0) - math.log(abs(bg.H)) - math.log(abs(e))
        eL = e * L
        far = eL > min(max(_LOG_R_FAR - lead, 1.0), _LOG_R_FAR)
        if far.any():
            try:
                closed = eL + lead + np.log1p((bg.r0 * math.exp(-lead) - 1.0) * np.exp(-eL))
            except OverflowError:  # r0 >> c/(a0 H e), so r = r0 + e^(lead + e L) to round-off
                closed = np.logaddexp(math.log(bg.r0), eL + lead)
            return np.where(far, closed, np.log(bg._r(ts, np.where(far, 0.0, L), np)))
    return np.log(bg._r(ts, L, np))


@dataclass(frozen=True)
class MassBounds:
    """Pointwise envelope of M^2(t) on [0, T0): its infimum and supremum there."""

    case: str  # one of "i".."vi"
    lower: float  # -inf allowed
    upper: float  # +inf allowed


def curved_mass_bounds(params: CosmologyParams) -> MassBounds:
    """Analytic envelope of M^2, by case on (H, sigma)."""
    H, sigma, m_sq = params.H, params.sigma, params.m_sq
    shift = background(params).shift
    if H == 0.0 or sigma == 0.0:
        return MassBounds("i", m_sq, m_sq)
    if sigma == -1.0:
        return MassBounds("ii", m_sq + shift, m_sq + shift)
    if H > 0 and sigma > 0:
        # decreasing from m^2 + shift (shift > 0) toward m^2
        return MassBounds("iii", m_sq, m_sq + shift)
    if (sigma > -1.0) == (H > 0) and sigma < 0:  # (1 + sigma) H > 0, which may underflow
        # increasing from m^2 + shift (shift < 0) toward m^2
        return MassBounds("iv", m_sq + shift, m_sq)
    if H < 0 and sigma > 0:
        return MassBounds("v", m_sq + shift, math.inf)
    # (1+sigma)H < 0 with sigma < 0
    return MassBounds("vi", -math.inf, m_sq + shift)
