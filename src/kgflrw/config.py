"""Run-specification parsing and validation.

A run specification is a flat JSON object naming the background, the
nonlinearity, and the initial data, plus optional numerical knobs and an
optional ``sweep`` block describing a two-axis parameter grid.  Unknown
keys are rejected rather than ignored so that a typo cannot silently fall
back to a default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .cosmology import CosmologyParams, background, unit_ball_volume
from .thresholds import CaseMismatchError, InitialDataSummary, damping_rate_N


class ConfigError(ValueError):
    """Malformed or invalid run specification."""


_SWEEP_AXES = {"sigma", "H", "p", "m_sq", "lambda", "r0", "w0", "w1", "theta"}


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: an inclusive linear range with a point count."""

    name: str
    lo: float
    hi: float
    count: int


@dataclass(frozen=True)
class SweepSpec:
    """Two-axis grid over an otherwise fixed run specification.

    base holds the config's other keys as written, as (key, value) pairs;
    each grid point is base with the two axis values set, validated anew.
    """

    axis1: SweepAxis
    axis2: SweepAxis
    base: tuple
    run_ode: bool = False


@dataclass(frozen=True)
class RunSpec:
    """Validated run specification with defaults applied."""

    n: int
    H: float = 0.0
    sigma: float = 0.0
    m_sq: float = 0.0
    c: float = 1.0
    a0: float = 1.0
    lam: float = 1.0
    p: float = 2.0
    theta: float = 0.5
    N: Optional[float] = None
    r0: float = 1.0
    w0: float = 10.0
    w1: Optional[float] = None
    t_end: Optional[float] = None
    R: Optional[float] = None
    num_nodes: Optional[int] = None
    r_max: Optional[float] = None
    output_interval: Optional[float] = None
    sweep: Optional[SweepSpec] = None

    def params(self) -> CosmologyParams:
        return CosmologyParams(
            n=self.n, c=self.c, m_sq=self.m_sq, H=self.H, sigma=self.sigma, a0=self.a0
        )

    def resolved_w1(self) -> float:
        """w1, defaulting to the threshold-hypothesis equality c N w0.

        When the point matches no damping-rate case the default falls back
        to zero (there is no N to scale by).
        """
        if self.w1 is not None:
            return self.w1
        try:
            N, _ = damping_rate_N(self.params(), self.N)
        except CaseMismatchError:
            return 0.0
        return self.c * N * self.w0

    def data(self) -> InitialDataSummary:
        return InitialDataSummary(w0=self.w0, w1=self.resolved_w1(), r0=self.r0)


# the config's keys are RunSpec's fields, with lam spelled lambda
_KEYS = {f.name for f in fields(RunSpec)} - {"lam"} | {"lambda"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(raw: dict, key: str, default=None, prefix: str = ""):
    """raw[key] as a float, or default if absent; a ConfigError names prefix + key unless finite."""
    if key not in raw:
        return default
    val = raw[key]
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{prefix}{key} must be a number, got {val!r}")
    # NaN and the infinities fail the bound, as do integers too large for a float
    _require(abs(val) <= sys.float_info.max, f"{prefix}{key} must be finite, got {val!r}")
    return float(val)


def _parse_axis(obj, which: str) -> SweepAxis:
    _require(isinstance(obj, dict), f"sweep.{which} must be an object")
    unknown = set(obj) - {"name", "min", "max", "count"}
    _require(not unknown, f"sweep.{which} has unknown keys {sorted(unknown)}")
    for key in ("name", "min", "max", "count"):
        _require(key in obj, f"sweep.{which}.{key} is required")
    name = obj["name"]
    _require(name in _SWEEP_AXES, f"sweep.{which}.name must be one of {sorted(_SWEEP_AXES)}")
    count = obj["count"]
    _require(isinstance(count, int) and count >= 2, f"sweep.{which}.count must be an integer >= 2")
    lo, hi = (_number(obj, key, prefix=f"sweep.{which}.") for key in ("min", "max"))
    return SweepAxis(name=name, lo=lo, hi=hi, count=count)


def parse_config_dict(raw: dict) -> RunSpec:
    """Validate a decoded JSON object into a RunSpec."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = set(raw) - _KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    _require("n" in raw, "n is required")
    n = raw["n"]
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}")

    theta = _number(raw, "theta", 0.5)
    _require(0.0 < theta < 1.0, f"theta must lie in (0, 1), got {theta}")
    p = _number(raw, "p", 2.0)
    _require(p > 1.0, f"p must exceed 1, got {p}")
    pos = {}
    for key, default in (("c", 1.0), ("a0", 1.0), ("r0", 1.0), ("lambda", 1.0), ("t_end", None),
                         ("R", None), ("r_max", None), ("output_interval", None)):
        val = pos[key] = _number(raw, key, default)
        _require(val is None or val > 0.0, f"{key} must be positive, got {val}")
    num_nodes = raw.get("num_nodes")
    if num_nodes is not None:
        _require(isinstance(num_nodes, int) and num_nodes >= 3,
                 f"num_nodes must be an integer >= 3, got {num_nodes!r}")
    N = _number(raw, "N")
    if N is not None:
        _require(N >= 0.0, f"N must be nonnegative, got {N}")

    sweep = None
    if "sweep" in raw:
        sw = raw["sweep"]
        _require(isinstance(sw, dict), "sweep must be an object")
        unknown = set(sw) - {"axis1", "axis2", "run_ode"}
        _require(not unknown, f"sweep has unknown keys {sorted(unknown)}")
        _require("axis1" in sw and "axis2" in sw, "sweep requires axis1 and axis2")
        axis1 = _parse_axis(sw["axis1"], "axis1")
        axis2 = _parse_axis(sw["axis2"], "axis2")
        _require(axis1.name != axis2.name, "sweep axes must name distinct parameters")
        run_ode = sw.get("run_ode", False)
        _require(isinstance(run_ode, bool), "sweep.run_ode must be a boolean")
        sweep = SweepSpec(axis1=axis1, axis2=axis2, run_ode=run_ode,
                          base=tuple((key, val) for key, val in raw.items() if key != "sweep"))

    spec = RunSpec(
        n=n, H=_number(raw, "H", 0.0), sigma=_number(raw, "sigma", 0.0),
        m_sq=_number(raw, "m_sq", 0.0), lam=pos.pop("lambda"), p=p, theta=theta, N=N,
        w0=_number(raw, "w0", 10.0), w1=_number(raw, "w1"), num_nodes=num_nodes,
        sweep=sweep, **pos,
    )
    # constructing the params validates the remaining physics fields, and the
    # background's constants must stay inside the float range
    try:
        unit_ball_volume(n)
    except OverflowError:
        raise ConfigError(f"n = {n} is too large: the unit ball volume overflows") from None
    c, a0 = spec.c, spec.a0
    _require(c * c < math.inf, f"c = {c} is too large: c^2 overflows")
    _require(c / a0 > 0.0, f"c = {c} and a0 = {a0} make the light speed c/a0 underflow")
    try:
        bg = background(spec.params(), spec.r0)
        if not (math.isfinite(bg.qH) and math.isfinite(bg.shift)
                and (bg.static or 0.0 < abs(bg.cone_coef) < math.inf)):
            raise OverflowError(f"n(1+sigma)H = {bg.qH}, mass shift {bg.shift}, c/(a0 H) = {bg.cone_coef}")
        t0 = bg.t0
    except ArithmeticError as exc:
        raise ConfigError(f"H, c and a0 put the background's constants out of the float range: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _require(t0 > 0.0, f"H = {spec.H} and sigma = {spec.sigma} end the spacetime at T0 = 0")
    return spec


def parse_config(path) -> RunSpec:
    """Load and validate a JSON run specification from disk."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config_dict(raw)
