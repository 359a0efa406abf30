"""The two benchmark workloads: seeded inputs, one pass over their items, output checks.

Each workload has ``setup(seed, smoke, out_dir)``, which builds its inputs, and
``run_pass(inputs, run_item, pass_dir, jobs)``, which runs every item once and
checks the program's outputs.  ``run_item(fn)`` calls ``fn``; the traced run
passes a callable that also opens an item span.  Items call the package through
its module attributes, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from kgflrw import cli, comparison_ode, cosmology, field_solver, testfn, thresholds
from kgflrw.cosmology import CosmologyParams

# The unwrapped sweep point, also under fork or spawn start methods.
_SWEEP_POINT = cli._sweep_point


@dataclass
class PassResult:
    """Item latencies, failures and workload figures of one pass."""

    item_ms: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)


def call(fn):
    """``run_item`` of the untraced run."""
    return fn()


def _run_items(items, run_item, result: PassResult) -> None:
    """Time each (label, fn) item; fn returns True when its checks hold."""
    for label, fn in items:
        start = time.perf_counter()
        try:
            ok = run_item(fn)
            if not ok:
                result.errors.append(f"{label}: check failed")
        except Exception as exc:  # a raising item is a failed item, not a crashed run
            ok = False
            result.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        result.item_ms.append((time.perf_counter() - start) * 1e3)
        result.failed += not ok


# ---------------------------------------------------------------------------
# ode_positivity: the acceptance-4 generator, stratified by certified outcome

ODE_T_END = 2.0


def random_background(rng, case: int) -> CosmologyParams:
    """Random parameter point inside one of the three damping-rate regimes (acceptance 4)."""
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


def _reach_time(c, b, k, p, w0, w1) -> float:
    """Time for w'' = c^2 (b w^p + k w), w(0) = w0, w'(0) = w1 > 0 to reach infinity.

    Integrates dw / w' with w = w0 / s and s = u^(2/(p-1)), which removes the
    integrable singularity of the tail; infinite when w' would reach zero.
    """
    m = 2.0 / (p - 1.0)

    def integrand(u):
        s = u ** m
        w = w0 / s
        try:
            energy = w1 * w1 + c * c * (2.0 * b * (w ** (p + 1) - w0 ** (p + 1)) / (p + 1)
                                        + k * (w * w - w0 * w0))
        except (OverflowError, ZeroDivisionError):
            return 0.0
        if energy <= 0.0:
            raise ValueError("w' reaches zero")
        return m * u ** (m - 1.0) * w0 / (s * s * math.sqrt(energy))

    try:
        return quad(integrand, 0.0, 1.0, limit=200)[0]
    except ValueError:
        return math.inf


def certified_blowup(params, r0, lam, p, w0, w1):
    """True / False when the problem blows up / does not blow up before its end time, else None.

    The end time is ODE_T_END, capped before a finite horizon as the
    comparison ODE caps it.  An independent RK45 solve of
    w'' = c^2 (b(t) |w|^p - M^2(t) w) runs until w reaches 1e6 w0 or the end
    time; from there, the reach times of the autonomous equations with the
    extreme b and -M^2 of the remaining interval (2% margins) bound the
    blow-up time from both sides.  Over seeds 1-10 (1000 draws) this labels
    every draw and agrees with ``integrate_comparison(rtol=1e-8)`` on all.
    """
    t_end = ODE_T_END
    horizon = cosmology.horizon_time(params)
    if math.isfinite(horizon):
        t_end = min(t_end, (1.0 - 1e-9) * horizon)
    c2 = params.c ** 2

    def rhs(t, y):
        w, v = y
        return (v, c2 * (thresholds.nonlinearity_weight(params, r0, lam, p, t) * abs(w) ** p
                         - cosmology.curved_mass_sq(params, t) * w))

    def escaped(t, y):
        return y[0] - 1e6 * w0

    escaped.terminal = True
    sol = solve_ivp(rhs, (0.0, t_end), (w0, w1), rtol=1e-6, atol=1e-12, events=escaped)
    if sol.status == 0:
        return False
    if sol.status != 1:
        return None
    t_s = float(sol.t_events[0][0])
    w_s, v_s = (float(x) for x in sol.y_events[0][0])
    ts = np.linspace(t_s, t_end, 9)
    b = [thresholds.nonlinearity_weight(params, r0, lam, p, float(t)) for t in ts]
    k = [-cosmology.curved_mass_sq(params, float(t)) for t in ts]
    k_hi = max(k) * (1.02 if max(k) > 0 else 0.98)
    k_lo = min(k) * (0.98 if min(k) > 0 else 1.02)
    if t_s + _reach_time(params.c, 0.98 * min(b), k_lo, p, w_s, v_s) < t_end - 1e-3:
        return True
    if t_s + _reach_time(params.c, 1.02 * max(b), k_hi, p, w_s, v_s) > t_end + 1e-3:
        return False
    return None


# blow-up share of the acceptance-4 generator before t = 2, seeds 1-10 with
# 100 draws each: 315 of 1000 independent draws and 327 of the 999 lattice
# points certified_blowup labels (one is left unlabelled); 24 of 76 is
# 31.6%.  A pass then lasts 10-15 s, so a run's medians rest on three
# passes or more.
ODE_STRATA = {True: 24, False: 52}


# coordinates one problem uses at most: case, n, c, a0, H, sigma, m^2, r0, lam, p, theta
DRAW_DIMS = 11


def lattice_points(seed, count):
    """``count`` points of the R_d lattice in [0, 1)^DRAW_DIMS, shifted at random by ``seed``.

    Point i is frac(shift + i alpha), with alpha_j = g^-(j+1) and g the root
    of g^(DRAW_DIMS+1) = g + 1: a Kronecker sequence that spreads the points
    evenly in every dimension.  The random shift keeps each point uniform.
    """
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (DRAW_DIMS + 1))
    alpha = g ** -np.arange(1.0, DRAW_DIMS + 1)
    shift = np.random.default_rng(seed).random(DRAW_DIMS)
    return (shift + np.outer(np.arange(1, count + 1), alpha)) % 1.0


class PointDraws:
    """Stands in for a numpy Generator: each draw takes the next coordinate of one point."""

    def __init__(self, point):
        self._coords = iter(point)

    def uniform(self, low, high):
        return low + (high - low) * float(next(self._coords))

    def integers(self, low, high):
        return low + min(int((high - low) * next(self._coords)), high - low - 1)


def draw_problems(seed, smoke):
    """Draw acceptance-4 problems until the pass holds a fixed number of each outcome.

    Whether a problem blows up before t = 2 decides its cost (about 5000
    steps against about 200), so an unstratified draw would make the pass
    time follow the binomial blow-up count.  The strata keep the
    generator's blow-up share; draws left unlabelled would be skipped.
    Each problem is one point of a lattice shifted by ``seed``: the
    generator's distribution, covered more evenly than by independent
    draws, so that the median problem's step count moves 5% between seeds
    1-10 rather than 14%.
    """
    want = {True: 1, False: 2} if smoke else dict(ODE_STRATA)
    problems = []
    for point in lattice_points(seed, 4096):
        if not any(want.values()):
            return problems
        draws = PointDraws(point)
        params = random_background(draws, case=int(draws.integers(1, 4)))
        N, _ = thresholds.damping_rate_N(params)
        r0 = float(draws.uniform(0.3, 1.5))
        lam = float(draws.uniform(0.5, 2.0))
        p = float(draws.uniform(1.5, 2.5))
        theta = float(draws.uniform(0.2, 0.8))
        S = thresholds.threshold_S(params, r0, lam, p, theta, N)
        if not math.isfinite(S):
            continue
        w0 = 2.0 * S + 1.0
        outcome = certified_blowup(params, r0, lam, p, w0, 1.05 * params.c * N * w0)
        if outcome is not None and want[outcome]:
            want[outcome] -= 1
            problems.append((params, r0, lam, p, theta, outcome))
    raise RuntimeError(f"seed {seed}: generator did not fill the strata within 4096 draws")


def setup_ode(seed, smoke, out_dir):
    """The stratified problems and the sweep config, both drawn from ``seed``."""
    return {"problems": draw_problems(seed, smoke), "sweep": setup_sweep(seed, smoke, out_dir)}


def _ode_item(params, r0, lam, p, theta, blows_up):
    N, _ = thresholds.damping_rate_N(params)
    S = thresholds.threshold_S(params, r0, lam, p, theta, N)
    if not math.isfinite(S):
        return False
    w0 = 2.0 * S + 1.0
    problem = comparison_ode.OdeProblem(
        params=params, r0=r0, lam=lam, p=p, theta=theta, N=N,
        w0=w0, w1=1.05 * params.c * N * w0, t_end=ODE_T_END,
    )
    traj = comparison_ode.integrate_comparison(problem, rtol=1e-8)
    verdict = comparison_ode.verify_lemma21(traj, problem)
    return verdict["all_pass"] and traj.blowup == blows_up


def run_ode(inputs, run_item, pass_dir, jobs) -> PassResult:
    """The problems, then one ``kgflrw sweep`` as the last item."""
    result = PassResult()
    items = [(f"problem {i}", functools.partial(_ode_item, *prob))
             for i, prob in enumerate(inputs["problems"])]
    items.append(("sweep", functools.partial(_sweep_item, inputs["sweep"], pass_dir, jobs, result)))
    _run_items(items, run_item, result)
    return result


# ---------------------------------------------------------------------------
# the sweep item of ode_positivity: kgflrw sweep over an all-admissible sigma x p grid


def setup_sweep(seed, smoke, out_dir):
    """Write the sweep config; the seed shifts the grid inside the admissible region.

    The region n=3, H=-1, m^2=-1, r0=0.5, w0=1e9 is admissible for
    sigma in [-5, -3.6] and p in [1.2, 1.54]; keeping every point admissible
    keeps the number of ODE integrations, which is the sweep's cost, fixed.
    """
    rng = np.random.default_rng(seed)
    sigma0 = -5.0 + 0.05 * float(rng.random())
    p0 = 1.2 + 0.01 * float(rng.random())
    p_range = (p0, p0 + 0.3)
    if smoke:
        # p near 1 is inadmissible, so the smoke grid runs the sweep without any ODE
        p_range = (1.01, 1.05)
    config = {
        "n": 3, "H": -1.0, "m_sq": -1.0, "r0": 0.5, "w0": 1e9,
        "sweep": {
            "axis1": {"name": "sigma", "min": sigma0, "max": sigma0 + 1.2, "count": 2},
            "axis2": {"name": "p", "min": p_range[0], "max": p_range[1], "count": 2},
            "run_ode": True,
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep-config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return {"config": path, "admissible": not smoke, "csv": None}


def _timed_point(log_path, task):
    """Sweep point wrapper: runs in pool workers too, so it logs its time to a file."""
    start = time.perf_counter()
    row = _SWEEP_POINT(task)
    elapsed = time.perf_counter() - start
    with open(log_path, "a") as fh:
        fh.write(f"{row[0]} {row[1]} {elapsed!r}\n")
    return row


def _check_sweep_row(row, header, admissible: bool) -> bool:
    """No error, the expected verdict, and a finite t* > 0 on admissible points."""
    rec = dict(zip(header, row))
    if rec["error"] or (rec["verdict"] == "admissible") != admissible:
        return False
    if not admissible:
        return True
    try:
        t_star = float(rec["t_star"])
    except ValueError:
        return False
    return math.isfinite(t_star) and t_star > 0.0


def _sweep_item(inputs, pass_dir, jobs, result: PassResult) -> bool:
    """One ``kgflrw sweep --jobs jobs`` into a fresh directory, with its checks.

    Records the sweep's wall time, the summed time of its points and the
    worker count in ``result.figures``, and each failed check in ``result.errors``.
    """
    out_dir = pass_dir / "sweep"
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "points.txt"
    cli._sweep_point = functools.partial(_timed_point, log_path)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(inputs["config"]),
                             "--out", str(out_dir), "--jobs", str(jobs)])
    finally:
        cli._sweep_point = _SWEEP_POINT
    wall = time.perf_counter() - start
    if code != 0:
        result.errors.append(f"kgflrw sweep exited with {code}")
        return False
    csv_bytes = (out_dir / "sweep.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    header, rows = rows[0], rows[1:]
    errors = [f"sweep row {row[:2]}: {row[-1] or row[7]}" for row in rows
              if not _check_sweep_row(row, header, inputs["admissible"])]
    point_s = [float(line.split()[2]) for line in log_path.read_text().splitlines()]
    if len(point_s) != len(rows):
        errors.append(f"{len(rows)} sweep rows but {len(point_s)} timed points")
    # serial and pooled sweeps, and every repeat, must write the same bytes
    if inputs["csv"] is None:
        inputs["csv"] = csv_bytes
    elif inputs["csv"] != csv_bytes:
        errors.append("sweep.csv differs from the first pass")
    result.errors += errors
    result.figures.update(sweep_wall_s=wall, sweep_busy_s=sum(point_s), jobs=jobs)
    return not errors


# ---------------------------------------------------------------------------
# pde_physics: the acceptance-7 and acceptance-8 solver runs (seed-independent)

_CONE_REGIMES = [
    (CosmologyParams(n=1, m_sq=1.0), 3.0, 5.0),
    (CosmologyParams(n=3, m_sq=-1.0), 2.0, 4.0),
    (CosmologyParams(n=2, H=1.0, sigma=-1.0, m_sq=1.0), 2.0, 3.0),
    (CosmologyParams(n=1, H=-0.5, sigma=-1.0), 1.5, 3.5),
    (CosmologyParams(n=3, H=-1.0, sigma=0.0, m_sq=1.0), 5.0, 4.0),
    (CosmologyParams(n=2, H=1.0, sigma=-2.0, m_sq=1.0), 5.0, 4.0),
]
# Desk-resolution weak-identity runs of acceptance 8:
# (label, params, lam, r0, w0, w1, R, nodes per unit radius, r_max)
_IDENTITY_RUNS = [
    ("identity linear", CosmologyParams(n=1, m_sq=1.0), 0.0, 1.0, 1.0, 0.8, 4.0, 256, 5.5),
    ("identity nonlinear", CosmologyParams(n=1, m_sq=-1.0), 1.0, 0.5, 1.0, 1.0, 2.5, 256, 4.0),
]


def setup_pde(seed, smoke, out_dir):
    """The runs are pinned to the acceptance configurations; the seed does not change them."""
    return {"smoke": smoke}


# Acceptance 7 (a) runs its 6145-node grid to t = 10; a quarter of that keeps
# the item near 2 s, so a run fits several passes to take the median of.
ENERGY_T_END = 2.5


def _energy_item(figures):
    params = CosmologyParams(n=1, m_sq=1.0)
    state = field_solver.init_field(n=1, r0=1.0, r_max=12.0, num_nodes=12 * 512 + 1, w0=1.0)
    e0 = field_solver.energy(state, params)
    diag = field_solver.run_until(params, 0.0, 2.0, state, ENERGY_T_END, 1.0, output_interval=0.5)
    figures["energy_drift"] = max(abs(e - e0) for e in diag.energy) / e0
    return figures["energy_drift"] <= 1e-6


def _cone_item(params, t_end, r_max):
    st = field_solver.init_field(n=params.n, r0=1.0, r_max=r_max, num_nodes=1025, w0=1.0)
    d = field_solver.run_until(params, 0.0, 2.0, st, t_end, 1.0, output_interval=0.1)
    margin = max(sr - rc for sr, rc in zip(d.support_radius, d.cone_radius)) / st.dr
    return margin <= 2.0


def _nonlinear_item():
    nl = CosmologyParams(n=1, m_sq=-1.0)
    problem = comparison_ode.OdeProblem(params=nl, r0=0.5, lam=1.0, p=2.0, theta=0.5,
                                        N=1.0, w0=1.0, w1=1.0, t_end=8.0)
    traj = comparison_ode.integrate_comparison(problem)
    if not traj.blowup:
        return False
    t_star = traj.t_star
    st = field_solver.init_field(n=1, r0=0.5, r_max=2.0 * t_star + 1.0,
                                 num_nodes=int(512 * (2.0 * t_star + 1.0)) + 1, w0=1.0, w1=1.0)
    d = field_solver.run_until(nl, 1.0, 2.0, st, 2.0 * t_star, 0.5, output_interval=0.05)
    ratio = min(m / math.exp(t) for t, m in zip(d.t[:-1], d.mean[:-1]))
    return (d.diverged and d.divergence_time < 2.0 * t_star and ratio >= 0.95
            and math.isfinite(d.mass_integral[-1]))


def _identity_item(residuals, label, params, lam, r0, w0, w1, R, nodes_per_unit, r_max):
    nodes = int(nodes_per_unit * r_max) + 1
    state = field_solver.init_field(n=1, r0=r0, r_max=r_max, num_nodes=nodes, w0=w0, w1=w1)
    diag = field_solver.run_until(params, lam, 2.0, state, R, r0,
                                  output_interval=R / (0.625 * nodes_per_unit),
                                  keep_snapshots=True)
    residuals[label] = testfn.weak_identity_residual(diag, params, lam, 2.0, R)
    return residuals[label] <= 5e-2


def run_pde(inputs, run_item, pass_dir, jobs) -> PassResult:
    result = PassResult()
    residuals = {}
    items = [(f"cone regime {i}", functools.partial(_cone_item, *reg))
             for i, reg in enumerate(_CONE_REGIMES)]
    if inputs["smoke"]:
        _run_items(items[:2], run_item, result)
        return result
    items = [("energy", functools.partial(_energy_item, result.figures))] + items
    items.append(("nonlinear blow-up", _nonlinear_item))
    items += [(run[0], functools.partial(_identity_item, residuals, *run)) for run in _IDENTITY_RUNS]
    _run_items(items, run_item, result)
    if residuals:
        result.figures["identity_residual"] = max(residuals.values())
    return result


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    seeded: bool


WORKLOADS = {
    "ode_positivity": Workload(setup_ode, run_ode, True),
    "pde_physics": Workload(setup_pde, run_pde, False),
}
