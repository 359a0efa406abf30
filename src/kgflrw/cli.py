"""Command line front end.

One subcommand per capability: background classification, threshold
verdicts, comparison-ODE and PDE runs, cutoff-scaling studies, the weak
identity check, and two-axis parameter sweeps with CSV persistence.  All
state lives in plain files; identical configs produce byte-identical
outputs, and sweeps are resumable and support a worker pool that matches
the serial output row for row.

Exit codes: 0 on success, 1 on a usage, configuration or validation error,
2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import comparison_ode, field_solver
from .config import ConfigError, RunSpec, parse_config, parse_config_dict
from .cosmology import (
    background,
    classify_regime,
    curved_mass_bounds,
    horizon_time,
    mass_sign_change_time,
)
from .thresholds import CaseMismatchError, check_hypotheses, damping_rate_N
from .testfn import hypothesis_13_14, weak_identity_residual


def _print_json(payload: dict, out_dir, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    print(text)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / name).write_text(text + "\n")


def _write_table(path, header, columns) -> None:
    """CSV of the columns under header, one row per sample, each value as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(x)) for x in row] for row in zip(*columns))


def _write_sidecar(path, record, sort_keys: bool = False) -> None:
    """The fields of the dataclass record that are not arrays, as indented JSON."""
    meta = {k: v for k, v in vars(record).items() if not isinstance(v, np.ndarray)}
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=sort_keys) + "\n")


# The most node-steps a pde or identity run may take: 127 times acceptance 7 (a)'s 7.9e7.
_NODE_STEPS = 1e10
# The most grid nodes a pde or identity run may allocate: a run holds about 150 bytes a node.
_NODES = 1e7


def _time_cap(spec: RunSpec, default: float) -> float:
    t0 = horizon_time(spec.params())
    t_end = spec.t_end if spec.t_end is not None else default
    return min(t_end, 0.99 * t0) if math.isfinite(t0) else t_end


def cmd_regime(spec: RunSpec, args) -> int:
    params = spec.params()
    bounds = curved_mass_bounds(params)
    payload = {
        "regime": classify_regime(params).value,
        "horizon_time": horizon_time(params),
        "curved_mass_sq_bounds": {"lower": bounds.lower, "upper": bounds.upper,
                                  "case": bounds.case},
        "mass_sign_change_time": mass_sign_change_time(params),
    }
    _print_json(payload, args.out, "regime.json")
    return 0


def cmd_threshold(spec: RunSpec, args) -> int:
    report = check_hypotheses(
        spec.params(), spec.data(), spec.lam, spec.p, theta=spec.theta, N_user=spec.N
    )
    _print_json(report.to_dict(), args.out, "threshold.json")
    return 0


def _ode_problem(spec: RunSpec, N: float) -> comparison_ode.OdeProblem:
    """The comparison ODE of spec at damping rate N, up to t_end (default 50)."""
    return comparison_ode.OdeProblem(
        params=spec.params(), r0=spec.r0, lam=spec.lam, p=spec.p, theta=spec.theta,
        N=N, w0=spec.w0, w1=spec.resolved_w1(),
        t_end=spec.t_end if spec.t_end is not None else 50.0,
    )


def cmd_ode(spec: RunSpec, args) -> int:
    try:
        N, _ = damping_rate_N(spec.params(), spec.N)
    except CaseMismatchError as exc:
        raise ConfigError(f"no damping rate N for this background: {exc}") from exc
    problem = _ode_problem(spec, N)
    try:
        traj = comparison_ode.integrate_comparison(problem)
    except (comparison_ode.StartError, comparison_ode.StepLimitError) as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "blowup": traj.blowup,
        "t_star": traj.t_star,
        "t_star_err": traj.t_star_err,
        "final_t": float(traj.t[-1]),
        "final_w": float(traj.w[-1]),
        "samples": int(traj.t.size),
    }
    _print_json(payload, args.out, "ode.json")
    if args.out is not None:
        _write_table(Path(args.out) / "trajectory.csv", ("t", "w", "wdot"),
                     (traj.t, traj.w, traj.wdot))
        _write_sidecar(Path(args.out) / "trajectory.json", traj)
    return 0


def _pde_run(spec: RunSpec, t_cap: float, keep_snapshots: bool) -> field_solver.Diagnostics:
    """The solver run of a pde or identity command up to t_cap.

    ConfigError if the grid cannot carry the initial field, or if that field
    or its nonlinearity c^2 lambda a0^(-n(p-1)/2) |u|^p is not finite at t = 0;
    before the grid is allocated, if its node count times the run's estimated
    step count exceeds `_NODE_STEPS`, or its node count exceeds `_NODES`.
    """
    params = spec.params()
    r_cone = background(params, spec.r0).r(t_cap)
    r_max = spec.r_max if spec.r_max is not None else r_cone + 0.5
    if r_max <= spec.r0:
        raise ConfigError(f"r_max = {r_max} must exceed the bump radius r0 = {spec.r0}")
    if r_max <= r_cone:
        raise ConfigError(f"r_max = {r_max} does not cover the light cone r({t_cap}) = {r_cone};"
                          " raise r_max or lower t_end")
    # a count past the work bound is refused below, so the clamp moves no run's grid
    nodes = spec.num_nodes if spec.num_nodes is not None else int(min(512 * r_max, _NODE_STEPS)) + 1
    # the cone gains _CFL dr a step (dt = _CFL dr a/c, r' = c/a): about this many steps, one at least
    steps = max((r_cone - spec.r0) * (nodes - 1) / (field_solver._CFL * r_max), 1.0)
    if nodes * steps > _NODE_STEPS:
        raise ConfigError(f"a run to t = {t_cap:.6g} on r_max = {r_max:.6g} with num_nodes = {nodes:.3g}"
                          f" takes about {nodes * steps:.3g} node-steps, over {_NODE_STEPS:.0e}:"
                          " lower t_end, r_max or num_nodes")
    if nodes > _NODES:
        raise ConfigError(f"a grid on r_max = {r_max:.6g} with num_nodes = {nodes:.3g} has over"
                          f" {_NODES:.0e} nodes, more than a run may allocate: lower r_max or num_nodes")
    w1 = spec.resolved_w1()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a field that is not finite is refused below
            state = field_solver.init_field(
                n=spec.n, r0=spec.r0, r_max=r_max, num_nodes=nodes, w0=spec.w0, w1=w1,
            )
    except field_solver.ResolutionError as exc:
        raise ConfigError(f"{exc}; raise num_nodes") from exc
    peak = float(np.max(np.abs(state.u)))
    try:
        force = spec.c ** 2 * spec.lam * spec.a0 ** (-spec.n * (spec.p - 1.0) / 2.0) * peak ** spec.p
    except OverflowError:
        force = math.inf
    if not (math.isfinite(force) and np.isfinite(state.v).all()):
        raise ConfigError(f"the initial field or its nonlinearity is not finite at t = 0:"
                          f" lower w0 = {spec.w0}, w1 = {w1} or n = {spec.n}")
    return field_solver.run_until(
        params, spec.lam, spec.p, state, t_cap, spec.r0,
        output_interval=spec.output_interval, keep_snapshots=keep_snapshots,
    )


# the columns of diagnostics.csv
_DIAGNOSTICS = ("t", "mean", "sup", "energy", "support_radius", "cone_radius", "mass_integral")


def cmd_pde(spec: RunSpec, args) -> int:
    diag = _pde_run(spec, _time_cap(spec, 5.0), keep_snapshots=False)
    payload = {
        "diverged": diag.diverged,
        "divergence_time": diag.divergence_time,
        "final_t": diag.t[-1],
        "final_mean": diag.mean[-1],
        "final_sup": diag.sup[-1],
        "mass_integral": diag.mass_integral[-1],
        "steps": diag.steps,
        "node_steps": diag.node_steps,
        "stop_reason": diag.stop_reason,
    }
    _print_json(payload, args.out, "pde.json")
    if args.out is not None:
        _write_table(Path(args.out) / "diagnostics.csv", _DIAGNOSTICS,
                     [getattr(diag, name) for name in _DIAGNOSTICS])
    return 0


def cmd_scaling(spec: RunSpec, args) -> int:
    ev = hypothesis_13_14(spec.params(), spec.r0, spec.p)
    payload = {
        "h13_numeric": ev.h13_numeric,
        "h14_numeric": ev.h14_numeric,
        "h13_analytic": ev.h13_analytic,
        "h14_analytic": ev.h14_analytic,
        "disagreement": ev.disagreement,
        "II_slope": ev.fit_II.slope,
        "II_exponential": ev.fit_II.exponential,
        "III_slope": ev.fit_III.slope,
        "III_exponential": ev.fit_III.exponential,
    }
    _print_json(payload, args.out, "scaling.json")
    if args.out is not None:
        for name, fit in (("II_prime", ev.fit_II), ("III_prime", ev.fit_III)):
            _write_table(Path(args.out) / f"{name}.csv", ("R", "value"), (fit.R, fit.values))
            _write_sidecar(Path(args.out) / f"{name}.json", fit, sort_keys=True)
    return 0


def cmd_identity(spec: RunSpec, args) -> int:
    R = spec.R if spec.R is not None else 2.0 * spec.r0 + 2.0
    if R <= 2.0 * spec.r0:
        raise ConfigError(f"R = {R} must exceed 2 r0 = {2.0 * spec.r0}")
    t_cap = _time_cap(spec, R)
    if t_cap < R:
        t_end = spec.t_end if spec.t_end is not None else R
        raise ConfigError(f"the cutoff window [0, R = {R}] passes the run's end t = {t_cap} ="
                          f" min(t_end = {t_end}, 0.99 T0 = {0.99 * horizon_time(spec.params())});"
                          " lower R")
    diag = _pde_run(spec, t_cap, keep_snapshots=True)
    if diag.diverged and diag.divergence_time < R:
        t_div, two_r0 = diag.divergence_time, 2.0 * spec.r0
        fits = (f"choose 2 r0 = {two_r0} < R <= {t_div:.6g}" if t_div > two_r0
                else f"no R > 2 r0 = {two_r0} fits")
        raise ConfigError(
            f"the field diverges at t = {t_div:.6g}, inside the cutoff window [0, R = {R}]; {fits}"
        )
    residual, parts = weak_identity_residual(
        diag, spec.params(), spec.lam, spec.p, R, return_parts=True
    )
    payload = {"R": R, "residual": residual, **parts}
    _print_json(payload, args.out, "identity.json")
    return 0


# ---------------------------------------------------------------------------
# sweep machinery


_SWEEP_FIELDS = [
    "N", "S", "p_lower", "p_upper", "case", "verdict", "t_star", "error",
]


def _axis_values(axis) -> list[float]:
    return [float(v) for v in np.linspace(axis.lo, axis.hi, axis.count)]


def _sweep_point(task) -> list[str]:
    """Evaluate one grid point (sweep, axis1 value, axis2 value); any failure is recorded in-row."""
    sweep, val1, val2 = task
    row = [repr(val1), repr(val2)] + [""] * len(_SWEEP_FIELDS)
    try:
        spec = parse_config_dict({**dict(sweep.base), sweep.axis1.name: val1, sweep.axis2.name: val2})
        report = check_hypotheses(
            spec.params(), spec.data(), spec.lam, spec.p, theta=spec.theta, N_user=spec.N
        )
        row[2:8] = [repr(report.N), repr(report.S), repr(report.p_lower),
                    repr(report.p_upper), report.case_label, report.verdict]
        if sweep.run_ode and report.verdict == "admissible":
            traj = comparison_ode.integrate_comparison(_ode_problem(spec, report.N))
            row[8] = repr(traj.t_star) if traj.blowup else ""
    except Exception as exc:  # recorded, never aborts the sweep
        row[9] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: RunSpec, out_dir, jobs: int = 1) -> Path:
    """Evaluate the grid and persist one CSV row per point.

    Rows are written in deterministic axis1-major order; rows already
    present in an earlier partial output are reused instead of recomputed,
    and a parallel run produces the same bytes as a serial one.
    """
    if spec.sweep is None:
        raise ConfigError("config has no sweep block")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    sweep = spec.sweep
    header = [sweep.axis1.name, sweep.axis2.name] + _SWEEP_FIELDS

    existing: dict[tuple[str, str], list[str]] = {}
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            old_header = next(reader, None)
            if old_header == header:
                for row in reader:
                    existing[(row[0], row[1])] = row

    tasks = [(sweep, v1, v2) for v1 in _axis_values(sweep.axis1) for v2 in _axis_values(sweep.axis2)]
    keys = [(repr(v1), repr(v2)) for _, v1, v2 in tasks]

    todo = [t for t, k in zip(tasks, keys) if k not in existing]
    if todo:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                fresh = list(pool.map(_sweep_point, todo))
        else:
            fresh = [_sweep_point(t) for t in todo]
        for row in fresh:
            existing[(row[0], row[1])] = row

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for key in keys:
            writer.writerow(existing[key])
    return csv_path


def emit_report(out_dir) -> str:
    """Summarize a finished sweep: admissible fraction, boundary, blow-up table.

    Writes summary.txt and boundary.csv next to sweep.csv and returns the
    summary text.  The boundary curve samples, for each value of the first
    axis, the largest second-axis value still admissible.
    """
    out = Path(out_dir)
    csv_path = out / "sweep.csv"
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    name1, name2 = header[0], header[1]
    verdict_idx = header.index("verdict")
    tstar_idx = header.index("t_star")

    total = len(rows)
    admissible = [r for r in rows if r[verdict_idx] == "admissible"]
    boundary: dict[str, float] = {}
    for r in admissible:
        v2 = float(r[1])
        if r[0] not in boundary or v2 > boundary[r[0]]:
            boundary[r[0]] = v2
    with open(out / "boundary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name1, f"max_admissible_{name2}"])
        for key in sorted(boundary, key=float):
            writer.writerow([key, repr(boundary[key])])

    lines = [
        f"grid points: {total}",
        f"admissible: {len(admissible)} ({len(admissible) / total:.1%})" if total
        else "admissible: 0",
        f"boundary samples ({name1} -> max admissible {name2}): {len(boundary)}",
    ]
    blowups = [(r[0], r[1], r[tstar_idx]) for r in admissible if r[tstar_idx]]
    if blowups:
        lines.append("blow-up times:")
        for v1, v2, ts in blowups:
            lines.append(f"  {name1}={v1} {name2}={v2}: t_star={ts}")
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    return text


def cmd_sweep(spec: RunSpec, args) -> int:
    if args.out is None:
        raise ConfigError("sweep requires --out")
    run_sweep(spec, args.out, jobs=args.jobs)
    print(emit_report(args.out), end="")
    return 0


# name: (help, handler) of each subcommand, in the order -h lists them
_COMMANDS = {
    "regime": ("classify the background and its horizon", cmd_regime),
    "threshold": ("hypothesis ledger and admissibility verdict", cmd_threshold),
    "ode": ("integrate the extremal comparison ODE", cmd_ode),
    "pde": ("run the radial field solver", cmd_pde),
    "scaling": ("fit the cutoff growth integrals and decide the limits", cmd_scaling),
    "sweep": ("two-axis parameter sweep with CSV persistence", cmd_sweep),
    "identity": ("weak-solution identity residual on a solver run", cmd_identity),
}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgflrw",
        description="Blow-up laboratory for semilinear Klein-Gordon fields on "
                    "FLRW backgrounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to a JSON run spec")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="worker count")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command][1](parse_config(args.config), args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
