"""Dump the outputs a numerical change may move, and compare two dumps.

    python3 tools/output_digest.py new.json [--compare old.json]

Writes one JSON file holding, for every ode_positivity problem of benchmark
seeds 1-3, the data threshold S, t*, its error bar, the accepted, rejected
and right-hand-side counts, the stop reason and the Lemma 2.1 verdicts with
their worst margins; for each acceptance-7/8 solver run of the pde_physics
workload, every diagnostics column with its step counts, divergence time and
(for the weak-identity runs) the residual and its parts I-V; t, the spatial
mean and the sup of 40 chained ``field_solver.step`` calls on a power-law
background with lambda > 0 and on a static one, with the sha256 of every
state's bytes; ``kgflrw threshold``'s output on a massless static point
(whose N is a zero, so its sign is compared too) and on points at the edges
of the mass window -N^2 <= M^2 <= 0; the radii and
II'_R, III'_R values of every acceptance-6 fit, III'_R where its integrand
blows up at a crunch like (T0 - t)^beta, and II'_R, III'_R at three points
where a(t) or r(t) leaves the float range or the integral diverges (a record
older dumps lack); and the sha256 of every file
``kgflrw`` regime, threshold, ode and scaling write on README.md's run
config, and of the three files its sweep writes with ``--jobs 1`` and
``--jobs 2`` (pde and identity are left out: the solver outputs above hold
their numbers, and their bytes move with the BLAS kernel).
With ``--compare`` it prints the largest move of each output against an older
dump: relative for scalars (a zero that changes sign moves by inf), relative
to the column's peak for columns, the largest relative move of one value for
the acceptance-6 lists (inf against inf is no move), the old and new totals
with their relative change for counts (steps, node_steps, rhs_evals, ...),
and the number of differing records for counts, flags, hashes and verdicts
(the solver runs and the threshold points are compared one by one);
unmoved outputs are only counted, and so are the CLI files whose bytes did
not change.
Records that both dumps hold are compared, and each record only one of them
holds is named, so a dump taken before a record was added still compares.
Each dump records the OpenBLAS kernel numpy loaded, since the Simpson means
and the field step's products sum in the kernel's order, and the comparison
warns when the two dumps' kernels differ.  Run it once on each checkout to be
compared; it imports the package from ``src/`` next to this directory, and
acceptance 6's matrix from ``tests/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools"), str(ROOT / "tests")]

import blas_kernels  # noqa: E402
from kgflrw import cli, comparison_ode, cosmology, field_solver, testfn, thresholds  # noqa: E402
from perfbench import workloads  # noqa: E402
from test_acceptance import _MATRIX  # noqa: E402

SEEDS = (1, 2, 3)
_COLUMNS = ("t", "mean", "sup", "energy", "support_radius", "cone_radius", "mass_integral")
# the groups of records a dump holds, and those whose outputs are named per record
_GROUPS = ("ode", "pde", "step", "threshold", "scaling")
_PER_RECORD = ("pde", "step", "threshold")
# (label, background, lambda, p) of the chained steps
_STEP_RUNS = (("power law", workloads.CosmologyParams(n=1, m_sq=-1.0, H=0.4, sigma=0.5), 1.0, 2.0),
              ("static", workloads.CosmologyParams(n=2, m_sq=-1.0), 1.0, 2.5))


def _ode_outputs(params, r0, lam, p, theta) -> dict:
    N, _ = thresholds.damping_rate_N(params)
    S = thresholds.threshold_S(params, r0, lam, p, theta, N)
    w0 = 2.0 * S + 1.0
    problem = comparison_ode.OdeProblem(params=params, r0=r0, lam=lam, p=p, theta=theta, N=N,
                                        w0=w0, w1=1.05 * params.c * N * w0,
                                        t_end=workloads.ODE_T_END)
    traj = comparison_ode.integrate_comparison(problem, rtol=1e-8)
    verdict = comparison_ode.verify_lemma21(traj, problem)
    return {
        "params": [params.n, params.c, params.m_sq, params.H, params.sigma, params.a0,
                   r0, lam, p, theta],
        "S": S, "t_star": traj.t_star, "t_star_err": traj.t_star_err,
        "steps_accepted": traj.steps_accepted, "rejections": traj.rejections,
        "rhs_evals": traj.rhs_evals, "stop_reason": traj.stop_reason, "blowup": traj.blowup,
        "verdicts": {k: v for k, v in verdict.items() if k != "worst_margins"},
        "worst_margins": {k: float(v) for k, v in verdict["worst_margins"].items()},
    }


def _diagnostics(diag, **extra) -> dict:
    out = {name: list(getattr(diag, name)) for name in _COLUMNS}
    out.update(steps=diag.steps, node_steps=diag.node_steps, diverged=diag.diverged,
               divergence_time=diag.divergence_time, stop_reason=diag.stop_reason, **extra)
    return out


def _pde_outputs() -> dict:
    CosmologyParams = workloads.CosmologyParams
    runs = {}
    params = CosmologyParams(n=1, m_sq=1.0)
    state = field_solver.init_field(n=1, r0=1.0, r_max=12.0, num_nodes=12 * 512 + 1, w0=1.0)
    runs["energy"] = _diagnostics(field_solver.run_until(
        params, 0.0, 2.0, state, workloads.ENERGY_T_END, 1.0, output_interval=0.5))
    for i, (params, t_end, r_max) in enumerate(workloads._CONE_REGIMES):
        state = field_solver.init_field(n=params.n, r0=1.0, r_max=r_max, num_nodes=1025, w0=1.0)
        runs[f"cone regime {i}"] = _diagnostics(field_solver.run_until(
            params, 0.0, 2.0, state, t_end, 1.0, output_interval=0.1))
    nl = CosmologyParams(n=1, m_sq=-1.0)
    problem = comparison_ode.OdeProblem(params=nl, r0=0.5, lam=1.0, p=2.0, theta=0.5,
                                        N=1.0, w0=1.0, w1=1.0, t_end=8.0)
    t_star = comparison_ode.integrate_comparison(problem).t_star
    state = field_solver.init_field(n=1, r0=0.5, r_max=2.0 * t_star + 1.0,
                                    num_nodes=int(512 * (2.0 * t_star + 1.0)) + 1, w0=1.0, w1=1.0)
    runs["nonlinear blow-up"] = _diagnostics(field_solver.run_until(
        nl, 1.0, 2.0, state, 2.0 * t_star, 0.5, output_interval=0.05), t_star=t_star)
    for label, params, lam, r0, w0, w1, R, per_unit, r_max in workloads._IDENTITY_RUNS:
        nodes = int(per_unit * r_max) + 1
        state = field_solver.init_field(n=1, r0=r0, r_max=r_max, num_nodes=nodes, w0=w0, w1=w1)
        diag = field_solver.run_until(params, lam, 2.0, state, R, r0,
                                      output_interval=R / (0.625 * per_unit), keep_snapshots=True)
        residual, parts = testfn.weak_identity_residual(diag, params, lam, 2.0, R, return_parts=True)
        runs[label] = _diagnostics(diag, residual=residual, parts=parts)
    return runs


def _step_outputs() -> dict:
    """{background: t, mean and sup of 40 chained CFL steps from bump data, and their states' sha256}."""
    out = {}
    for label, params, lam, p in _STEP_RUNS:
        state = field_solver.init_field(n=params.n, r0=0.5, r_max=2.0, num_nodes=257, w0=1.0, w1=0.5)
        states = [state]
        for _ in range(40):
            states.append(field_solver.step(params, lam, p, states[-1]))
        sha = hashlib.sha256(b"".join(st.u.tobytes() + st.v.tobytes() for st in states)).hexdigest()
        out[label] = {"params": [params.n, params.m_sq, params.H, params.sigma, lam, p],
                      "t": [st.t for st in states],
                      "mean": [field_solver.spatial_mean(st.u, params.n, st.r) for st in states],
                      "sup": [float(abs(st.u).max()) for st in states],
                      "diverged": states[-1].diverged, "sha256": sha}
    return out


def _threshold_configs() -> dict:
    """{point: config} of the threshold records: a massless static point, whose N is a zero
    (so its sign is compared too), and points at the edges of the mass window -N^2 <= M^2 <= 0."""
    CosmologyParams = workloads.CosmologyParams
    shift = cosmology.background(CosmologyParams(n=3, H=0.7, sigma=0.3)).shift
    crunch = CosmologyParams(n=3, H=-1.0, sigma=-3.0, m_sq=-1.0)
    return {
        "massless static": {"n": 1, "m_sq": 0.0, "r0": 0.5},
        "real mass, set N": {"n": 1, "m_sq": 5.0, "r0": 0.5, "N": 0.0, "w0": 10.0, "w1": 10.0},
        "expanding, m_sq = -shift": {"n": 3, "H": 0.7, "sigma": 0.3, "m_sq": -shift, "r0": 0.5},
        "de Sitter, sup M^2 = 1e-13": {"n": 3, "H": 1.0, "sigma": -1.0, "m_sq": 2.25 + 1e-13,
                                       "r0": 0.5},
        "set N = sqrt(-inf M^2)": {"n": 3, "H": -1.0, "sigma": -3.0, "m_sq": -1.0, "r0": 0.5,
                                   "N": math.sqrt(-cosmology.curved_mass_bounds(crunch).lower)},
    }


def _threshold_outputs() -> dict:
    """{point: what ``kgflrw threshold`` prints} on each of `_threshold_configs`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, payload in _threshold_configs().items():
            config = Path(tmp) / "threshold.json"
            config.write_text(json.dumps(payload))
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = cli.main(["threshold", "--config", str(config)])
            if code:
                raise SystemExit(f"kgflrw threshold on {label} exited with {code}")
            out[label] = json.loads(printed.getvalue())
    return out


def _scaling_outputs() -> dict:
    """Acceptance 6's fits: {point: the radii and II'_R, III'_R values of both fits}."""
    points = [(params, p) for params, p, _, _ in _MATRIX] + [(workloads.CosmologyParams(n=2), 2.5)]
    out = {}
    for i, (params, p) in enumerate(points):
        ev = testfn.hypothesis_13_14(params, 0.5, p, tol=1e-8)
        out[f"point {i}"] = {
            "params": [params.n, params.H, params.sigma, p],
            "R_II": ev.fit_II.R.tolist(), "II_prime": ev.fit_II.values.tolist(),
            "R_III": ev.fit_III.R.tolist(), "III_prime": ev.fit_III.values.tolist(),
        }
    # n = 3, H = -1, r0 = R = 1: the integrand is a constant times (T0 - t)^beta, beta = 1 - 4p'/3
    crunch, betas = workloads.CosmologyParams(n=3, H=-1.0), [-0.8, -0.85, -0.9, -0.95, -0.97, -0.99]
    out["crunch III'"] = {"params": [3, -1.0, 0.0], "beta": betas, "III_prime_crunch": [
        testfn.III_prime(crunch, 1.0, 1.0, pp / (pp - 1.0)) for pp in (0.75 * (1.0 - b) for b in betas)]}
    # where a(t) or r(t) leaves the float range while the integral does not: expanding de Sitter
    # (n = 1, H = 0.9, r0 = 0.5) and contracting de Sitter (n = 2, H = -1, r0 = 0.5) II'_R at
    # R = 1500 and 1024, and the crunch above at beta = -1, where III'_R diverges
    de_sitter = workloads.CosmologyParams(n=1, H=0.9, sigma=-1.0)
    contracting = workloads.CosmologyParams(n=2, H=-1.0, sigma=-1.0)
    out["past the float range"] = {"params": [[1, 0.9, -1.0], [2, -1.0, -1.0], [3, -1.0, 0.0]], "values": [
        testfn.II_prime(de_sitter, 0.5, 1500.0), testfn.II_prime(contracting, 0.5, 1024.0),
        testfn.III_prime(crunch, 1.0, 1.0, 3.0)]}
    return out


def _cli_files() -> dict:
    """{file: sha256} of what the CLI writes on README.md's run and sweep configs, run in process."""
    run, sweep = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "run.json").write_text(run)
        (out / "sweep.json").write_text(sweep)
        calls = [[command, "--config", str(out / "run.json"), "--out", str(out / command)]
                 for command in ("regime", "threshold", "ode", "scaling")]
        calls += [["sweep", "--config", str(out / "sweep.json"), "--out", str(out / f"sweep jobs {jobs}"),
                   "--jobs", str(jobs)] for jobs in (1, 2)]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code:
                raise SystemExit(f"kgflrw {argv[0]} exited with {code}")
        return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.glob("*/*"))}


def digest() -> dict:
    ode = {}
    for seed in SEEDS:
        for i, (params, r0, lam, p, theta, _) in enumerate(workloads.draw_problems(seed, False)):
            ode[f"seed {seed} problem {i}"] = _ode_outputs(params, r0, lam, p, theta)
    return {"seeds": list(SEEDS), "blas_kernel": blas_kernels.corename(), "ode": ode,
            "pde": _pde_outputs(), "step": _step_outputs(), "threshold": _threshold_outputs(),
            "scaling": _scaling_outputs(), "cli": _cli_files()}


def kernel_warning(new: dict, old: dict):
    """A line naming both dumps' OpenBLAS kernels when they differ (a dump without one: unrecorded), else None."""
    kernels = [dump.get("blas_kernel", "unrecorded") for dump in (old, new)]
    if kernels[0] != kernels[1]:
        return (f"warning: OpenBLAS kernels differ, old {kernels[0]}, new {kernels[1]}:"
                " PDE outputs may move by round-off without a code change")
    return None


def _same(new, old) -> bool:
    """new is old: equal and, at zero, of the same sign, or both NaN."""
    if new == old:
        return new != 0 or math.copysign(1.0, new) == math.copysign(1.0, old)
    return isinstance(old, float) and isinstance(new, float) and math.isnan(old) and math.isnan(new)


def _rel(new, old) -> float:
    if _same(new, old):
        return 0.0
    if old is None or new is None or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old) if old else math.inf


def _column_move(new: list, old: list) -> float:
    if len(new) != len(old):
        return math.inf
    peak = max((abs(x) for x in old if math.isfinite(x)), default=0.0)
    return max((0.0 if a == b or (math.isnan(a) and math.isnan(b))
                else abs(a - b) / peak if peak else math.inf
                for a, b in zip(new, old)), default=0.0)


def _values_move(new: list, old: list) -> float:
    """The largest relative move of one value of a list, inf where the lengths differ."""
    if len(new) != len(old):
        return math.inf
    return max(map(_rel, new, old), default=0.0)


def _moves(new: dict, old: dict, prefix: str, label: str, moves: dict) -> None:
    """Fold the moves of one record's outputs into ``moves``; a scaling record's lists value by value.

    An output only one of the records holds (a flag a refused threshold point
    no longer sets) is compared with None, and so moves.
    """
    for key in sorted(old.keys() | new.keys()):
        o, n, name = old.get(key), new.get(key), f"{prefix}.{key}"
        if key == "params" or (o is None and n is None):
            continue
        if isinstance(o, dict) and isinstance(n, dict):
            _moves(n, o, name, label, moves)
            continue
        if isinstance(o, list) and prefix == "scaling":
            move, kind, where = _values_move(n, o), "relative", (label, None, None)
        elif isinstance(o, list):
            move, kind, where = _column_move(n, o), "of peak", (label, None, None)
        elif isinstance(o, float) or isinstance(n, float):
            move, kind, where = _rel(n, o), "relative", (label, o, n)
        elif isinstance(o, int) and not isinstance(o, bool):
            move, kind, where = float(n != o), "count", (o, n)
        else:
            move, kind, where = float(n != o), "changed", None
        best = moves.setdefault(name, [kind, 0.0, (0, 0) if kind == "count" else None])
        if kind == "count":
            best[1:] = [best[1] + move, (best[2][0] + o, best[2][1] + n)]
        elif kind == "changed":
            best[1] += move
        elif move > best[1]:
            best[1:] = [move, where]


def compare(new: dict, old: dict) -> dict:
    """{output: [kind, largest move or number of changed records, where]} over the records both dumps hold.

    where is (record, old, new) of the largest move of a scalar or column, and
    (old total, new total) over the records for a count.
    """
    moves: dict = {}
    for group in _GROUPS:
        if group not in old or group not in new:  # a dump taken before dumps held it
            continue
        for label, o in old[group].items():
            if label not in new[group]:
                continue
            n = new[group][label]
            if n.get("params") != o.get("params"):
                raise SystemExit(f"{label}: the problem differs between the dumps")
            _moves(n, o, f"{group}.{label}" if group in _PER_RECORD else group, label, moves)
    return moves


def lone_records(new: dict, old: dict) -> list:
    """"group: label (which dump)" of each record that only one of the dumps holds."""
    return [f"{group}: {label} ({'new' if label in new[group] else 'old'} dump only)"
            for group in _GROUPS if group in old and group in new
            for label in sorted(new[group].keys() ^ old[group].keys())]


def changed_files(new: dict, old: dict) -> list:
    """The CLI files whose digest differs between the dumps, or that only one of them holds."""
    files, was = new.get("cli", {}), old.get("cli", {})
    return sorted(name for name in files.keys() | was.keys() if files.get(name) != was.get(name))


def _describe(kind: str, move: float, where, name: str) -> str:
    """One printed line's account of a moved output."""
    if kind not in ("count", "changed"):  # a move, possibly inf
        at = "" if where is None or where[0] in name else f"  at {where[0]}" + (
            "" if where[1] is None else f": {where[1]!r} -> {where[2]!r}")
        return f"{move:.3g} {kind}{at}"
    records = f"{int(move)} record" + ("s" if move != 1 else "")
    if kind == "changed":
        return records
    old, new = where
    rel = f" ({(new - old) / old:+.2%})" if old else ""
    return f"{old} -> {new}{rel} in {records}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--compare", metavar="OLD", help="an older dump to compare with")
    args = parser.parse_args(argv)
    data = digest()
    Path(args.out).write_text(json.dumps(data) + "\n")
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        warning = kernel_warning(data, old)
        if warning:
            print(warning)
        moves = compare(data, old)
        for record in lone_records(data, old):
            print(f"record {record}")
        for name, (kind, move, where) in sorted(moves.items()):
            if move:
                print(f"{name:40s} {_describe(kind, move, where, name)}")
        print(f"{sum(not m for _, m, _ in moves.values())} of {len(moves)} outputs unmoved")
        if "cli" in old:
            changed = changed_files(data, old)
            for name in changed:
                print(f"cli file {name} differs")
            print(f"{len(changed)} of {len(data['cli'].keys() | old['cli'].keys())} CLI files differ")
        else:
            print("the old dump holds no CLI files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
