"""The comparison of tools/output_digest.py on hand-made dumps."""

import importlib.util
import json
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _dump(S, steps, verdict, mean):
    ode = {"seed 1 problem 0": {"params": [1, 1.0], "S": S, "t_star": None, "steps_accepted": steps,
                                "verdicts": {"all_pass": verdict}}}
    pde = {"energy": {"mean": mean, "divergence_time": None}}
    return {"ode": ode, "pde": pde}


def test_identical_dumps_move_nothing():
    dump = _dump(2.0, 10, True, [1.0, 4.0, math.nan])
    moves = output_digest.compare(dump, dump)
    assert set(moves) == {"ode.S", "ode.steps_accepted", "ode.verdicts.all_pass", "pde.energy.mean"}
    assert all(move == 0.0 for _, move, _ in moves.values())


def test_moves_are_relative_of_peak_or_counted():
    old = _dump(2.0, 10, True, [1.0, 4.0, math.nan])
    new = _dump(2.0 * (1 + 1e-15), 11, False, [1.0, 4.0 + 2e-12, math.nan])
    moves = output_digest.compare(new, old)
    assert moves["ode.S"][:2] == ["relative", abs(2.0 * (1 + 1e-15) - 2.0) / 2.0]
    assert moves["ode.steps_accepted"] == ["count", 1.0, (10, 11)]
    assert moves["ode.verdicts.all_pass"][:2] == ["changed", 1.0]
    kind, move, _ = moves["pde.energy.mean"]
    assert kind == "of peak" and math.isclose(move, 5e-13, rel_tol=1e-3)


def test_counts_print_old_and_new_totals_with_their_change():
    old = {"ode": {f"seed 1 problem {i}": {"params": [i], "rhs_evals": 100 * (i + 1),
                                            "verdicts": {"all_pass": True}} for i in range(3)},
           "pde": {"energy": {"node_steps": 5052563, "steps": 3200}}}
    new = {"ode": {f"seed 1 problem {i}": {"params": [i], "rhs_evals": 100 * (i + 1) + (i == 2),
                                            "verdicts": {"all_pass": i != 1}} for i in range(3)},
           "pde": {"energy": {"node_steps": 3904056, "steps": 3200}}}
    moves = output_digest.compare(new, old)
    # counts are summed over the records they were compared in
    assert moves["ode.rhs_evals"] == ["count", 1.0, (600, 601)]
    assert moves["pde.energy.node_steps"] == ["count", 1.0, (5052563, 3904056)]
    assert moves["pde.energy.steps"] == ["count", 0.0, (3200, 3200)]
    lines = {name: output_digest._describe(*moves[name], name)
             for name in ("ode.rhs_evals", "pde.energy.node_steps", "ode.verdicts.all_pass")}
    assert lines == {"ode.rhs_evals": "600 -> 601 (+0.17%) in 1 record",
                     "pde.energy.node_steps": "5052563 -> 3904056 (-22.73%) in 1 record",
                     "ode.verdicts.all_pass": "1 record"}


def test_dumps_name_their_blas_kernel_and_a_difference_is_warned():
    old, new = _dump(2.0, 10, True, [1.0]), _dump(2.0, 10, True, [1.0])
    old["blas_kernel"] = new["blas_kernel"] = "SkylakeX"
    assert output_digest.kernel_warning(new, old) is None
    new["blas_kernel"] = "Haswell"
    line = output_digest.kernel_warning(new, old)
    assert line.startswith("warning:") and "old SkylakeX" in line and "new Haswell" in line
    del old["blas_kernel"]  # a dump taken before dumps recorded their kernel
    assert "old unrecorded, new Haswell" in output_digest.kernel_warning(new, old)
    # the comparison of outputs reads only the ode and pde records
    assert all(move == 0.0 for _, move, _ in output_digest.compare(new, old).values())


def test_cli_files_are_every_file_the_readme_runs_write():
    files = output_digest._cli_files()
    assert set(files) == {
        "regime/regime.json", "threshold/threshold.json",
        "ode/ode.json", "ode/trajectory.csv", "ode/trajectory.json",
        *(f"scaling/{name}" for name in ("scaling.json", "II_prime.csv", "II_prime.json",
                                         "III_prime.csv", "III_prime.json")),
        *(f"sweep jobs {jobs}/{name}" for jobs in (1, 2)
          for name in ("sweep.csv", "summary.txt", "boundary.csv")),
    }
    # a parallel sweep writes the serial bytes
    for name in ("sweep.csv", "summary.txt", "boundary.csv"):
        assert files[f"sweep jobs 1/{name}"] == files[f"sweep jobs 2/{name}"]


def test_cli_files_that_differ_are_named():
    old = {"cli": {"regime/regime.json": "a", "ode/ode.json": "b"}}
    new = {"cli": {"regime/regime.json": "a", "ode/ode.json": "c", "sweep jobs 1/sweep.csv": "d"}}
    assert output_digest.changed_files(new, old) == ["ode/ode.json", "sweep jobs 1/sweep.csv"]
    assert output_digest.changed_files(old, old) == []


def test_compare_prints_the_count_of_cli_files_that_differ(tmp_path, monkeypatch, capsys):
    dump = _dump(2.0, 10, True, [1.0])
    monkeypatch.setattr(output_digest, "digest",
                        lambda: {**dump, "cli": {"regime/regime.json": "a", "ode/ode.json": "c"}})
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**dump, "cli": {"regime/regime.json": "a", "ode/ode.json": "b"}}))
    assert output_digest.main([str(tmp_path / "new.json"), "--compare", str(old)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["cli file ode/ode.json differs", "1 of 2 CLI files differ"]
    old.write_text(json.dumps(dump))  # a dump taken before dumps held CLI files
    assert output_digest.main([str(tmp_path / "new.json"), "--compare", str(old)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "the old dump holds no CLI files"


def test_scaling_values_move_one_by_one():
    def dump(values):
        return {**_dump(2.0, 10, True, [1.0]), "scaling": {"point 0": {
            "params": [1, 0.0, 0.0, 2.0], "R_II": [1.0, 2.0, 4.0], "II_prime": values}}}

    old = dump([1.0, 1e6, math.inf])
    moves = output_digest.compare(dump([1.0, 1e6 * (1 + 2e-12), math.inf]), old)
    # relative to each value, not to the largest, and inf against inf does not move
    assert moves["scaling.II_prime"][0] == "relative"
    assert math.isclose(moves["scaling.II_prime"][1], 2e-12, rel_tol=1e-3)
    assert moves["scaling.R_II"][1] == 0.0
    moves = output_digest.compare(dump([1.0, 1e6, 5.0]), old)
    assert moves["scaling.II_prime"][1] == math.inf
    assert output_digest._describe(*moves["scaling.II_prime"], "scaling.II_prime") == (
        "inf relative  at point 0")
    assert output_digest.compare(dump([1.0, 1e6]), old)["scaling.II_prime"][1] == math.inf


def test_records_only_one_dump_holds_are_named(tmp_path, monkeypatch, capsys):
    old = _dump(2.0, 10, True, [1.0])
    new = _dump(2.0, 11, True, [1.0])
    new["scaling"] = {"crunch III'": {"params": [3], "III_prime_crunch": [24.4]}}
    old["scaling"] = {}
    new["pde"]["nonlinear"] = {"mean": [2.0]}
    old["pde"]["linear"] = {"mean": [3.0]}
    # the records both hold are compared
    assert output_digest.compare(new, old) == {
        "ode.S": ["relative", 0.0, None], "ode.steps_accepted": ["count", 1.0, (10, 11)],
        "ode.verdicts.all_pass": ["changed", 0.0, None], "pde.energy.mean": ["of peak", 0.0, None]}
    assert output_digest.lone_records(new, old) == [
        "pde: linear (old dump only)", "pde: nonlinear (new dump only)",
        "scaling: crunch III' (new dump only)"]
    monkeypatch.setattr(output_digest, "digest", lambda: new)
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert output_digest.main([str(tmp_path / "new.json"), "--compare", str(tmp_path / "old.json")]) == 0
    out = capsys.readouterr().out
    assert "record scaling: crunch III' (new dump only)" in out and "3 of 4 outputs unmoved" in out


def test_step_records_chain_forty_steps_on_a_moving_and_a_static_background():
    records = output_digest._step_outputs()
    assert set(records) == {"power law", "static"}
    for record in records.values():
        n, m_sq, H, sigma, lam, p = record["params"]
        assert lam > 0 and len(record["t"]) == len(record["mean"]) == len(record["sup"]) == 41
        assert all(a < b for a, b in zip(record["t"], record["t"][1:]))
        assert not record["diverged"] and len(record["sha256"]) == 64
    assert records["power law"]["params"][2] > 0 and records["static"]["params"][2] == 0.0
    # the hash of the states is compared as one changed record
    old = {"step": records}
    new = {"step": {**records, "static": {**records["static"], "sha256": "0" * 64}}}
    moves = output_digest.compare(new, old)
    assert moves["step.static.sha256"][:2] == ["changed", 1.0]
    assert moves["step.power law.sha256"][:2] == ["changed", 0.0]
    assert moves["step.static.t"][:2] == ["of peak", 0.0]


def test_threshold_record_is_the_massless_static_output_with_a_positive_zero_N():
    record = output_digest._threshold_outputs()["massless static"]
    assert record["case_label"] == "1" and record["verdict"] == "admissible"
    assert record["N"] == 0.0 and math.copysign(1.0, record["N"]) == 1.0
    # a zero that changes sign moves, and so by inf
    moves = output_digest.compare({"threshold": {"massless static": record}},
                                  {"threshold": {"massless static": {**record, "N": -0.0}}})
    assert moves["threshold.massless static.N"] == ["relative", math.inf, ("massless static", -0.0, 0.0)]
    assert moves["threshold.massless static.S"][1] == 0.0


def test_threshold_records_at_the_edges_of_the_mass_window_are_compared_one_by_one():
    records = output_digest._threshold_outputs()
    refused = ("real mass, set N", "de Sitter, sup M^2 = 1e-13")
    for label in refused:
        assert records[label]["verdict"].startswith("inadmissible(case mismatch: sup M^2 = ")
        assert records[label]["hypothesis_flags"] == {"mass_window_1_10": False}
    assert records["expanding, m_sq = -shift"]["case_label"] == "2"
    N = output_digest._threshold_configs()["set N = sqrt(-inf M^2)"]["N"]
    assert records["set N = sqrt(-inf M^2)"]["N"] == N
    assert records["set N = sqrt(-inf M^2)"]["hypothesis_flags"]["mass_window_1_10"] is True
    # a verdict that moves is counted in its own record, and so is each flag only one record sets
    admitted = {**records[refused[0]], "verdict": "inadmissible(S = inf)", "S": math.inf,
                "hypothesis_flags": {"mass_window_1_10": True, "S_finite": False}}
    moves = output_digest.compare({"threshold": records},
                                  {"threshold": {**records, refused[0]: admitted}})
    assert moves[f"threshold.{refused[0]}.verdict"][:2] == ["changed", 1.0]
    assert moves[f"threshold.{refused[0]}.S"][:2] == ["relative", math.inf]
    assert moves[f"threshold.{refused[0]}.hypothesis_flags.mass_window_1_10"][:2] == ["changed", 1.0]
    assert moves[f"threshold.{refused[0]}.hypothesis_flags.S_finite"][:2] == ["changed", 1.0]
    assert moves[f"threshold.{refused[1]}.verdict"][:2] == ["changed", 0.0]
