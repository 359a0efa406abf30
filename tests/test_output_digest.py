"""The comparison of tools/output_digest.py on hand-made dumps."""

import importlib.util
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
    assert moves["ode.steps_accepted"][:2] == ["changed", 1.0]
    assert moves["ode.verdicts.all_pass"][:2] == ["changed", 1.0]
    kind, move, _ = moves["pde.energy.mean"]
    assert kind == "of peak" and math.isclose(move, 5e-13, rel_tol=1e-3)
