"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces every public function of the kgflrw modules, and
scipy's ``simpson`` where a kgflrw module looks it up, in each module
namespace that binds it; ``uninstall`` restores the originals.  Every
call records a span with its name, start, end and parent; spans of one workload
item share the item's span id.  When a span closes, its self time (its duration
minus the time covered by its direct child spans) and its inclusive time are
added to per-name totals, so a layer's self time is the sum over its names.

Only item spans, their direct children and spans outside any item are kept for
the written trace: the comparison ODE makes millions of nested calls per pass,
and keeping every span would cost hundreds of megabytes.

``Counters`` observes arguments and results of a few functions after their
span has closed (accepted steps, grid nodes stepped), and
``layer_metrics`` turns both into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

import numpy as np
import scipy.integrate

# Imported before any install, so the observers use unwrapped closed forms.
from kgflrw.cosmology import ConeData, cone_radius

# kgflrw module -> layer; cli and config form one layer
LAYERS = {
    "cosmology": "cosmology",
    "thresholds": "thresholds",
    "comparison_ode": "comparison_ode",
    "field_solver": "field_solver",
    "testfn": "testfn",
    "config": "cli",
    "cli": "cli",
}
ITEM = "bench.item"
_SIMPSON = scipy.integrate.simpson


def public_functions(module) -> dict:
    """Functions a module defines and exports (``__all__``, else no leading underscore)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if (callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            out[name] = obj
    return out


class Tracer:
    """Wraps callables so each call records a span and per-name time totals."""

    def __init__(self, observers=None, clock=time.perf_counter):
        self.clock = clock
        self.observers = observers or {}
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.pairs = defaultdict(int)  # (name id, parent name id) -> calls
        # kept spans: (span id, name id, parent span id, item span id, start, end)
        self.spans: list[tuple] = []
        self.item = -1  # span id of the open item, -1 outside items
        self._ids: dict[str, int] = {}
        self._span_ids = itertools.count()
        # open frames: [name id, child time, span id, depth below the open item]
        # depth is -1 outside items; the bottom frame stands for "no parent"
        self._stack = [[-1, 0.0, -1, -1]]
        self._patches: list[tuple] = []
        self.run_item = self.wrap(lambda fn: fn(), ITEM, "bench", item=True)

    def _register(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, item: bool = False):
        """Return ``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._register(name, layer)
        clock, stack, span_ids, spans = self.clock, self._stack, self._span_ids, self.spans
        calls, self_s, incl_s, pairs = self.calls, self.self_s, self.incl_s, self.pairs
        observe = self.observers.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(span_ids)
            if item:
                depth, outer_item, tracer.item = 0, tracer.item, sid
            else:
                depth = parent[3] + 1 if parent[3] >= 0 else -1
            frame = [nid, 0.0, sid, depth]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[nid] += dur - frame[1]
                incl_s[nid] += dur
                calls[nid] += 1
                parent[1] += dur
                pairs[nid, parent[0]] += 1
                if depth <= 1:
                    spans.append((sid, nid, parent[2], tracer.item, start, end))
                if item:
                    tracer.item = outer_item
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_namespaces=()) -> None:
        """Wrap public functions in every kgflrw namespace (and ``extra_namespaces``)."""
        import kgflrw

        modules = {short: importlib.import_module(f"kgflrw.{short}") for short in LAYERS}
        wrappers = {}
        for short, module in modules.items():
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = self.wrap(fn, f"{short}.{fname}", LAYERS[short])
        targets = [(None, vars(kgflrw))] + [(s, vars(m)) for s, m in modules.items()]
        targets += [(None, ns) for ns in extra_namespaces]
        for short, ns in targets:
            for key, val in list(ns.items()):
                wrapper = wrappers.get(id(val))
                if val is _SIMPSON and short is not None:
                    wrapper = self.wrap(val, f"scipy.simpson[{short}]", "scipy")
                if wrapper is not None:
                    self._patches.append((ns, key, val))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            ns, key, val = self._patches.pop()
            ns[key] = val

    def totals(self) -> dict:
        """name -> (calls, self seconds, inclusive seconds)."""
        return {n: (self.calls[i], self.self_s[i], self.incl_s[i]) for i, n in enumerate(self.names)}

    def layer_sum(self, layer: str, field: str) -> float:
        values = getattr(self, field)
        return sum(v for v, lay in zip(values, self.layer_of) if lay == layer)

    def calls_under(self, name: str, parent: str) -> int:
        ids = self._ids
        if name not in ids or parent not in ids:
            return 0
        return self.pairs.get((ids[name], ids[parent]), 0)

    def dump(self, path, meta: dict) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        payload = {
            **meta,
            "names": self.names,
            "layers": self.layer_of,
            "totals": self.totals(),
            "span_fields": ["id", "name", "parent", "item", "start", "end"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Counters:
    """Work counts read from arguments and results of traced calls."""

    def __init__(self):
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.tail_steps = 0
        self.node_steps = 0
        self.cone_share_sum = 0.0
        self.cone_share_steps = 0
        self._pending_steps: list[tuple] = []

    def observers(self) -> dict:
        return {
            "comparison_ode.integrate_comparison": self._ode,
            "field_solver.step": self._step,
            "field_solver.run_until": self._run,
        }

    def _ode(self, args, kwargs, traj):
        w0 = abs(_arg(args, kwargs, 0, "problem").w0)
        self.steps_accepted += traj.t.size - 1
        self.steps_rejected += traj.rejections
        self.tail_steps += int(np.count_nonzero(np.abs(traj.w[1:]) > 1e3 * w0))

    def _step(self, args, kwargs, new_state):
        self.node_steps += new_state.r.size
        self._pending_steps.append((new_state.t, new_state.r.size, new_state.dr))

    def _run(self, args, kwargs, diag):
        cone = ConeData(_arg(args, kwargs, 5, "r0"), _arg(args, kwargs, 0, "params"))
        for t, nodes, dr in self._pending_steps:
            inside = min(nodes, int((cone_radius(cone, t) + 2.0 * dr) / dr) + 1)
            self.cone_share_sum += inside / nodes
        self.cone_share_steps += len(self._pending_steps)
        self._pending_steps.clear()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counters) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer did no work."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return tracer.layer_sum(layer, "self_s")

    cosmo_calls = tracer.layer_sum("cosmology", "calls")
    attempts = counters.steps_accepted + counters.steps_rejected
    field_steps = calls("field_solver.step")
    return {
        "cosmology.calls": cosmo_calls,
        "cosmology.self_s": layer_self("cosmology"),
        "cosmology.us_per_call": _ratio(layer_self("cosmology"), cosmo_calls, 1e6),
        "thresholds.nonlinearity_weight.calls": calls("thresholds.nonlinearity_weight"),
        "thresholds.self_s": layer_self("thresholds"),
        "thresholds.threshold_S.ms_per_call": _ratio(
            incl("thresholds.threshold_S"), calls("thresholds.threshold_S"), 1e3),
        "comparison_ode.steps_accepted": counters.steps_accepted,
        "comparison_ode.steps_rejected": counters.steps_rejected,
        "comparison_ode.rhs_evals": tracer.calls_under(
            "cosmology.curved_mass_sq", "comparison_ode.integrate_comparison"),
        "comparison_ode.accept_ratio": _ratio(counters.steps_accepted, attempts),
        "comparison_ode.self_s": layer_self("comparison_ode"),
        "comparison_ode.us_per_step": _ratio(
            incl("comparison_ode.integrate_comparison"), attempts, 1e6),
        "comparison_ode.verify_s": incl("comparison_ode.verify_lemma21"),
        "comparison_ode.tail_step_share": _ratio(counters.tail_steps, counters.steps_accepted),
        "field_solver.steps": field_steps,
        "field_solver.node_steps": counters.node_steps,
        "field_solver.ns_per_node_step": _ratio(incl("field_solver.step"), counters.node_steps, 1e9),
        "field_solver.laplacian.calls": calls("field_solver.radial_laplacian"),
        "field_solver.laplacian_s": incl("field_solver.radial_laplacian"),
        "field_solver.simpson_s": incl("scipy.simpson[field_solver]"),
        "field_solver.self_s": layer_self("field_solver"),
        "field_solver.cone_node_share": _ratio(counters.cone_share_sum, counters.cone_share_steps),
        "testfn.self_s": layer_self("testfn"),
        "testfn.weak_identity_s": incl("testfn.weak_identity_residual"),
        "cli.self_s": layer_self("cli"),
    }
