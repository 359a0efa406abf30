"""Machine record, cold import timing and computed kernel operation counts."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches_per_core": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(kgflrw, scipy) cumulative import seconds from ``python -X importtime`` output.

    The scipy figure sums the cumulative time of each scipy module imported
    directly by a module outside scipy, so nested scipy imports count once.
    """
    kgflrw_us = scipy_us = 0
    outer = []  # names along the current nesting path, innermost last
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue  # header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, name, int(parts[1])))
    # importtime prints children before their parent; walk backwards to see parents first
    for depth, name, cumulative in reversed(entries):
        del outer[depth:]
        parent = outer[-1] if outer else ""
        if name == "kgflrw":
            kgflrw_us = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
        outer.append(name)
    return kgflrw_us / 1e6, scipy_us / 1e6


def import_times(src: Path) -> tuple[float, float]:
    """Cold ``import kgflrw`` in a fresh interpreter: (total, scipy part) in seconds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kgflrw"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return parse_importtime(proc.stderr)


# Elementwise NumPy operations of the PDE kernels, per interior node, as written
# in field_solver: (reads of 8-byte operands, writes, floating-point operations).
_LAPLACIAN_OPS = [
    (0, 1, 0),  # zeros_like
    (1, 1, 1),  # 2.0 * u[1:-1]
    (2, 1, 1),  # u[:-2] - ...
    (2, 1, 1),  # ... + u[2:]
    (1, 1, 1),  # / dr**2
    (1, 1, 1),  # (n-1) / r[1:-1]
    (2, 1, 1),  # u[2:] - u[:-2]
    (2, 1, 1),  # product
    (1, 1, 1),  # / (2 dr)
    (2, 1, 1),  # sum of both terms
    (1, 1, 0),  # store into lap[1:-1]
]


def _tally(ops) -> tuple[int, int]:
    return sum(f for _, _, f in ops), 8 * sum(r + w for r, w, _ in ops)


def kernel_record(nodes: int = 12 * 512 + 1) -> dict:
    """Operation count and bytes moved per node-step, computed from array sizes."""
    lap_flops, lap_bytes = _tally(_LAPLACIAN_OPS)
    # _rhs on top of the Laplacian, linear case: lap/a^2, msq*u, difference,
    # + 0.0 forcing, c^2 *, and v.copy() for du
    rhs_ops = [(1, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 0)]
    # nonlinear forcing adds |u|, **p, and the scalar product
    forcing_ops = [(1, 1, 1), (1, 1, 1), (1, 1, 1)]
    # step: three stage inputs per field (scalar * k, u + ...) and the final
    # combination per field (2*k2, +k1, 2*k3, +, +k4, dt/6 *, u +), then |un| and max
    stage_ops = 3 * 2 * [(1, 1, 1), (2, 1, 1)]
    final_ops = 2 * [(1, 1, 1), (2, 1, 1), (1, 1, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (2, 1, 1)]
    sup_ops = [(1, 1, 1), (1, 0, 1)]
    rhs_flops, rhs_bytes = _tally(rhs_ops)
    f_flops, f_bytes = _tally(forcing_ops)
    rest_flops, rest_bytes = _tally(stage_ops + final_ops + sup_ops)
    step_linear = (4 * (lap_flops + rhs_flops) + rest_flops,
                   4 * (lap_bytes + rhs_bytes) + rest_bytes)
    step_nonlinear = (step_linear[0] + 4 * f_flops, step_linear[1] + 4 * f_bytes)
    array_kib = nodes * 8 / 1024
    return {
        "label": "computed from array sizes (8-byte floats), not measured",
        "radial_laplacian": {"flops_per_node": lap_flops, "bytes_per_node": lap_bytes},
        "rk4_step_linear": {"flops_per_node": step_linear[0], "bytes_per_node": step_linear[1]},
        "rk4_step_nonlinear": {"flops_per_node": step_nonlinear[0],
                               "bytes_per_node": step_nonlinear[1]},
        "note": (f"At {nodes} nodes one array is {array_kib:.0f} KiB, so the working set of a step "
                 "stays in the per-core L2 cache; no bandwidth or roofline ratio is claimed."),
    }
