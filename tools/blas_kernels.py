"""Rerun the field-solver tests and the output digest under several OpenBLAS kernels.

    python3 tools/blas_kernels.py

numpy's OpenBLAS picks its kernels for the CPU when it loads, and the
environment variable OPENBLAS_CORETYPE overrides that pick.  For each kernel
in ``KERNELS`` this runs ``pytest -q tests/test_field_solver.py`` (the
bit-for-bit tests of the windowed step among them) and ``tools/output_digest.py``
in child processes whose environment alone sets the variable, and prints one
line per kernel: the kernel OpenBLAS reports it loaded, the tests' summary
line, and the digest's counts of outputs unmoved and of CLI files that differ
against a digest taken with the default kernel.  A kernel whose instructions the CPU lacks ends its
children with a signal, which the line shows as a negative exit code.
"""

from __future__ import annotations

import ctypes
import glob
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "SandyBridge", "Nehalem", "Prescott")
# the name OpenBLAS exports its loaded kernel's name under, by build: numpy's
# wheels bundle it as scipy_openblas with 64-bit integers
_CORENAMES = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
              "openblas_get_corename")


def corename() -> str:
    """The kernel of the OpenBLAS numpy loaded in this process, or '?' if it cannot tell."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in _CORENAMES:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "?"


def _run(args: list, kernel, ends=("",)) -> str:
    """The last line a child prints that ends with each of ``ends``, joined by "; ",
    with OPENBLAS_CORETYPE = kernel (None: unset)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    last = "; ".join(next((line for line in reversed(lines) if line.endswith(end)), "")
                     for end in ends)
    return last if done.returncode == 0 else f"exit {done.returncode}: {last}"


def main() -> int:
    loaded = ["-c", "import blas_kernels; print(blas_kernels.corename())"]
    digest = str(ROOT / "tools" / "output_digest.py")
    with tempfile.TemporaryDirectory() as tmp:
        default = str(Path(tmp) / "default.json")
        print(f"{'kernel':12s} {'loaded':12s} {'field_solver tests':28s} digest against default")
        print(f"{'default':12s} {_run(loaded, None):12s} {'':28s} {_run([digest, default], None)}")
        for kernel in KERNELS:
            tests = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_field_solver.py"], kernel)
            moved = _run([digest, str(Path(tmp) / f"{kernel}.json"), "--compare", default],
                         kernel, ends=("outputs unmoved", "CLI files differ"))
            print(f"{kernel:12s} {_run(loaded, kernel):12s} {tests:28s} {moved}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
