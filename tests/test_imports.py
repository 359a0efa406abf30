"""Every name a kgflrw module imports is used in it or exported through its __all__,
and no kgflrw module imports or loads scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "kgflrw"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _imported_modules(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the package's one runtime dependency
    assert not {name for name in _imported_modules(path) if name.split(".")[0] == "scipy"}


def test_cutoff_growth_integral_and_weak_identity_load_no_scipy():
    script = """
import sys
from kgflrw import cli, field_solver, testfn
from kgflrw.cosmology import CosmologyParams
params = CosmologyParams(n=1, m_sq=1.0)
testfn.build_cutoff()
testfn.II_prime(params, 0.5, 4.0)
state = field_solver.init_field(n=1, r0=0.5, r_max=3.0, num_nodes=513, w0=1.0, w1=0.8)
diag = field_solver.run_until(params, 0.0, 2.0, state, 2.0, 0.5, output_interval=0.25,
                              keep_snapshots=True)
testfn.weak_identity_residual(diag, params, 0.0, 2.0, 2.0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
