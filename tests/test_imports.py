"""Every name a module of the package imports is used in that module, every
private module-level name is referenced, and the package imports no scipy:
no module's source names it in an import, and importing and running the
package loads none."""

import ast
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssfgw.cli import write_point_cloud

SRC = Path(__file__).resolve().parent.parent / "src" / "ssfgw"

# Imported but not used: the benchmark's tracer rebinds every module-level
# alias of the functions it times, and its test
# (perfbench/test_perfbench.py::test_tracer_rebinds_every_alias_and_restores_it)
# pins these aliases, so they stay importable under these names.
TRACER_ALIASES = {
    "discrepancies": {"adam_step", "assemble_directions"},
    "experiments": {"_eval_slices", "_uniform_sphere", "adam_step", "reflection_location_grads"},
    "sphere_opt": {"_ps_omega", "_uniform_sphere", "_vmf_omega"},
}


def _unused_imports(tree) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # re-exports: the names listed in __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return imported - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert unused == TRACER_ALIASES.get(path.stem, set())


def test_unused_import_is_caught():
    tree = ast.parse("from .sampling import VmfParams, unit_vector\nunit_vector(1)\n")
    assert _unused_imports(tree) == {"VmfParams"}


def _private_definitions(tree):
    """(name, defining statement) of each module-level private function,
    class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node) -> Counter:
    # every read of a bare name and every attribute, in any module
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    )


def _unreferenced_private_names(trees) -> set:
    """Private names no module reads outside their own definition."""
    total = sum((_references(tree) for tree in trees), Counter())
    return {
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if total[name] == _references(node)[name]
    }


def test_every_private_name_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert sum(1 for tree in trees for _ in _private_definitions(tree)) > 0
    assert _unreferenced_private_names(trees) == set()


def test_unreferenced_private_name_is_caught():
    trees = [
        ast.parse("_USED = 1\n_DEAD = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"),
        ast.parse("from .a import _USED\nclass _Idle:\n    pass\nprint(_USED)\n"),
    ]
    assert _unreferenced_private_names(trees) == {"_DEAD", "_recursive", "_Idle"}


def _scipy_imports(tree) -> list:
    """Line of every import of scipy or of a scipy submodule, at any depth
    (function bodies included)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := _scipy_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_scipy_import_is_caught():
    tree = ast.parse(
        "import numpy, scipy.special as sp\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "    from .scipy import x\n"
        "    return quad\n"
    )
    assert _scipy_imports(tree) == [1, 4]


# Run in a fresh interpreter: this test session has already loaded scipy
# through the quadrature oracle in tests/oracles.py.
_NO_SCIPY_SCRIPT = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import ssfgw
assert scipy_modules() == [], scipy_modules()
from ssfgw.cli import main
assert main(["discrepancy", *sys.argv[1:], "--L", "4", "--max-iter", "2"]) == 0
assert scipy_modules() == [], scipy_modules()
"""


def test_import_and_cli_run_load_no_scipy(tmp_path):
    clouds = []
    for name, seed in (("a.csv", 0), ("b.csv", 1)):
        write_point_cloud(tmp_path / name, np.random.default_rng(seed).normal(size=(16, 2)))
        clouds.append(str(tmp_path / name))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, *clouds],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("metric,")
