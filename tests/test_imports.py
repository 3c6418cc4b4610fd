"""Every name a module of the package imports is used in that module, and
the package imports no scipy at run time."""

import ast
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


# Run in a fresh interpreter: this test session has already loaded scipy
# through the quadrature-oracle tests.
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
