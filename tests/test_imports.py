"""The package root exports exactly its public names, every name a module
of the package imports is used in that module, every private module-level
name is referenced, every public kernel function is called from another
module, every public function or class is used or exported, one function
raises every divergence, one evaluates every slice batch, one spawns every
trial's generator and one builds every slicing ascent, and the package
imports no scipy: no module's source names it in an import, and importing and
running the package loads none."""

import ast
from collections import Counter
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ssfgw
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


def _src_trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


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


def test_package_root_exports_exactly_its_public_names():
    # ``from ssfgw import *`` resolves every name in __all__, and the root
    # binds no public name (other than its submodules) that __all__ omits
    namespace = {}
    exec("from ssfgw import *", namespace)
    assert set(ssfgw.__all__) <= namespace.keys()
    public = {
        name for name, value in vars(ssfgw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(ssfgw.__all__) - {"__version__"}
    assert ssfgw.backend_name() == "numpy" and ssfgw.NUMBA_AVAILABLE is False


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


def _uncalled_public_functions(trees, module) -> set:
    """Public module-level functions of ``trees[module]`` that no other
    module reads."""
    elsewhere = sum((_references(tree) for name, tree in trees.items() if name != module), Counter())
    return {
        node.name
        for node in trees[module].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not elsewhere[node.name]
    }


def test_every_public_kernel_function_is_called_from_another_module():
    trees = _src_trees()
    assert any(isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               for node in trees["_kernels"].body)
    assert _uncalled_public_functions(trees, "_kernels") == set()


def test_uncalled_public_kernel_function_is_caught():
    trees = {
        "_kernels": ast.parse(
            "def inner(x):\n    return x\n"
            "def used(x):\n    return inner(x)\n"
            "def idle(x):\n    return used(x)\n"
            "def _private(x):\n    return x\n"
        ),
        "fgw": ast.parse("from . import _kernels\nfrom ._kernels import idle\n_kernels.used(1)\n"),
    }
    assert _uncalled_public_functions(trees, "_kernels") == {"inner", "idle"}


def _unused_public_definitions(trees, exported) -> set:
    """(module, name) of each public module-level function or class that no
    module reads outside its own definition and the package root does not
    export."""
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in exported and total[node.name] == _references(node)[node.name]
    }


def test_every_public_definition_is_used_or_exported():
    # no code that only the tests call: what tests alone need lives in tests/
    trees = _src_trees()
    assert "SlicingAscent" in _references(trees["discrepancies"])
    assert _unused_public_definitions(trees, set(ssfgw.__all__)) == set()


def test_unused_public_definition_is_caught():
    trees = {
        "sampling": ast.parse(
            "def exported(v):\n    return v\n"
            "def helper(v):\n    return v\n"
            "def stray(v):\n    return stray(v)\n"
            "class Idle:\n    pass\n"
            "def _private(v):\n    return v\n"
        ),
        # an import alone is no use, an attribute read is
        "cli": ast.parse("from .sampling import stray, Idle\nimport sampling\nsampling.helper(1)\n"),
    }
    assert _unused_public_definitions(trees, {"exported"}) == {("sampling", "stray"),
                                                               ("sampling", "Idle")}


def _call_sites(trees, name) -> list:
    """(module, innermost enclosing function or None) of every call of
    ``name``, by bare name or as an attribute."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append((module, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
            else:
                visit(child, module, function)

    for module, tree in trees.items():
        visit(tree, module, None)
    return found


def test_divergence_error_is_raised_only_by_check_finite():
    # one divergence rule: a number the run needs is not finite
    assert _call_sites(_src_trees(), "DivergenceError") == [("discrepancies", "_check_finite")]


def test_stray_divergence_error_is_caught():
    trees = {
        "discrepancies": ast.parse(
            "class DivergenceError(RuntimeError):\n    pass\n"
            "def _check_finite(values):\n"
            "    if not values:\n        raise DivergenceError('non-finite', 0)\n"
        ),
        "experiments": ast.parse(
            "from . import discrepancies\n"
            "def flow(cost):\n"
            "    def cap():\n        raise discrepancies.DivergenceError('runaway', 1)\n"
            "    if cost > 1e100:\n        raise DivergenceError('runaway', 1)\n"
            "ERROR = DivergenceError('at import', 0)\n"
        ),
    }
    assert _call_sites(trees, "DivergenceError") == [
        ("discrepancies", "_check_finite"),
        ("experiments", "cap"),
        ("experiments", "flow"),
        ("experiments", None),
    ]


# the steps of a slice batch's one evaluation path
SLICE_PATH = ("_project_sorted", "_row_blocks", "cost_batch")


def test_slice_batches_have_one_evaluation_path():
    # every slice batch is projected, blocked and evaluated in _eval_slices
    trees = _src_trees()
    for name in SLICE_PATH:
        assert _call_sites(trees, name) == [("discrepancies", "_eval_slices")], name


def test_second_slice_evaluation_path_is_caught():
    trees = {
        "discrepancies": ast.parse(
            "def _eval_slices(X, thetas):\n"
            "    for rows in _row_blocks(thetas.shape[0], X.shape[0]):\n"
            "        a = _project_sorted(X, thetas[rows], 'x')\n"
            "        _kernels.cost_batch(a, a, 0.1, 2)\n"
            "def _stacked_costs(X, thetas):\n"
            "    return _kernels.cost_batch(*_project_sorted(X, thetas, 'x'), 0.1, 2)\n"
        ),
        "experiments": ast.parse(
            "from . import discrepancies\n"
            "BLOCKS = discrepancies._row_blocks(50, 64)\n"
        ),
    }
    assert {name: _call_sites(trees, name) for name in SLICE_PATH} == {
        "_project_sorted": [("discrepancies", "_eval_slices"), ("discrepancies", "_stacked_costs")],
        "_row_blocks": [("discrepancies", "_eval_slices"), ("experiments", None)],
        "cost_batch": [("discrepancies", "_eval_slices"), ("discrepancies", "_stacked_costs")],
    }


def test_trial_generators_are_spawned_in_one_loop():
    # kappa_sweep and convergence_rate run their trials through _trials
    assert _call_sites(_src_trees(), "spawn") == [("experiments", "_trials")]


def test_slicing_ascents_are_built_by_one_constructor():
    # the engines and the flows build their ascent with _slicing_ascent
    sites = _call_sites(_src_trees(), "SlicingAscent")
    assert sites and set(sites) == {("discrepancies", "_slicing_ascent")}


def test_stray_spawn_and_slicing_ascent_are_caught():
    trees = {
        "experiments": ast.parse(
            "def _trials(rng, trials, value):\n"
            "    return [value(child) for child in rng.spawn(trials)]\n"
            "def convergence_rate(rng, sizes):\n"
            "    return [child.uniform(size=n) for n in sizes for child in rng.spawn(2)]\n"
            "def _flow_ascent(d):\n"
            "    return sphere_opt.SlicingAscent('vmf', np.eye(d)[:1], (5.0,))\n"
        ),
        "discrepancies": ast.parse(
            "def _slicing_ascent(d):\n"
            "    return SlicingAscent('uniform', np.empty((0, d)))\n"
        ),
    }
    assert _call_sites(trees, "spawn") == [("experiments", "_trials"),
                                           ("experiments", "convergence_rate")]
    assert _call_sites(trees, "SlicingAscent") == [("experiments", "_flow_ascent"),
                                                   ("discrepancies", "_slicing_ascent")]


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
