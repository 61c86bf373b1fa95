"""Import structure of the package: every intra-package import sits at module
level and is used, no protocol module reaches into another's private helpers,
the module import graph has no cycles, and only the generators build
circuits on a skeleton, unchecked.  In a fresh interpreter, importing
the CLI leaves out ``scipy.stats``, which costs about half a second of cold
start, and importing every module, or running the protocols that fit
nothing (accreditation, MCFE, DFE, ACES, sampling on either backend,
linear state tomography), leaves out ``scipy`` altogether: only the
functions that call it import it, so the first decay fit loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcvv

PACKAGE = Path(qcvv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PROTOCOLS = {"rb", "cycles", "fidelity", "volumetrics"}


def _relative_imports(tree):
    """(node, inside a function or class body) for each relative import."""
    out = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                out.append((child, nested))
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
            visit(child, nested or scoped)

    visit(tree, False)
    return out


def _targets(node):
    """Sibling modules named by a relative import node."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_package_modules_found():
    assert {"cliffords", "rb", "cycles", "device"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_relative_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    nested = [f"{path.name}:{node.lineno}" for node, inside in _relative_imports(tree) if inside]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_relative_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node, inside in _relative_imports(tree)
        if not inside
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_protocol_modules(path):
    tree = ast.parse(path.read_text(), str(path))
    private = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for node, _ in _relative_imports(tree)
        if node.level == 1 and node.module in PROTOCOLS
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# what builds, stacks and samples eigenstate-parity circuits; BiRB, cycle
# benchmarking and ACES reach it only through ``device._eigenstate_parities``
PARITY_INTERNALS = {"_parity_all", "_propagate_side_by_side", "_stack_size", "_pulled_back_rows"}


@pytest.mark.parametrize("name", ["rb", "cycles"])
def test_parity_protocols_import_no_parity_circuit_internals(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = {alias.name for node, _ in _relative_imports(tree) for alias in node.names}
    assert imported & PARITY_INTERNALS == set()


# the generators that build circuits of one shape on one checked skeleton;
# every other module reads layers from outside (configs, callers, files) and
# builds its circuits through the checked ``Circuit(width, layers)``
SKELETON_BUILDERS = {"device", "rb", "fidelity"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_generators_build_circuits_on_a_skeleton(path):
    tree = ast.parse(path.read_text(), str(path))
    calls = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_on_skeleton"
    ]
    assert path.stem in SKELETON_BUILDERS or calls == []


def test_module_import_graph_is_acyclic():
    names = {path.stem for path in MODULES}
    graph = {
        path.stem: {t for node, _ in _relative_imports(ast.parse(path.read_text())) for t in _targets(node) if t in names}
        for path in MODULES
    }
    state = {}

    def cycle_from(name, stack):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                return stack + [name, dep]
            if dep not in state:
                found = cycle_from(dep, stack + [name])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            assert cycle_from(name, []) is None


def _fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    assert _fresh("import qcvv.cli, sys; print('scipy.stats' in sys.modules)") == "False"


def test_module_imports_leave_out_scipy():
    names = ", ".join(f"qcvv.{path.stem}" for path in MODULES if path.stem != "__init__")
    assert _fresh(f"import sys, {names}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


FIT_FREE_RUNS = """
import sys
from qcvv import channels as ch, cycles, device as dv, fidelity, tomography
model = dv.noisy_model(2, lambda label, arity: ch.depolarizing(0.02, n=arity))
target = [(("H", (0,)), ("H", (1,))), (("CZ", (0, 1)),), (("S", (0,)), ("H", (1,)))]
fidelity.accredit(model, target, theta=0.2, alpha=0.9, seed=1)
fidelity.mcfe(model, target, k_ensemble=4, shots=50, seed=2)
fidelity.dfe(model, fidelity.ghz_circuit(2), fidelity.ghz_stabilizers(2), 0.5, 0.5, 6)
cycles.aces(model, [(("CZ", (0, 1)),), (("H", (0,)), ("H", (1,)))], 4, 2, 3, shots=50, seed=3)
flip = dv.Circuit(2, ((("X", (0,)),), (("CNOT", (0, 1)),)))
for backend in ("dense", "fast"):
    dv.sample(model, flip, 50, 4, backend)
tomography.qst(tomography.qst_dataset(model, flip, 100, 5), 2, method="linear")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_fit_free_runs_leave_out_scipy():
    assert _fresh(FIT_FREE_RUNS) == "[]"


FIRST_FIT = """
import sys
from qcvv import rb
before = "scipy" in sys.modules
fit = rb.fit_decay([0, 4, 16, 32], [0.97, 0.88, 0.71, 0.60], [0.01, 0.012, 0.015, 0.02])
print(before, "scipy.optimize" in sys.modules, repr((fit.a, fit.f, fit.b, fit.f_err, fit.chi2, fit.chi2_pvalue)))
"""


def test_first_decay_fit_loads_scipy_and_matches_in_process():
    from qcvv import rb

    fit = rb.fit_decay([0, 4, 16, 32], [0.97, 0.88, 0.71, 0.60], [0.01, 0.012, 0.015, 0.02])
    want = repr((fit.a, fit.f, fit.b, fit.f_err, fit.chi2, fit.chi2_pvalue))
    assert _fresh(FIRST_FIT) == f"False True {want}"
